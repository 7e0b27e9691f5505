"""End-to-end benchmark of the DCG reproduction.

One run measures one workload for a fixed time and prints every metric
by name with its unit; the last line of stdout is one JSON object::

    python3 e2ebench/run.py --workload fullrun-ilp --seed 0 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload under the class-level tracer
(``tracer.py``) and reports the per-layer metrics instead.

Other modes:

``--all``              every workload, each in a fresh subprocess; writes
                       a set report (``--out``) and, with ``--trace 1``, the
                       traced numbers, the tracing overhead and a merged
                       trace file (``--trace-out``)
``--compare A B``      per (metric, workload) medians of two set reports,
                       their relative change and whether it is within the
                       metric's bound; simulated outputs must be equal
``--write-reference``  recompute ``reference.json`` (outputs at seed 0)

Run it from the repository root; it imports the simulator from
``src/`` next to this directory and writes only under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
WORK_ROOT = os.path.join(ROOT, ".bench_work")


def _bootstrap() -> Dict[str, Any]:
    """Import the simulator from this checkout, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"e2ebench: no simulator sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    try:
        with open(SPEC_PATH, encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"e2ebench: cannot read {SPEC_PATH}: {exc}", file=sys.stderr)
        sys.exit(2)
    # measure the defaults: drop every REPRO_* knob except the backend
    # choice, which is recorded in the report
    for name in [k for k in os.environ
                 if k.startswith("REPRO_") and k != "REPRO_BACKEND"]:
        del os.environ[name]
    os.makedirs(WORK_ROOT, exist_ok=True)
    os.environ["TMPDIR"] = WORK_ROOT
    tempfile.tempdir = WORK_ROOT
    sys.path[:0] = [SRC, ROOT]
    return spec


SPEC = _bootstrap()

import repro  # noqa: E402

if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
    print(f"e2ebench: imported repro from {repro.__file__}, not {SRC}",
          file=sys.stderr)
    sys.exit(2)

from e2ebench.tracer import LAYERS, Tracer, install_repo_targets  # noqa: E402
from e2ebench.workloads import (REFERENCE_PATH, SCALES,  # noqa: E402
                                WORKLOADS, Measurement, compute_reference,
                                percentile)

TRACER = Tracer()

E2E = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    """The larger of this process's and its reaped children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def e2e_values(m: Measurement, setup_times: List[float]) -> Dict[str, float]:
    return {
        "sim_kips": m.kips,
        "op_p50_ms": m.op_s * 1000.0,
        "setup_s": median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }


def tail(latencies: List[float]) -> Tuple[float, float]:
    """``(q, value)`` of the highest percentile with ten or more
    samples beyond it (the median when there are too few ops)."""
    n = len(latencies)
    q = max(0.5, 1.0 - 10.0 / n) if n else 0.5
    return q, percentile(latencies, q)


def layer_values(tracer: Tracer, m: Measurement) -> Dict[str, float]:
    """Per-layer metrics: the tracer's, then the workload's own; a
    metric of a layer the workload does not use reads 0."""
    totals = tracer.layer_totals()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    denominator = m.wall_s * m.threads

    def layer(name: str) -> Dict[str, float]:
        return totals.get(name, empty)

    def share(name: str) -> float:
        return layer(name)["self_s"] / denominator

    def ns_per(name: str, count: float) -> float:
        return layer(name)["self_s"] * 1e9 / count if count else 0.0

    def per_kinstr(count: float) -> float:
        return count * 1000.0 / m.instructions if m.instructions else 0.0

    def ms_p50(layer_name: str, method: str) -> float:
        durations = tracer.method_durations(layer_name, method)
        return median(durations) * 1000.0 if durations else 0.0

    covered = sum(share(name) for name in LAYERS)
    gets, hits = tracer.method_outcomes("sim.cache", "ResultCache.get")
    passes = m.notes.get("passes", 0)
    ff_ops = m.notes.get("ff_ops", 0)
    values = {f"{name}.self_share": share(name) for name in LAYERS}
    values.update({
        "workloads.ns_per_op": ns_per("workloads", layer("workloads")["calls"]),
        "pipeline.ns_per_cycle": ns_per("pipeline", m.cycles),
        "core.ns_per_call": ns_per("core", layer("core")["calls"]),
        "power.ns_per_call": ns_per("power", layer("power")["calls"]),
        "memory.calls_per_kinstr": per_kinstr(layer("memory")["calls"]),
        "frontend.calls_per_kinstr": per_kinstr(layer("frontend")["calls"]),
        "sim.sampling.ff_ns_per_op": ns_per("sim.sampling", ff_ops),
        "sim.sampling.window_share": (
            layer("pipeline")["total_s"] / denominator if ff_ops else 0.0),
        "sim.cache.get_ms_p50": ms_p50("sim.cache", "ResultCache.get"),
        "sim.cache.put_ms_p50": ms_p50("sim.cache", "ResultCache.put"),
        "sim.cache.hit_ratio": hits / gets if gets else 0.0,
        "analysis.self_s": (layer("analysis")["self_s"] / passes
                            if passes else 0.0),
        "service.submit_ms_p50": ms_p50("service", "ServiceClient.submit"),
        "harness.self_share": max(0.0, 1.0 - covered),
        "trace.covered_share": covered,
    })
    values.update(m.layer)
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    return {name: values.get(name, 0.0) for name in PER_LAYER}


def select(values: Dict[str, float], spec: Dict[str, Dict[str, Any]]
           ) -> Dict[str, Dict[str, Any]]:
    """Exactly the metrics ``BENCHMARK.json`` names, with their units."""
    return {name: {"value": values[name], "unit": entry["unit"]}
            for name, entry in spec.items()}


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(args: argparse.Namespace) -> int:
    workload_cls = WORKLOADS[args.workload]
    traced = bool(args.trace)
    if traced:
        # class-level wrapping has to precede every simulator object
        install_repo_targets(TRACER)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    workload = workload_cls(args.seed, args.scale, work_dir, args.reference)
    setups = SCALES[args.scale]["setups"]
    try:
        # half the set-ups before the measurement and half after, so one
        # slow spell of the host does not move them all
        setup_times = [workload.time_setup()
                       for _ in range((setups + 1) // 2)]
        workload.setup()
        workload.prepare()
        TRACER.reset()
        TRACER.enabled = traced
        try:
            m = workload.measure(args.seconds, TRACER)
        finally:
            TRACER.enabled = False
        setup_times += [workload.time_setup() for _ in range(setups // 2)]
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    e2e = e2e_values(m, setup_times)
    layers = layer_values(TRACER, m) if traced else {}
    failed = max(m.failed_ops, 1 if m.failures else 0)
    n = len(m.latencies)
    for message in m.failures:
        print(f"FAIL {message}")
    print(f"workload {args.workload}  seed {args.seed}  scale {args.scale}  "
          f"backend {workload.backend}  traced {traced}")
    q, tail_s = tail(m.latencies)
    print(f"ops {n}  failed {failed}  setups {len(setup_times)}  "
          f"op latency p50 {percentile(m.latencies, 0.5) * 1000:.4g} ms, "
          f"p{q * 100:.0f} {tail_s * 1000:.4g} ms (n={n})")
    shown = layers if traced else e2e
    spec = PER_LAYER if traced else E2E
    for name, entry in spec.items():
        print(f"  {name:28s} {shown[name]:14.6g} {entry['unit']}")
    if args.report:
        report = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "scale": args.scale,
            "backend": workload.backend, "traced": traced,
            "ops": n, "failed": failed, "failures": m.failures,
            "setup_times_s": setup_times, "wall_s": m.wall_s,
            "latencies_s": m.latencies, "tail": {"q": q, "s": tail_s},
            "e2e": e2e, "layers": layers, "notes": m.notes,
            "outputs": m.outputs,
        }
        _write_json(args.report, report)
    if traced:
        trace_file = args.trace_file or os.path.join(
            WORK_ROOT, f"TRACE_{args.workload}-seed{args.seed}.json")
        _write_json(trace_file, {"workload": args.workload,
                                 "seed": args.seed,
                                 "backend": workload.backend,
                                 "wall_s": m.wall_s, "layers": layers,
                                 **TRACER.dump()})
    result = {"correct": failed == 0, "attempted": max(n, 1),
              "failed": failed, "metrics": select(shown, spec)}
    print(json.dumps(result))
    return 0


def run_probe(args: argparse.Namespace) -> int:
    """Child side of a set-up measurement: set up, say ready, exit."""
    work_dir = tempfile.mkdtemp(prefix="probe-", dir=WORK_ROOT)
    workload = WORKLOADS[args.probe](args.seed, args.scale, work_dir)
    try:
        workload.setup()
        print("ready", flush=True)
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


# ---------------------------------------------------------------------------
# every workload, compare, reference
# ---------------------------------------------------------------------------

def _write_json(path: str, data: Any) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _child(workload: str, args: argparse.Namespace, trace: int,
           scratch: str) -> Dict[str, Any]:
    report = os.path.join(scratch, f"{workload}-{trace}.json")
    trace_file = os.path.join(scratch, f"{workload}-trace.json")
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--scale", args.scale, "--reference", args.reference,
               "--report", report,
               "--trace-file", trace_file]
    proc = subprocess.run(command, capture_output=True, text=True,
                          cwd=ROOT, timeout=900)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} (trace {trace}) exited with "
                           f"{proc.returncode}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(report, encoding="utf-8") as handle:
        data = json.load(handle)
    data["result"] = last
    if trace:
        with open(trace_file, encoding="utf-8") as handle:
            data["trace"] = json.load(handle)
    return data


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median (the
    range, below four values)."""
    ordered = sorted(values)
    if len(ordered) >= 4:
        low, high = percentile(ordered, 0.25), percentile(ordered, 0.75)
    else:
        low, high = ordered[0], ordered[-1]
    middle = median(ordered)
    return (high - low) / middle if middle else 0.0


def run_all(args: argparse.Namespace) -> int:
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    scratch = tempfile.mkdtemp(prefix="all-", dir=WORK_ROOT)
    tag = args.tag
    out = {"tag": tag, "seed": args.seed, "seconds": args.seconds,
           "scale": args.scale, "repeat": args.repeat,
           "created_unix": time.time(), "python": platform.python_version(),
           "platform": platform.platform(), "cpus": os.cpu_count(),
           "workloads": {}}
    traces: Dict[str, Any] = {}
    try:
        for name in names:
            runs = [_child(name, args, 0, scratch)
                    for _ in range(args.repeat)]
            failures = [f for run in runs for f in run["failures"]]
            outputs: Dict[str, Any] = {}
            for run in runs:
                if not outputs_agree(outputs, run["outputs"])[1]:
                    failures.append("outputs differ between runs")
                outputs.update(run["outputs"])
            record = {
                "backend": runs[0]["backend"],
                "correct": (not failures
                            and all(r["result"]["correct"] for r in runs)),
                "ops": [run["ops"] for run in runs],
                "runs": [run["e2e"] for run in runs],
                "e2e": {metric: median(run["e2e"][metric] for run in runs)
                        for metric in E2E},
                "tail": [run["tail"] for run in runs],
                "notes": [run["notes"] for run in runs],
                "failures": failures, "outputs": outputs}
            if args.trace:
                traced = _child(name, args, 1, scratch)
                record["traced_e2e"] = traced["e2e"]
                record["layers"] = traced["layers"]
                record["tracing_overhead"] = {
                    metric: traced["e2e"][metric] / record["e2e"][metric] - 1
                    for metric in ("sim_kips", "op_p50_ms")}
                if not outputs_agree(outputs, traced["outputs"])[1]:
                    failures.append("traced and untraced outputs differ")
                    record["correct"] = False
                traces[name] = traced["trace"]
            out["workloads"][name] = record
            print(_summary_line(name, record), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    out_path = args.out or os.path.join(WORK_ROOT, f"BENCH_{tag}.json")
    _write_json(out_path, out)
    print(f"wrote {out_path}")
    if args.trace:
        trace_path = args.trace_out or os.path.join(WORK_ROOT,
                                                    f"TRACE_{tag}.json")
        _write_json(trace_path, {"tag": tag, "seed": args.seed,
                                 "workloads": traces})
        print(f"wrote {trace_path}")
    bad = [name for name, record in out["workloads"].items()
           if not record["correct"]]
    if bad:
        print(f"incorrect outputs on: {', '.join(bad)}")
        return 1
    return 0


def outputs_agree(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[int, bool]:
    """``(cells both runs simulated, whether those outputs are equal)``;
    timed runs cover different numbers of cells."""
    shared = set(a) & set(b)
    return len(shared), all(a[key] == b[key] for key in shared)


def _summary_line(name: str, record: Dict[str, Any]) -> str:
    parts = [f"{name:17s} ok={record['correct']} ops={record['ops']}"]
    parts += [f"{metric}={value:.4g}" for metric, value in
              record["e2e"].items()]
    if "layers" in record:
        top = sorted(((value, key[:-len(".self_share")])
                      for key, value in record["layers"].items()
                      if key.endswith(".self_share")
                      and key != "harness.self_share"), reverse=True)[:3]
        parts.append("top " + ", ".join(f"{layer} {value:.0%}"
                                        for value, layer in top))
        parts.append(f"covered {record['layers']['trace.covered_share']:.0%}")
        parts.append("overhead " + ", ".join(
            f"{metric} {value:+.0%}"
            for metric, value in record["tracing_overhead"].items()))
    return "  ".join(parts)


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    print(f"A = {path_a} ({a['tag']}, {a['repeat']} runs), "
          f"B = {path_b} ({b['tag']}, {b['repeat']} runs); medians")
    print(f"{'workload':17s} {'metric':12s} {'A':>10s} {'B':>10s} "
          f"{'change':>8s} {'bound':>6s} {'spread A/B':>12s}  verdict")
    worst = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"{name:17s} missing from B")
            worst = 1
            continue
        ra, rb = a["workloads"][name], b["workloads"][name]
        for metric, entry in E2E.items():
            va, vb = ra["e2e"][metric], rb["e2e"][metric]
            change = (vb - va) / va if va else 0.0
            worse = -change if entry["better"] == "higher" else change
            ok = worse <= entry["bound"]
            worst = max(worst, 0 if ok else 1)
            spreads = "/".join(
                f"{spread([run[metric] for run in r['runs']]):.0%}"
                for r in (ra, rb))
            print(f"{name:17s} {metric:12s} {va:10.5g} {vb:10.5g} "
                  f"{change:+8.1%} {entry['bound']:6.0%} {spreads:>12s}  "
                  f"{'within' if ok else 'WORSE'}")
        shared, same = outputs_agree(ra["outputs"], rb["outputs"])
        worst = max(worst, 0 if same else 1)
        print(f"{name:17s} outputs: {shared} shared cells "
              f"{'identical' if same else 'DIFFER'}")
    return worst


def write_reference(args: argparse.Namespace) -> int:
    work_dir = tempfile.mkdtemp(prefix="reference-", dir=WORK_ROOT)
    try:
        data = {scale: compute_reference(scale, work_dir)
                for scale in SCALES}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    _write_json(args.reference, data)
    print(f"wrote {args.reference}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the DCG reproduction.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--reference", default=REFERENCE_PATH,
                        help="reference outputs to check against")
    parser.add_argument("--report", help="write the run's details here")
    parser.add_argument("--trace-file", help="write the run's trace here")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in a subprocess")
    parser.add_argument("--workloads", help="comma list for --all")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload for --all; medians are kept")
    parser.add_argument("--tag", default="local")
    parser.add_argument("--out", help="set report path for --all")
    parser.add_argument("--trace-out", help="merged trace path for --all")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--probe", choices=sorted(WORKLOADS),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.compare:
        return compare(*args.compare)
    if args.write_reference:
        return write_reference(args)
    if args.probe:
        return run_probe(args)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload, --all, --compare or --write-reference "
                     "is required")
    return run_workload(args)


def _terminate(signum, _frame) -> None:
    # unwind through the ``finally`` blocks that stop the server and
    # remove work directories
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)
    except Exception:                          # noqa: BLE001 - entry point
        traceback.print_exc()
        sys.exit(1)
