"""The benchmark's workloads: inputs made from the seed, the timed loop
of each, and the checks on the simulator's outputs.

Every workload runs the default cycle core (``REPRO_BACKEND`` is left
as the caller set it and recorded) through the repo's public entry
points, the way a user reaches them:

==================  ====================================================
``fullrun-ilp``     ``Simulator.run_benchmark`` on high-IPC programs
``fullrun-membound`` the same on memory-bound, mostly idle programs
``sampled-1m``      ``SampledRun`` over a 1M-instruction budget
``grid-cold``       ``run_all_experiments`` into an empty result cache
``grid-warm``       ``run_all_experiments`` from a filled result cache
``serve-closed``    ``repro serve`` driven by two closed-loop clients
==================  ====================================================

One operation ("op") is the unit a user waits for: one simulation, one
sampled run, one grid pass, one request.  ``measure`` repeats ops until
the time is up and returns the median op time, the simulated
instructions delivered per second, and every check that failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.experiments import full_grid, run_all_experiments
from repro.service.client import ServiceClient, ServiceError, ServiceTimeout
from repro.sim.cache import ResultCache, result_from_dict
from repro.sim.parallel import RunSpec, execute_specs
from repro.sim.runner import ExperimentRunner
from repro.sim.sampling import SampledRun
from repro.sim.simulator import BUILTIN_POLICIES, Simulator, resolve_backend
from repro.workloads.profiles import ALL_BENCHMARKS, get_profile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: per-scale budgets.  ``full`` is the benchmark; ``smoke`` is a tiny
#: budget for the self-test.  Full-run budgets keep one simulation
#: under a quarter second, so a run repeats every cell a dozen times.
SCALES: Dict[str, Dict[str, Any]] = {
    "full": {"ilp_instructions": 5000, "membound_instructions": 3000,
             "sampled_instructions": 1_000_000, "sample": "10x1000",
             "grid_instructions": 1000, "serve_instructions": 2000,
             "warmup_instructions": 2000, "setups": 5},
    "smoke": {"ilp_instructions": 400, "membound_instructions": 300,
              "sampled_instructions": 20_000, "sample": "4x200",
              "grid_instructions": 150, "serve_instructions": 300,
              "warmup_instructions": 200, "setups": 1},
}

#: the budgets a workload's outputs depend on; the reference records
#: them and is stale when they change
OUTPUT_BUDGETS = ("ilp_instructions", "membound_instructions",
                  "sampled_instructions", "sample", "grid_instructions",
                  "serve_instructions")

FULLRUN_POLICIES = ("base", "dcg", "plb-ext")
ILP_BENCHMARKS = ("gzip", "bzip2", "applu", "mesa")
MEMBOUND_BENCHMARKS = ("mcf", "lucas", "swim", "art")
SAMPLED_CELLS = (("gzip", "dcg"), ("mcf", "dcg"))
#: serve cells: default seed and budget, no ``width=`` tags (PLB-ext
#: deadlocks on a 4-wide machine; see the README's known bugs)
SERVE_TAGS = ("baseline", "deep", "window=64")
SERVE_WARMUP = ("int_alus=8", "gzip", "base")
SERVE_HIT_SHARE = 0.25
SERVE_CLIENTS = 2
SERVE_JOBS = 2
GRID_JOBS = 2

Cell = Tuple[str, ...]


def cell_key(cell: Sequence[str]) -> str:
    return "/".join(cell)


def outcome(result) -> List[Any]:
    """The simulated numbers a check compares: exact, never rounded."""
    return [result.cycles, result.instructions, result.total_saving]


def digest(data: Any) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def child_env(**extra: str) -> Dict[str, str]:
    """Environment for the benchmark's subprocesses: this checkout's
    ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                 if p])
    env.update(extra)
    return env


def output_budgets(scale: str) -> Dict[str, Any]:
    return {key: SCALES[scale][key] for key in OUTPUT_BUDGETS}


def load_reference(scale: str, path: str = REFERENCE_PATH
                   ) -> Optional[Dict[str, Any]]:
    """The reference outputs for ``scale``, or None when the budgets
    they were written for differ from the current ones."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        return None
    entry = data.get(scale)
    if entry is None or entry.get("budgets") != output_budgets(scale):
        return None
    return entry


@dataclass
class Measurement:
    """What one timed run produced.

    ``op_s`` and ``kips`` are built from medians, not means: the host
    shares its cores, and slow spells of a few seconds would move a
    mean by more than the regressions the benchmark has to catch.
    """

    latencies: List[float] = field(default_factory=list)
    op_s: float = 0.0              #: median time of one op
    kips: float = 0.0              #: k-instructions delivered per second
    instructions: int = 0          #: simulated instructions delivered
    wall_s: float = 0.0
    threads: int = 1               #: threads issuing ops concurrently
    failures: List[str] = field(default_factory=list)
    failed_ops: int = 0
    cycles: int = 0                #: cycles simulated in this process
    outputs: Dict[str, Any] = field(default_factory=dict)
    #: per-layer metrics the workload measures itself, by metric name
    layer: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        if len(self.failures) < 50:
            self.failures.append(message)


class Workload:
    """Base class: set-up, a timed loop of ops, clean-up."""

    name = ""

    def __init__(self, seed: int, scale: str, work_dir: str,
                 reference: str = REFERENCE_PATH) -> None:
        self.seed = seed
        self.scale = scale
        self.budget = SCALES[scale]
        self.work_dir = work_dir
        self.reference = load_reference(scale, reference)
        self.backend = resolve_backend()

    def setup(self) -> None:
        """Everything that runs before the first timed op."""

    def time_setup(self) -> float:
        """One set-up in a fresh process, timed from spawn to ready."""
        command = [sys.executable, os.path.join(HERE, "run.py"),
                   "--probe", self.name, "--seed", str(self.seed),
                   "--scale", self.scale]
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                              env=child_env(), cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {self.name} failed "
                               f"(exit {code})")
        return elapsed

    def prepare(self) -> None:
        """Untimed, untraced work between set-up and measurement."""

    def measure(self, seconds: float, tracer) -> Measurement:
        raise NotImplementedError

    def close(self) -> None:
        """Stop whatever the workload started."""

    # -- helpers shared by the simulation workloads -----------------------

    def trace_seed(self, benchmark: str) -> int:
        """Fullrun/sampled cells draw their traces from the profile's
        seed shifted by the benchmark seed."""
        return get_profile(benchmark).seed + self.seed

    def _warm_up(self) -> None:
        sim = Simulator()
        sim.run_benchmark("gzip", "dcg",
                          instructions=self.budget["warmup_instructions"])

    def _check_reference(self, m: Measurement, section: str, key: str,
                         got: List[Any]) -> bool:
        """Compare against the committed reference (seed 0 only)."""
        if self.seed != 0:
            return True
        if self.reference is None:
            m.fail("no reference for these budgets; run --write-reference")
            return False
        want = self.reference[section].get(key)
        if want != got:
            m.fail(f"{key}: got {got}, reference {want}")
            return False
        return True


# ---------------------------------------------------------------------------
# full and sampled runs
# ---------------------------------------------------------------------------

class CellRounds(Workload):
    """Rounds over the workload's (benchmark, policy) cells; an op is
    one cell's run.

    Cells differ in cost by up to 4x, so a median over all ops would
    sit in a gap between clusters.  Each cell's time is instead the
    median over rounds (per part: the sampled runs time each of their
    intervals), and the op time is the median over cells.
    """

    section = ""                   #: key of the reference section

    def cells(self) -> Sequence[Cell]:
        raise NotImplementedError

    def run_cell(self, cell: Cell, tracer):
        """``(result, seconds of each part)`` of one run of ``cell``."""
        raise NotImplementedError

    def outputs_of(self, result) -> List[Any]:
        return outcome(result)

    def expected_instructions(self) -> int:
        raise NotImplementedError

    def measure(self, seconds: float, tracer) -> Measurement:
        m = Measurement()
        first: Dict[str, List[Any]] = {}
        parts: Dict[Cell, List[List[float]]] = {}
        sums = {"l1d_misses": 0, "l1d_accesses": 0, "mispredict": 0.0,
                "results": 0, "ff_ops": 0, "ci_pts": 0.0}
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            for cell in self.cells():
                op_start = time.perf_counter()
                try:
                    result, times = self.run_cell(cell, tracer)
                except Exception as exc:      # noqa: BLE001 - counted
                    m.latencies.append(time.perf_counter() - op_start)
                    m.failed_ops += 1
                    m.fail(f"{cell_key(cell)}: {type(exc).__name__}: {exc}")
                    traceback.print_exc()
                    continue
                m.latencies.append(time.perf_counter() - op_start)
                for index, seconds_part in enumerate(times):
                    parts.setdefault(cell, [[] for _ in times])[index].append(
                        seconds_part)
                if not self._check(m, cell, result, first):
                    m.failed_ops += 1
                m.instructions += result.instructions
                m.cycles += result.stats.cycles
                cache = result.stats.cache_stats.get("L1D", {})
                sums["l1d_misses"] += int(cache.get("misses", 0))
                sums["l1d_accesses"] += int(cache.get("accesses", 0))
                sums["mispredict"] += result.stats.mispredict_rate
                sums["results"] += 1
                if result.sample:
                    sums["ff_ops"] += (result.instructions
                                       - result.sampled_instructions)
                    low, high = result.confidence["total_saving"]
                    sums["ci_pts"] += (high - low) / 2 * 100
        m.wall_s = time.perf_counter() - start
        m.outputs = first
        cell_s = [sum(median(part) for part in cell_parts)
                  for cell_parts in parts.values()]
        if cell_s:
            m.op_s = median(cell_s)
            m.kips = (len(cell_s) * self.expected_instructions()
                      / sum(cell_s) / 1000.0)
        results = sums["results"] or 1
        m.notes["ff_ops"] = sums["ff_ops"]
        m.layer.update({
            "memory.l1d_miss_rate": (sums["l1d_misses"] / sums["l1d_accesses"]
                                     if sums["l1d_accesses"] else 0.0),
            "frontend.mispredict_rate": sums["mispredict"] / results,
            "sim.sampling.ci_pts": sums["ci_pts"] / results})
        return m

    def _check(self, m: Measurement, cell: Cell, result,
               first: Dict[str, List[Any]]) -> bool:
        key = cell_key(cell)
        got = self.outputs_of(result)
        ok = True
        if (result.instructions < self.expected_instructions()
                or not 0.0 <= result.total_saving < 1):
            m.fail(f"{key}: implausible result {got}")
            ok = False
        if key in first:
            if first[key] != got:
                m.fail(f"{key}: differs between rounds: {first[key]} "
                       f"then {got}")
                ok = False
            return ok
        first[key] = got
        ok = self._check_reference(m, self.section, key, got) and ok
        # the paper's contract: DCG never costs a cycle against base
        benchmark, policy = cell
        pair = {"base": "dcg", "dcg": "base"}.get(policy)
        other = first.get(cell_key((benchmark, pair))) if pair else None
        if other is not None and other[0] != got[0]:
            m.fail(f"{benchmark}: DCG cycles differ from base cycles "
                   f"({got[0]} vs {other[0]})")
            ok = False
        return ok


class FullRun(CellRounds):
    """Full runs of every (benchmark, policy) cell per op."""

    section = "fullrun"
    benchmarks: Tuple[str, ...] = ()
    budget_key = ""

    def setup(self) -> None:
        self.sim = Simulator()
        self._warm_up()

    def cells(self) -> Sequence[Cell]:
        return [(b, p) for b in self.benchmarks for p in FULLRUN_POLICIES]

    def expected_instructions(self) -> int:
        return self.budget[self.budget_key]

    def run_cell(self, cell: Cell, tracer):
        benchmark, policy = cell
        start = time.perf_counter()
        result = self.sim.run_benchmark(
            benchmark, policy, instructions=self.budget[self.budget_key],
            seed=self.trace_seed(benchmark))
        return result, [time.perf_counter() - start]


class FullRunILP(FullRun):
    name = "fullrun-ilp"
    benchmarks = ILP_BENCHMARKS
    budget_key = "ilp_instructions"


class FullRunMembound(FullRun):
    name = "fullrun-membound"
    benchmarks = MEMBOUND_BENCHMARKS
    budget_key = "membound_instructions"


class Sampled(CellRounds):
    """One interval-sampled 1M-instruction run of each program per op."""

    name = "sampled-1m"
    section = "sampled"

    def setup(self) -> None:
        self._warm_up()

    def cells(self) -> Sequence[Cell]:
        return SAMPLED_CELLS

    def expected_instructions(self) -> int:
        return self.budget["sampled_instructions"]

    def outputs_of(self, result) -> List[Any]:
        return outcome(result) + list(result.confidence["total_saving"])

    def run_cell(self, cell: Cell, tracer):
        """One sampled run, timed per interval (fast-forward plus its
        measurement window) so a slow spell spoils few samples."""
        benchmark, policy = cell
        times: List[float] = []
        with tracer.span("sampled-run", "sim.sampling", cell=cell_key(cell)):
            start = time.perf_counter()
            run = SampledRun(benchmark, policy,
                             self.budget["sampled_instructions"],
                             self.budget["sample"],
                             seed=self.trace_seed(benchmark))
            while not run.done:
                run.run_window()
                now = time.perf_counter()
                times.append(now - start)
                start = now
            result = run.result()
            times[-1] += time.perf_counter() - start
        return result, times


# ---------------------------------------------------------------------------
# the report grid
# ---------------------------------------------------------------------------

def grid_outputs(results) -> Dict[str, Any]:
    """Digest of every figure's measured values, and the mean distance
    to the paper's numbers in percentage points."""
    errors = [abs(value - result.paper[name]) * 100
              for result in results
              for name, value in result.measured.items()
              if name in result.paper]
    measured = {result.figure_id: result.measured for result in results}
    return {"digest": digest(measured),
            "paper_err_pts": sum(errors) / len(errors)}


class Grid(Workload):
    """Every figure of the paper from one ``run_all_experiments`` call
    per op.  The grid is the paper's fixed one, so the seed does not
    change it and its outputs are checked at every seed."""

    cold = True
    warm_dir: Optional[str] = None

    def setup(self) -> None:
        self._warm_up()

    def prepare(self) -> None:
        """The warm grid reads a cache one untimed cold pass filled."""
        if not self.cold:
            self.warm_dir = tempfile.mkdtemp(prefix="grid-",
                                             dir=self.work_dir)
            start = time.perf_counter()
            self.grid_pass(self.warm_dir)
            self.fill_s = time.perf_counter() - start

    def grid_pass(self, cache_dir: str, progress=None):
        runner = ExperimentRunner(
            instructions=self.budget["grid_instructions"], jobs=GRID_JOBS,
            cache=ResultCache(cache_dir), progress=progress)
        return run_all_experiments(runner)

    def _check(self, m: Measurement, got: Dict[str, Any]) -> bool:
        if "grid" not in m.outputs:
            m.outputs["grid"] = got
            if self.reference is None:
                m.fail("no reference for these budgets; "
                       "run --write-reference")
                return False
            if self.reference["grid"] != got:
                m.fail(f"grid: got {got}, reference "
                       f"{self.reference['grid']}")
                return False
            return True
        if m.outputs["grid"] != got:
            m.fail(f"grid: differs between passes: {got}")
            return False
        return True

    def measure(self, seconds: float, tracer) -> Measurement:
        m = Measurement()
        per_pass = len(full_grid()) * self.budget["grid_instructions"]
        spec_seconds: List[float] = []

        def progress(report) -> None:
            if report.source == "run":
                spec_seconds.append(report.seconds)

        start = time.perf_counter()
        deadline = start + seconds
        passes = 0
        cleanup = 0.0
        while True:
            cache_dir = self.warm_dir or tempfile.mkdtemp(
                prefix="grid-", dir=self.work_dir)
            tracer.new_trace()
            op_start = time.perf_counter()
            try:
                with tracer.span("grid-pass", "analysis",
                                 cold=self.cold):
                    results = self.grid_pass(cache_dir, progress)
            except Exception as exc:          # noqa: BLE001 - counted
                m.latencies.append(time.perf_counter() - op_start)
                m.failed_ops += 1
                m.fail(f"grid pass: {type(exc).__name__}: {exc}")
                traceback.print_exc()
            else:
                m.latencies.append(time.perf_counter() - op_start)
                if not self._check(m, grid_outputs(results)):
                    m.failed_ops += 1
                m.instructions += per_pass
            passes += 1
            if self.cold:
                # removing the pass's cache is clean-up, not grid work
                pause = time.perf_counter()
                shutil.rmtree(cache_dir, ignore_errors=True)
                cleanup += time.perf_counter() - pause
            if time.perf_counter() - cleanup >= deadline:
                break
        m.wall_s = time.perf_counter() - start - cleanup
        m.op_s = median(m.latencies)
        m.kips = per_pass / m.op_s / 1000.0
        if spec_seconds:
            m.layer["sim.parallel.busy_frac"] = (
                sum(spec_seconds) / (GRID_JOBS * sum(m.latencies)))
            m.layer["sim.parallel.spec_s_p50"] = median(spec_seconds)
        m.notes["passes"] = passes
        if not self.cold:
            m.notes["fill_s"] = self.fill_s
        m.layer["analysis.paper_err_pts"] = m.outputs.get("grid", {}).get(
            "paper_err_pts", 0.0)
        return m


class GridCold(Grid):
    name = "grid-cold"
    cold = True


class GridWarm(Grid):
    name = "grid-warm"
    cold = False


# ---------------------------------------------------------------------------
# the service
# ---------------------------------------------------------------------------

def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ServerProcess:
    """One ``python -m repro serve`` child with its own cache dir."""

    def __init__(self, work_dir: str, instructions: int) -> None:
        self.work_dir = work_dir
        self.instructions = instructions
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""
        self.cache_dir = ""

    def start(self, timeout: float = 60.0) -> None:
        self.cache_dir = tempfile.mkdtemp(prefix="serve-", dir=self.work_dir)
        port = free_port()
        self.url = f"http://127.0.0.1:{port}"
        log = open(os.path.join(self.cache_dir, "server.log"), "w")
        with log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--jobs", str(SERVE_JOBS), "--port", str(port),
                 "--instructions", str(self.instructions)],
                stdout=subprocess.DEVNULL, stderr=log, cwd=ROOT,
                env=child_env(REPRO_CACHE_DIR=os.path.join(
                    self.cache_dir, "cache")))
        probe = ServiceClient(self.url, retries=0, timeout=2.0)
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.proc.returncode}; "
                    f"see {self.cache_dir}/server.log")
            try:
                probe.healthz()
                return
            except ServiceError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def stop(self) -> None:
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=15)
            self.proc = None
        if self.cache_dir:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = ""


def serve_plan(seed: int, length: int = 20_000) -> List[Cell]:
    """The request sequence: fresh cells in a seeded order, with a
    quarter of the requests repeating a cell requested before."""
    rng = random.Random(seed)
    fresh = [(tag, b, p) for tag in SERVE_TAGS for b in ALL_BENCHMARKS
             for p in BUILTIN_POLICIES]
    rng.shuffle(fresh)
    plan: List[Cell] = []
    issued: List[Cell] = []
    while len(plan) < length:
        if fresh and (not issued or rng.random() >= SERVE_HIT_SHARE):
            cell = fresh.pop()
            issued.append(cell)
        else:
            cell = rng.choice(issued)
        plan.append(cell)
    return plan


class Serve(Workload):
    name = "serve-closed"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.server: Optional[ServerProcess] = None

    def setup(self) -> None:
        if self.server is None:
            self._boot()

    def time_setup(self) -> float:
        """Spawning the server *is* the spawn-to-ready interval; the
        server stays up for the measurement."""
        self.close()
        start = time.perf_counter()
        self._boot()
        return time.perf_counter() - start

    def _boot(self) -> None:
        """Start a server and answer one warm-up request."""
        self.server = ServerProcess(self.work_dir,
                                    self.budget["serve_instructions"])
        for attempt in range(3):
            try:
                self.server.start()
                break
            except RuntimeError:
                # another process took the free port before the server
                # bound it; try a new one
                self.server.stop()
                if attempt == 2:
                    raise
        tag, benchmark, policy = SERVE_WARMUP
        client = ServiceClient(self.server.url, timeout=60.0)
        job = client.submit_one(benchmark=benchmark, policy=policy, tag=tag)
        client.result(job["id"], timeout=120.0)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def measure(self, seconds: float, tracer) -> Measurement:
        m = Measurement(threads=SERVE_CLIENTS)
        plan = serve_plan(self.seed)
        lock = threading.Lock()
        state = {"next": 0}
        misses: List[Tuple[float, float]] = []   # (latency, job seconds)
        hits: List[float] = []
        reference = (self.reference or {}).get("serve")
        url = self.server.url
        metrics_before = ServiceClient(url).metrics()
        start = time.perf_counter()
        deadline = start + seconds

        def client_loop(index: int) -> None:
            client = ServiceClient(url, timeout=60.0, seed=self.seed + index)
            while time.perf_counter() < deadline:
                with lock:
                    cell = plan[state["next"] % len(plan)]
                    state["next"] += 1
                tag, benchmark, policy = cell
                key = cell_key(cell)
                tracer.new_trace()
                op_start = time.perf_counter()
                error = None
                try:
                    with tracer.span("request", "service", cell=key):
                        job = client.submit([{"benchmark": benchmark,
                                              "policy": policy,
                                              "tag": tag}])[0]
                        payload = self._wait(client, job["id"])
                except ServiceError as exc:
                    error = f"{key}: {type(exc).__name__}: {exc}"
                latency = time.perf_counter() - op_start
                with lock:
                    m.latencies.append(latency)
                    if error is not None:
                        m.failed_ops += 1
                        m.fail(error)
                        continue
                    result = result_from_dict(payload["result"])
                    got = outcome(result)
                    want = reference.get(key) if reference else None
                    if want != got:
                        m.failed_ops += 1
                        m.fail(f"{key}: got {got}, reference {want}")
                    m.outputs[key] = got
                    m.instructions += result.instructions
                    record = payload["job"]
                    if record["source"] == "run":
                        misses.append((latency, record["seconds"] or 0.0))
                    else:
                        hits.append(latency)

        threads = [threading.Thread(target=client_loop, args=(i,),
                                    name=f"bench-client-{i}")
                   for i in range(SERVE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 180)
        m.wall_s = time.perf_counter() - start
        m.op_s = median(m.latencies)
        # requests deliver whole 2k-instruction results, so a median
        # over short windows would move in steps; use the whole run
        m.kips = m.instructions / m.wall_s / 1000.0
        if any(thread.is_alive() for thread in threads):
            m.fail("a client thread did not finish")
            m.failed_ops += 1
        after = ServiceClient(url).metrics()
        simulated = after["simulated"] - metrics_before["simulated"]
        served = simulated + sum(
            after[k] - metrics_before[k]
            for k in ("cache_hits_memory", "cache_hits_disk"))
        sim_seconds = (after["sim_seconds_total"]
                       - metrics_before["sim_seconds_total"])
        m.layer["service.busy_frac"] = sim_seconds / (SERVE_JOBS * m.wall_s)
        m.layer["service.hit_ratio"] = ((served - simulated) / served
                                        if served else 0.0)
        if misses:
            m.layer["service.overhead_ms_p50"] = median(
                (lat - sec) * 1000 for lat, sec in misses)
            m.layer["service.compute_s_p50"] = median(
                sec for _, sec in misses)
        if hits:
            m.layer["service.hit_ms_p50"] = median(hits) * 1000
        m.notes.update(requests=len(m.latencies), misses=len(misses),
                       hits=len(hits))
        return m

    @staticmethod
    def _wait(client: ServiceClient, job_id: str) -> Dict[str, Any]:
        """Long-poll one job's result, as ``repro submit --wait`` does."""
        give_up = time.monotonic() + 120.0
        while True:
            try:
                return client.result_payload(job_id, timeout=30.0)
            except ServiceTimeout:
                if time.monotonic() > give_up:
                    raise


WORKLOADS = {cls.name: cls for cls in (FullRunILP, FullRunMembound, Sampled,
                                       GridCold, GridWarm, Serve)}


# ---------------------------------------------------------------------------
# reference outputs
# ---------------------------------------------------------------------------

def compute_reference(scale: str, work_dir: str) -> Dict[str, Any]:
    """Every output the checks compare against, at seed 0."""
    budget = SCALES[scale]
    sim = Simulator()
    fullrun = {}
    for benchmarks, key in ((ILP_BENCHMARKS, "ilp_instructions"),
                            (MEMBOUND_BENCHMARKS, "membound_instructions")):
        for b in benchmarks:
            for p in FULLRUN_POLICIES:
                result = sim.run_benchmark(b, p, instructions=budget[key],
                                           seed=get_profile(b).seed)
                fullrun[cell_key((b, p))] = outcome(result)
    sampled = {}
    for b, p in SAMPLED_CELLS:
        result = SampledRun(b, p, budget["sampled_instructions"],
                            budget["sample"], seed=get_profile(b).seed).run()
        sampled[cell_key((b, p))] = (outcome(result)
                                     + list(result.confidence["total_saving"]))
    cache_dir = tempfile.mkdtemp(prefix="reference-", dir=work_dir)
    try:
        runner = ExperimentRunner(instructions=budget["grid_instructions"],
                                  jobs=GRID_JOBS, cache=ResultCache(cache_dir))
        grid = grid_outputs(run_all_experiments(runner))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    cells = [(tag, b, p) for tag in SERVE_TAGS for b in ALL_BENCHMARKS
             for p in BUILTIN_POLICIES]
    specs = [RunSpec(tag=tag, benchmark=b, policy=p,
                     instructions=budget["serve_instructions"],
                     seed=get_profile(b).seed) for tag, b, p in cells]
    results = execute_specs(specs, jobs=GRID_JOBS)
    serve = {cell_key(cell): outcome(result)
             for cell, result in zip(cells, results)}
    return {"budgets": output_budgets(scale), "fullrun": fullrun, "sampled": sampled,
            "grid": grid, "serve": serve}
