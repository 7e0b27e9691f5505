"""Simulation drivers: facade, experiment runner, canonical configs,
the on-disk result cache, the one run driver (``run_spec``) over plain
and sampled runs with their checkpoints, and the multiprocessing grid
executor."""

from .cache import ResultCache, fingerprint, spec_fingerprint
from .checkpoint import (CheckpointStore, PausableRun,
                         SimulationInterrupted, run_spec)
from .configs import (baseline_config, config_from_tag,
                      deep_pipeline_config, default_instructions)
from .parallel import RunReport, RunSpec, default_jobs, execute_specs
from .runner import ExperimentRunner
from .sampling import SampledRun, SampleSpec
from .simulator import (BUILTIN_POLICIES, SimulationResult, Simulator,
                        make_policy)

__all__ = [
    "BUILTIN_POLICIES",
    "CheckpointStore",
    "ExperimentRunner",
    "PausableRun",
    "ResultCache",
    "RunReport",
    "RunSpec",
    "SampleSpec",
    "SampledRun",
    "SimulationInterrupted",
    "SimulationResult",
    "Simulator",
    "baseline_config",
    "config_from_tag",
    "deep_pipeline_config",
    "default_instructions",
    "default_jobs",
    "execute_specs",
    "fingerprint",
    "make_policy",
    "run_spec",
    "spec_fingerprint",
]
