"""repro.sweep -- the parallel scale-sweep engine.

Three pieces:

* :mod:`repro.sweep.spec` -- declarative grids over (bug, cluster size,
  seed, mode, chaos schedule) with lossless JSON round-trips;
* :mod:`repro.sweep.cache` -- the persistent MemoDB store (one recording
  per scenario, written once, reloaded by every replay) and the
  content-addressed incremental result cache;
* :mod:`repro.sweep.executor` -- the multiprocessing fan-out that resolves
  every grid point from cache or execution, recordings first.

The ``repro sweep`` CLI subcommand is a thin front-end over
:func:`run_sweep`.
"""

from .cache import (
    CACHE_SCHEMA,
    SweepCache,
    code_digest,
    memo_identity_key,
    result_key,
)
from .executor import PointResult, SweepSummary, run_sweep
from .spec import MODES, SPEC_FORMAT, SweepPoint, SweepSpec

__all__ = [
    "CACHE_SCHEMA",
    "MODES",
    "PointResult",
    "SPEC_FORMAT",
    "SweepCache",
    "SweepPoint",
    "SweepSpec",
    "SweepSummary",
    "code_digest",
    "memo_identity_key",
    "result_key",
    "run_sweep",
]
