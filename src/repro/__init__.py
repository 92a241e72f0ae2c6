"""repro: a reproduction of "Scalability Bugs: When 100-Node Testing is Not
Enough" (Leesatapornwongsa et al., HotOS '17).

The package implements *scale check* -- finding and replaying scalability
bugs at real scale on a single machine via the processing illusion (PIL) --
together with every substrate the paper's evaluation needs:

* :mod:`repro.sim`       -- deterministic discrete-event simulation kernel
  with explicit CPU-contention and memory models;
* :mod:`repro.cassandra` -- a Cassandra-like gossip/membership system with
  the historical buggy code paths (CASSANDRA-3831/3881/5456/6127);
* :mod:`repro.core`      -- the contribution: offending-function finder,
  PIL memoization and replay, colocation analysis;
* :mod:`repro.study`     -- the 38-bug scalability-bug study;
* :mod:`repro.bench`     -- harnesses regenerating every paper figure/table.

Quickstart::

    from repro import ScaleCheck

    check = ScaleCheck(bug_id="c3831", nodes=64)
    reports = check.compare_modes()          # Real vs Colo vs SC+PIL
    for mode, report in reports.items():
        print(mode, report.flaps, "flaps")
"""

from .annotations import (
    REGISTRY,
    AnnotationRegistry,
    ScaleDepAnnotation,
    pil_safe,
    pil_unsafe,
    scale_dependent,
)
from .cassandra import (
    Cluster,
    ClusterConfig,
    Mode,
    RunReport,
    ScenarioParams,
    all_bugs,
    get_bug,
)
from .core import (
    ColocationAnalyzer,
    Finder,
    FinderReport,
    Instrumenter,
    MemoDB,
    MissPolicy,
    PilFunction,
    ReplayHarness,
    ScaleCheck,
    ScaleCheckResult,
    find_offending,
    pil_wrap,
)
from .sweep import SweepPoint, SweepSpec, SweepSummary, run_sweep

__version__ = "1.0.0"

__all__ = [
    "AnnotationRegistry",
    "Cluster",
    "ClusterConfig",
    "ColocationAnalyzer",
    "Finder",
    "FinderReport",
    "Instrumenter",
    "MemoDB",
    "MissPolicy",
    "Mode",
    "PilFunction",
    "REGISTRY",
    "ReplayHarness",
    "RunReport",
    "ScaleCheck",
    "ScaleCheckResult",
    "ScaleDepAnnotation",
    "ScenarioParams",
    "SweepPoint",
    "SweepSpec",
    "SweepSummary",
    "run_sweep",
    "all_bugs",
    "find_offending",
    "get_bug",
    "pil_safe",
    "pil_unsafe",
    "pil_wrap",
    "scale_dependent",
    "__version__",
]
