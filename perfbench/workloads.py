"""The benchmark's workloads, each one call into the public ``repro`` API.

A workload function takes the seed and returns an :class:`Outcome`: the
canonical digest of what the program produced, the reports it returned,
the correctness checks that hold for any seed, and a few figures worth
printing.  Sizes are fixed here; only the seed varies between runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List


@dataclass
class Outcome:
    """What one workload run produced."""

    digest: str
    reports: List = field(default_factory=list)
    checks: Dict[str, bool] = field(default_factory=dict)
    figures: Dict[str, float] = field(default_factory=dict)
    #: Wall seconds of named legs the workload times itself.
    legs: Dict[str, float] = field(default_factory=dict)
    #: Shard count of a partitioned run (0 otherwise).
    shards: int = 0


def _accounted(report) -> bool:
    return (report.messages_delivered + report.messages_dropped
            <= report.messages_sent)


# -- decommission -------------------------------------------------------------

#: The window is long enough for the first pending-range calculations the
#: LEAVING announcement triggers (3.9 virtual seconds each at N=256) to
#: finish inside it.
DECOMMISSION = dict(bug="c3831", nodes=256, warmup=2.0, observe=6.0,
                    leaving=2.0)


def decommission(seed: int) -> Outcome:
    """c3831 decommission at N=256, real mode, default cluster config."""
    from repro.cassandra.workloads import ScenarioParams
    from repro.core.scalecheck import ScaleCheck

    cfg = DECOMMISSION
    params = ScenarioParams(warmup=cfg["warmup"], observe=cfg["observe"],
                            leaving_duration=cfg["leaving"])
    report = ScaleCheck(cfg["bug"], nodes=cfg["nodes"], seed=seed,
                        params=params).run_real()
    return Outcome(
        digest=report.digest(),
        reports=[report],
        checks={
            "whole window simulated":
                abs(report.duration - cfg["warmup"] - cfg["observe"]) < 1e-9,
            "gossip delivered messages": report.messages_delivered > 0,
            "every node reported": report.nodes == cfg["nodes"],
            "pending ranges recalculated": len(report.calc_records) > 0,
            "message accounting": _accounted(report),
        },
        figures={"flaps": report.flaps, "messages": report.messages_sent,
                 "calcs": len(report.calc_records)},
    )


# -- traffic ------------------------------------------------------------------

TRAFFIC = dict(bug="c3831-fixed", nodes=32, users=1_000_000, shards=16,
               sample_cap=48, warmup=4.0, observe=8.0, crash_at=0.25,
               restart_at=0.6)


def traffic(seed: int) -> Outcome:
    """A million users on a storage-enabled N=32 ring; one replica crashes
    mid-window and restarts."""
    from repro.cassandra.cluster import Cluster, ClusterConfig, Mode, node_name
    from repro.cassandra.workloads import ScenarioParams
    from repro.faults.primitives import NodeCrash, NodeRestart
    from repro.faults.schedule import FaultSchedule
    from repro.workload import preset_spec, run_traffic

    cfg = TRAFFIC
    spec = dataclasses.replace(
        preset_spec("millionuser", users=cfg["users"]),
        shards=cfg["shards"], sample_cap=cfg["sample_cap"],
        read_fraction=0.7, read_cl="one", write_cl="quorum")
    params = ScenarioParams(warmup=cfg["warmup"], observe=cfg["observe"])
    victim = node_name(seed % cfg["nodes"])
    window = cfg["observe"]
    faults = FaultSchedule(events=[
        NodeCrash(time=cfg["warmup"] + cfg["crash_at"] * window, node=victim),
        NodeRestart(time=cfg["warmup"] + cfg["restart_at"] * window,
                    node=victim),
    ], name="replica-crash-restart")
    config = ClusterConfig.for_bug(cfg["bug"], cfg["nodes"], mode=Mode.REAL,
                                   seed=seed, enable_storage=True)
    report = run_traffic(Cluster(config), spec, params=params, faults=faults)
    outcomes = (report.requests_ok + report.requests_timeout
                + report.requests_unavailable)
    return Outcome(
        digest=report.digest(),
        reports=[report],
        checks={
            "every request has one outcome":
                abs(outcomes - report.requests_attempted)
                <= 1e-9 * max(1.0, report.requests_attempted),
            "requests were served": report.requests_ok > 0,
            "p50 <= p99": (report.latency_p50 is not None
                           and report.latency_p99 is not None
                           and report.latency_p50 <= report.latency_p99),
            "message accounting": _accounted(report),
        },
        figures={"requests": report.requests_attempted,
                 "timeouts": report.requests_timeout,
                 "p99_ms": 1000.0 * (report.latency_p99 or 0.0)},
    )


# -- pil_check ----------------------------------------------------------------

PIL_CHECK = dict(bug="c6127", nodes=24, vnodes=32, observe=30.0,
                 join_duration=15.0, bootstrap_stagger=5.0)


def pil_check(seed: int) -> Outcome:
    """The paper's pipeline on c6127 fresh bootstrap: memoize under basic
    colocation, then an order-enforced PIL replay of that recording."""
    from repro.bench.calibrate import ci_cost_constants
    from repro.cassandra.bugs import get_bug
    from repro.cassandra.workloads import ScenarioParams
    from repro.core.scalecheck import ScaleCheck

    cfg = PIL_CHECK
    params = ScenarioParams(observe=cfg["observe"],
                            join_duration=cfg["join_duration"],
                            bootstrap_stagger=cfg["bootstrap_stagger"])
    # The CI calibration prices c6127 for its 256 vnodes; the calculation
    # costs k3 * M * T^2 for T ring tokens, so fewer vnodes keep the same
    # virtual cost per calculation when k3 grows by the squared ratio,
    # while the host computes each pending-range map over fewer tokens.
    constants = ci_cost_constants(cfg["bug"])
    shrink = (get_bug(cfg["bug"]).vnodes / cfg["vnodes"]) ** 2
    constants = dataclasses.replace(
        constants, k3_bootstrap=constants.k3_bootstrap * shrink)
    check = ScaleCheck(cfg["bug"], nodes=cfg["nodes"], seed=seed,
                       params=params, cost_constants=constants,
                       vnodes=cfg["vnodes"])
    recorded = check.memoize()
    started = time.perf_counter()
    replay = check.replay(recorded.db, enforce_order=True)
    replay_s = time.perf_counter() - started
    memo_report, replay_report = recorded.memo_report, replay.report
    # The memo DB's own digest would cost a third of the run's time in
    # canonical JSON the pipeline never computes; its size and the
    # replay's hit/miss/order counts stand in for it.
    digest = hashlib.sha256("|".join([
        memo_report.digest(), replay_report.digest(),
        f"{len(recorded.db)}/{replay.hits}/{replay.misses}/"
        f"{replay.order_released}",
    ]).encode()).hexdigest()
    return Outcome(
        digest=digest,
        reports=[memo_report, replay_report],
        checks={
            "recording holds calculations": len(recorded.db) > 0,
            "replay served memo hits": replay.hits > 0,
            "replay released recorded messages in order":
                replay.order_released > 0,
            "colo then pil": (memo_report.mode, replay_report.mode)
                == ("colo", "pil"),
            "message accounting": (_accounted(memo_report)
                                   and _accounted(replay_report)),
        },
        figures={"colo_flaps": memo_report.flaps,
                 "pil_flaps": replay_report.flaps,
                 "memo_hits": replay.hits, "memo_misses": replay.misses},
        legs={"replay_s": replay_s},
    )


# -- partitioned --------------------------------------------------------------

PARTITIONED = dict(nodes=512, shards=2, workers=2, until=2.0)


def partitioned(seed: int) -> Outcome:
    """Steady gossip at N=512 through the partitioned lockstep kernel,
    K=2 shards in two forked workers."""
    from repro.cassandra.partition import PartitionSpec, run_partitioned

    cfg = PARTITIONED
    spec = PartitionSpec(nodes=cfg["nodes"], shards=cfg["shards"],
                         workers=cfg["workers"], until=cfg["until"],
                         seed=seed)
    report = run_partitioned(spec)
    return Outcome(
        digest=report.digest(),
        reports=[report],
        checks={
            "whole horizon simulated":
                abs(report.duration - cfg["until"]) < 1e-9,
            "events fired": report.extra.get("steps", 0.0) > 0,
            "every node reported": report.nodes == cfg["nodes"],
            "message accounting": _accounted(report),
        },
        figures={"steps": report.extra.get("steps", 0.0),
                 "messages": report.messages_sent, "flaps": report.flaps},
        shards=cfg["shards"],
    )


#: Modules the workloads import, loaded before the clock starts.
IMPORTS = (
    "repro.bench.calibrate",
    "repro.cassandra.cluster",
    "repro.cassandra.partition",
    "repro.cassandra.workloads",
    "repro.core.scalecheck",
    "repro.faults.primitives",
    "repro.faults.schedule",
    "repro.workload",
)

WORKLOADS: Dict[str, Callable[[int], Outcome]] = {
    "decommission": decommission,
    "traffic": traffic,
    "pil_check": pil_check,
    "partitioned": partitioned,
}
