"""Golden canonical digests: runs pinned to a recorded byte-identity.

The K-invariance and differential suites compare runs with each other,
so a change that shifts every run the same way would still pass them.
These cases compare against digests recorded in
``tests/fixtures/golden_digests.json``: small partitioned runs (steady,
decommission, join, a chaos schedule and a crash conviction, at K=1 and
K=3, the K=3 ones also through forked workers) and classic
scenario-driver runs (decommission and failover with client traffic,
scale-out with and without a fault schedule).
"""

import json
from pathlib import Path

import pytest

from repro.cassandra import Cluster, ClusterConfig
from repro.cassandra.partition import PartitionSpec, run_partitioned
from repro.cassandra.workloads import (
    ScenarioParams,
    run_decommission,
    run_failover,
    run_scale_out,
)
from repro.faults import (
    FaultSchedule,
    Heal,
    LinkDegrade,
    NodeCrash,
    NodeRestart,
    PartitionCut,
    install_faults,
)
from repro.workload import WorkloadSpec

GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "golden_digests.json").read_text()
)["digests"]

FAST = ScenarioParams(warmup=8.0, observe=20.0, leaving_duration=5.0,
                      join_duration=5.0)

#: Crash, cut, one-way degrade, heal, restart: every fault a partitioned
#: run enacts at a barrier.
CHAOS = FaultSchedule([
    NodeCrash(1.0, node="node-004"),
    PartitionCut(1.2, side_a=("node-000", "node-001"),
                 side_b=("node-002", "node-003")),
    LinkDegrade(2.0, src="node-005", dst="node-000", drop_p=0.5,
                latency_mult=2.0, symmetric=False),
    Heal(2.6),
    NodeRestart(3.0, node="node-004"),
])

PARTITIONED = {
    "steady": dict(),
    "decommission": dict(until=14.0, scenario="decommission", op_time=1.0,
                         leaving_duration=1.5),
    "join": dict(scenario="join", join_count=3, op_time=1.0,
                 join_stagger=0.5),
    "chaos": dict(chaos=CHAOS),
    "convict": dict(until=25.0,
                    chaos=FaultSchedule([NodeCrash(1.0, node="node-005")])),
}


@pytest.mark.parametrize("shards,workers", [
    pytest.param(1, 0, id="1"),
    pytest.param(3, 0, id="3"),
    pytest.param(3, 3, id="3-workers=3"),
])
@pytest.mark.parametrize("name", sorted(PARTITIONED))
def test_partitioned_digest(name, shards, workers):
    """In-process and forked runs both reproduce the recorded digest."""
    spec = PartitionSpec(**{**dict(nodes=16, shards=shards, workers=workers,
                                   epoch=0.05, until=8.0, seed=11),
                            **PARTITIONED[name]})
    assert (run_partitioned(spec).digest()
            == GOLDEN[f"partitioned/{name}/K={shards}"])


def _traffic() -> WorkloadSpec:
    return WorkloadSpec(users=20_000, shards=8, rate_per_user=0.1, tick=0.5,
                        read_cl="quorum", write_cl="quorum")


def _storage_cluster() -> Cluster:
    return Cluster(ClusterConfig.for_bug("c3831-fixed", nodes=16, seed=5,
                                         enable_storage=True))


def _scale_out_under_faults():
    cluster = Cluster(ClusterConfig.for_bug("c3831", nodes=16, seed=3))
    install_faults(cluster, FaultSchedule([
        NodeCrash(10.0, node="node-004"),
        PartitionCut(11.0, side_a=("node-000", "node-001"),
                     side_b=("node-002", "node-003")),
        LinkDegrade(12.0, src="node-005", dst="node-006", drop_p=0.5,
                    latency_mult=2.0, duration=4.0, symmetric=False),
        Heal(14.0),
        NodeRestart(15.0, node="node-004"),
    ]))
    return run_scale_out(cluster, FAST)


CLASSIC = {
    "decommission+traffic": lambda: run_decommission(
        _storage_cluster(), FAST, traffic=_traffic()),
    "scale_out": lambda: run_scale_out(
        Cluster(ClusterConfig.for_bug("c3831", nodes=16, seed=5)), FAST),
    "failover+traffic": lambda: run_failover(
        _storage_cluster(), FAST, traffic=_traffic()),
    "scale_out+faults": _scale_out_under_faults,
}


@pytest.mark.parametrize("name", sorted(CLASSIC))
def test_classic_digest(name):
    assert CLASSIC[name]().digest() == GOLDEN[f"classic/{name}"]


def test_every_golden_case_is_exercised():
    cases = ({f"partitioned/{name}/K={k}" for name in PARTITIONED
              for k in (1, 3)}
             | {f"classic/{name}" for name in CLASSIC})
    assert cases == set(GOLDEN)
