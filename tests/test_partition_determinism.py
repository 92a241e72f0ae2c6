"""Shard-merge determinism: the partitioned kernel is K-invariant.

The contract of :mod:`repro.cassandra.partition` is that sharding is pure
mechanism: the same :class:`PartitionSpec` run with any shard count K --
including the K=1 serial baseline -- in-process or with one forked worker
per shard produces a byte-identical canonical :class:`RunReport` (flap
ordering, float sums, and the total kernel step count included).  These
tests pin that property across scenarios (steady gossip, decommission,
mid-run joiners), chaos schedules (crash/restart, partition/heal,
degraded links), and the in-process vs forked-worker paths.
"""

import multiprocessing
import time

import pytest

from repro.cassandra import partition
from repro.cassandra.cluster import Cluster, ClusterConfig, Mode, phantom_blob
from repro.cassandra.partition import PartitionSpec, run_partitioned
from repro.faults import (
    CpuStress,
    DiskDegrade,
    FaultSchedule,
    Heal,
    LinkDegrade,
    NodeCrash,
    NodeRestart,
    PartitionCut,
)
from repro.sim.kernel import Simulator
from repro.sim.network import LatencyModel
from repro.sim.partition import ShardFabric, keyed_fraction


def _canonical(spec: PartitionSpec) -> str:
    return run_partitioned(spec).canonical_json()


# -- K-invariance across scenarios -------------------------------------------


@pytest.mark.parametrize("shards", [2, 4, 8])
def test_steady_gossip_matches_serial(shards):
    """Steady-state gossip: K-sharded == serial, byte for byte."""
    base = dict(nodes=16, epoch=0.05, until=4.0, seed=1)
    assert (_canonical(PartitionSpec(shards=shards, **base))
            == _canonical(PartitionSpec(shards=1, **base)))


@pytest.mark.parametrize("seed", range(3))
def test_decommission_matches_serial(seed):
    """The decommission scenario (LEAVING/LEFT/stop) is K-invariant."""
    base = dict(nodes=12, epoch=0.05, until=5.0, seed=seed,
                scenario="decommission", op_time=1.0, leaving_duration=1.5)
    serial = _canonical(PartitionSpec(shards=1, **base))
    assert _canonical(PartitionSpec(shards=4, **base)) == serial
    assert _canonical(PartitionSpec(shards=3, **base)) == serial


def test_midrun_joiners_match_serial():
    """Nodes added mid-run in their owning shard gossip identically."""
    base = dict(nodes=12, epoch=0.05, until=5.0, seed=5, scenario="join",
                join_count=3, op_time=1.0, join_stagger=0.5)
    serial = _canonical(PartitionSpec(shards=1, **base))
    for shards in (2, 4):
        assert _canonical(PartitionSpec(shards=shards, **base)) == serial


def test_chaos_schedule_matches_serial():
    """Barrier-quantized chaos (crash/restart, cuts, degrade) is K-invariant."""
    chaos = FaultSchedule([
        NodeCrash(1.0, node="node-004"),
        PartitionCut(1.2, side_a=("node-000", "node-001"),
                     side_b=("node-002", "node-003")),
        LinkDegrade(2.0, src="node-005", dst="node-006", drop_p=0.5,
                    latency_mult=2.0, symmetric=False),
        Heal(2.6),
        NodeRestart(3.0, node="node-004"),
    ])
    base = dict(nodes=12, epoch=0.05, until=6.0, seed=9, chaos=chaos)
    serial = run_partitioned(PartitionSpec(shards=1, **base))
    assert serial.dropped_cut > 0      # the cut was live and mattered
    assert serial.dropped_down > 0     # the crash dropped traffic
    for shards in (2, 4):
        assert (_canonical(PartitionSpec(shards=shards, **base))
                == serial.canonical_json())


def test_crash_conviction_flaps_match_serial():
    """A long crash is convicted by peers identically under any K."""
    chaos = FaultSchedule([NodeCrash(1.0, node="node-005")])
    base = dict(nodes=8, epoch=0.05, until=25.0, seed=2, chaos=chaos)
    serial = run_partitioned(PartitionSpec(shards=1, **base))
    assert serial.flaps > 0            # peers actually convicted the victim
    assert all(e.target == "node-005" for e in serial.flap_events)
    assert (_canonical(PartitionSpec(shards=4, **base))
            == serial.canonical_json())


# -- execution modes ----------------------------------------------------------


def test_worker_processes_match_in_process():
    """Forked shard workers reproduce the in-process run byte for byte."""
    base = dict(nodes=12, shards=4, epoch=0.05, until=4.0, seed=7,
                scenario="decommission", op_time=1.0)
    assert (_canonical(PartitionSpec(workers=4, **base))
            == _canonical(PartitionSpec(workers=0, **base)))


def test_observe_from_filters_headline_flaps():
    chaos = FaultSchedule([NodeCrash(1.0, node="node-005")])
    base = dict(nodes=8, epoch=0.05, until=25.0, seed=2, chaos=chaos)
    full = run_partitioned(PartitionSpec(shards=2, **base))
    first_flap = min(e.time for e in full.flap_events)
    late = run_partitioned(
        PartitionSpec(shards=2, observe_from=first_flap + 1e-9, **base))
    assert late.flaps < full.flaps


forks = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched Shard.advance reaches workers by fork")


@forks
@pytest.mark.parametrize("failing", [1, 0])
def test_failing_worker_names_shard_and_cause(monkeypatch, failing):
    """A worker's exception comes back named, and the run stops at once.

    Shard 0 is gathered first, while its peers are still computing.
    """
    advance = partition.Shard.advance

    def broken(shard, inbound, next_barrier):
        if shard.index == failing and next_barrier > 0.5:
            raise RuntimeError("disk on fire")
        return advance(shard, inbound, next_barrier)

    monkeypatch.setattr(partition.Shard, "advance", broken)
    spec = PartitionSpec(nodes=12, shards=3, workers=3, epoch=0.05,
                         until=2.0, seed=7)
    started = time.perf_counter()
    with pytest.raises(
            partition.ShardError,
            match=rf"shard {failing} failed: RuntimeError: disk on fire"):
        run_partitioned(spec)
    assert time.perf_counter() - started < 10.0
    assert not multiprocessing.active_children()


@forks
def test_forked_shards_advance_at_the_same_time(monkeypatch):
    """Each barrier starts every worker before waiting for any of them.

    Every advance sleeps first, so a barrier loop that waited for one
    shard before starting the next would take the serial sum.  Sleeping
    needs no free core, so this holds on a single-core host too.
    """
    nap = 0.1
    advance = partition.Shard.advance

    def slow(shard, inbound, next_barrier):
        time.sleep(nap)
        return advance(shard, inbound, next_barrier)

    monkeypatch.setattr(partition.Shard, "advance", slow)
    spec = PartitionSpec(nodes=4, shards=2, workers=2, epoch=0.05,
                         until=0.3, seed=7)
    barriers = len(partition._barriers(spec))
    assert barriers == 6
    started = time.perf_counter()
    run_partitioned(spec)
    elapsed = time.perf_counter() - started
    assert elapsed < 0.75 * spec.shards * barriers * nap


# -- construction invariants ---------------------------------------------------


def test_phantom_blob_matches_established_state():
    """A remote peer's phantom blob is the blob it would really publish."""
    config = ClusterConfig.for_bug("c3831", nodes=4, mode=Mode.REAL)
    cluster = Cluster(config)
    cluster.build_established()
    for name in ("node-000", "node-002"):
        real = cluster.nodes[name].gossiper.own_state.to_blob()
        assert phantom_blob(name, config.bug.vnodes) == real


def test_spec_validation():
    with pytest.raises(ValueError):
        PartitionSpec(nodes=4, shards=5)
    with pytest.raises(ValueError):
        PartitionSpec(nodes=4, shards=0)
    with pytest.raises(ValueError):
        PartitionSpec(nodes=4, epoch=0.0)
    with pytest.raises(ValueError):
        PartitionSpec(nodes=4, scenario="meteor")
    with pytest.raises(ValueError, match=r"workers=2, shards=4"):
        PartitionSpec(nodes=4, shards=4, workers=2)


def test_unknown_chaos_kind_rejected():
    """Faults a barrier cannot enact fail when the spec is built."""
    for fault in (CpuStress(0.0, node="node-000"),
                  DiskDegrade(0.0, node="node-000"),
                  LinkDegrade(0.0, src="node-000", dst="node-001",
                              latency_mult=0.5)):
        with pytest.raises(ValueError, match=type(fault).__name__):
            PartitionSpec(nodes=4, shards=1, epoch=0.05, until=0.1,
                          chaos=FaultSchedule([fault]))


# -- fabric mechanics ----------------------------------------------------------


def test_fabric_enforces_epoch_latency_floor():
    """Every captured arrival lands at least one epoch after the send."""
    sim = Simulator(seed=0)
    fabric = ShardFabric(sim, LatencyModel(base=0.0005, jitter=0.0005),
                         seed=0, epoch=0.25)
    fabric.register("a", sim.channel("a"))
    fabric.register("b", sim.channel("b"))
    for __ in range(20):
        fabric.send("a", "b", "SYN", ())
    for arrival, message in fabric.collect():
        assert arrival - message.send_time >= 0.25


def test_fabric_randomness_is_keyed_not_streamed():
    """The same message key draws the same jitter in any fabric instance.

    Interleaving senders differently must not change per-key delays --
    this is exactly the property the classic global ``net-jitter`` stream
    lacks, and what makes fabric randomness shardable.
    """
    sim = Simulator(seed=0)
    fabric = ShardFabric(sim, LatencyModel(base=0.0, jitter=1.0),
                         seed=0, epoch=0.01)
    fabric.send("a", "z", "SYN", ())
    fabric.send("b", "z", "SYN", ())
    one = {m.key: t for t, m in fabric.collect()}
    sim2 = Simulator(seed=0)
    fabric2 = ShardFabric(sim2, LatencyModel(base=0.0, jitter=1.0),
                          seed=0, epoch=0.01)
    fabric2.send("b", "z", "SYN", ())
    fabric2.send("a", "z", "SYN", ())
    other = {m.key: t for t, m in fabric2.collect()}
    assert one == other
    assert keyed_fraction(0, "jit:a>z:SYN#1") != keyed_fraction(
        0, "jit:b>z:SYN#1")


def test_fabric_rejects_latency_speedup():
    """latency_mult < 1 would break the conservative bound; reject it."""
    sim = Simulator(seed=0)
    fabric = ShardFabric(sim, LatencyModel(), seed=0, epoch=0.05)
    with pytest.raises(ValueError):
        fabric.degrade("a", "b", 0.0, 0.5)
    fabric.degrade("a", "b", 0.1, 1.0)  # >= 1 is fine


def test_fabric_counts_destination_drops_at_arrival():
    """dst-down / dst-unregistered are arrival-side decisions for every K."""
    sim = Simulator(seed=0)
    fabric = ShardFabric(sim, LatencyModel(jitter=0.0), seed=0, epoch=0.05)
    fabric.register("a", sim.channel("a"))
    # Destination never registered: the send itself is still captured.
    assert fabric.send("a", "ghost", "SYN", ()) is not None
    assert fabric.dropped_unknown_dst == 0
    fabric.inject(fabric.collect())
    sim.run(until=1.0)
    assert fabric.dropped_unknown_dst == 1
    # Source down is known locally and dropped at send.
    fabric.crash("a")
    assert fabric.send("a", "a", "SYN", ()) is None
    assert fabric.dropped_down == 1
