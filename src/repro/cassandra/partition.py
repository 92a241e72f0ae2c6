"""Partitioned parallel simulation of the Cassandra model.

Breaks the single-simulator wall: the N nodes of one scenario are sharded
round-robin across K independent simulators that advance in conservative
lockstep epochs (:mod:`repro.sim.partition`), so one machine can run the
N=2048 gossip scenarios the paper's section 8 colocation analysis asks
about.  The sharding is *deterministic by construction*: the same spec run
with any K -- including K=1, the serial baseline -- in-process or with one
forked worker per shard produces a byte-identical canonical
:class:`~repro.cassandra.metrics.RunReport`
(``tests/test_partition_determinism.py`` pins it).

Each shard is a classic :class:`~repro.cassandra.cluster.Cluster` running
the classic builder, :mod:`~repro.cassandra.workloads` drivers,
:mod:`repro.faults` primitives and report assembler.

What makes K-invariance hold:

* Node ``i`` lives in shard ``i % K``; every per-node random stream is
  derived from the root seed by name, so a node's draws do not depend on
  which shard hosts it.
* All messaging goes through :class:`~repro.sim.partition.ShardFabric`:
  keyed (stateless) fabric randomness, a latency floor of one epoch, and
  canonical ``(arrival, dst, key)`` injection order at every barrier.
* Each shard builds only its own nodes but seeds them with *phantom
  blobs* for remote peers -- bit-identical to the blob an established
  local node publishes (:func:`~repro.cassandra.cluster.phantom_blob`).
* Faults are quantized to the next barrier and applied in the injector's
  timeline order in every shard (fabric state is replicated; node stop/
  restart happens in the owning shard only).
* The merged report is assembled from per-node rows in global sorted-node
  order regardless of K, so float accumulation order -- the usual
  parallel-reduction leak -- is fixed.

Compared to the classic :class:`~repro.cassandra.cluster.Cluster` runner,
two semantics differ (deliberately, identically for every K): message
latency has a floor of one epoch, and destination-down/unregistered drops
are counted at arrival rather than send time.  Partitioned reports are
therefore compared against other partitioned reports, not classic ones.
"""

from __future__ import annotations

import pickle
import time as _time
import traceback
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, List, Sequence

from ..faults.injector import ClusterFaultTarget, Injector
from ..faults.primitives import (
    Heal,
    LinkDegrade,
    NodeCrash,
    NodeRestart,
    PartitionCut,
)
from ..faults.schedule import FaultSchedule
from ..sim.kernel import Timeout
from ..sim.network import LatencyModel
from ..sim.partition import Flight, ShardFabric, fork_context
from .cluster import (
    Cluster,
    ClusterConfig,
    Mode,
    ReportParts,
    assemble_report,
    node_name,
)
from .metrics import RunReport
from .workloads import ScenarioParams, _decommission_driver, _join_driver

#: The faults a shard can enact at a barrier: network state and node
#: lifecycle.  CPU and disk antagonists need a live injector process.
_BARRIER_FAULTS = (NodeCrash, NodeRestart, PartitionCut, Heal, LinkDegrade)


@dataclass(frozen=True)
class PartitionSpec:
    """Everything needed to run one partitioned scenario, picklable."""

    nodes: int
    shards: int = 1
    #: Lockstep window (virtual seconds); also the message-latency floor.
    epoch: float = 0.005
    until: float = 8.0
    seed: int = 42
    bug: str = "c3831"
    #: Worker processes: 0 runs every shard in-process (interleaved),
    #: otherwise one forked worker per shard.
    workers: int = 0
    scenario: str = "steady"        # "steady" | "decommission" | "join"
    op_time: float = 2.0            # when the membership operation starts
    leaving_duration: float = 2.0
    join_count: int = 0
    join_duration: float = 2.0
    join_stagger: float = 0.5
    observe_from: float = 0.0
    latency_base: float = 0.0005
    latency_jitter: float = 0.0005
    #: Faults, each enacted at the first barrier at or after its time.
    chaos: FaultSchedule = field(default_factory=FaultSchedule)

    def __post_init__(self) -> None:
        if self.nodes < self.shards or self.shards < 1:
            raise ValueError(
                f"need 1 <= shards <= nodes: {self.shards}/{self.nodes}")
        if self.workers not in (0, self.shards):
            raise ValueError(
                f"workers must be 0 (in-process) or equal shards: "
                f"workers={self.workers}, shards={self.shards}")
        if self.epoch <= 0.0 or self.until <= 0.0:
            raise ValueError("epoch and until must be positive")
        if self.scenario not in ("steady", "decommission", "join"):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        for fault in self.chaos:
            if not isinstance(fault, _BARRIER_FAULTS):
                raise ValueError(
                    f"a partitioned run cannot enact {fault!r} at a barrier")
            if isinstance(fault, LinkDegrade) and fault.latency_mult < 1.0:
                # A speed-up could land a message before the next barrier.
                raise ValueError(
                    f"partitioned runs need latency_mult >= 1: {fault!r}")

    def cluster_config(self) -> ClusterConfig:
        """The configuration every shard's cluster is built from."""
        return ClusterConfig.for_bug(
            self.bug, nodes=self.nodes, mode=Mode.REAL, seed=self.seed,
            latency=LatencyModel(self.latency_base, self.latency_jitter))


def owner_of(node_id: str, shards: int) -> int:
    """The shard owning ``node_id`` (round-robin over the node index)."""
    return int(node_id.split("-", 1)[1].split(":", 1)[0]) % shards


class ShardFaultTarget(ClusterFaultTarget):
    """A shard's fault target: crash and restart touch the fabric's down
    set in every shard, and stop or reboot the node only in its owner.
    Cuts and degraded links are fabric state, replicated as they are."""

    def __init__(self, shard: "Shard") -> None:
        super().__init__(shard.cluster)
        self.shard = shard

    def crash(self, node: str) -> bool:
        """Crash."""
        self.cluster.network.crash(node)
        return super().crash(node) if self.shard.owns(node) else True

    def restart(self, node: str) -> bool:
        """Restart."""
        self.cluster.network.recover(node)
        return super().restart(node) if self.shard.owns(node) else True


@dataclass
class ShardResult:
    """One shard's report parts and kernel step count (picklable)."""

    index: int
    steps: int
    parts: ReportParts


def _delayed(delay: float, driver):
    """Run ``driver`` after ``delay`` virtual seconds."""
    yield Timeout(delay)
    yield from driver


class Shard:
    """One simulator hosting ``nodes % K == index``, plus its fabric."""

    def __init__(self, spec: PartitionSpec, index: int) -> None:
        self.spec = spec
        self.index = index
        config = spec.cluster_config()
        self.cluster = Cluster(config)
        self.fabric = ShardFabric(self.cluster.sim, config.latency,
                                  spec.seed, spec.epoch)
        # Swap before any node registers; nodes capture cluster.network.
        self.cluster.network = self.fabric
        self.cluster.build_established(hosted={
            node_name(i) for i in range(index, spec.nodes, spec.shards)})
        self._spawn_drivers()
        self.faults = Injector(spec.chaos, ShardFaultTarget(self))
        #: Locally-addressed flights held for the next barrier's inject.
        self._local_hold: List[Flight] = []

    def owns(self, node_id: str) -> bool:
        """Whether ``node_id`` lives in this shard."""
        return owner_of(node_id, self.spec.shards) == self.index

    def _spawn_drivers(self) -> None:
        spec = self.spec
        cluster = self.cluster
        params = ScenarioParams(leaving_duration=spec.leaving_duration,
                                join_duration=spec.join_duration)
        if spec.scenario == "decommission":
            victim = node_name(spec.nodes - 1)
            if self.owns(victim):
                cluster.sim.spawn(
                    _delayed(spec.op_time, _decommission_driver(
                        cluster.nodes[victim], params)),
                    name=f"decommission:{victim}")
        elif spec.scenario == "join":
            for j in range(spec.join_count):
                joiner = node_name(spec.nodes + j)
                if self.owns(joiner):
                    delay = spec.op_time + j * spec.join_stagger
                    cluster.sim.spawn(
                        _join_driver(cluster, joiner, delay, params),
                        name=f"join:{joiner}")

    # -- lockstep ---------------------------------------------------------------

    def advance(self, inbound: List[List[Flight]],
                next_barrier: float) -> List[List[Flight]]:
        """One epoch: inject, enact due faults, run, route outbound flights.

        ``inbound`` holds one group of flights per sending shard; the
        result holds one group per destination shard (this shard's own is
        empty: locally-addressed flights stay here for the next barrier).
        Called with the simulator sitting exactly at the previous barrier.
        Injection happens before faults so the per-barrier order is fixed;
        arrival-time fault checks read fabric state when the arrival event
        fires, so the relative order cannot leak into delivery outcomes.
        """
        self.fabric.inject(chain(self._local_hold, *inbound))
        self.faults.enact_due(self.cluster.sim)
        self.cluster.sim.run(until=next_barrier)
        shards = self.spec.shards
        outbound: List[List[Flight]] = [[] for __ in range(shards)]
        for flight in self.fabric.collect():
            outbound[owner_of(flight[1].dst, shards)].append(flight)
        self._local_hold, outbound[self.index] = outbound[self.index], []
        return outbound

    def finish(self) -> ShardResult:
        """Snapshot this shard's report parts for the merge."""
        return ShardResult(index=self.index, steps=self.cluster.sim.steps,
                           parts=self.cluster.report_parts())


def merge_results(spec: PartitionSpec,
                  results: Sequence[ShardResult]) -> RunReport:
    """Fold per-shard results into one deterministic :class:`RunReport`.

    Rows are sorted by node and events by time (ties by node), so the
    output -- float sums included -- is independent of how nodes were
    sharded and of which process produced each piece.
    """
    parts = [result.parts for result in results]
    merged = ReportParts(
        duration=max(part.duration for part in parts),
        recoveries=sum(part.recoveries for part in parts),
        flap_events=sorted(
            (event for part in parts for event in part.flap_events),
            key=lambda e: (e.time, e.observer, e.target)),
        calc_records=sorted(
            (record for part in parts for record in part.calc_records),
            key=lambda r: (r.time, r.node)),
        traffic={name: sum(part.traffic[name] for part in parts)
                 for name in parts[0].traffic},
        rows=sorted((row for part in parts for row in part.rows),
                    key=lambda row: row["node"]),
    )
    return assemble_report(spec.cluster_config(), merged, spec.observe_from)


# -- lockstep coordination ------------------------------------------------------


def _barriers(spec: PartitionSpec) -> List[float]:
    """Barrier times: epoch multiples, the horizon always last."""
    barriers: List[float] = []
    k = 1
    while True:
        b = k * spec.epoch
        if b >= spec.until:
            break
        barriers.append(b)
        k += 1
    barriers.append(spec.until)
    return barriers


class ShardError(RuntimeError):
    """A shard failed; the message names the shard and the cause."""


def _worker_main(conn, spec: PartitionSpec, index: int) -> None:
    """Worker-process loop: build one shard, serve lockstep commands.

    Flights cross processes as *parcels*: each non-empty group a shard
    routes to one destination is pickled here once, relayed unopened by
    the coordinator and unpickled by the destination worker.
    Replies ``(True, result)``, or ``(False, traceback)`` once on failure.
    """
    try:
        shard = Shard(spec, index)
        while True:
            command, *args = conn.recv()
            if command == "finish":
                conn.send((True, shard.finish()))
                break
            parcels, next_barrier = args
            outbound = shard.advance(
                [pickle.loads(parcel) for parcel in parcels], next_barrier)
            conn.send((True, [pickle.dumps(group, pickle.HIGHEST_PROTOCOL)
                              if group else b"" for group in outbound]))
    except (EOFError, KeyboardInterrupt):
        pass
    except Exception:
        conn.send((False, traceback.format_exc()))
    finally:
        conn.close()


class _LocalHandle:
    """An in-process shard behind the same send/recv calls as a worker;
    its parcels are the flight lists themselves."""

    def __init__(self, spec: PartitionSpec, index: int) -> None:
        self._shard = Shard(spec, index)
        self._reply: Any = None

    def send(self, command: str, *args) -> None:
        self._reply = getattr(self._shard, command)(*args)

    def recv(self) -> Any:
        return self._reply

    def close(self) -> None:
        """Nothing to release in-process."""


class _WorkerHandle:
    """Shard handle living in a forked worker process."""

    def __init__(self, ctx, spec: PartitionSpec, index: int) -> None:
        self.index = index
        self._conn, child = ctx.Pipe(duplex=True)
        self._process = ctx.Process(
            target=_worker_main, args=(child, spec, index),
            name=f"shard-{index}", daemon=True)
        self._process.start()
        child.close()
        self._finished = False

    def send(self, command: str, *args) -> None:
        """Start ``command`` in the worker without waiting for it."""
        try:
            self._conn.send((command, *args))
        except OSError:
            pass  # the worker is gone; its last reply is still readable

    def recv(self) -> Any:
        """The reply to the last command, or :class:`ShardError`."""
        try:
            ok, reply = self._conn.recv()
        except (EOFError, OSError):
            self._process.join(timeout=30)
            raise ShardError(f"shard {self.index} worker exited with code "
                             f"{self._process.exitcode}") from None
        if not ok:
            cause = reply.strip().splitlines()[-1]
            raise ShardError(f"shard {self.index} failed: {cause}\n"
                             f"worker traceback:\n{reply}")
        if isinstance(reply, ShardResult):
            self._finished = True
        return reply

    def close(self):
        """Reap the worker; one a failed run left waiting is killed."""
        self._conn.close()
        if not self._finished:
            self._process.terminate()
        self._process.join(timeout=30)


def run_partitioned(spec: PartitionSpec) -> RunReport:
    """Run one partitioned scenario end to end and merge the report.

    ``spec.workers == 0`` interleaves all shards in this process (the
    reference mode); otherwise each shard runs in its own forked worker.
    Each barrier scatters ``advance`` to every shard before gathering any
    reply, so forked shards compute at the same time; a shard routes its
    own outbound flights, and this loop only hands each parcel to its
    destination.  Both paths execute the identical per-barrier sequence,
    and injection sorts every barrier's flights canonically, so neither
    the order replies arrive in nor the path changes the report.  A
    failing shard raises :class:`ShardError` and every other worker is
    stopped at once.
    """
    started = _time.perf_counter()
    ctx = fork_context() if spec.workers else None
    handles: List[Any] = []
    try:
        for index in range(spec.shards):
            handles.append(_WorkerHandle(ctx, spec, index)
                           if ctx is not None else _LocalHandle(spec, index))
        inbound: List[List[Any]] = [[] for __ in handles]
        for barrier in _barriers(spec):
            for handle, parcels in zip(handles, inbound):
                handle.send("advance", parcels, barrier)
            inbound = [[] for __ in handles]
            for handle in handles:
                for dst, parcel in enumerate(handle.recv()):
                    if parcel:
                        inbound[dst].append(parcel)
        for handle in handles:
            handle.send("finish")
        results = [handle.recv() for handle in handles]
    finally:
        for handle in handles:
            handle.close()
    report = merge_results(spec, results)
    report.wall_seconds = _time.perf_counter() - started
    # Deliberately no shard/worker count here: the canonical report must
    # be byte-identical across K.  The total step count *is* K-invariant
    # (every event fires in exactly one shard) and doubles as an extra
    # determinism witness.
    report.extra["epoch"] = spec.epoch
    report.extra["steps"] = float(sum(result.steps for result in results))
    return report
