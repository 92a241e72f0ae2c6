"""The layer map: which of the program's modules form which layer, and
how the per-layer metrics are derived from the span records.

Layers are named after the program's modules.  Every class and function
defined in a layer's modules is wrapped (see :mod:`perfbench.spans`), so a
layer's self time is the host time spent in its own code.  Orchestrators
that call into many layers (scenario drivers, ``Cluster``, the replay
harness, report assembly) stay unwrapped and fall to the ``other`` root.

A module named here that the program no longer has is listed under
``missing``, and a metric that counts a function the program no longer
has reads 0, so a refactor that renames an entry point shows up as a zero
count instead of a crash.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List, Optional, Tuple

from . import spans
from .spans import CALLS, INCL, LAYER, RESUMES, SELF

#: layer -> modules (relative to ``repro``).
LAYER_MODULES: Dict[str, Tuple[str, ...]] = {
    "kernel": ("sim.kernel", "sim.rng", "sim.memory"),
    "events": ("sim.events",),
    "cpu": ("sim.cpu",),
    "net": ("sim.network", "sim.partition"),
    "node": ("cassandra.node",),
    "gossip": ("cassandra.gossip", "cassandra.gossip_columnar"),
    "state": ("cassandra.state", "cassandra.state_columnar"),
    "fd": ("cassandra.failure_detector",),
    "ring": ("cassandra.ring",),
    "tokens": ("cassandra.tokens",),
    "pending": ("cassandra.pending_ranges",),
    "storage": ("cassandra.storage",),
    "workload": ("workload.engine", "workload.shards",
                 "workload.generators"),
    "memo": ("core.memoization", "core.pil"),
    "partition": ("cassandra.partition",),
}

#: Classes that live in one layer's module but belong to another layer.
#: The ``replay`` layer is the order enforcer alone: ``core.replayer`` is
#: an orchestrator whose span would swallow the unwrapped cluster code
#: it drives.
CLASS_LAYERS: Dict[str, Dict[str, str]] = {
    "cassandra.state_columnar": {"ColumnarFailureDetector": "fd"},
    "cassandra.node": {"SharedOutputCache": "pending"},
    "sim.network": {"OrderEnforcer": "replay"},
}

#: The inter-process connection type whose traffic the partition layer
#: counts (coordinator <-> shard workers).
IPC_SEND = ("multiprocessing.connection", "Connection", "_send_bytes")
IPC_RECV = ("multiprocessing.connection", "_ConnectionBase", "recv")


def _resolve(dotted: str) -> Optional[Any]:
    try:
        return importlib.import_module(f"repro.{dotted}")
    except ImportError:
        return None


class LayerTrace:
    """Installs the span tracer over every layer and derives the metrics."""

    def __init__(self) -> None:
        self.tracer = spans.SpanTracer()
        self.missing: List[str] = []
        #: Counters read off program objects at harvest points.
        self.harvest: Dict[str, float] = {}
        self.ipc_bytes = 0
        #: Records shipped back from forked shard workers.
        self.remote: List[Dict[str, list]] = []

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer (call once, before the workload builds
        anything)."""
        # Import every layer first: a function is rebound in every module
        # that copied it with ``from x import f``, so all must be loaded.
        for modules in LAYER_MODULES.values():
            for dotted in modules:
                _resolve(dotted)
        namespaces = spans.repro_modules()
        for layer, modules in LAYER_MODULES.items():
            for dotted in modules:
                module = _resolve(dotted)
                if module is None:
                    self.missing.append(f"repro.{dotted}")
                    continue
                self.tracer.wrap_module(
                    module, layer, namespaces,
                    class_layers=CLASS_LAYERS.get(dotted))
        self._install_ipc()
        self.tracer.install_gc_hook()

    def _install_ipc(self) -> None:
        module = importlib.import_module(IPC_SEND[0])
        cls = getattr(module, IPC_SEND[1])
        send_bytes = cls.__dict__.get(IPC_SEND[2])
        if send_bytes is None:
            self.missing.append(".".join(IPC_SEND))
        else:
            trace = self

            def counted(conn, buf):
                trace.ipc_bytes += len(buf)
                return send_bytes(conn, buf)
            self.tracer.patch(cls, IPC_SEND[2], counted)
        base = getattr(module, IPC_RECV[1], None)
        recv = vars(base).get(IPC_RECV[2]) if base is not None else None
        if recv is None:
            self.missing.append(".".join(IPC_RECV))
        else:
            self.tracer.patch(base, IPC_RECV[2], self.tracer.wrap(
                recv, "ipc", ".".join(IPC_RECV)))

    def uninstall(self) -> None:
        """Restore the program."""
        self.tracer.uninstall()

    # -- harvest points ------------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        """Add to a harvested counter."""
        self.harvest[name] = self.harvest.get(name, 0.0) + value

    def harvest_cluster(self, cluster) -> None:
        """Read counters a cluster keeps on its objects (called when the
        cluster reports, or when a shard finishes)."""
        self.add("kernel.events", cluster.sim.steps)
        for node in cluster.nodes.values():
            gossiper = node.gossiper
            self.add("gossip.states_applied",
                     getattr(gossiper, "states_applied", 0))
            stats = getattr(gossiper.fd, "stats", None)
            self.add("fd.convictions", getattr(stats, "convictions", 0))
        cache = cluster.output_cache
        self.add("pending.cache_hits", getattr(cache, "hits", 0))
        self.add("pending.cache_resolves",
                 getattr(cache, "hits", 0) + getattr(cache, "misses", 0))
        if cluster.config.mode.value == "pil":
            self.add("pending.replay_compute_n", getattr(cache, "misses", 0))
        executor = cluster.executor
        if hasattr(executor, "lru"):
            self.add("memo.hits", getattr(executor, "hits", 0))
            self.add("memo.lookups", getattr(executor, "hits", 0)
                     + getattr(executor, "misses", 0))
        enforcer = getattr(cluster.network, "enforcer", None)
        if enforcer is not None:
            self.add("replay.parked_n",
                     enforcer.released_in_order + enforcer.parked_count)

    def harvest_report(self, report) -> None:
        """Read counters off a finished ``RunReport``."""
        self.add("net.delivered", report.messages_delivered)
        self.add("net.dropped", report.messages_dropped)
        self.add("storage.timeouts", report.requests_timeout)
        self.add("storage.unavailable", report.requests_unavailable)
        workload = report.workload or {}
        self.add("workload.fold", workload.get("fold_factor", 0.0))

    def ship(self) -> Dict[str, Any]:
        """This worker's records and harvest, for the coordinator."""
        return {"records": self.tracer.snapshot(),
                "harvest": dict(self.harvest),
                "ipc_bytes": self.ipc_bytes}

    def reset_for_worker(self) -> None:
        """Drop counts a forked worker inherited from the coordinator."""
        self.tracer.reset()
        self.harvest.clear()
        self.ipc_bytes = 0

    def absorb(self, shipped: Dict[str, Any]) -> None:
        """Fold a worker's shipment into the coordinator's view."""
        self.remote.append(shipped["records"])
        for name, value in shipped["harvest"].items():
            self.add(name, value)
        self.ipc_bytes += shipped["ipc_bytes"]

    # -- metrics ----------------------------------------------------------------------

    def metrics(self, shards: int = 0) -> Dict[str, float]:
        """Every per-layer metric (zero where a layer did not run)."""
        local = self.tracer.records
        merged = self._merged()

        def calls(*suffixes: str, records: Optional[Dict[str, list]] = None
                  ) -> int:
            source = merged if records is None else records
            return sum(rec[CALLS] for key, rec in source.items()
                       if key.endswith(suffixes))

        def self_of(*suffixes: str,
                    records: Optional[Dict[str, list]] = None) -> float:
            source = merged if records is None else records
            return sum(rec[SELF] for key, rec in source.items()
                       if key.endswith(suffixes))

        layer_self = spans.layer_totals(merged)
        h = self.harvest
        remote_advance = sum(rec[INCL] for records in self.remote
                             for key, rec in records.items()
                             if key.endswith(".Shard.advance"))
        advances = calls(".Shard.advance")

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        gossip = lambda name: "Gossiper." + name  # noqa: E731
        out = {
            "kernel.events": h.get("kernel.events", 0.0),
            "kernel.spawn_n": calls(".Simulator.spawn"),
            "kernel.self_s": layer_self.get("kernel", 0.0),
            "events.push_n": calls("Queue.push"),
            "events.self_s": layer_self.get("events", 0.0),
            "cpu.submit_n": calls("Cpu.submit", "CpuModel.submit"),
            "cpu.self_s": layer_self.get("cpu", 0.0),
            "net.send_n": calls(".Network.send", ".ShardFabric.send"),
            "net.self_s": layer_self.get("net", 0.0),
            "net.delivered": h.get("net.delivered", 0.0),
            "net.dropped": h.get("net.dropped", 0.0),
            "node.self_s": layer_self.get("node", 0.0),
            "gossip.round_n": calls(gossip("do_round")),
            "gossip.round_s": self_of(gossip("do_round")),
            "gossip.msg_n": calls(gossip("handle_message")),
            "gossip.msg_s": self_of(gossip("handle_message")),
            "gossip.convict_n": calls(gossip("check_convictions")),
            "gossip.convict_s": self_of(gossip("check_convictions")),
            "gossip.populate_n": calls(gossip("populate")),
            "gossip.populate_s": self_of(gossip("populate")),
            "gossip.states_applied": h.get("gossip.states_applied", 0.0),
            "gossip.self_s": layer_self.get("gossip", 0.0),
            "state.blob_n": calls(".to_blob", ".delta_blob", ".from_blob"),
            "state.self_s": layer_self.get("state", 0.0),
            "fd.report_n": calls("FailureDetector.report"),
            "fd.phi_n": calls("FailureDetector.phi",
                              "FailureDetector.should_convict"),
            "fd.self_s": layer_self.get("fd", 0.0),
            "fd.convictions": h.get("fd.convictions", 0.0),
            "ring.update_n": calls(".TokenMetadata.update_normal_tokens"),
            "ring.self_s": layer_self.get("ring", 0.0),
            "tokens.self_s": layer_self.get("tokens", 0.0),
            "pending.compute_n": calls(".compute_pending_ranges"),
            "pending.self_s": layer_self.get("pending", 0.0),
            "pending.cache_hit_ratio": ratio(h.get("pending.cache_hits", 0.0),
                                             h.get("pending.cache_resolves",
                                                   0.0)),
            "pending.replay_compute_n": h.get("pending.replay_compute_n", 0.0),
            "memo.get_n": calls(".MemoLruFront.get"),
            "memo.hit_ratio": ratio(h.get("memo.hits", 0.0),
                                    h.get("memo.lookups", 0.0)),
            "memo.self_s": layer_self.get("memo", 0.0),
            "replay.parked_n": h.get("replay.parked_n", 0.0),
            "replay.self_s": layer_self.get("replay", 0.0),
            "storage.read_n": calls(".StorageService.coordinate_read"),
            "storage.write_n": calls(".StorageService.coordinate_write"),
            "storage.self_s": layer_self.get("storage", 0.0),
            "storage.timeouts": h.get("storage.timeouts", 0.0),
            "storage.unavailable": h.get("storage.unavailable", 0.0),
            "workload.issue_n": calls(".WorkloadEngine.issue"),
            "workload.self_s": layer_self.get("workload", 0.0),
            "workload.fold": h.get("workload.fold", 0.0),
            "partition.barriers": (advances // shards) if shards else 0,
            "partition.advance_s": remote_advance,
            "partition.route_s": self_of(
                "partition.run_partitioned", "partition.owner_of",
                "partition.merge_results", records=local),
            "partition.wait_s": self_of(".".join(IPC_RECV), records=local),
            "partition.flights": calls("partition.owner_of", records=local),
            "partition.ipc_bytes": self.ipc_bytes,
            "other.self_s": layer_self.get(spans.ROOT, 0.0),
        }
        return {name: float(value) for name, value in out.items()}

    def _merged(self) -> Dict[str, list]:
        """This process's records plus every worker's, summed per key."""
        merged = {key: list(rec) for key, rec in self.tracer.records.items()}
        for records in self.remote:
            for key, rec in records.items():
                mine = merged.setdefault(key, [0, 0.0, 0.0, rec[LAYER], 0])
                for field in (CALLS, SELF, INCL, RESUMES):
                    mine[field] += rec[field]
        return merged

    def layer_shares(self) -> List[Tuple[str, float]]:
        """(layer, self seconds) over this process and its workers,
        largest first.  A worker's ``ipc`` time is its wait for the next
        command, idle rather than work, so only this process's counts."""
        totals = spans.layer_totals(self._merged())
        totals["ipc"] = spans.layer_totals(self.tracer.records).get("ipc", 0.0)
        return sorted(totals.items(), key=lambda item: -item[1])


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def per_layer_names() -> List[str]:
    """Names of every per-layer metric, in report order: the traced
    run's, then the untraced runs' collector figures and the overhead."""
    return (list(LayerTrace().metrics(shards=1))
            + ["py.gc_n", "py.gc_s", "trace.overhead_s"])
