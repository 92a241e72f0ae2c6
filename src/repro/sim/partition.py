"""Sharded message fabric for conservative time-windowed parallel runs.

The partitioned kernel (:mod:`repro.cassandra.partition`) splits a cluster
across K independent :class:`~repro.sim.kernel.Simulator` instances
("shards") that advance in lockstep epochs.  The correctness argument is
the classic conservative-synchronization one: if every message takes at
least one epoch of virtual latency, then no message sent during epoch
``[b, b+W)`` can arrive before the barrier at ``b+W`` -- so each shard can
run an epoch to completion in isolation, and all cross-shard (and, for
uniformity, intra-shard) traffic is exchanged at the barrier.

:class:`ShardFabric` is the :class:`~repro.sim.network.Network` replacement
that makes this sound *and* K-invariant:

* **Latency floor.**  Per-message delay is
  ``(max(base, epoch) + jitter_fraction * jitter) * latency_mult`` with
  ``latency_mult >= 1`` enforced, so every arrival lands at or after the
  first barrier following the send.
* **Keyed randomness.**  The classic fabric draws jitter and degraded-link
  drops from the *global* ``net-jitter`` / ``net-degrade`` streams, whose
  state depends on the interleaving of all nodes' sends -- unshardable.
  The shard fabric instead hashes the deterministic message key
  (:func:`keyed_fraction`), which depends only on the (src, dst, kind)
  sequence numbers local to the sending node's shard.
* **Arrival-side destination checks.**  Whether the destination is down or
  unregistered is known authoritatively only in the destination's shard,
  so those two checks (and their drop counters) move from send time to
  arrival time for *every* K, including K=1.  Send-side checks keep only
  the source-local and replicated-fabric state: source down, partition
  cuts, degraded-link drops.

Messages are never scheduled directly: ``send`` appends to an outbox that
the sending shard drains at the next barrier (:meth:`ShardFabric.collect`)
and routes to the destination shard, which injects them canonically
sorted (:meth:`ShardFabric.inject`).
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Iterable, List, Optional, Tuple

from .network import LatencyModel, Message, Network
from .rng import derive_seed

#: One captured message: ``(arrival_time, message)``.
Flight = Tuple[float, Message]

#: 2**64, the denominator turning a derived seed into a [0, 1) fraction.
_SEED_SPAN = float(2 ** 64)


def keyed_fraction(seed: int, name: str) -> float:
    """A deterministic uniform [0, 1) draw keyed by ``(seed, name)``.

    Stateless -- unlike a stream draw, the result does not depend on how
    many draws other senders made first, which is what makes fabric
    randomness identical no matter how the cluster is sharded.
    """
    return derive_seed(seed, name) / _SEED_SPAN


def fork_context() -> multiprocessing.context.BaseContext:
    """The preferred multiprocessing context for simulator worker pools.

    Fork (where available) inherits the built simulation state and the
    imported module graph for free; spawn is the portable fallback.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class ShardFabric(Network):
    """A :class:`Network` whose deliveries are exchanged at epoch barriers.

    One instance lives in each shard.  All of them see the same replicated
    fault state (cuts, degraded links, down set) because the coordinator
    applies chaos operations at barriers in every shard; per-destination
    registration stays shard-local and is checked at arrival.
    """

    def __init__(self, sim, latency: Optional[LatencyModel], seed: int,
                 epoch: float) -> None:
        if epoch <= 0.0:
            raise ValueError(f"epoch must be positive: {epoch}")
        super().__init__(sim, latency=latency)
        self.seed = seed
        self.epoch = epoch
        self._outbox: List[Flight] = []

    # -- sending ---------------------------------------------------------------

    def send(self, src: str, dst: str, kind: str, payload: Any) -> Optional[Message]:
        """Capture a message for barrier exchange (or drop it).

        Send-side drop checks cover source-local and replicated state
        only; destination liveness/registration is the destination
        shard's call (see the module docstring).
        """
        self.sent += 1
        if src in self._down:
            self.dropped_down += 1
            return None
        if (src, dst) in self._cut_pairs:
            self.dropped_cut += 1
            return None
        latency_mult = 1.0
        triple = (src, dst, kind)
        seq = self._seq[triple] + 1
        key = f"{src}>{dst}:{kind}#{seq}"
        if self._degraded:
            degraded = self._degraded.get((src, dst))
            if degraded is not None:
                drop_p, latency_mult = degraded
                if (drop_p > 0.0
                        and keyed_fraction(self.seed, "drop:" + key) < drop_p):
                    self.dropped_degraded += 1
                    return None
        self._seq[triple] = seq
        floor = self.latency.base if self.latency.base > self.epoch else self.epoch
        delay = floor
        if self.latency.jitter > 0.0:
            delay += (keyed_fraction(self.seed, "jit:" + key)
                      * self.latency.jitter)
        delay *= latency_mult
        message = Message(src=src, dst=dst, kind=kind, payload=payload,
                          send_time=self.sim.now, key=key)
        self._outbox.append((self.sim.now + delay, message))
        return message

    def degrade(self, src: str, dst: str, drop_p: float,
                latency_mult: float = 1.0) -> None:
        """Degrade a link; the multiplier may only *add* latency.

        A multiplier below 1 would let a message arrive before the next
        barrier and break the conservative bound, so it is rejected here
        rather than silently clamped.
        """
        if latency_mult < 1.0:
            raise ValueError(
                f"partitioned runs need latency_mult >= 1: {latency_mult}")
        super().degrade(src, dst, drop_p, latency_mult)

    # -- barrier exchange ---------------------------------------------------------

    def collect(self) -> List[Flight]:
        """Drain and return this epoch's captured sends."""
        flights = self._outbox
        self._outbox = []
        return flights

    def inject(self, flights: Iterable[Flight]) -> None:
        """Schedule arrivals at the current barrier, canonically ordered.

        Must be called with ``sim.now`` exactly at the barrier.  The sort
        key ``(arrival_time, dst, key)`` is a total order (keys are unique
        per source node), so the kernel's same-timestamp tiebreak -- event
        insertion order -- is identical for every sharding of the same
        scenario.
        """
        now = self.sim.now
        schedule = self.sim.schedule
        arrive = self._arrive
        for arrival, message in sorted(
                flights, key=lambda flight: (flight[0], flight[1].dst,
                                             flight[1].key)):
            schedule(arrival - now, lambda m=message: arrive(m),
                     tag=message.key)

    def _arrive(self, message: Message) -> None:
        if message.dst in self._down:
            self.dropped_down += 1
            return
        if message.dst not in self._inboxes:
            self.dropped_unknown_dst += 1
            return
        self._deliver(message)
