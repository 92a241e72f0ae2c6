"""Gossip endpoint state: heartbeats, versioned application states, digests.

Mirrors Cassandra's ``HeartBeatState`` / ``EndpointState`` /
``GossipDigest`` triple.  Every node keeps its *own* view of every
endpoint's state; gossip messages carry plain serialized blobs so views
never alias each other.

The views are stored columnarly, because one object per (observer,
endpoint) pair is N^2 objects and per-node memory is what sets how many
nodes colocate on one machine:

* :class:`SharedClusterState` -- one per cluster: the endpoint-name
  registry (name -> dense integer ``gid``), the interned app-state
  tables (each distinct *set* of versioned application states exists
  once, cluster-wide, as an :class:`InternedAppStates` record carrying
  its precomputed wire tuple, max version, STATUS and TOKENS), and the
  shared digest table (one :class:`GossipDigest` per distinct
  ``(endpoint, generation, max_version)``, shared by every observer).
* :class:`ColumnarEndpointStore` -- one per observer: dense arrays
  indexed by gid (generation, heartbeat version, update timestamp,
  alive flag) plus one reference per row into the interned app table.
  An absent endpoint is ``generation == -1``; rows are never removed.
* :class:`EndpointStateView` / :class:`ColumnarStateMap` -- read-only
  accessors for cold readers (storage liveness checks, the sampler,
  cluster assembly, tests).  Only the gossiper writes the columns.

Interning exploits what gossip converges *to*: across N^2 pairs there
are only about N distinct app-state sets in flight, so per-row cost
collapses to ~40 bytes of columns plus two shared references.
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

# Application-state keys (subset of Cassandra's ApplicationState enum that
# the membership protocols need).
STATUS = "STATUS"
TOKENS = "TOKENS"
LOAD = "LOAD"

# STATUS values.
STATUS_BOOT = "BOOT"
STATUS_NORMAL = "NORMAL"
STATUS_LEAVING = "LEAVING"
STATUS_LEFT = "LEFT"


class VersionGenerator:
    """Per-node monotonically increasing version numbers.

    Cassandra uses a single generator per node shared by the heartbeat and
    all application states, so "max version" digests summarize everything.
    """

    def __init__(self) -> None:
        self._counter = itertools.count(1)

    def next(self) -> int:
        """The next monotonically increasing version number."""
        return next(self._counter)


@dataclass(frozen=True)
class VersionedValue:
    """An application-state value with the version at which it was set."""

    value: str
    version: int
    #: Optional structured payload (e.g. the token tuple for TOKENS).
    payload: Optional[Tuple] = None


class GossipDigest(NamedTuple):
    """Summary of one endpoint's state: who, which incarnation, how new.

    A ``NamedTuple`` rather than a frozen dataclass: gossip constructs
    O(N) of these per SYN per node, and tuple construction happens at C
    speed with no ``__init__``/``__setattr__`` machinery.
    """

    endpoint: str
    generation: int
    max_version: int


class HeartBeat(NamedTuple):
    """(generation, version): generation bumps on restart, version on beat."""

    generation: int
    version: int


def blob_entry_count(blob: tuple) -> int:
    """Number of app-state entries in a state blob (for CPU cost models)."""
    return 1 + len(blob[2])


class InternedAppStates:
    """One distinct application-state set, interned cluster-wide.

    Carries every value the hot paths derive from the set, computed once
    at intern time instead of per (observer, endpoint) row: the sorted
    ``(key, VersionedValue)`` items, the wire-format tuple, the max app
    version, and the STATUS / TOKENS projections.
    """

    __slots__ = ("items", "wire", "max_app", "status", "tokens_payload")

    def __init__(self, items: Tuple[Tuple[str, VersionedValue], ...]) -> None:
        self.items = items
        self.wire = tuple(
            (key, value.value, value.version, value.payload)
            for key, value in items
        )
        max_app = 0
        status: Optional[str] = None
        tokens_payload: Optional[tuple] = None
        for key, value in items:
            if value.version > max_app:
                max_app = value.version
            if key == STATUS:
                status = value.value
            elif key == TOKENS:
                tokens_payload = value.payload
        self.max_app = max_app
        self.status = status
        self.tokens_payload = tokens_payload


class SharedClusterState:
    """Cluster-wide shared tables behind every observer's store."""

    __slots__ = ("registry", "names", "_app_table", "_digest_table",
                 "empty_app")

    def __init__(self) -> None:
        #: endpoint name -> dense gid (registration order, append-only).
        self.registry: Dict[str, int] = {}
        #: gid -> endpoint name.
        self.names: List[str] = []
        self._app_table: Dict[tuple, InternedAppStates] = {}
        self._digest_table: Dict[tuple, GossipDigest] = {}
        self.empty_app = self.intern_items(())

    def gid(self, name: str) -> int:
        """The dense id for ``name``, registering it on first use."""
        gid = self.registry.get(name)
        if gid is None:
            gid = self.registry[name] = len(self.names)
            self.names.append(name)
        return gid

    def intern_items(
        self, items: Tuple[Tuple[str, VersionedValue], ...]
    ) -> InternedAppStates:
        """The interned record for a sorted ``(key, value)`` item tuple."""
        record = self._app_table.get(items)
        if record is None:
            record = self._app_table[items] = InternedAppStates(items)
        return record

    def intern_wire(self, wire: tuple) -> InternedAppStates:
        """The interned record for a wire-format app-items tuple.

        Wire tuples produced by the gossiper are key-sorted already;
        hand-built test blobs may not be, so sortedness is checked (cheap:
        blobs carry at most a handful of items).
        """
        items = tuple(
            (key, VersionedValue(value, version, payload))
            for key, value, version, payload in wire
        )
        keys = [key for key, __ in items]
        if any(keys[i] > keys[i + 1] for i in range(len(keys) - 1)):
            items = tuple(sorted(items))
        record = self._app_table.get(items)
        if record is None:
            record = self._app_table[items] = InternedAppStates(items)
        return record

    def intern_digest(self, endpoint: str, generation: int,
                      max_version: int) -> GossipDigest:
        """One shared digest per distinct (endpoint, generation, max)."""
        key = (endpoint, generation, max_version)
        digest = self._digest_table.get(key)
        if digest is None:
            digest = self._digest_table[key] = GossipDigest(
                endpoint, generation, max_version)
        return digest


class ColumnarEndpointStore:
    """One observer's per-endpoint state, as dense gid-indexed columns."""

    __slots__ = ("shared", "generation", "hb_version", "update_ts", "alive",
                 "app", "digest_cache", "order_names", "order_gids",
                 "present")

    def __init__(self, shared: SharedClusterState) -> None:
        self.shared = shared
        #: -1 == endpoint unknown to this observer.
        self.generation = array("q")
        self.hb_version = array("q")
        self.update_ts = array("d")
        self.alive = bytearray()
        #: gid -> InternedAppStates (None while absent).
        self.app: List[Optional[InternedAppStates]] = []
        #: gid -> memoized shared digest (None == recompute).
        self.digest_cache: List[Optional[GossipDigest]] = []
        #: Discovery order: it leaks into ACK payload ordering and hence
        #: into flap ordering, so it is part of the protocol's output.
        self.order_names: List[str] = []
        self.order_gids = array("q")
        self.present = 0

    def ensure_capacity(self, gid: int) -> None:
        """Grow the columns to cover ``gid`` (registry grew)."""
        missing = gid + 1 - len(self.generation)
        if missing > 0:
            self.generation.extend([-1] * missing)
            self.hb_version.extend([0] * missing)
            self.update_ts.extend([0.0] * missing)
            self.alive.extend(b"\x00" * missing)
            self.app.extend([None] * missing)
            self.digest_cache.extend([None] * missing)

    def known_gid(self, name: str) -> int:
        """The gid of an endpoint this observer knows, or -1."""
        gid = self.shared.registry.get(name)
        if gid is None or gid >= len(self.generation) \
                or self.generation[gid] < 0:
            return -1
        return gid

    def insert(self, name: str, gid: int, generation: int, hb_version: int,
               record: InternedAppStates, now: float) -> None:
        """Materialize a previously absent endpoint row."""
        self.generation[gid] = generation
        self.hb_version[gid] = hb_version
        self.update_ts[gid] = now
        self.alive[gid] = 1
        self.app[gid] = record
        self.digest_cache[gid] = None
        self.order_names.append(name)
        self.order_gids.append(gid)
        self.present += 1

    def max_version(self, gid: int) -> int:
        """Largest version across heartbeat and app states (O(1))."""
        hb_version = self.hb_version[gid]
        max_app = self.app[gid].max_app
        return hb_version if hb_version > max_app else max_app

    def delta_blob(self, gid: int, newer_than: int) -> tuple:
        """Row ``gid``'s blob with only app states newer than ``newer_than``.

        The heartbeat always rides along (it is the liveness signal).
        """
        return (self.generation[gid], self.hb_version[gid],
                tuple(entry for entry in self.app[gid].wire
                      if entry[2] > newer_than))

    def to_blob(self, gid: int) -> tuple:
        """Row ``gid``'s full-state wire snapshot (no local bookkeeping)."""
        return (self.generation[gid], self.hb_version[gid],
                self.app[gid].wire)


class EndpointStateView:
    """Read-only accessor for one observer's view of one endpoint.

    Built on demand by cold readers; the gossip hot loops read the
    columns directly and never allocate one of these.  Writes go through
    the gossiper (``set_app_state`` / ``populate``), which re-interns.
    """

    __slots__ = ("_store", "_gid")

    def __init__(self, store: ColumnarEndpointStore, gid: int) -> None:
        self._store = store
        self._gid = gid

    @property
    def heartbeat(self) -> HeartBeat:
        """``(generation, version)`` of this endpoint's heartbeat."""
        store = self._store
        return HeartBeat(store.generation[self._gid],
                         store.hb_version[self._gid])

    @property
    def update_timestamp(self) -> float:
        """Observer-local last-update time."""
        return self._store.update_ts[self._gid]

    @property
    def alive(self) -> bool:
        """Observer-local liveness flag."""
        return bool(self._store.alive[self._gid])

    def status(self) -> Optional[str]:
        """The STATUS application-state value, if any (O(1))."""
        return self._store.app[self._gid].status

    def tokens(self) -> Optional[Tuple[int, ...]]:
        """The gossiped token tuple, if any."""
        return self._store.app[self._gid].tokens_payload

    def max_version(self) -> int:
        """Largest version across heartbeat and app states (O(1))."""
        return self._store.max_version(self._gid)

    def to_blob(self) -> tuple:
        """Serializable full-state snapshot (no local bookkeeping)."""
        return self._store.to_blob(self._gid)

    def delta_blob(self, newer_than: int) -> tuple:
        """Snapshot carrying only app states newer than ``newer_than``."""
        return self._store.delta_blob(self._gid, newer_than)

    def __repr__(self) -> str:
        store = self._store
        gid = self._gid
        return (f"EndpointStateView({store.shared.names[gid]!r}, "
                f"gen={store.generation[gid]}, "
                f"version={store.hb_version[gid]})")


class ColumnarStateMap(Mapping):
    """Read-only ``{endpoint: EndpointStateView}`` over one store.

    Iteration follows discovery order, the order ACK payloads are built
    in.
    """

    __slots__ = ("_store",)

    def __init__(self, store: ColumnarEndpointStore) -> None:
        self._store = store

    def __len__(self) -> int:
        return self._store.present

    def __iter__(self) -> Iterator[str]:
        return iter(self._store.order_names)

    def __contains__(self, name: object) -> bool:
        return self._store.known_gid(name) >= 0

    def __getitem__(self, name: str) -> EndpointStateView:
        gid = self._store.known_gid(name)
        if gid < 0:
            raise KeyError(name)
        return EndpointStateView(self._store, gid)

    def get(self, name: str, default=None):
        """O(1) lookup returning a fresh view (or ``default``)."""
        gid = self._store.known_gid(name)
        return EndpointStateView(self._store, gid) if gid >= 0 else default
