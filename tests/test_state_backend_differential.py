"""Golden check: the gossip state matches the retired dict backend.

Gossip state once had two interchangeable representations: one
``EndpointState`` object per (observer, endpoint) pair, and the columnar
store that remains.  Before the object representation was deleted, its
output was recorded into ``tests/fixtures/gossip_state_golden.json`` (and
the columnar store reproduced all of it):

* ``scenarios`` -- c3831 under ``FAST`` params for seeds 0..9 at N in
  {8, 32, 64}: the canonical ``RunReport`` digest, the simulator's step
  count and a SHA-256 of the network delivery log;
* ``failure_detector`` -- a scripted arrival sequence at window sizes 1, 5
  and 1000: every mean, phi and max-phi as ``float.hex()``, the conviction
  decisions, stats, ``phis`` and forget/re-bootstrap behaviour;
* ``wire`` -- the blobs, delta blob, digest list, known endpoints and
  stats of a two-node exchange.

The protocol cases further down (SYN/ACK/ACK2 convergence, restart
generations, LEFT handling, conviction/recovery flaps) run every gossiper
of a test on one cluster-shared state table, as a real cluster does;
``tests/test_gossip.py`` runs the same surface with one table per
gossiper.  Their ``[columnar]`` id names the representation they pinned
while the dict backend still existed.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cassandra.cluster import Cluster, ClusterConfig, Mode
from repro.cassandra.failure_detector import ColumnarFailureDetector
from repro.cassandra.gossip import SYN, GossipConfig, Gossiper
from repro.cassandra.metrics import FlapCounter
from repro.cassandra.state import (
    STATUS,
    STATUS_LEAVING,
    STATUS_LEFT,
    STATUS_NORMAL,
    TOKENS,
    SharedClusterState,
)
from repro.cassandra.workloads import ScenarioParams, run_workload
from repro.sim.rng import SplittableRng

GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "gossip_state_golden.json")
    .read_text())

#: Short scenario: long enough for decommission + conviction traffic,
#: short enough that the 10-seed x 3-scale sweep stays in tier-1.
FAST = ScenarioParams(warmup=2.0, observe=5.0, leaving_duration=2.0,
                      join_duration=2.0, join_stagger=0.5)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("nodes", [8, 32, 64])
@pytest.mark.parametrize("seed", range(10))
def test_backends_byte_identical(nodes, seed):
    """Seeds 0..9, N in {8,32,64}: report, steps and delivery log match
    the dict backend's recording exactly."""
    config = ClusterConfig.for_bug("c3831", nodes=nodes, mode=Mode.REAL,
                                   seed=seed)
    cluster = Cluster(config)
    report = run_workload(cluster, config.bug.workload, FAST)
    log = cluster.network.delivery_log
    assert {
        "report_sha256": report.digest(),
        "steps": cluster.sim.steps,
        "delivery_log_sha256": _sha256("\n".join(log)),
        "delivery_log_len": len(log),
    } == GOLDEN["scenarios"][f"n{nodes}-s{seed}"]


# -- wire artifacts ------------------------------------------------------------


class Bus:
    """Synchronous loopback fabric over one shared state table."""

    def __init__(self):
        self.shared = SharedClusterState()
        self.gossipers = {}
        self.queue = []
        self.clock = 0.0
        self.flaps = FlapCounter()
        self.status_changes = []

    def now(self):
        return self.clock

    def add(self, node_id, seeds=(), generation=1):
        gossiper = Gossiper(
            node_id=node_id, generation=generation, seeds=list(seeds),
            rng=SplittableRng(1),
            send=lambda dst, kind, payload, src=node_id: self.queue.append(
                (src, dst, kind, payload)),
            now=self.now, flaps=self.flaps, config=GossipConfig(),
            on_status_change=lambda ep, status, state, me=node_id:
                self.status_changes.append((me, ep, status)),
            shared=self.shared)
        self.gossipers[node_id] = gossiper
        return gossiper

    def pump(self, max_rounds=50):
        """Deliver messages until quiescent."""
        for __ in range(max_rounds):
            if not self.queue:
                return
            src, dst, kind, payload = self.queue.pop(0)
            if dst in self.gossipers:
                self.gossipers[dst].handle_message(kind, payload, src)
        raise AssertionError("bus did not quiesce")

    def exchange(self, a, b):
        """One full gossip exchange initiated by a towards b."""
        digests = self.gossipers[a]._build_digests()
        self.gossipers[b].handle_message(SYN, digests, a)
        self.pump()


def make_pair():
    bus = Bus()
    a = bus.add("a", seeds=["a"])
    b = bus.add("b", seeds=["a"])
    a.set_app_state(TOKENS, "", payload=(100,))
    a.set_app_state(STATUS, STATUS_NORMAL)
    b.set_app_state(TOKENS, "", payload=(200,))
    b.set_app_state(STATUS, STATUS_NORMAL)
    return bus, a, b


# -- protocol cases on one shared table ----------------------------------------


@pytest.fixture(params=["columnar"])
def backend(request):
    return request.param


def test_syn_ack_ack2_converges_two_nodes(backend):
    bus, a, b = make_pair()
    bus.exchange("a", "b")
    assert "a" in b.endpoint_state_map
    assert "b" in a.endpoint_state_map
    assert b.endpoint_state_map["a"].status() == STATUS_NORMAL
    assert a.endpoint_state_map["b"].tokens() == (200,)


def test_heartbeat_versions_propagate(backend):
    bus, a, b = make_pair()
    bus.exchange("a", "b")
    version_before = b.endpoint_state_map["a"].heartbeat.version
    bus.clock = 1.0
    a.do_round()
    bus.pump()
    bus.exchange("a", "b")
    assert b.endpoint_state_map["a"].heartbeat.version > version_before


def test_left_status_removes_from_liveness_tracking(backend):
    bus, a, b = make_pair()
    bus.exchange("a", "b")
    assert "a" in b.live_endpoints
    a.set_app_state(STATUS, STATUS_LEFT)
    bus.exchange("a", "b")
    assert "a" not in b.live_endpoints
    assert "a" not in b.unreachable_endpoints
    assert "a" not in b.fd.known_endpoints()


def test_restart_with_higher_generation_replaces_state(backend):
    bus, a, b = make_pair()
    bus.exchange("a", "b")
    old_generation = b.endpoint_state_map["a"].heartbeat.generation
    bus.gossipers.pop("a")
    a2 = bus.add("a", seeds=["a"], generation=old_generation + 1)
    a2.set_app_state(TOKENS, "", payload=(100,))
    a2.set_app_state(STATUS, STATUS_NORMAL)
    bus.exchange("a", "b")
    assert b.endpoint_state_map["a"].heartbeat.generation == old_generation + 1


def test_stale_generation_ignored(backend):
    bus, a, b = make_pair()
    bus.exchange("a", "b")
    version = b.endpoint_state_map["a"].heartbeat.version
    b._apply_state("a", (0, 999, ()))
    assert b.endpoint_state_map["a"].heartbeat.version == version


def test_conviction_and_recovery_counts_flap(backend):
    bus, a, b = make_pair()
    bus.exchange("a", "b")
    for t in range(1, 20):
        bus.clock = float(t)
        b.fd.report("a", bus.clock)
    bus.clock = 100.0
    convicted = b.check_convictions()
    assert convicted == ["a"]
    assert bus.flaps.total == 1
    assert "a" in b.unreachable_endpoints
    assert b.endpoint_state_map["a"].alive is False
    a.do_round()
    bus.queue.clear()
    bus.exchange("a", "b")
    assert "a" in b.live_endpoints
    assert b.endpoint_state_map["a"].alive is True
    assert bus.flaps.recoveries == 1


def test_status_change_callback_fires_once_per_change(backend):
    bus, a, b = make_pair()
    bus.exchange("a", "b")
    changes_before = list(bus.status_changes)
    a.set_app_state(STATUS, STATUS_LEAVING)
    bus.exchange("a", "b")
    new = [c for c in bus.status_changes if c not in changes_before]
    assert ("b", "a", STATUS_LEAVING) in new
    before = len(bus.status_changes)
    bus.exchange("a", "b")
    assert len(bus.status_changes) == before


def test_status_notification_sees_tokens_from_same_blob(backend):
    bus = Bus()
    a = bus.add("a", seeds=["a"])
    b = bus.add("b", seeds=["a"])
    bus.exchange("a", "b")
    seen = []
    b.on_status_change = lambda ep, status, state: seen.append(
        (ep, status, state.tokens()))
    a.set_app_state(TOKENS, "", payload=(123, 456))
    a.set_app_state(STATUS, "BOOT")
    bus.exchange("a", "b")
    assert ("a", "BOOT", (123, 456)) in seen


def test_blobs_and_digests_match_across_backends():
    """Wire artifacts -- blobs, deltas, digest lists -- match the recording."""
    bus, a, b = make_pair()
    bus.exchange("a", "b")
    bus.clock = 1.0
    a.do_round()
    bus.pump()
    stats = {key: value.hex() if isinstance(value, float) else value
             for key, value in a.stats().items()}
    wire = json.loads(json.dumps({
        "to_blob": a.own_state.to_blob(),
        "delta_blob_1": a.own_state.delta_blob(1),
        "max_version": a.own_state.max_version(),
        "digests": [list(d) for d in a._build_digests()],
        "known_endpoints": a.known_endpoints(),
        "stats": stats,
        "b_view_of_a": b.endpoint_state_map["a"].to_blob(),
    }))
    assert wire == GOLDEN["wire"]


# -- failure-detector arithmetic -----------------------------------------------


def _scripted_detector(window: int) -> dict:
    fd = ColumnarFailureDetector(window_size=window, expected_interval=1.0)
    times = [0.5, 1.0, 2.25, 3.0, 4.5, 5.0, 6.75, 7.0, 8.5, 9.0, 10.25]
    steps = []
    for t in times:
        fd.report("p", t)
        steps.append([t.hex(), fd.mean_interval("p").hex(),
                      fd.phi("p", t + 3.3).hex(),
                      fd.should_convict("p", t + 12.0),
                      fd.should_convict("p", t + 40.0)])
    result = {
        "steps": steps,
        "stats": [fd.stats.reports, fd.stats.convictions,
                  fd.stats.max_phi_seen.hex()],
        "phis_11": {k: v.hex() for k, v in fd.phis(11.0).items()},
        "known": fd.known_endpoints(),
    }
    fd.forget("p")
    result["known_after_forget"] = fd.known_endpoints()
    # Re-reporting after forget re-bootstraps identically.
    fd.report("p", 20.0)
    result["mean_after_rereport"] = fd.mean_interval("p").hex()
    return result


def test_columnar_failure_detector_matches_dict_arithmetic():
    """phi / mean / window-slide arithmetic is bit-identical at window
    sizes 1 (slides every arrival), 5 (slides mid-script) and 1000."""
    for window in (1, 5, 1000):
        assert (_scripted_detector(window)
                == GOLDEN["failure_detector"][f"window{window}"]), window


def test_columnar_interning_is_shared():
    """Two observers of the same app states share one interned record."""
    bus = Bus()
    a = bus.add("a", seeds=["a"])
    b = bus.add("b", seeds=["a"])
    c = bus.add("c", seeds=["a"])
    a.set_app_state(TOKENS, "", payload=(100,))
    a.set_app_state(STATUS, STATUS_NORMAL)
    bus.exchange("a", "b")
    bus.exchange("a", "c")
    gid = bus.shared.registry["a"]
    assert b._store.app[gid] is c._store.app[gid]
    digest_b = b._build_digests()[0]
    assert digest_b is c._build_digests()[0]
    assert digest_b is b._store.digest_cache[gid]
