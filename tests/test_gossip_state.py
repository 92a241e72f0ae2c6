"""Tests for gossip endpoint-state wire formats and digests."""

import pytest

from repro.cassandra.gossip import Gossiper
from repro.cassandra.metrics import FlapCounter
from repro.cassandra.state import (
    GossipDigest,
    STATUS,
    STATUS_NORMAL,
    TOKENS,
    VersionGenerator,
    VersionedValue,
    blob_entry_count,
)
from repro.sim.rng import SplittableRng


def make_gossiper(node_id="a", generation=1, beats=0, clock=0.0):
    """A standalone gossiper (messages go nowhere) after ``beats`` rounds."""
    gossiper = Gossiper(node_id=node_id, generation=generation, seeds=[],
                        rng=SplittableRng(1), send=lambda *msg: None,
                        now=lambda: clock, flaps=FlapCounter())
    for __ in range(beats):
        gossiper.do_round()
    return gossiper


def test_version_generator_monotonic():
    versions = VersionGenerator()
    values = [versions.next() for __ in range(10)]
    assert values == sorted(values)
    assert len(set(values)) == 10


def test_beat_advances_version():
    gossiper = make_gossiper()
    assert gossiper.own_state.heartbeat.version == 0
    gossiper.do_round()
    first = gossiper.own_state.heartbeat.version
    gossiper.do_round()
    assert gossiper.own_state.heartbeat.version > first


def test_max_version_covers_heartbeat_and_app_states():
    gossiper = make_gossiper(beats=1)
    hb_version = gossiper.own_state.heartbeat.version
    gossiper.set_app_state(STATUS, STATUS_NORMAL)
    assert gossiper.own_state.max_version() == hb_version + 1
    gossiper.do_round()
    assert gossiper.own_state.max_version() == hb_version + 2


def test_status_and_tokens_accessors():
    gossiper = make_gossiper()
    state = gossiper.own_state
    assert state.status() is None
    assert state.tokens() is None
    gossiper.set_app_state(STATUS, STATUS_NORMAL)
    gossiper.set_app_state(TOKENS, "", payload=(10, 20))
    assert state.status() == STATUS_NORMAL
    assert state.tokens() == (10, 20)


def test_blob_roundtrip():
    source = make_gossiper(generation=3, beats=2)
    source.set_app_state(STATUS, STATUS_NORMAL)
    source.set_app_state(TOKENS, "", payload=(1, 2, 3))
    blob = source.own_state.to_blob()
    observer = make_gossiper("b", clock=42.0)
    observer.populate("a", blob)
    restored = observer.endpoint_state_map["a"]
    assert restored.heartbeat.generation == 3
    assert restored.heartbeat.version == source.own_state.heartbeat.version
    assert restored.status() == STATUS_NORMAL
    assert restored.tokens() == (1, 2, 3)
    assert restored.update_timestamp == 42.0
    assert restored.to_blob() == blob


def test_delta_blob_filters_by_version():
    gossiper = make_gossiper(beats=1)
    gossiper.set_app_state("A", "old")
    for __ in range(5):
        gossiper.do_round()
    gossiper.set_app_state("B", "new")
    state = gossiper.own_state
    full = state.delta_blob(0)
    delta = state.delta_blob(5)
    assert len(full[2]) == 2
    assert len(delta[2]) == 1
    assert delta[2][0][0] == "B"
    # Heartbeat always rides along.
    assert delta[1] == state.heartbeat.version


def test_blob_entry_count():
    gossiper = make_gossiper(beats=1)
    gossiper.set_app_state(STATUS, STATUS_NORMAL)
    assert blob_entry_count(gossiper.own_state.to_blob()) == 2  # hb + STATUS


def test_make_digests_sorted_and_complete():
    observer = make_gossiper("mid", beats=1)
    zeta = make_gossiper("zeta", beats=3)
    alpha = make_gossiper("alpha", generation=2, beats=1)
    observer.populate("zeta", zeta.own_state.to_blob())
    observer.populate("alpha", alpha.own_state.to_blob())
    digests = observer._build_digests()
    assert [d.endpoint for d in digests] == ["alpha", "mid", "zeta"]
    assert digests[2] == GossipDigest("zeta", 1, zeta.own_state.max_version())
    assert digests[0] == GossipDigest("alpha", 2, 1)


def test_versioned_value_is_immutable():
    value = VersionedValue("x", 1)
    with pytest.raises(Exception):
        value.value = "y"


def test_state_views_are_read_only():
    """A write through a view raises instead of being silently dropped."""
    observer = make_gossiper("b")
    observer.populate("a", make_gossiper(beats=1).own_state.to_blob())
    view = observer.endpoint_state_map["a"]
    with pytest.raises(AttributeError):
        view.alive = False
    with pytest.raises(AttributeError):
        view.heartbeat.version = 99
    assert not hasattr(view, "app_states")
    with pytest.raises(TypeError):
        observer.endpoint_state_map["a"] = view
