"""Tests for the phi accrual failure detector.

``TestArrivalWindow`` exercises one endpoint's sliding arrival window
inside the detector; ``TestPhiAccrualFailureDetector`` the detector over
many endpoints.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cassandra.failure_detector import (
    DEFAULT_PHI_THRESHOLD,
    PHI_FACTOR,
    ColumnarFailureDetector,
)


class Window:
    """One endpoint's arrival window, driven through the detector."""

    def __init__(self, size=1000, bootstrap_interval=1.0):
        self.fd = ColumnarFailureDetector(window_size=size,
                                          expected_interval=bootstrap_interval)

    def add(self, now):
        self.fd.report("p", now)

    def phi(self, now):
        return self.fd.phi("p", now)

    def mean(self):
        return self.fd.mean_interval("p")


class TestArrivalWindow:
    def test_phi_zero_before_any_arrival(self):
        window = Window()
        assert window.phi(100.0) == 0.0

    def test_regular_heartbeats_keep_phi_low(self):
        window = Window(bootstrap_interval=1.0)
        for t in range(1, 30):
            window.add(float(t))
        # Just after an arrival, suspicion is tiny.
        assert window.phi(29.1) < 0.5

    def test_phi_grows_linearly_with_silence(self):
        window = Window(bootstrap_interval=1.0)
        for t in range(1, 30):
            window.add(float(t))
        phi_5 = window.phi(29.0 + 5.0)
        phi_10 = window.phi(29.0 + 10.0)
        assert phi_10 == pytest.approx(2 * phi_5)

    def test_phi_formula_matches_cassandra(self):
        window = Window(bootstrap_interval=1.0)
        window.add(0.0)
        window.add(1.0)  # mean interval now (0.5 + 1.0) / 2 = 0.75
        expected = PHI_FACTOR * 3.0 / window.mean()
        assert window.phi(4.0) == pytest.approx(expected)

    def test_window_slides(self):
        window = Window(size=3, bootstrap_interval=1.0)
        for t in (1.0, 2.0, 3.0, 4.0, 10.0):
            window.add(t)
        # Window keeps only last 3 intervals: 1, 1, 6 (the 0.5 bootstrap
        # interval and the first 1 slid out).
        assert window.mean() == pytest.approx((1 + 1 + 6) / 3)

    def test_time_going_backwards_rejected(self):
        window = Window()
        window.add(5.0)
        with pytest.raises(ValueError):
            window.add(4.0)

    def test_fast_heartbeats_make_detector_twitchier(self):
        slow = Window(bootstrap_interval=1.0)
        fast = Window(bootstrap_interval=1.0)
        for t in range(1, 20):
            slow.add(float(t))          # 1s intervals
            fast.add(float(t) * 0.1)    # 0.1s intervals
        silence = 3.0
        assert fast.phi(1.9 + silence) > slow.phi(19.0 + silence)


class TestPhiAccrualFailureDetector:
    def test_conviction_after_silence(self):
        fd = ColumnarFailureDetector(expected_interval=1.0)
        for t in range(1, 20):
            fd.report("peer", float(t))
        assert not fd.should_convict("peer", 20.0)
        # Silence long enough pushes phi over the threshold.
        assert fd.should_convict("peer", 19.0 + 60.0)

    def test_unknown_endpoint_never_convicted(self):
        fd = ColumnarFailureDetector()
        assert fd.phi("ghost", 100.0) == 0.0
        assert not fd.should_convict("ghost", 100.0)

    def test_threshold_is_cassandras_default(self):
        assert DEFAULT_PHI_THRESHOLD == 8.0
        assert ColumnarFailureDetector().phi_threshold == 8.0

    def test_forget_drops_state(self):
        fd = ColumnarFailureDetector()
        fd.report("peer", 1.0)
        fd.forget("peer")
        assert fd.known_endpoints() == []
        assert fd.phi("peer", 100.0) == 0.0

    def test_stats_counters(self):
        fd = ColumnarFailureDetector()
        for t in range(1, 10):
            fd.report("p", float(t))
        fd.should_convict("p", 500.0)
        assert fd.stats.reports == 9
        assert fd.stats.convictions == 1
        assert fd.stats.max_phi_seen > 8.0

    def test_independent_endpoints(self):
        fd = ColumnarFailureDetector(expected_interval=1.0)
        for t in range(1, 30):
            fd.report("healthy", float(t))
            if t < 10:
                fd.report("silent", float(t))
        assert not fd.should_convict("healthy", 29.5)
        assert fd.phi("silent", 29.5) > fd.phi("healthy", 29.5)

    def test_conviction_time_scales_with_mean_interval(self):
        """The section 3 irony: the detector is *designed* to adapt, which
        is exactly why stalled gossip stages (stale arrivals) flip healthy
        peers to dead."""
        fd = ColumnarFailureDetector(expected_interval=1.0)
        for t in range(1, 60):
            fd.report("p", float(t) * 0.5)   # 0.5s mean interval
        last = 59 * 0.5
        # phi crosses 8 at roughly threshold/PHI_FACTOR * mean ~ 9.2s.
        assert not fd.should_convict("p", last + 5.0)
        assert fd.should_convict("p", last + 12.0)


@given(intervals=st.lists(st.floats(min_value=0.01, max_value=10.0),
                          min_size=1, max_size=100))
@settings(max_examples=50)
def test_property_phi_nonnegative_and_monotonic_in_time(intervals):
    window = Window()
    t = 0.0
    for interval in intervals:
        t += interval
        window.add(t)
    phis = [window.phi(t + delta) for delta in (0.0, 1.0, 5.0, 25.0)]
    assert all(p >= 0 for p in phis)
    assert phis == sorted(phis)
