"""Tests of the span tracer: self-time accounting, generator proxies, and
that wrapping the program from outside leaves its output unchanged.

    python3 -m pytest perfbench/tests -q
"""

import time

import pytest

from perfbench import iteration, layers, spans, workloads


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _nest(tracer: spans.SpanTracer):
    """A synthetic program: three layers, a same-layer call, a generator."""
    def leaf():
        _busy(0.002)

    def helper():                 # same layer as its caller: inlined
        _busy(0.001)

    def ticks():
        for __ in range(3):
            _busy(0.001)
            yield
        leaf_w()

    def middle():
        _busy(0.001)
        helper_w()
        leaf_w()
        for __ in ticks_w():
            pass

    def top():
        _busy(0.001)
        middle_w()
        leaf_w()

    leaf_w = tracer.wrap(leaf, "c", "t.leaf")
    helper_w = tracer.wrap(helper, "b", "t.helper")
    ticks_w = tracer.wrap(ticks, "a", "t.ticks")
    middle_w = tracer.wrap(middle, "b", "t.middle")
    top_w = tracer.wrap(top, "a", "t.top")
    return top_w


def test_self_times_sum_to_root_duration():
    tracer = spans.SpanTracer()
    top = _nest(tracer)
    tracer.reset()
    top()
    _busy(0.001)
    root = tracer.close_root()
    total = sum(rec[spans.SELF] for rec in tracer.records.values())
    assert total == pytest.approx(root, abs=1e-9)
    assert tracer.records["t.top"][spans.INCL] <= root
    # Every layer got time, and none negative.
    per_layer = spans.layer_totals(tracer.records)
    assert all(per_layer[layer] > 0 for layer in ("a", "b", "c", spans.ROOT))
    assert min(rec[spans.SELF] for rec in tracer.records.values()) >= 0


def test_same_layer_call_is_counted_but_not_split():
    tracer = spans.SpanTracer()
    top = _nest(tracer)
    top()
    helper = tracer.records["t.helper"]
    assert helper[spans.CALLS] == 1
    assert helper[spans.SELF] == 0.0          # stays with t.middle
    assert tracer.records["t.middle"][spans.SELF] >= 0.002


def test_generator_proxy_times_every_resume():
    tracer = spans.SpanTracer()

    def counter(n):
        for i in range(n):
            _busy(0.0005)
            received = yield i
            assert received in (None, "x")
        return "done"

    wrapped = tracer.wrap(counter, "gen", "t.counter")
    rec = tracer.records["t.counter"]

    assert list(wrapped(3)) == [0, 1, 2]
    assert (rec[spans.CALLS], rec[spans.RESUMES]) == (1, 4)

    def outer():
        result = yield from wrapped(2)
        return result

    gen = outer()
    assert next(gen) == 0
    assert gen.send("x") == 1
    with pytest.raises(StopIteration) as stop:
        gen.send("x")
    assert stop.value.value == "done"
    assert (rec[spans.CALLS], rec[spans.RESUMES]) == (2, 7)

    proxy = wrapped(5)
    next(proxy)
    proxy.close()
    assert rec[spans.RESUMES] == 9
    proxy = wrapped(5)
    next(proxy)
    with pytest.raises(KeyError):
        proxy.throw(KeyError("boom"))
    assert rec[spans.RESUMES] == 11
    # Seven busy resumes of 0.5 ms each ran inside spans of the layer.
    assert rec[spans.SELF] >= 0.0035
    assert len(tracer.stack) == 1


def test_gc_hook_balances_the_stack():
    tracer = spans.SpanTracer()
    tracer.install_gc_hook()
    try:
        import gc
        gc.collect()
    finally:
        tracer.uninstall()
    assert tracer.records[spans.GC][spans.CALLS] >= 1
    assert len(tracer.stack) == 1


@pytest.fixture
def small(monkeypatch):
    """Shrink the workloads so a test runs them in seconds."""
    monkeypatch.setitem(workloads.DECOMMISSION, "nodes", 16)
    monkeypatch.setitem(workloads.DECOMMISSION, "observe", 3.0)
    monkeypatch.setitem(workloads.PARTITIONED, "nodes", 32)
    monkeypatch.setitem(workloads.PARTITIONED, "until", 0.5)
    monkeypatch.setitem(workloads.TRAFFIC, "nodes", 8)
    monkeypatch.setitem(workloads.TRAFFIC, "users", 20_000)
    monkeypatch.setitem(workloads.TRAFFIC, "observe", 4.0)
    monkeypatch.setitem(workloads.PIL_CHECK, "nodes", 8)
    monkeypatch.setitem(workloads.PIL_CHECK, "observe", 20.0)
    iteration.import_program()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_matches_untraced(small, name):
    from repro.cassandra.gossip import Gossiper

    do_round = Gossiper.__dict__["do_round"]
    plain = workloads.WORKLOADS[name](7).digest
    untraced = iteration.run_once(name, 7, trace=False)
    traced = iteration.run_once(name, 7, trace=True)
    assert untraced["digest"] == traced["digest"] == plain
    assert all(untraced["checks"].values())
    # Wrapping is undone after the run.
    assert Gossiper.__dict__["do_round"] is do_round
    metrics = traced["per_layer"]
    assert set(metrics) == set(layers.per_layer_names()) - {
        "py.gc_n", "py.gc_s", "trace.overhead_s"}
    assert metrics["kernel.events"] > 0
    assert metrics["gossip.msg_n"] > 0
    assert untraced["setup_s"] > 0 and untraced["run_s"] > 0
    assert untraced["total_s"] >= untraced["run_s"]
    if name == "partitioned":
        assert metrics["partition.barriers"] > 0
        assert metrics["partition.ipc_bytes"] > 0
    if name == "pil_check":
        assert metrics["memo.get_n"] > 0
        assert metrics["replay.parked_n"] > 0
    if name == "traffic":
        assert metrics["storage.read_n"] > 0
        assert metrics["workload.issue_n"] > 0
