"""Span arithmetic, dispatch attribution and percentile support."""

import functools

import pytest

import tracing
from repro.sim.engine import Simulator
from repro.sim.timers import Timer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def span(rec, clock, layer, name, start):
    clock.now = start
    rec.open(layer, name)


def end(rec, clock, at):
    clock.now = at
    rec.close()


def test_nested_child_time_is_subtracted_once():
    clock = FakeClock()
    rec = tracing.SpanRecorder(clock)
    span(rec, clock, "mac", "outer", 0.0)
    span(rec, clock, "phy", "mid", 1.0)
    span(rec, clock, "sim", "inner", 2.0)
    end(rec, clock, 3.0)   # inner: 1
    end(rec, clock, 5.0)   # mid: 4, self 3
    end(rec, clock, 6.0)   # outer: 6, self 2 (grandchild not subtracted)
    assert rec.self_s["sim"] == pytest.approx(1.0)
    assert rec.self_s["phy"] == pytest.approx(3.0)
    assert rec.self_s["mac"] == pytest.approx(2.0)
    assert rec.total_s["outer"] == pytest.approx(6.0)
    assert sum(rec.self_s.values()) == pytest.approx(rec.total_s["outer"])


def test_sibling_children_both_subtracted():
    clock = FakeClock()
    rec = tracing.SpanRecorder(clock)
    span(rec, clock, "tcp", "parent", 0.0)
    span(rec, clock, "net", "a", 1.0)
    end(rec, clock, 3.0)
    span(rec, clock, "net", "a", 4.0)
    end(rec, clock, 7.0)
    end(rec, clock, 10.0)
    assert rec.self_s["tcp"] == pytest.approx(5.0)
    assert rec.self_s["net"] == pytest.approx(5.0)
    assert rec.calls["a"] == 2
    assert rec.total_s["a"] == pytest.approx(5.0)


def test_same_layer_nesting_counts_self_time_once():
    clock = FakeClock()
    rec = tracing.SpanRecorder(clock)
    span(rec, clock, "sim", "run", 0.0)
    span(rec, clock, "sim", "schedule", 2.0)
    end(rec, clock, 3.0)
    end(rec, clock, 4.0)
    assert rec.self_s["sim"] == pytest.approx(4.0)


def test_reset_refuses_open_spans():
    rec = tracing.SpanRecorder(FakeClock())
    rec.open("sim", "x")
    with pytest.raises(RuntimeError):
        rec.reset()
    rec.close()
    rec.reset()
    assert not rec.calls


@pytest.mark.parametrize("n, q, ok", [
    (999, 99, False), (1000, 99, True),
    (19, 50, False), (20, 50, True),
    (199, 95, False), (200, 95, True),
])
def test_percentile_needs_ten_samples_beyond(n, q, ok):
    assert tracing.percentile_supported(n, q) is ok
    value = tracing.supported_percentile([float(i) for i in range(n)], q)
    assert (value is not None) is ok


def test_supported_percentile_value():
    samples = [float(i) for i in range(1, 1001)]
    assert tracing.supported_percentile(samples, 50) == pytest.approx(500.5)


def test_layer_of_module():
    assert tracing.layer_of_module("repro.mac.link") == "mac"
    assert tracing.layer_of_module("repro.core.buffers") == "tcp"
    assert tracing.layer_of_module("repro.simx") == "other"
    assert tracing.layer_of_module(None) == "other"


class _Ev:
    def __init__(self, fn):
        self.fn = fn


def test_dispatch_spans_close_at_next_dispatch_and_run_end():
    clock = FakeClock()
    rec = tracing.SpanRecorder(clock)
    spans = tracing.DispatchSpans(rec)
    sim = Simulator()
    rec.open("sim", "Simulator.run")
    clock.now = 1.0
    spans(_Ev(sim.stop))           # kernel callback, 1..4
    clock.now = 4.0
    spans(_Ev(tracing.layer_of_module))  # "other", 4..6
    clock.now = 6.0
    spans.end_run()
    clock.now = 7.0
    rec.close()
    assert rec.self_s["other"] == pytest.approx(2.0)
    # run span self (0..1, 6..7) plus the kernel callback's span
    assert rec.self_s["sim"] == pytest.approx(5.0)
    assert spans.mix == {"Simulator.stop": 1, "layer_of_module": 1}


def test_timer_dispatch_is_named_after_its_callback():
    sim = Simulator()
    fired = []

    class Owner:
        def tick(self):
            fired.append(sim.now)

    timer = Timer(sim, Owner().tick)
    timer.start(1.0)
    counter = tracing.MixCounter()
    sim.on_event = counter
    sim.run()
    assert fired == [1.0]
    assert counter.mix == {
        "test_timer_dispatch_is_named_after_its_callback.<locals>.Owner.tick": 1}
    layer, _ = tracing.callback_identity(functools.partial(sim.stop))
    assert layer == "sim"


def test_instrumented_restores_every_method():
    from repro.mac.link import MacLayer

    before = (Simulator.run, Simulator.schedule, MacLayer.send)
    rec = tracing.SpanRecorder()
    with tracing.instrumented(rec, tracing.DispatchSpans(rec)):
        assert Simulator.schedule is not before[1]
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
    assert (Simulator.run, Simulator.schedule, MacLayer.send) == before
    assert rec.calls["Simulator.schedule"] == 1
    assert rec.calls["Simulator.run"] == 1
    rec.reset()  # raises if a span was left open
