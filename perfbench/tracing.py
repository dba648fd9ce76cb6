"""Layer attribution for the benchmark's traced pass.

Everything here works from outside the program: the kernel's public
``Simulator.on_event`` hook and method wrappers installed on the layer
classes for the duration of one traced run.  Nothing under ``src/`` is
edited, so the same file measures any commit that keeps these names.

Spans nest.  A span's *self time* is its duration minus the time its
direct child spans cover; a layer's self time is the sum over its spans.
Only the aggregates are kept (per-layer self time, per-span-name call
count and inclusive time), because a traced mesh run closes over a
million spans.
"""

from __future__ import annotations

import asyncio
import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.engine import Simulator
from repro.sim.timers import Timer
from repro.sim.trace import percentile

#: module prefix -> layer name, matched most specific first
LAYER_OF_PACKAGE: Sequence[Tuple[str, str]] = (
    ("repro.sim", "sim"),
    ("repro.phy", "phy"),
    ("repro.mac", "mac"),
    ("repro.lowpan", "lowpan"),
    ("repro.net", "net"),
    ("repro.core", "tcp"),
    ("repro.app", "app"),
    ("repro.experiments", "workload"),
    ("repro.gateway", "gw"),
)

LAYERS = tuple(layer for _, layer in LAYER_OF_PACKAGE) + ("other",)

#: the layers' public entry methods wrapped in the traced pass, as
#: (module, class, methods).  The kernel's own scheduling calls are
#: spans too, so heap pushes made from inside a layer count as kernel.
ENTRY_POINTS: Sequence[Tuple[str, str, Tuple[str, ...]]] = (
    ("repro.sim.engine", "Simulator", ("schedule", "schedule_at")),
    ("repro.phy.medium", "Medium", ("begin_transmission", "carrier_busy")),
    ("repro.phy.radio", "Radio", ("load", "transmit_loaded", "deliver")),
    ("repro.mac.link", "MacLayer", ("send", "send_data_request")),
    ("repro.lowpan.adaptation", "LowpanAdaptation", ("send_packet",)),
    ("repro.net.ipv6", "Ipv6Layer", ("send", "deliver", "forward")),
    ("repro.core.connection", "TcpConnection", ("output", "on_segment")),
    ("repro.core.buffers", "ReceiveBuffer", ("write", "sack_ranges")),
    ("repro.gateway.server", "Gateway", ("admit",)),
    ("repro.gateway.bridge", "TcpBridge", ("data_received",)),
)

#: a percentile is reported only when this many samples lie beyond it
MIN_TAIL_SAMPLES = 10


def layer_of_module(module: Optional[str]) -> str:
    """The layer a module belongs to ("other" outside the stack)."""
    if module:
        for prefix, layer in LAYER_OF_PACKAGE:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "other"


def percentile_supported(n_samples: int, q: float) -> bool:
    """True when at least MIN_TAIL_SAMPLES of ``n_samples`` lie beyond
    the ``q``-th percentile (so p99 needs 1000 samples)."""
    return n_samples * (100.0 - q) / 100.0 >= MIN_TAIL_SAMPLES


def supported_percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile of ``samples``, or None if the sample is
    too small for it (see :func:`percentile_supported`)."""
    if not percentile_supported(len(samples), q):
        return None
    return percentile(samples, q)


class SpanRecorder:
    """Nested spans reduced on close to self time per layer.

    ``clock`` is injectable so the arithmetic can be tested exactly.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._stack: List[list] = []
        #: layer -> seconds inside the layer's spans, children excluded
        self.self_s: Dict[str, float] = defaultdict(float)
        #: span name -> seconds inside spans of that name, children included
        self.total_s: Dict[str, float] = defaultdict(float)
        #: span name -> spans closed
        self.calls: Dict[str, int] = defaultdict(int)

    def open(self, layer: str, name: str) -> None:
        self._stack.append([layer, name, self.clock(), 0.0])

    def close(self) -> None:
        layer, name, start, covered = self._stack.pop()
        duration = self.clock() - start
        self.self_s[layer] += duration - covered
        self.total_s[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][3] += duration

    def reset(self) -> None:
        """Drop the aggregates (between set-up and the measured run)."""
        if self._stack:
            raise RuntimeError("reset with open spans")
        self.self_s.clear()
        self.total_s.clear()
        self.calls.clear()


_IDENTITY: Dict[object, Tuple[str, str]] = {}


def callback_identity(fn) -> Tuple[str, str]:
    """(layer, "Class.method") of a dispatched callback.

    A one-shot ``Timer`` dispatches its own ``_fire``; the callback it
    fires names the layer instead, so TCP's retransmit timer counts as
    TCP, not as the kernel.
    """
    func = getattr(fn, "__func__", fn)
    if func is Timer._fire:
        return callback_identity(fn.__self__.callback)
    if isinstance(func, functools.partial):
        return callback_identity(func.func)
    ident = _IDENTITY.get(func)
    if ident is None:
        name = getattr(func, "__qualname__", None) or type(func).__name__
        ident = (layer_of_module(getattr(func, "__module__", None)), name)
        _IDENTITY[func] = ident
    return ident


class MixCounter:
    """``on_event`` hook that only counts dispatches per callback."""

    def __init__(self) -> None:
        self.mix: Counter = Counter()

    def __call__(self, ev) -> None:
        self.mix[callback_identity(ev.fn)[1]] += 1


class DispatchSpans:
    """``on_event`` hook that turns each dispatch into a span.

    The callback's module names the layer; the next dispatch (or the
    end of ``Simulator.run``) closes the span, so the span also holds
    the dispatch loop's pop of the next event.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.mix: Counter = Counter()
        self._open = False

    def __call__(self, ev) -> None:
        rec = self.recorder
        if self._open:
            rec.close()
        layer, name = callback_identity(ev.fn)
        self.mix[name] += 1
        rec.open(layer, name)
        self._open = True

    def end_run(self) -> None:
        if self._open:
            self.recorder.close()
            self._open = False


def _span_wrapper(orig, recorder: SpanRecorder, layer: str, name: str):
    open_, close = recorder.open, recorder.close

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        open_(layer, name)
        try:
            return orig(*args, **kwargs)
        finally:
            close()

    return wrapper


@contextmanager
def instrumented(recorder: SpanRecorder, dispatch: DispatchSpans,
                 extra: Sequence[Tuple[type, str, Callable]] = ()):
    """Wrap every entry point (and ``Simulator.run``) for one traced run.

    Install before the network is built: layers that cache bound
    methods at construction then cache the wrappers.  ``extra`` adds
    (class, method, wrapper_factory) patches; the factory receives the
    original function.  Everything is restored on exit.
    """
    saved: List[Tuple[type, str, object]] = []

    def patch(cls, attr, new):
        saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)

    try:
        for module, cls_name, methods in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            layer = layer_of_module(module)
            for meth in methods:
                orig = cls.__dict__[meth]
                patch(cls, meth, _span_wrapper(
                    orig, recorder, layer, f"{cls_name}.{meth}"))
        run = Simulator.__dict__["run"]

        @functools.wraps(run)
        def traced_run(self, *args, **kwargs):
            recorder.open("sim", "Simulator.run")
            try:
                return run(self, *args, **kwargs)
            finally:
                dispatch.end_run()
                recorder.close()

        patch(Simulator, "run", traced_run)
        for cls, attr, factory in extra:
            patch(cls, attr, factory(cls.__dict__[attr]))
        yield
    finally:
        for cls, attr, orig in reversed(saved):
            setattr(cls, attr, orig)


@contextmanager
def client_phases():
    """Record client-side connect and first-byte times of asyncio streams.

    Patches ``asyncio.open_connection`` and ``StreamReader.feed_data``
    for the duration; yields a dict with ``connect`` and ``first_byte``
    lists (seconds from the start of ``open_connection``).
    """
    phases: Dict[str, List[float]] = {"connect": [], "first_byte": []}
    started: Dict[int, float] = {}
    orig_open = asyncio.open_connection
    orig_feed = asyncio.StreamReader.feed_data

    async def open_connection(*args, **kwargs):
        t0 = time.perf_counter()
        reader, writer = await orig_open(*args, **kwargs)
        phases["connect"].append(time.perf_counter() - t0)
        started[id(reader)] = t0
        return reader, writer

    def feed_data(self, data):
        t0 = started.pop(id(self), None)
        if t0 is not None and data:
            phases["first_byte"].append(time.perf_counter() - t0)
        return orig_feed(self, data)

    asyncio.open_connection = open_connection
    asyncio.StreamReader.feed_data = feed_data
    try:
        yield phases
    finally:
        asyncio.open_connection = orig_open
        asyncio.StreamReader.feed_data = orig_feed
