"""Traffic generators and measurement glue for the experiments.

:class:`BulkTransfer` drives a TCP connection at saturation (an
iperf-style workload — the §6/§7 throughput experiments), measuring
goodput at the receiver.  :class:`GoodputMeter` can wrap any byte sink.

:class:`FlowSet` scales that up: it launches, staggers, and meters N
concurrent flows (saturating bulk transfers or paced sensor streams)
over one network, sharing a TCP stack per node, and reports per-flow
and aggregate goodput plus Jain's fairness index.  It is the workload
engine behind the ``dense_mesh`` benchmark scenario and every
many-flow experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

from repro.core.params import TcpParams
from repro.core.socket_api import TcpStack


class GoodputMeter:
    """Counts delivered bytes between start() and now.

    The elapsed window is measured on the warp-invariant clock
    (``sim.now - sim.time_warped``, the same clock TCP uses for RTT
    and keepalive): a hybrid-fidelity warp that this meter's flow did
    not participate in must not stretch the denominator.  Warps that
    *do* carry this flow's modelled progress are booked explicitly by
    the controller through :meth:`credit`, whose ``interval`` argument
    re-adds exactly the warped seconds the credited bytes covered.
    """

    def __init__(self, sim):
        self.sim = sim
        self.bytes = 0
        self._start: Optional[float] = None
        #: warped seconds explicitly credited to this meter's window
        self._warp_time = 0.0
        self.first_byte_at: Optional[float] = None

    def _invariant_now(self) -> float:
        return self.sim.now - getattr(self.sim, "time_warped", 0.0)

    def start(self) -> None:
        """Begin (or restart) the measurement window."""
        self._start = self._invariant_now()
        self._warp_time = 0.0
        self.bytes = 0

    def on_data(self, data: bytes) -> None:
        """Byte-sink callback."""
        if self.first_byte_at is None:
            self.first_byte_at = self.sim.now
        if self._start is not None:
            self.bytes += len(data)

    def credit(self, nbytes: int, interval: float = 0.0) -> None:
        """Account bytes delivered analytically by the hybrid-fidelity
        tier — no ``on_data`` callback fires during a warp, so the
        controller books the modelled progress here.  ``interval`` is
        the warped span the bytes covered; it is added back to this
        meter's elapsed window so credited goodput stays rate-exact."""
        if interval > 0 and self._start is not None:
            self._warp_time += interval
        if nbytes <= 0:
            return
        if self.first_byte_at is None:
            self.first_byte_at = self.sim.now
        if self._start is not None:
            self.bytes += nbytes

    def elapsed(self) -> float:
        """Measurement-window length: warp-invariant time plus any
        explicitly credited warp spans."""
        if self._start is None:
            return 0.0
        return (self._invariant_now() - self._start) + self._warp_time

    def goodput_bps(self) -> float:
        """Delivered application bits per second over the window."""
        if self._start is None:
            return 0.0
        elapsed = self.elapsed()
        return self.bytes * 8.0 / elapsed if elapsed > 0 else 0.0


class FlowReceiver:
    """The receiver half of a flow: listen on its port, meter the bytes.

    :class:`BulkTransfer` and :class:`SensorStream` build their receiver
    side with it, and a :class:`FlowSet` that owns only a flow's
    destination runs it alone.  Bound methods only (no closures), so
    checkpoints clone it with the simulation.
    """

    def __init__(self, sim, stack: TcpStack, port: int,
                 params: Optional[TcpParams] = None):
        self.meter = GoodputMeter(sim)
        stack.listen(port, self._on_accept, params=params)

    def _on_accept(self, conn) -> None:
        conn.on_data = self.meter.on_data


@dataclass
class BulkResult:
    """Outcome of one bulk transfer measurement."""

    goodput_bps: float
    bytes_delivered: int
    duration: float
    segs_sent: int = 0
    retransmits: int = 0
    rto_events: int = 0
    fast_retransmits: int = 0
    segment_loss: float = 0.0
    rtt_samples: List[float] = field(default_factory=list)

    @property
    def goodput_kbps(self) -> float:
        """kb/s, the paper's unit."""
        return self.goodput_bps / 1000.0


class BulkTransfer:
    """Saturating one-way TCP transfer between two stacks.

    The sender's ``on_send_space`` hook refills the send buffer whenever
    space opens, so the connection is always window-limited — exactly
    the regime of the paper's throughput studies.
    """

    CHUNK = 1024

    def __init__(
        self,
        sim,
        sender_stack: TcpStack,
        receiver_stack: TcpStack,
        receiver_id: int,
        port: int = 8000,
        params: Optional[TcpParams] = None,
        receiver_params: Optional[TcpParams] = None,
        dst_is_cloud: bool = False,
        payload_byte: bytes = b"a",
    ):
        self.sim = sim
        self.connected = False
        self._conn = None
        self._closed = False
        self.errors: List[str] = []
        self._payload = payload_byte * self.CHUNK

        self.receiver = FlowReceiver(sim, receiver_stack, port,
                                     params=receiver_params)
        self.meter = self.receiver.meter
        self._conn = sender_stack.connect(
            receiver_id, port, params=params, dst_is_cloud=dst_is_cloud
        )
        self._conn.on_connect = self._on_connect
        self._conn.on_send_space = self._fill
        self._conn.on_error = self._on_error

        #: fractional-segment remainder for hybrid credit accounting
        self._credit_carry = 0
        hybrid = getattr(sim, "hybrid", None)
        if hybrid is not None:
            # hybrid-fidelity kernel: let the controller watch this flow
            # for steady-state fast-forwarding
            hybrid.register_flow(self)

    @property
    def connection(self):
        """The sender-side socket (for cwnd traces etc.)."""
        return self._conn

    def hybrid_credit(self, nbytes: int, interval: float = 0.0) -> None:
        """Book analytically fast-forwarded progress (hybrid tier):
        delivered bytes into the meter (with the warped span they
        covered), plus the equivalent data-segment count so per-segment
        statistics stay comparable to full-fidelity runs."""
        self.meter.credit(nbytes, interval)
        conn = self._conn
        if conn is not None and nbytes > 0:
            segs, self._credit_carry = divmod(
                self._credit_carry + nbytes, conn.mss
            )
            if segs:
                conn.trace.counters.incr("tcp.data_segs_sent", segs)

    # Bound methods throughout (no closures / builtin-method refs): the
    # whole harness must clone with the simulation under
    # repro.sim.checkpoint, and a closure would keep pointing at the
    # original object graph after a restore.
    def _on_error(self, err) -> None:
        self.errors.append(err)

    def _on_connect(self) -> None:
        self.connected = True
        self._fill()

    def _fill(self) -> None:
        if self._closed:
            return
        while self._conn.send_buf.free > 0 and self._conn.is_open:
            self._conn.send(self._payload[: self._conn.send_buf.free])

    def measure(self, warmup: float, duration: float) -> BulkResult:
        """Run the simulation for warmup + duration; return metrics."""
        self.sim.run(until=self.sim.now + warmup)
        self.meter.start()
        base = dict(self._conn.trace.counters.as_dict())
        rtt_series = self._conn.trace.series("tcp.rtt")
        rtt_before = len(rtt_series)
        self.sim.run(until=self.sim.now + duration)
        counters = self._conn.trace.counters
        segs = counters.get("tcp.data_segs_sent") - base.get("tcp.data_segs_sent", 0)
        retx = counters.get("tcp.retransmits") - base.get("tcp.retransmits", 0)
        rtos = counters.get("tcp.rto_events") - base.get("tcp.rto_events", 0)
        frs = counters.get("tcp.fast_retransmits") - base.get(
            "tcp.fast_retransmits", 0
        )
        loss = retx / segs if segs > 0 else 0.0
        return BulkResult(
            goodput_bps=self.meter.goodput_bps(),
            bytes_delivered=self.meter.bytes,
            duration=duration,
            segs_sent=segs,
            retransmits=retx,
            rto_events=rtos,
            fast_retransmits=frs,
            segment_loss=loss,
            rtt_samples=list(rtt_series.values[rtt_before:]),
        )


class SensorStream:
    """A paced periodic report stream over one TCP connection.

    The anemometer-class workload: ``report_bytes`` every ``interval``
    seconds, skipped (not queued) when the send buffer has no room —
    a sensor that cannot ship a reading drops it rather than stalling.
    Exposes the same ``meter``/``connected``/``errors`` surface as
    :class:`BulkTransfer` so :class:`FlowSet` can drive either.
    """

    def __init__(
        self,
        sim,
        sender_stack: TcpStack,
        receiver_stack: TcpStack,
        receiver_id: int,
        port: int = 8000,
        params: Optional[TcpParams] = None,
        receiver_params: Optional[TcpParams] = None,
        dst_is_cloud: bool = False,
        report_bytes: int = 82,
        interval: float = 1.0,
        payload_byte: bytes = b"s",
    ):
        self.sim = sim
        self.connected = False
        self.errors: List[str] = []
        self.reports_sent = 0
        self.reports_skipped = 0
        self._payload = payload_byte * report_bytes
        self._tick_event = None
        self._interval = interval

        self.receiver = FlowReceiver(sim, receiver_stack, port,
                                     params=receiver_params)
        self.meter = self.receiver.meter
        self._conn = sender_stack.connect(
            receiver_id, port, params=params, dst_is_cloud=dst_is_cloud
        )
        self._conn.on_connect = self._on_connect
        self._conn.on_error = self._on_error

        hybrid = getattr(sim, "hybrid", None)
        if hybrid is not None:
            # paced periodic traffic must be simulated tick by tick —
            # veto analytic fast-forwarding while this stream is live
            hybrid.add_veto(self._cruise_veto)

    @property
    def connection(self):
        """The sender-side socket."""
        return self._conn

    def _cruise_veto(self) -> bool:
        conn = self._conn
        return conn is not None and conn.state.name not in ("CLOSED", "TIME_WAIT")

    def _on_error(self, err) -> None:
        self.errors.append(err)

    def _on_connect(self) -> None:
        self.connected = True
        self._send_report()
        self._tick_event = self.sim.schedule_periodic(
            self._interval, self._send_report
        )

    def _send_report(self) -> None:
        if not self._conn.is_open:
            if self._tick_event is not None:
                self._tick_event.cancel()
                self._tick_event = None
            return
        if self._conn.send_buf.free >= len(self._payload):
            self._conn.send(self._payload)
            self.reports_sent += 1
        else:
            self.reports_skipped += 1


@dataclass
class FlowSpec:
    """One flow of a :class:`FlowSet`.

    ``kind`` selects the driver: ``"bulk"`` (saturating
    :class:`BulkTransfer`) or ``"sensor"`` (paced
    :class:`SensorStream`).  ``start`` staggers the flow's launch (both
    the listener and the active open happen then).  ``port`` defaults
    to ``base_port + index`` so flows sharing a receiver never collide.
    """

    src: int
    dst: int
    start: float = 0.0
    kind: str = "bulk"
    port: Optional[int] = None
    params: Optional[TcpParams] = None
    receiver_params: Optional[TcpParams] = None
    dst_is_cloud: bool = False
    #: sensor-kind pacing
    report_bytes: int = 82
    interval: float = 1.0


@dataclass
class FlowResult:
    """Measured outcome of one flow."""

    index: int
    src: int
    dst: int
    port: int
    kind: str
    goodput_bps: float
    bytes_delivered: int
    connected: bool
    errors: List[str] = field(default_factory=list)

    @property
    def goodput_kbps(self) -> float:
        return self.goodput_bps / 1000.0


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index: (Σx)² / (n · Σx²), 1.0 = perfectly fair.

    Defined as 1.0 for an empty or all-zero allocation (nothing to be
    unfair about).
    """
    xs = [float(v) for v in values]
    if not xs:
        return 1.0
    square_sum = sum(x * x for x in xs)
    if square_sum == 0.0:
        return 1.0
    total = sum(xs)
    return (total * total) / (len(xs) * square_sum)


@dataclass
class FlowSetResult:
    """Aggregate outcome of a :class:`FlowSet` measurement."""

    flows: List[FlowResult]
    duration: float
    aggregate_goodput_bps: float
    fairness: float
    flows_connected: int
    bytes_delivered: int

    @property
    def aggregate_goodput_kbps(self) -> float:
        return self.aggregate_goodput_bps / 1000.0

    @classmethod
    def of(cls, flows: List[FlowResult], duration: float) -> "FlowSetResult":
        """Aggregate per-flow results measured over one window."""
        goodputs = [f.goodput_bps for f in flows]
        return cls(
            flows=flows,
            duration=duration,
            aggregate_goodput_bps=sum(goodputs),
            fairness=jain_fairness(goodputs),
            flows_connected=sum(1 for f in flows if f.connected),
            bytes_delivered=sum(f.bytes_delivered for f in flows),
        )


class FlowSet:
    """Launches, staggers, and meters N concurrent flows on one network.

    One :class:`~repro.core.socket_api.TcpStack` is built per
    participating node and shared by every flow that node carries
    (multiple flows demultiplex by port, exactly as on real hardware).
    Flows launch at their ``spec.start`` times; goodput is metered
    per-flow from the measurement window's start regardless of launch
    order, so late flows simply contribute zero until they begin.

    ``owned`` restricts the set to the flows a slice of the network
    carries — a shard worker passes the node ids it owns.  ``None``
    (the default) owns every node.  A flow with no owned endpoint
    schedules nothing; a flow whose sender is not owned gets only its
    :class:`FlowReceiver` (the sender's stack is never built); every
    other flow gets its full driver.  Port numbering is global either
    way, so each slice agrees with the whole.

    Typical use::

        net = build_grid_mesh(10, 10)
        flows = FlowSet(net, [FlowSpec(src=99, dst=0), ...])
        result = flows.measure(warmup=8.0, duration=30.0)
        result.aggregate_goodput_kbps, result.fairness
    """

    def __init__(
        self,
        net,
        specs: Sequence[FlowSpec],
        base_port: int = 9000,
        params: Optional[TcpParams] = None,
        receiver_params: Optional[TcpParams] = None,
        owned: Optional[Iterable[int]] = None,
    ):
        self.net = net
        self.sim = net.sim
        self.specs = list(specs)
        self.params = params
        self.receiver_params = receiver_params
        self.owned: Optional[FrozenSet[int]] = (
            None if owned is None else frozenset(owned))
        self._stacks: Dict[int, TcpStack] = {}
        self.drivers: List[Optional[object]] = [None] * len(self.specs)
        self.ports: List[int] = []
        self._measuring = False
        for index, spec in enumerate(self.specs):
            if spec.src == spec.dst:
                raise ValueError(f"flow {index}: src == dst == {spec.src}")
            if spec.src not in net.nodes or spec.dst not in net.nodes:
                raise ValueError(
                    f"flow {index}: unknown node in {spec.src}->{spec.dst}"
                )
            if spec.kind not in ("bulk", "sensor"):
                raise ValueError(f"flow {index}: unknown kind {spec.kind!r}")
            port = spec.port if spec.port is not None else base_port + index
            self.ports.append(port)
            if not (self.owns(spec.src) or self.owns(spec.dst)):
                continue
            if spec.start > 0:
                self.sim.schedule(spec.start, self._launch, index)
            else:
                self._launch(index)

    def owns(self, node_id: int) -> bool:
        """Whether this flow set drives ``node_id``'s side of its flows."""
        return self.owned is None or node_id in self.owned

    def stack_for(self, node_id: int) -> TcpStack:
        """The shared per-node stack (built on first use)."""
        stack = self._stacks.get(node_id)
        if stack is None:
            node = self.net.nodes[node_id]
            stack = TcpStack(self.sim, node.ipv6, node_id,
                             cpu=node.radio.cpu, sleepy=node.sleepy)
            self._stacks[node_id] = stack
        return stack

    def _launch(self, index: int) -> None:
        spec = self.specs[index]
        receiver_params = (spec.receiver_params or self.receiver_params
                           or spec.params or self.params)
        if not self.owns(spec.src):
            # the sender lives elsewhere; its SYN arrives over the air
            driver = FlowReceiver(self.sim, self.stack_for(spec.dst),
                                  self.ports[index], params=receiver_params)
        else:
            sender = self.stack_for(spec.src)
            receiver = self.stack_for(spec.dst)
            common = dict(
                port=self.ports[index],
                params=spec.params or self.params,
                receiver_params=receiver_params,
                dst_is_cloud=spec.dst_is_cloud,
            )
            if spec.kind == "bulk":
                driver = BulkTransfer(self.sim, sender, receiver,
                                      receiver_id=spec.dst, **common)
            else:
                driver = SensorStream(self.sim, sender, receiver,
                                      receiver_id=spec.dst,
                                      report_bytes=spec.report_bytes,
                                      interval=spec.interval, **common)
        self.drivers[index] = driver
        if self._measuring:
            driver.meter.start()

    def start_metering(self) -> None:
        """Open the measurement window on every flow (launched or not).

        Flows that launch later start metering at launch, so each
        flow's byte count covers exactly the shared window.
        """
        self._measuring = True
        for driver in self.drivers:
            if driver is not None:
                driver.meter.start()

    def results(self, duration: float) -> FlowSetResult:
        """Collect per-flow and aggregate stats for a closed window.

        A flow reports the bytes its owned receiver metered, and
        ``connected``/``errors`` only where its sender is owned.
        """
        flows: List[FlowResult] = []
        for index, spec in enumerate(self.specs):
            driver = self.drivers[index]
            nbytes = driver.meter.bytes if driver is not None else 0
            sender = driver if self.owns(spec.src) else None
            flows.append(FlowResult(
                index=index, src=spec.src, dst=spec.dst,
                port=self.ports[index], kind=spec.kind,
                goodput_bps=nbytes * 8.0 / duration if duration > 0 else 0.0,
                bytes_delivered=nbytes,
                connected=sender.connected if sender is not None else False,
                errors=list(sender.errors) if sender is not None else [],
            ))
        return FlowSetResult.of(flows, duration)

    def measure(self, warmup: float, duration: float) -> FlowSetResult:
        """Run warmup + duration sim-seconds; meter the latter window."""
        self.sim.run(until=self.sim.now + warmup)
        self.start_metering()
        self.sim.run(until=self.sim.now + duration)
        return self.results(duration)
