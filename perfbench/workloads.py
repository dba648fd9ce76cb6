"""The benchmark's three workloads and the outcomes each one checks.

* ``mesh_24flows`` — the frame path: 24 bulk TCP flows on a 10x10
  router grid (kernel, PHY, MAC, 6LoWPAN and IPv6 forwarding).
* ``anemometer_tcp`` — the §9 sensor application: sleepy polling leaves
  ship batched readings over TCP through 6% border loss (TCP and the
  receive path, the poll MAC path).
* ``gateway_echo`` — real sockets on loopback through the gateway to a
  mote one hop from the border router (bridge, admission, pacer).

A simulated workload's outcome is a function of its seed alone, so
every repetition inside a run must produce the same outcome, and on
``DEFAULT_SEED`` it must equal the outcome recorded in
``expected.json``.  The seed reaches the program only as the topology's
RNG seed and, for the gateway, the echoed payload bytes.
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.api import (
    CLOUD_ID,
    FlowSet,
    FlowSpec,
    Gateway,
    GatewayLimits,
    MoteBinding,
    TcpStack,
    build_chain,
    build_grid_mesh,
    build_testbed,
    install_echo,
    linux_like_params,
    run_tcp_loadgen,
    tcplp_params,
)
from repro.app.sensor import (
    READING_BYTES,
    AnemometerConfig,
    AnemometerNode,
    TcpTransport,
)
from repro.experiments.exp_app import LEAF_POLL

import tracing

DEFAULT_SEED = 1

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: simulated seconds of each repetition (warm-up, then metered window)
MESH_WARMUP, MESH_MEASURE = 8.0, 30.0
APP_WARMUP, APP_MEASURE = 60.0, 600.0
#: §9.4 / Fig. 9: uniform loss injected at the border router
APP_BORDER_LOSS = 0.06

#: gateway load: a closed loop of CONCURRENCY clients, each sending one
#: PAYLOAD_BYTES payload (several 6LoWPAN fragments) and awaiting its echo
GW_SPEED = 25.0
GW_CONCURRENCY = 2
GW_PAYLOAD_BYTES = 256
GW_BATCH = 1000
GW_WARM_BATCH = 200
GW_TIMEOUT = 30.0
GW_MOTE, GW_PORT = 1, 7


def mesh_specs() -> List[FlowSpec]:
    """The 24 flows of ``benchmarks/perf/scenarios.py::dense_mesh``."""
    cols = 10
    specs = [FlowSpec(src=r * cols + 9, dst=r * cols + 6) for r in range(9)]
    specs += [FlowSpec(src=90 + c, dst=60 + c) for c in range(10)]
    specs += [FlowSpec(src=11, dst=0), FlowSpec(src=33, dst=30),
              FlowSpec(src=55, dst=52), FlowSpec(src=77, dst=74),
              FlowSpec(src=44, dst=14)]
    return [FlowSpec(src=s.src, dst=s.dst, start=0.25 * i)
            for i, s in enumerate(specs)]


def sum_counters(traces) -> Dict[str, int]:
    """Legacy ``trace.counters`` summed over distinct recorders."""
    total: Dict[str, int] = {}
    for trace in {id(t): t for t in traces}.values():
        for name, value in trace.counters.as_dict().items():
            total[name] = total.get(name, 0) + value
    return total


def mote_cpu_ms(nodes) -> float:
    """Simulated CPU busy time of ``nodes`` since their meters last reset."""
    return 1000.0 * sum(n.radio.cpu.busy_time() for n in nodes)


@dataclass
class Rep:
    """One repetition of a workload."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    #: process CPU seconds (gateway batches)
    cpu_s: float = 0.0
    sim_s: float = 0.0
    events: int = 0
    frames_tx: int = 0
    #: frame receptions the medium delivered (one per receiver)
    frames_delivered: int = 0
    #: exact outcome; must repeat for a fixed seed
    outcome: Dict = field(default_factory=dict)
    attempted: int = 0
    completed: int = 0
    failed: int = 0
    #: outcome-derived end-to-end values (goodput, reliability, ...)
    e2e: Dict[str, float] = field(default_factory=dict)
    #: latency samples behind echo_p50_ms / echo_p99_ms, in seconds
    echo_s: List[float] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    #: workload-specific per-layer values
    layer: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# simulated workloads
# ----------------------------------------------------------------------
class MeshFlows:
    """``mesh_24flows``: the frame path at scale."""

    name = "mesh_24flows"

    def build(self, seed: int) -> Dict:
        net = build_grid_mesh(10, 10, seed=seed)
        flows = FlowSet(net, mesh_specs(), params=tcplp_params(window_segments=2))
        return {"net": net, "flows": flows}

    def run(self, st: Dict) -> None:
        st["flows"].measure(warmup=MESH_WARMUP, duration=MESH_MEASURE)

    def collect(self, st: Dict, rep: Rep) -> None:
        net, flows = st["net"], st["flows"]
        res = flows.results(MESH_MEASURE)
        stacks = [flows.stack_for(n) for n in
                  sorted({s.src for s in flows.specs} | {s.dst for s in flows.specs})]
        rep.sim_s = MESH_WARMUP + MESH_MEASURE
        # a flow succeeds by connecting; CSMA unfairness may still
        # starve it inside the metered window (see ``fairness``)
        rep.attempted = len(res.flows)
        rep.completed = res.flows_connected
        rep.failed = rep.attempted - rep.completed
        rep.outcome = {
            "flow_bytes": [f.bytes_delivered for f in res.flows],
            "frames_delivered": net.medium.frames_delivered,
            "fairness": res.fairness,
            "flows_connected": res.flows_connected,
        }
        nodes = list(net.nodes.values())
        rep.e2e = {
            "goodput_kbps": res.aggregate_goodput_kbps,
            "reliability": rep.completed / rep.attempted,
            "radio_duty_cycle_pct": 100.0 * sum(
                n.radio_duty_cycle() for n in nodes) / len(nodes),
            "cpu_ms_per_session": mote_cpu_ms(nodes) / max(1, rep.completed),
        }
        rep.echo_s = [v for s in stacks for v in s.trace.series("tcp.rtt").values]
        rep.counters = sum_counters([n.trace for n in nodes]
                                    + [s.trace for s in stacks])
        if res.flows_connected != len(res.flows):
            rep.problems.append(
                f"{len(res.flows) - res.flows_connected} of "
                f"{len(res.flows)} flows never connected")
        rep.frames_tx = net.total_frames_sent()
        rep.frames_delivered = net.medium.frames_delivered


class ReadingLog:
    """Cloud-side reading sink that also times each reading.

    Reading ``k`` (1-based, carried in its first four bytes) of the
    leaf started with phase ``p`` is sampled at ``p + k`` seconds, so
    its delivery latency needs no instrumentation of the leaf.
    """

    def __init__(self, sim, stack: TcpStack, port: int,
                 phases: Dict[int, float], interval: float):
        self.sim = sim
        self.phases = phases
        self.interval = interval
        self.delivered = 0
        #: (arrival time, latency) per delivered reading
        self.arrivals: List[tuple] = []
        stack.listen(port, self._on_accept)

    def _on_accept(self, conn) -> None:
        pending = bytearray()
        phase = self.phases[conn.peer_id]

        def on_data(data: bytes) -> None:
            pending.extend(data)
            now = self.sim.now
            whole = len(pending) - len(pending) % READING_BYTES
            for off in range(0, whole, READING_BYTES):
                k = int.from_bytes(pending[off:off + 4], "big")
                self.arrivals.append((now, now - (phase + k * self.interval)))
            del pending[:whole]
            self.delivered += whole // READING_BYTES

        conn.on_data = on_data


class AnemometerTcp:
    """``anemometer_tcp``: the §9 application over lossy TCP."""

    name = "anemometer_tcp"
    interval = 1.0

    def build(self, seed: int) -> Dict:
        net = build_testbed(seed=seed, leaf_poll=LEAF_POLL,
                            wired_loss=APP_BORDER_LOSS)
        cloud = TcpStack(net.sim, net.cloud, CLOUD_ID,
                         default_params=linux_like_params())
        phases = {leaf: idx * self.interval * 64 / len(net.leaf_ids)
                  for idx, leaf in enumerate(net.leaf_ids)}
        log = ReadingLog(net.sim, cloud, 8000, phases, self.interval)
        apps = []
        for leaf_id in net.leaf_ids:
            leaf = net.nodes[leaf_id]
            stack = TcpStack(net.sim, leaf.ipv6, leaf_id, trace=leaf.trace,
                             cpu=leaf.radio.cpu, sleepy=leaf.sleepy)
            transport = TcpTransport(
                net.sim, stack, CLOUD_ID, server_port=8000,
                params=tcplp_params(mss_frames=5, to_cloud=True))
            config = AnemometerConfig(queue_capacity=64, batching=True,
                                      batch_size=64, sample_interval=self.interval)
            app = AnemometerNode(net.sim, transport, config)
            app.start(phase=phases[leaf_id])
            apps.append(app)
        return {"net": net, "cloud": cloud, "log": log, "apps": apps}

    def run(self, st: Dict) -> None:
        net, log, apps = st["net"], st["log"], st["apps"]
        net.sim.run(until=APP_WARMUP)
        net.reset_meters()
        st["before"] = (log.delivered, sum(a.generated for a in apps),
                        sum(a.overflowed for a in apps))
        net.sim.run(until=APP_WARMUP + APP_MEASURE)

    def collect(self, st: Dict, rep: Rep) -> None:
        net, cloud, log, apps = st["net"], st["cloud"], st["log"], st["apps"]
        delivered0, generated0, overflowed0 = st["before"]
        generated = sum(a.generated for a in apps) - generated0
        delivered = log.delivered - delivered0
        overflowed = sum(a.overflowed for a in apps) - overflowed0
        leaves = [net.nodes[n] for n in net.leaf_ids]
        rep.sim_s = APP_WARMUP + APP_MEASURE
        rep.counters = sum_counters([n.trace for n in net.nodes.values()]
                                    + [cloud.trace])
        leaf_counters = sum_counters([n.trace for n in leaves])
        rep.attempted = generated
        rep.failed = overflowed
        rep.completed = delivered
        rep.outcome = {
            "readings_generated": generated,
            "readings_delivered": delivered,
            "retransmissions": leaf_counters.get("tcp.retransmits", 0),
        }
        rep.e2e = {
            "goodput_kbps": delivered * READING_BYTES * 8 / APP_MEASURE / 1000,
            "reliability": min(1.0, delivered / generated) if generated else 1.0,
            "radio_duty_cycle_pct": 100.0 * sum(
                n.radio_duty_cycle() for n in leaves) / len(leaves),
            "cpu_ms_per_session": mote_cpu_ms(net.nodes.values()) / max(1, delivered),
        }
        rep.echo_s = [lat for t, lat in log.arrivals if t > APP_WARMUP]
        total_generated = sum(a.generated for a in apps)
        rep.layer = {"app.readings_generated": total_generated,
                     "app.readings_delivered": log.delivered}
        if log.delivered > total_generated:
            rep.problems.append(
                f"delivered {log.delivered} readings of {total_generated} generated")
        rep.frames_tx = net.total_frames_sent()
        rep.frames_delivered = net.medium.frames_delivered


SIMULATED = {w.name: w for w in (MeshFlows(), AnemometerTcp())}


def simulated_setup_s(workload, seed: int) -> float:
    """Wall time of one set-up alone, for a steadier ``setup_s`` median."""
    gc.collect()
    t0 = time.perf_counter()
    workload.build(seed)
    return time.perf_counter() - t0


def simulated_rep(workload, seed: int, hook=None,
                  recorder: Optional[tracing.SpanRecorder] = None) -> Rep:
    """Build, run and collect one repetition.

    ``hook`` becomes the simulator's ``on_event``; with a ``recorder``
    the span aggregates are cleared after set-up so they cover the run.
    """
    rep = Rep()
    gc.collect()  # the previous repetition's garbage, outside the timing
    t0 = time.perf_counter()
    state = workload.build(seed)
    sim = state["net"].sim
    if hook is not None:
        sim.on_event = hook
    if recorder is not None:
        recorder.reset()
    t1 = time.perf_counter()
    workload.run(state)
    rep.wall_s = time.perf_counter() - t1
    rep.setup_s = t1 - t0
    rep.events = sim.events_processed
    workload.collect(state, rep)
    return rep


def check_expected(name: str, seed: int, rep: Rep,
                   expected: Optional[Dict[str, Dict]] = None) -> List[str]:
    """Mismatches between ``rep`` and the recorded default-seed outcome."""
    if seed != DEFAULT_SEED:
        return []
    if expected is None:
        expected = json.loads(EXPECTED_PATH.read_text())
    want = expected.get(name)
    if want is None:
        return [f"no outcome recorded for {name} in {EXPECTED_PATH.name}"]
    return [f"{key}: expected {want[key]!r}, got {rep.outcome.get(key)!r}"
            for key in sorted(want) if rep.outcome.get(key) != want[key]]


# ----------------------------------------------------------------------
# gateway
# ----------------------------------------------------------------------
async def start_gateway(seed: int, dispatch_hook: Optional[Callable] = None):
    """Build the network and start its gateway; (net, gateway, setup_s)."""
    gc.collect()
    t0 = time.perf_counter()
    net = build_chain(1, seed=seed)
    install_echo(net, GW_MOTE, GW_PORT)
    gateway = Gateway(net, bindings=[MoteBinding(node_id=GW_MOTE, sim_port=GW_PORT)],
                      speed=GW_SPEED, limits=GatewayLimits())
    if dispatch_hook is not None:
        net.sim.on_event = dispatch_hook
    await gateway.start()
    return net, gateway, time.perf_counter() - t0


async def _gateway_setups(seed: int, count: int) -> List[float]:
    times = []
    for _ in range(count):
        _net, gateway, setup_s = await start_gateway(seed)
        await gateway.aclose()
        times.append(setup_s)
    return times


def gateway_setups(seed: int, count: int) -> List[float]:
    """``count`` set-ups alone, for a steadier ``setup_s`` median."""
    return asyncio.run(_gateway_setups(seed, count))


async def gateway_batch(seed: int, sessions: int,
                        dispatch_hook: Optional[Callable] = None,
                        recorder: Optional[tracing.SpanRecorder] = None) -> Rep:
    """A fresh gateway, ``sessions`` closed-loop echo sessions, torn down."""
    rep = Rep()
    net, gateway, rep.setup_s = await start_gateway(seed, dispatch_hook)
    sim = net.sim
    if recorder is not None:
        recorder.reset()
    try:
        host, port = gateway.endpoint(0)
        payload = random.Random(seed).randbytes(GW_PAYLOAD_BYTES)
        sim0, events0 = sim.now, sim.events_processed
        c0 = time.process_time()
        report = await run_tcp_loadgen(
            host, port, connections=sessions, payload=payload,
            timeout=GW_TIMEOUT, concurrency=GW_CONCURRENCY)
        rep.cpu_s = time.process_time() - c0
        rep.sim_s = sim.now - sim0
        load_events = sim.events_processed - events0
        slack = gateway.slack_stats()
        snapshot = sim.metrics.snapshot()
    finally:
        await gateway.aclose()
    rep.wall_s = report.wall_seconds
    rep.events = sim.events_processed
    rep.attempted = report.requests
    rep.completed = report.completed
    rep.failed = report.requests - report.completed
    if report.corrupt:
        rep.problems.append(f"{report.corrupt} echoes differ from the payload")
    if report.errors or report.shed:
        rep.problems.append(f"{report.errors} errors, {report.shed} shed: "
                            + "; ".join(report.error_detail))
    mote = net.nodes[GW_MOTE]
    rep.e2e = {
        "goodput_kbps": report.completed * len(payload) * 8 / 1000 / report.wall_seconds,
        "radio_duty_cycle_pct": 100.0 * mote.radio_duty_cycle(),
        "echo_p50_s": report.p50,
        "echo_p99_s": report.p99,
    }
    rep.frames_tx = net.total_frames_sent()
    rep.frames_delivered = net.medium.frames_delivered
    rep.counters = sum_counters([n.trace for n in net.nodes.values()])
    for key, value in snapshot.get("counters", {}).items():
        if key.startswith("tcp."):
            name = key.split("{", 1)[0]
            rep.counters[name] = rep.counters.get(name, 0) + value
    rep.layer = {
        "gw.pacer_slack_max_ms": slack["max_slack"] * 1000,
        "gw.pacer_violations": slack["violations"],
        "gw.sim_events_per_session": load_events / max(1, report.completed),
    }
    return rep


def gateway_rep(seed: int, sessions: int, **kwargs) -> Rep:
    return asyncio.run(gateway_batch(seed, sessions, **kwargs))
