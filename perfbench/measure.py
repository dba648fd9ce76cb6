"""Measurement passes behind ``run.py``: end-to-end and traced.

Imported only after ``run.py`` has put the program (``src/``) on the
path.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import time

import tracing
import workloads as w
from repro.api import Gateway
from repro.campaign.store import code_salt

#: timed repetitions a run makes even when --seconds is short
MIN_TIMED_REPS = 3
#: extra set-ups, untimed otherwise, behind the setup_s median
SETUP_SAMPLES = 20

E2E_UNITS = {
    "setup_s": "s",
    "sim_s_per_wall_s": "s/s",
    "peak_rss_mb": "MB",
    "goodput_kbps": "kbps",
    "reliability": "ratio",
    "radio_duty_cycle_pct": "%",
    "echo_p50_ms": "ms",
    "echo_p99_ms": "ms",
    "sessions_per_s": "1/s",
    "cpu_ms_per_session": "ms",
}

#: dispatch-count metrics: the callbacks that dominate the three mixes
MIX_NAMES = (
    "Medium._end_transmission",
    "Radio._end_air",
    "Radio._finish_load",
    "MacLayer._cca",
    "MacLayer._ack_fire",
    "MacLayer._ack_timeout",
    "MacLayer._retry_fire",
    "TcpConnection._on_delack_timeout",
    "TcpConnection._on_rexmt_timeout",
    "SleepyEndDevice._poll",
    "AnemometerNode._sample",
    "CloudHost.deliver",
)

LAYER_UNITS = {
    "sim.events": "count",
    "sim.events_per_frame": "events/frame",
    "sim.events_per_wall_s": "1/s",
    "sim.kernel_self_s": "s",
    **{f"sim.mix.{name}": "count" for name in MIX_NAMES},
    "phy.self_s": "s",
    "phy.frames_tx": "count",
    "phy.frames_delivered": "count",
    "phy.carrier_busy_calls": "count",
    "mac.self_s": "s",
    "mac.frames_queued": "count",
    "mac.link_retries": "count",
    "mac.ack_timeouts": "count",
    "mac.tx_failures": "count",
    "mac.delivery_ratio": "ratio",
    "mac.data_requests": "count",
    "lowpan.self_s": "s",
    "lowpan.packets": "count",
    "lowpan.frames_per_packet": "frames/packet",
    "lowpan.reassembly_timeouts": "count",
    "lowpan.fragments_forwarded": "count",
    "net.self_s": "s",
    "net.sent": "count",
    "net.forwarded": "count",
    "net.delivered": "count",
    "tcp.self_s": "s",
    "tcp.segs_sent": "count",
    "tcp.retransmits": "count",
    "tcp.useful_ratio": "ratio",
    "tcp.sack_ranges_s": "s",
    "tcp.sack_ranges_calls": "count",
    "app.self_s": "s",
    "app.readings_generated": "count",
    "app.readings_delivered": "count",
    "workload.self_s": "s",
    "gw.connect_ms_p50": "ms",
    "gw.first_byte_ms_p50": "ms",
    "gw.pacer_slack_max_ms": "ms",
    "gw.pacer_violations": "count",
    "gw.bridge_self_s": "s",
    "gw.sim_events_per_session": "count",
    "gw.held_bridges_peak": "count",
    "trace.overhead_ratio": "ratio",
}


class Run:
    """What one invocation measured and found wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.notes: list = []

    def add(self, rep) -> None:
        """Count a repetition's operations; any problem fails all of them."""
        self.attempted += rep.attempted
        self.failed += rep.attempted if rep.problems else rep.failed
        self.problems.extend(rep.problems)

    def check(self, problems: list) -> None:
        """Count one output check as one operation."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_block(load_start: float) -> dict:
    usable = len(os.sched_getaffinity(0))
    load_end = os.getloadavg()[0]
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable,
        "load1_start": load_start,
        "load1_end": load_end,
        "oversubscribed": max(load_start, load_end) > usable,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "code_salt": code_salt(),
    }


def timed_loop(make_rep, seconds: float) -> list:
    """Repeat ``make_rep`` while another repetition of average length
    still fits in ``seconds`` (and at least MIN_TIMED_REPS times)."""
    reps = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_TIMED_REPS and elapsed * (1 + 1 / len(reps)) > seconds:
            return reps
        reps.append(make_rep())


def repeat_problems(reps, what: str) -> list:
    """Exact outcomes must repeat for a fixed seed."""
    first = reps[0]
    return [f"{what} {i} differs from {what} 0: events {rep.events} vs "
            f"{first.events}, frames {rep.frames_tx} vs {first.frames_tx}"
            for i, rep in enumerate(reps[1:], 1)
            if (rep.events, rep.frames_tx, rep.outcome)
            != (first.events, first.frames_tx, first.outcome)]


def echo_metrics(samples, run: Run) -> dict:
    """echo_p50_ms / echo_p99_ms from raw samples, p99 only if supported."""
    out = {}
    for q, name in ((50, "echo_p50_ms"), (99, "echo_p99_ms")):
        value = tracing.supported_percentile(samples, q)
        if value is None:
            run.problems.append(
                f"{name}: {len(samples)} samples leave fewer than "
                f"{tracing.MIN_TAIL_SAMPLES} beyond p{q}")
            value = 0.0
        out[name] = value * 1000.0
    run.notes.append(f"echo latency samples: {len(samples)}")
    return out


def simulated_e2e(name: str, seed: int, seconds: float, run: Run) -> dict:
    workload = w.SIMULATED[name]
    warm = w.simulated_rep(workload, seed)
    reps = [warm] + timed_loop(lambda: w.simulated_rep(workload, seed), seconds)
    for rep in reps:
        run.add(rep)
    run.check(repeat_problems(reps, "repetition")
              + w.check_expected(name, seed, warm))
    timed = reps[1:]
    run.notes.append(f"timed repetitions: {len(timed)} "
                     f"({timed[0].sim_s:g} simulated s each)")
    metrics = {
        "setup_s": statistics.median(
            [r.setup_s for r in timed]
            + [w.simulated_setup_s(workload, seed) for _ in range(SETUP_SAMPLES)]),
        "sim_s_per_wall_s": statistics.median(r.sim_s / r.wall_s for r in timed),
        "peak_rss_mb": peak_rss_mb(),
        **warm.e2e,
        **echo_metrics(warm.echo_s, run),
        "sessions_per_s": statistics.median(r.completed / r.wall_s for r in timed),
    }
    return metrics


def gateway_e2e(seed: int, seconds: float, run: Run) -> dict:
    warm = w.gateway_rep(seed, w.GW_WARM_BATCH)
    batches = timed_loop(lambda: w.gateway_rep(seed, w.GW_BATCH), seconds)
    for rep in [warm] + batches:
        run.add(rep)
    attempted = sum(r.attempted for r in batches)
    completed = sum(r.completed for r in batches)
    tails = [r.e2e["echo_p99_s"] for r in batches
             if tracing.percentile_supported(r.completed, 99)]
    if not tails:
        run.problems.append("no batch completed enough sessions for p99")
        tails = [0.0]
    run.notes.append(f"batches: {len(batches)} x {w.GW_BATCH} sessions; "
                     f"echo latency samples: {completed} "
                     f"(median of per-batch p50/p99)")
    return {
        "setup_s": statistics.median(
            [r.setup_s for r in batches] + w.gateway_setups(seed, SETUP_SAMPLES)),
        "sim_s_per_wall_s": statistics.median(r.sim_s / r.wall_s for r in batches),
        "peak_rss_mb": peak_rss_mb(),
        "goodput_kbps": statistics.median(r.e2e["goodput_kbps"] for r in batches),
        "reliability": completed / attempted,
        "radio_duty_cycle_pct": statistics.median(
            r.e2e["radio_duty_cycle_pct"] for r in batches),
        "echo_p50_ms": 1000.0 * statistics.median(
            r.e2e["echo_p50_s"] for r in batches),
        "echo_p99_ms": 1000.0 * statistics.median(tails),
        "sessions_per_s": statistics.median(r.completed / r.wall_s for r in batches),
        "cpu_ms_per_session": statistics.median(
            1000.0 * r.cpu_s / max(1, r.completed) for r in batches),
    }


def layer_metrics(traced, plain, recorder, mix, extra: dict) -> dict:
    """Per-layer metrics of a traced repetition ``traced``; ``plain`` is
    the untraced repetition it is compared with."""
    calls, self_s, c = recorder.calls, recorder.self_s, traced.counters
    mac_queued = calls["MacLayer.send"] + calls["MacLayer.send_data_request"]
    packets = calls["LowpanAdaptation.send_packet"]
    segs, retx = c.get("tcp.segs_sent", 0), c.get("tcp.retransmits", 0)
    metrics = {
        "sim.events": traced.events,
        "sim.events_per_frame": traced.events / max(1, traced.frames_tx),
        "sim.events_per_wall_s": plain.events / plain.wall_s,
        "sim.kernel_self_s": self_s["sim"],
        **{f"sim.mix.{name}": mix.get(name, 0) for name in MIX_NAMES},
        "phy.self_s": self_s["phy"],
        "phy.frames_tx": traced.frames_tx,
        "phy.frames_delivered": traced.frames_delivered,
        "phy.carrier_busy_calls": calls["Medium.carrier_busy"],
        "mac.self_s": self_s["mac"],
        "mac.frames_queued": mac_queued,
        "mac.link_retries": c.get("mac.link_retries", 0),
        "mac.ack_timeouts": c.get("mac.ack_timeouts", 0),
        "mac.tx_failures": c.get("mac.tx_failures", 0),
        "mac.delivery_ratio": c.get("mac.tx_success", 0) / max(1, mac_queued),
        "mac.data_requests": calls["MacLayer.send_data_request"],
        "lowpan.self_s": self_s["lowpan"],
        "lowpan.packets": packets,
        "lowpan.frames_per_packet": calls["MacLayer.send"] / max(1, packets),
        "lowpan.reassembly_timeouts": c.get("lowpan.reassembly_timeouts", 0),
        "lowpan.fragments_forwarded": c.get("lowpan.fragments_forwarded", 0),
        "net.self_s": self_s["net"],
        "net.sent": calls["Ipv6Layer.send"],
        "net.forwarded": calls["Ipv6Layer.forward"],
        "net.delivered": calls["Ipv6Layer.deliver"],
        "tcp.self_s": self_s["tcp"],
        "tcp.segs_sent": segs,
        "tcp.retransmits": retx,
        "tcp.useful_ratio": 1.0 - retx / segs if segs else 1.0,
        "tcp.sack_ranges_s": recorder.total_s["ReceiveBuffer.sack_ranges"],
        "tcp.sack_ranges_calls": calls["ReceiveBuffer.sack_ranges"],
        "app.self_s": self_s["app"],
        "app.readings_generated": 0,
        "app.readings_delivered": 0,
        "workload.self_s": self_s["workload"],
        "gw.connect_ms_p50": 0.0,
        "gw.first_byte_ms_p50": 0.0,
        "gw.pacer_slack_max_ms": 0.0,
        "gw.pacer_violations": 0,
        "gw.bridge_self_s": self_s["gw"],
        "gw.sim_events_per_session": 0.0,
        "gw.held_bridges_peak": 0,
        "trace.overhead_ratio": traced.wall_s / plain.wall_s,
    }
    metrics.update(traced.layer)
    metrics.update(extra)
    return metrics


def split_note(recorder, wall_s: float) -> str:
    """Where the traced wall time went, as shares per layer."""
    parts = [f"{layer} {100.0 * recorder.self_s[layer] / wall_s:.1f}%"
             for layer in tracing.LAYERS if recorder.self_s.get(layer)]
    rest = wall_s - sum(recorder.self_s.values())
    parts.append(f"outside spans {100.0 * rest / wall_s:.1f}%")
    return f"layer split of {wall_s:.3f} s traced wall: " + ", ".join(parts)


def simulated_traced(name: str, seed: int, run: Run) -> dict:
    workload = w.SIMULATED[name]
    warm = w.simulated_rep(workload, seed)
    counter = tracing.MixCounter()
    counted = w.simulated_rep(workload, seed, hook=counter)
    recorder = tracing.SpanRecorder()
    spans = tracing.DispatchSpans(recorder)
    with tracing.instrumented(recorder, spans):
        traced = w.simulated_rep(workload, seed, hook=spans, recorder=recorder)
    plain = w.simulated_rep(workload, seed)
    reps = [warm, counted, traced, plain]
    for rep in reps:
        run.add(rep)
    problems = repeat_problems(reps, "pass") + w.check_expected(name, seed, warm)
    if counter.mix != spans.mix:
        problems.append("dispatch mix of the traced pass differs from the counting pass")
    if sum(counter.mix.values()) != counted.events:
        problems.append("dispatch mix does not sum to the events processed")
    run.check(problems)
    top = ", ".join(f"{k} {v}" for k, v in counter.mix.most_common(8))
    run.notes.append(f"dispatch mix: {top}")
    run.notes.append(split_note(recorder, traced.wall_s))
    return layer_metrics(traced, plain, recorder, counter.mix, {})


def gateway_traced(seed: int, run: Run) -> dict:
    warm = w.gateway_rep(seed, w.GW_WARM_BATCH)
    plain = w.gateway_rep(seed, w.GW_BATCH)
    recorder = tracing.SpanRecorder()
    spans = tracing.DispatchSpans(recorder)
    peak = [0]

    def track_peak(orig):
        def on_bridge_open(self, bridge):
            orig(self, bridge)
            peak[0] = max(peak[0], self.active_bridges())
        return on_bridge_open

    with tracing.instrumented(recorder, spans,
                              extra=[(Gateway, "on_bridge_open", track_peak)]), \
            tracing.client_phases() as phases:
        traced = w.gateway_rep(seed, w.GW_BATCH, dispatch_hook=spans,
                               recorder=recorder)
    for rep in (warm, plain, traced):
        run.add(rep)
    extra = {
        "gw.connect_ms_p50": 1000.0 * statistics.median(phases["connect"] or [0.0]),
        "gw.first_byte_ms_p50": 1000.0 * statistics.median(phases["first_byte"] or [0.0]),
        "gw.sim_events_per_session": plain.layer["gw.sim_events_per_session"],
        "gw.held_bridges_peak": peak[0],
    }
    run.notes.append(f"client phase samples: {len(phases['connect'])} connects, "
                     f"{len(phases['first_byte'])} first bytes")
    run.notes.append(split_note(recorder, traced.wall_s))
    return layer_metrics(traced, plain, recorder, spans.mix, extra)


def print_table(name: str, metrics: dict, units: dict, run: Run) -> None:
    print(f"workload {name}")
    for key, value in metrics.items():
        print(f"  {key:42s} {value:>16.6g} {units[key]}")
    for note in run.notes:
        print(f"  note: {note}")
    for problem in run.problems[:20]:
        print(f"  FAILED CHECK: {problem}")
    print(f"  operations: {run.attempted} attempted, {run.failed} failed "
          f"({run.failed / max(1, run.attempted):.2%})")


def measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload and print its table, machine block and result."""
    load_start = os.getloadavg()[0]
    run = Run()
    if trace:
        units = LAYER_UNITS
        if workload == "gateway_echo":
            metrics = gateway_traced(seed, run)
        else:
            metrics = simulated_traced(workload, seed, run)
    else:
        units = E2E_UNITS
        if workload == "gateway_echo":
            metrics = gateway_e2e(seed, seconds, run)
        else:
            metrics = simulated_e2e(workload, seed, seconds, run)
    metrics = {key: metrics[key] for key in units}
    print_table(workload, metrics, units, run)
    print("machine " + json.dumps(machine_block(load_start), sort_keys=True))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }))
    return 0
