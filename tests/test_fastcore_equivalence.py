"""Kernel trace digests: the event trace is pinned, not re-derived.

Same seed, byte-identical event trace — times, sequence numbers and
dispatch order — on every scenario family the bench suite covers (clean
chain, dense mesh, compound chaos faults), across seeds.  The traces are
checked against sha256 digests recorded on the reference kernel, so any
kernel change that reorders, renumbers or drops an event shows up here
as a digest mismatch, not as a silently different result.  The digests
do not depend on ``PYTHONHASHSEED``.

``fidelity="hybrid"`` is held to the weaker *metric* contract it
advertises: goodput within 2% of full fidelity, identical
retransmit/RTO counters, and it must actually have cruised
(``sim.warps > 0``) while processing far fewer events.
"""

import hashlib
import random

import pytest

from repro.core.simplified import tcplp_params
from repro.core.socket_api import TcpStack
from repro.experiments.topology import build_chain, build_grid_mesh, build_pair
from repro.experiments.workload import BulkTransfer, FlowSet, FlowSpec
from repro.faults import FaultInjector, FaultSchedule
from repro.sim.checkpoint import CheckpointManager, TraceHook
from repro.sim.engine import Simulator
from repro.sim.hybrid import HybridController
from repro.verify.probes import probe_kernel

CHAOS_SPEC = {
    "name": "equivalence-chaos",
    "faults": [
        {"kind": "bursty_loss", "p_good_bad": 0.05, "p_bad_good": 0.3},
        {"kind": "frame_corruption", "rate": 0.01},
        {"kind": "link_flap", "a": 0, "b": 1, "at": 6.0, "down_for": 1.0},
        {"kind": "node_reboot", "node": 1, "at": 10.0, "outage": 2.0},
    ],
}


def _stack(net, nid, params=None):
    node = net.nodes[nid]
    return TcpStack(net.sim, node.ipv6, nid, cpu=node.radio.cpu,
                    sleepy=node.sleepy)


def _trace(sim):
    entries = []
    sim.on_event = lambda ev: entries.append(
        (ev.time, ev.seq, getattr(ev.fn, "__qualname__", repr(ev.fn))))
    return entries


def _chain_run(seed: int):
    """3-hop hidden-terminal bulk transfer, fully traced."""
    net = build_chain(3, seed=seed)
    for n in net.nodes.values():
        n.mac.params.retry_delay = 0.04
    params = tcplp_params(window_segments=4)
    trace = _trace(net.sim)
    xfer = BulkTransfer(net.sim, _stack(net, 3), _stack(net, 0),
                        receiver_id=0, params=params, receiver_params=params)
    res = xfer.measure(5.0, 10.0)
    return trace, round(res.goodput_kbps, 3), net.medium.frames_delivered


def _mesh_run(seed: int):
    """A small router mesh with staggered concurrent flows, traced."""
    net = build_grid_mesh(4, 4, seed=seed)
    params = tcplp_params(window_segments=2)
    specs = [FlowSpec(src=3, dst=0, start=0.0),
             FlowSpec(src=15, dst=12, start=0.25),
             FlowSpec(src=12, dst=0, start=0.5),
             FlowSpec(src=7, dst=4, start=0.75)]
    trace = _trace(net.sim)
    flows = FlowSet(net, specs, params=params)
    res = flows.measure(warmup=4.0, duration=6.0)
    return (trace, round(res.aggregate_goodput_kbps, 3),
            net.medium.frames_delivered, res.flows_connected)


def _chaos_run(seed: int):
    """2-hop chain under compound faults (flap + reboot + loss), traced."""
    net = build_chain(2, seed=seed, with_cloud=False)
    for n in net.nodes.values():
        n.mac.params.retry_delay = 0.04
    injector = FaultInjector(net, FaultSchedule.from_dict(CHAOS_SPEC)).arm()
    params = tcplp_params(window_segments=4)
    trace = _trace(net.sim)
    xfer = BulkTransfer(net.sim, _stack(net, 2), _stack(net, 0),
                        receiver_id=0, params=params, receiver_params=params)
    res = xfer.measure(5.0, 10.0)
    return (trace, round(res.goodput_kbps, 3),
            net.medium.frames_delivered, len(injector.events))


# ======================================================================
# byte-identical traces, per scenario family, across seeds
# ======================================================================
#: sha256 of ``repr(run)`` per scenario family and seed, recorded on the
#: reference (Event-per-entry) kernel.  Any change to dispatch order,
#: sequence numbering or the simulated outcome changes the digest.
TRACE_DIGESTS = {
    ("chain", 1): "9a445bab2d2d30d08de5126580a7e46fbc64ef073474c616c348ef3aa56e69f2",
    ("chain", 2): "40f040f0b88e1d2825a2188139c1302bbebced89975c8d2784fc925c45b0f076",
    ("chain", 3): "837e4daa6b805c8b60e189f2fb83c5bf20360fea4436d2c196bf3d0004e0fa34",
    ("chain", 4): "556dc195e3b40dd2867a6418a12988716bfd38e77153f2dbd91310b5f1534047",
    ("chain", 5): "a93a67f196dde8df7755fa6d0bd2aee24efe58d177cda9bf61cbfe611a4650ae",
    ("mesh", 3): "bf63789a937a246b0e2bc3854dd925a3ce39210d23836f4994f409cf1b9ba2a5",
    ("mesh", 11): "c261450991d1f195f59e30632be94bb5b49814ee4eb0db6d3bd02c627a643001",
    ("chaos", 7): "cb811a89735c1588c1a71eba8865b05ce227e78036d7ce01281aeb14aae5ef25",
    ("chaos", 23): "1564c2b201a8cc108b87f620a8fe7e9b3c0a18477058e5d8b907ea90581008fb",
}


def _digest(run) -> str:
    return hashlib.sha256(repr(run).encode()).hexdigest()


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_chain_trace_identical(seed):
    run = _chain_run(seed)
    assert len(run[0]) > 5000  # the run exercised the whole stack
    assert _digest(run) == TRACE_DIGESTS["chain", seed]


@pytest.mark.parametrize("seed", [3, 11])
def test_mesh_trace_identical(seed):
    run = _mesh_run(seed)
    assert run[3] > 0  # flows actually connected
    assert len(run[0]) > 5000
    assert _digest(run) == TRACE_DIGESTS["mesh", seed]


@pytest.mark.parametrize("seed", [7, 23])
def test_chaos_trace_identical(seed):
    run = _chaos_run(seed)
    assert run[3] > 0  # faults actually fired
    assert len(run[0]) > 5000
    assert _digest(run) == TRACE_DIGESTS["chaos", seed]


# ======================================================================
# tier construction
# ======================================================================
def test_hybrid_fidelity_implies_fast_kernel_and_controller():
    assert Simulator().hybrid is None
    sim = Simulator(fidelity="hybrid")
    assert isinstance(sim.hybrid, HybridController)
    assert sim.hybrid.sim is sim
    from repro.sim.engine import SimulationError

    with pytest.raises(SimulationError, match="fidelity"):
        Simulator(fidelity="approximate")


# ======================================================================
# schedule_unref: slim heap entries
# ======================================================================
def test_schedule_unref_semantics():
    sim = Simulator()
    fired = []
    assert sim.schedule_unref(2.0, fired.append, "slim") is None
    ev = sim.schedule(1.0, fired.append, "event")
    assert sim.pending_count() == 2
    assert sim.peek_time() == pytest.approx(1.0)
    fns = [e.fn for e in sim.pending_events()]
    assert fired.append in fns
    sim.run()
    assert fired == ["event", "slim"]
    assert ev.fired
    assert sim.events_processed == 2
    assert sim.pending_count() == 0


def test_schedule_unref_rejects_negative_delay():
    from repro.sim.engine import SimulationError

    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_unref(-0.1, lambda: None)


def test_warp_shifts_both_entry_shapes():
    from repro.sim.engine import SimulationError

    sim = Simulator()
    fired = []
    sim.schedule_unref(2.0, lambda: fired.append(("slim", sim.now)))
    sim.schedule(3.0, lambda: fired.append(("event", sim.now)))
    sim.warp(10.0)
    assert sim.now == pytest.approx(10.0)
    assert sim.time_warped == pytest.approx(10.0)
    assert sim.warps == 1
    sim.run()
    assert fired == [("slim", 12.0), ("event", 13.0)]
    with pytest.raises(SimulationError):
        sim.warp(0.0)


# ======================================================================
# invariant probes and checkpointing see through slim entries
# ======================================================================
def test_probe_kernel_clean_on_accel_mid_run():
    sim = Simulator()
    for i in range(50):
        sim.schedule_unref(0.1 * i + 5.0, lambda: None)
    events = [sim.schedule(0.1 * i + 5.0, lambda: None) for i in range(50)]
    for ev in events[::3]:
        ev.cancel()
    sim.schedule_periodic(1.0, lambda: None)
    sim.run(until=3.0)
    assert probe_kernel(sim, 0.0) == []
    assert sim.pending_count() > 0


def test_checkpoint_resume_byte_identical_on_accel():
    net = build_chain(2, seed=11, with_cloud=False)
    for n in net.nodes.values():
        n.mac.params.retry_delay = 0.04
    params = tcplp_params(window_segments=4)
    xfer = BulkTransfer(net.sim, _stack(net, 2), _stack(net, 0),
                        receiver_id=0, params=params, receiver_params=params)
    hook = TraceHook().attach(net.sim)
    manager = CheckpointManager(
        net.sim, roots={"xfer": xfer}, interval=5.0).start()
    net.sim.run(until=12.0)
    cp = manager.latest()
    assert cp is not None and cp.time == pytest.approx(10.0)
    reference = hook.suffix_after(cp)
    assert len(reference) > 100
    sim2, _roots = cp.restore()
    hook2 = TraceHook().attach(sim2)
    sim2.run(until=12.0)
    assert hook2.entries == reference


# ======================================================================
# the inlined CSMA backoff draw is replica-exact
# ======================================================================
def test_backoff_draw_matches_randint():
    """The MAC's inlined rejection loop must consume getrandbits exactly
    like CPython's Random.randint(0, 2**be - 1) so seeded traces stay
    byte-identical (pinned by the comment in MacLayer._backoff)."""
    for seed in range(20):
        for be in (0, 1, 3, 5, 8):
            ref_rng = random.Random(seed)
            inl_rng = random.Random(seed)
            for _ in range(50):
                expected = ref_rng.randint(0, (1 << be) - 1)
                n = 1 << be
                k = n.bit_length()
                getrandbits = inl_rng.getrandbits
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                assert r == expected
            # and the two streams remain aligned afterwards
            assert ref_rng.random() == inl_rng.random()


# ======================================================================
# hybrid fidelity: metric equivalence on steady bulk transfer
# ======================================================================
def _bulk_run(fidelity: str):
    net = build_pair(seed=1, fidelity=fidelity)
    params = tcplp_params()
    xfer = BulkTransfer(net.sim, _stack(net, 1), _stack(net, 0),
                        receiver_id=0, params=params, receiver_params=params)
    res = xfer.measure(10.0, 45.0)
    counters = xfer.connection.trace.counters
    retx = tuple(counters.get(k) for k in (
        "tcp.retransmits", "tcp.rto_events", "tcp.fast_retransmits"))
    return net.sim, res.goodput_kbps, retx


def test_hybrid_metric_equivalence_on_bulk():
    sim_o, goodput_o, retx_o = _bulk_run("full")
    sim_h, goodput_h, retx_h = _bulk_run("hybrid")
    assert sim_o.warps == 0
    # it actually cruised, and skipped a large share of the event work
    assert sim_h.warps > 0
    assert sim_h.hybrid.cruises == sim_h.warps
    assert sim_h.hybrid.credited_bytes > 0
    assert sim_h.events_processed < sim_o.events_processed / 3
    # metric contract: goodput within 2%, loss/retransmit counters equal
    assert goodput_h == pytest.approx(goodput_o, rel=0.02)
    assert retx_h == retx_o


def test_hybrid_never_cruises_while_faults_armed():
    net = build_chain(2, seed=7, with_cloud=False, fidelity="hybrid")
    for n in net.nodes.values():
        n.mac.params.retry_delay = 0.04
    FaultInjector(net, FaultSchedule.from_dict(CHAOS_SPEC)).arm()
    params = tcplp_params(window_segments=4)
    xfer = BulkTransfer(net.sim, _stack(net, 2), _stack(net, 0),
                        receiver_id=0, params=params, receiver_params=params)
    xfer.measure(5.0, 10.0)
    assert net.sim.warps == 0  # the injector's veto held
