"""Sharded multi-core simulation of large meshes (conservative parallel DES).

The single-process kernel dispatches one event at a time, so a
thousand-node mesh with hundreds of flows is bounded by one core.  This
module splits a mesh into ``N`` spatial shards, runs each shard's nodes
in its own worker process, and keeps the composition *byte-identical*
to the single-process run — the single-process "oracle" run stays
the ground truth and the ``shard-equivalence`` CI job enforces the
identity at 1, 2 and 4 shards.

How it stays exact
==================

**Lookahead.**  Every builder behind a :class:`ShardRecipe` gives each
node ``PhyParams.tx_turnaround > 0``: the rx->tx switch between the
moment :meth:`repro.phy.radio.Radio.transmit` *commits* a frame and its
first bit reaching the air.  All transmit paths in the stack are
``skip_spi`` (data frames pre-load via ``Radio.load``; link ACKs are
hardware-generated), so the commit->air gap is exactly
``tx_turnaround`` — the conservative lookahead ``delta``.  A shard
cannot be affected by a foreign frame sooner than ``delta`` after that
frame was committed, and :meth:`_ShardState.on_commit` raises if any
future code path ever commits closer to the air than that.

**Windows.**  The coordinator advances all workers in lock-stepped
windows.  At each barrier it knows every worker's next pending event
time and every not-yet-delivered cross-shard frame ("ghost"), takes the
minimum ``m`` of all of them and opens the window ``[now, m + delta)``
via :meth:`Simulator.run_exclusive`.  Every event dispatched inside the
window has time ``>= m``, so any frame it commits reaches the air at
``>= m + delta`` — at or after the next barrier, where it is shipped to
the shards that can hear it and injected with ``schedule_at`` before
the next window runs.  A final exclusive window up to ``until`` plus
one inclusive ``run(until=until)`` step finishes a phase exactly like
the oracle's ``run(until)`` does.

**Full replicas.**  Every worker builds the *entire* network from the
recipe (deterministic in the seed), then mutes non-owned nodes: the
shard's :class:`ShardMedium` delivers frames only to owned receivers,
so a muted node never receives, never transmits, and never draws from
its RNG streams.  Fault schedules are armed in every replica, so a
remote sender's crash/reboot state is mirrored exactly where its ghost
frames land.  Carrier sense and collision marking use the full
adjacency, and ghost frames go on the air through
:meth:`Medium.begin_transmission` like local ones, so the channel
physics is whole in every shard.  The workload is the single-process
:class:`FlowSet` over the owned set: a flow with no owned endpoint
schedules nothing, a foreign sender's flow gets only its receiver half.

**Merging.**  Non-owner copies exist — a ghost counts its sender's
``phy.tx`` and emits its ``tx_begin`` event in every shard it lands in
— and merging discards them: each node's events and per-node metrics
are taken from its owner shard only, each flow's bytes from its
destination's owner and its ``connected``/``errors`` from its source's
owner; replica-identical unlabelled metrics (fault injections) come
from shard 0.  The merged trace is sorted by
``(time, node, per-node occurrence)`` — a canonical order both the
oracle trace and any shard count reproduce.  Exact float *ties* between
a foreign frame's air start and a local event fall back to scheduling
sequence numbers in the oracle, so ghosts are injected with a
fractional sequence key reconstructed from their *commit* instant (see
:class:`_WorkerSim`) — scheduling them with barrier-time numbers
demonstrably inverts hidden-terminal collision ties at thousand-node
scale.  The equivalence gate exists to catch any residual coincidence
loudly rather than let it drift silently.

What is refused
===============

Sharding is only offered where the ownership argument above is
airtight: mesh builders (``grid``/``random``) without a cloud host,
full fidelity (the hybrid tier's warps are refused), per-node RNG
only (global-stream chaos kinds — bursty loss, uniform loss, frame
corruption — are refused; link flaps, node reboots and clock drift are
replica-deterministic and allowed).

Checkpoint/resume reuses :class:`repro.sim.checkpoint.Checkpoint`: at a
barrier every worker snapshots its replica, and the coordinator adds
the recipe, clock and the in-flight cross-shard frames, so a resumed
run continues byte-identically — including frames mid-air across a
shard boundary at the checkpoint instant.
"""

from __future__ import annotations

import argparse
import bisect
import heapq
import json
import multiprocessing
import os
import pickle
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.experiments.workload import FlowSet, FlowSetResult, FlowSpec
from repro.faults import FaultInjector, FaultSchedule
from repro.net.node import NodeConfig
from repro.phy.medium import Medium
from repro.phy.params import PhyParams
from repro.sim import metrics as _metrics
from repro.sim.checkpoint import Checkpoint
from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.metrics import diff_snapshots

#: header magic of a coordinator checkpoint blob
MAGIC = "repro-shard-checkpoint-v1"

#: chaos kinds whose injections are a pure function of the schedule (no
#: global RNG stream), hence identical in every replica
SAFE_CHAOS_KINDS = frozenset({"link_flap", "node_reboot", "clock_drift"})

#: 802.15.4 aTurnaroundTime — the physically-grounded default lookahead
DEFAULT_TURNAROUND = 192e-6

#: worker reply wait (seconds) before the coordinator declares it dead
_WORKER_TIMEOUT = 900.0


class ShardError(Exception):
    """A sharded run was mis-configured or diverged from its contract."""


class ShardWorkerDeath(ShardError):
    """A worker process died or stopped answering the window protocol.

    The coordinator's self-healing path (``heal=True``) catches exactly
    this — a crash or hang is recoverable by respawn-and-replay, while
    a worker *error* (a deterministic exception inside the replica)
    would simply reproduce on replay and stays fatal."""


# ----------------------------------------------------------------------
# recipe
# ----------------------------------------------------------------------
@dataclass
class ShardRecipe:
    """A self-contained, picklable description of one sharded experiment.

    Workers rebuild the whole network from this alone, so everything a
    build needs — builder, seed, flows, TCP parameters, chaos schedule —
    must live here (never in closures or ambient process state).
    """

    builder: str = "grid"  # "grid" | "random"
    builder_kwargs: Dict[str, Any] = field(default_factory=dict)
    flows: List[FlowSpec] = field(default_factory=list)
    base_port: int = 9000
    params: Optional[object] = None  # TcpParams for senders
    receiver_params: Optional[object] = None
    #: commit->air gap = the conservative lookahead (must be > 0)
    tx_turnaround: float = DEFAULT_TURNAROUND
    #: fault-schedule spec dict (SAFE_CHAOS_KINDS only), or None
    chaos: Optional[Dict[str, Any]] = None
    capture_trace: bool = False
    capture_metrics: bool = False

    def lookahead(self) -> float:
        """The conservative window bound ``delta`` (seconds)."""
        return float(self.tx_turnaround)

    def validate(self) -> None:
        """Raise :class:`ShardError` unless this recipe is shardable."""
        if self.builder not in ("grid", "random"):
            raise ShardError(
                f"builder {self.builder!r} is not shardable "
                f"(expected 'grid' or 'random')"
            )
        if not self.tx_turnaround > 0.0:
            raise ShardError(
                "sharding needs tx_turnaround > 0: the commit->air gap "
                "is the lookahead that makes conservative windows sound"
            )
        kw = self.builder_kwargs
        if kw.get("with_cloud"):
            raise ShardError("cloud-attached meshes are not shardable "
                             "(the wired link is a global rendezvous)")
        if kw.get("fidelity", "full") != "full":
            raise ShardError("hybrid fidelity warps the clock globally "
                             "and is not shardable")
        if kw.get("node_config") is not None:
            raise ShardError("node_config is owned by the shard tier "
                             "(it injects the tx_turnaround PHY profile)")
        if self.builder == "grid":
            if "rows" not in kw or "cols" not in kw:
                raise ShardError("grid builder needs rows= and cols=")
        else:
            if "num_nodes" not in kw:
                raise ShardError("random builder needs num_nodes=")
        # Workers would only catch a bad endpoint after forking, once
        # per shard; the geometry names every node up front.
        known = recipe_positions(self) if self.flows else {}
        for index, spec in enumerate(self.flows):
            if spec.src not in known or spec.dst not in known:
                raise ShardError(f"flow {index}: unknown node in "
                                 f"{spec.src}->{spec.dst}")
            if spec.kind not in ("bulk", "sensor"):
                raise ShardError(
                    f"flow {index}: kind {spec.kind!r} is not shardable")
            if spec.dst_is_cloud:
                raise ShardError(
                    f"flow {index}: cloud destinations are not shardable")
            if spec.src == spec.dst:
                raise ShardError(f"flow {index}: src == dst == {spec.src}")
        if self.chaos is not None:
            FaultSchedule.from_dict(self.chaos)  # structural validation
            for entry in self.chaos.get("faults", []):
                kind = entry.get("kind")
                if kind not in SAFE_CHAOS_KINDS:
                    raise ShardError(
                        f"chaos kind {kind!r} draws from a global RNG "
                        f"stream and is not shardable (allowed: "
                        f"{sorted(SAFE_CHAOS_KINDS)})"
                    )


def build_network(recipe: ShardRecipe):
    """Build the recipe's network (full replica) and arm its chaos.

    Returns ``(net, injector)``; deterministic in the recipe alone, so
    every worker and the oracle construct identical object graphs.
    """
    from repro.experiments.topology import build_grid_mesh, build_random_mesh

    config = NodeConfig(phy=PhyParams(tx_turnaround=recipe.tx_turnaround))
    kwargs = dict(recipe.builder_kwargs)
    kwargs["node_config"] = config
    if recipe.builder == "grid":
        net = build_grid_mesh(**kwargs)
    else:
        net = build_random_mesh(**kwargs)
    injector = None
    if recipe.chaos is not None:
        # Armed before any TCP stack exists (flows launch later), the
        # ordering clock_drift needs; armed in *every* replica so ghost
        # senders crash and reboot exactly like their owned originals.
        injector = FaultInjector(net, FaultSchedule.from_dict(recipe.chaos))
        injector.arm()
    return net, injector


def recipe_positions(recipe: ShardRecipe) -> Dict[int, Tuple[float, float]]:
    """Node positions the recipe's builder will use, without building.

    The shard planner needs the geometry up front; this mirrors the
    builders' placement logic exactly (same formulas, same RNG draws).
    """
    import math

    from repro.experiments.topology import _draw_random_positions
    from repro.sim.rng import RngStreams

    kw = recipe.builder_kwargs
    if recipe.builder == "grid":
        rows, cols = kw["rows"], kw["cols"]
        spacing = kw.get("spacing", 8.0)
        return {
            r * cols + c: (c * spacing, r * spacing)
            for r in range(rows) for c in range(cols)
        }
    num_nodes = kw["num_nodes"]
    comm_range = kw.get("comm_range", 10.0)
    side = kw.get("area")
    if side is None:
        side = comm_range * 0.55 * math.sqrt(num_nodes)
    return _draw_random_positions(
        RngStreams(kw.get("seed", 0)), num_nodes, side, comm_range,
        kw.get("max_tries", 64), f"random_mesh(n={num_nodes})",
    )


def plan_shards(
    positions: Dict[int, Tuple[float, float]],
    comm_range: float,
    shards: int,
) -> List[List[int]]:
    """Partition nodes into ``shards`` spatial bands along the x axis.

    Preferred cut lines follow the spatial-index cell columns (width
    ``comm_range``), which keeps most radio neighborhoods inside one
    shard and the ghost traffic low.  When there are fewer populated
    columns than shards, nodes are split into equal-count bands instead.
    Any partition is *correct* (cross-shard frames travel as ghosts);
    the plan only shapes how much crosses.
    """
    if shards < 1:
        raise ShardError(f"need at least one shard (got {shards})")
    if shards > len(positions):
        raise ShardError(
            f"{shards} shards for {len(positions)} nodes (need >= 1 "
            f"node per shard)"
        )
    ordered = sorted(positions, key=lambda n: (positions[n][0],
                                               positions[n][1], n))
    if shards == 1:
        return [ordered]
    columns: Dict[int, List[int]] = {}
    for nid in ordered:
        columns.setdefault(int(positions[nid][0] // comm_range),
                           []).append(nid)
    col_keys = sorted(columns)
    if len(col_keys) < shards:
        n = len(ordered)
        return [ordered[k * n // shards:(k + 1) * n // shards]
                for k in range(shards)]
    bands: List[List[int]] = []
    remaining = len(ordered)
    cursor = 0
    for band_index in range(shards):
        bands_left = shards - band_index
        quota = remaining / bands_left
        band: List[int] = []
        while cursor < len(col_keys):
            # must leave at least one column per remaining band
            cols_left = len(col_keys) - cursor
            if band and cols_left <= bands_left - 1:
                break
            size = len(columns[col_keys[cursor]])
            if band and len(band) + size > 1.5 * quota:
                break
            band.extend(columns[col_keys[cursor]])
            cursor += 1
            if len(band) >= quota:
                break
        bands.append(band)
        remaining -= len(band)
    # any trailing columns (rounding) join the last band
    while cursor < len(col_keys):
        bands[-1].extend(columns[col_keys[cursor]])
        cursor += 1
    return bands


# ----------------------------------------------------------------------
# shard-local medium
# ----------------------------------------------------------------------
class ShardMedium(Medium):
    """A :class:`Medium` that delivers only to this shard's nodes.

    Installed onto an already-built medium by :func:`shard_adopt` (class
    swap — the registered radios, links and caches carry over).  Carrier
    sense, collision marking and the ``_active`` list keep the *full*
    topology: a shard must hear foreign frames (ghosts) exactly like
    local ones; it just never delivers them to nodes it does not own —
    the owner shard performs that delivery (and its per-receiver
    accounting) itself.
    """

    def _build_cache(self):
        sets = super()._build_cache()
        owned = self._shard_owned
        radios = self._neighbor_radios
        assert radios is not None
        self._neighbor_radios = {
            sender: [(rcv_id, radio) for rcv_id, radio in hearers
                     if rcv_id in owned]
            for sender, hearers in radios.items()
        }
        return sets

    def ghost_begin(self, sender_id: int, frame: object,
                    air_time: float) -> None:
        """Put a foreign shard's committed frame on this shard's air.

        The frame goes through :meth:`Medium.begin_transmission` like a
        local one, behind the owner-side ``powered`` guard: if the
        replicated fault schedule crashed the sender before air start,
        the owner's ``_start_air`` dropped the frame, so the ghost must
        vanish too.  The sender's ``phy.tx`` count and ``tx_begin``
        event land here too; merging keeps only the owner shard's copy.
        """
        radio = self.radios[sender_id]
        if radio.powered:
            self.begin_transmission(radio, frame, air_time)


def shard_adopt(medium: Medium, owned: FrozenSet[int]) -> None:
    """Turn a built medium into this shard's :class:`ShardMedium`."""
    if not medium.use_cache:
        raise ShardError("sharding requires the medium adjacency cache")
    medium.__class__ = ShardMedium
    medium._shard_owned = frozenset(owned)
    medium._invalidate_cache()


# ----------------------------------------------------------------------
# worker-side kernel: ghost tie ordering
# ----------------------------------------------------------------------
class _WorkerSim(Simulator):
    """The kernel plus the shard worker's ghost-ordering extras.

    Byte-identity across shard counts needs more than delivering ghosts
    at the right *time*: when a foreign frame's air start exactly ties a
    local event, the oracle breaks the tie by sequence number — and the
    foreign ``_start_air`` got its number at *commit* time, possibly
    before local events scheduled later in the same window.  A worker
    that numbers ghosts at the barrier hands them too-late sequence
    numbers and inverts such ties (observed at scale as flipped
    hidden-terminal collision marking).

    The cure: an ``on_event`` hook (:meth:`_log_instant`) logs
    ``(instant, seq counter)`` at each new dispatch instant of the
    window, and :meth:`schedule_ghost` derives a *fractional* sequence
    key from the ghost's commit instant —
    ``seq_after(commit) - 0.5`` — which heap-sorts exactly where the
    oracle's commit-time integer would: after everything scheduled at
    dispatch instants ``<= commit``, before everything scheduled later.
    Ghosts within one instant keep their coordinator order (commit, air
    start, sender) via a per-worker ``1e-9`` ordinal, which also keeps
    heap keys unique.  The one residual ambiguity is *intra-instant*:
    events a committing callback schedules after its ``transmit()`` call
    but at the same dispatch instant are indistinguishable from it here.
    """

    def _init_shard_log(self) -> None:
        self._ghost_ord = 0
        self.begin_seqlog()

    def begin_seqlog(self) -> None:
        """Start a window's (instant -> seq) log and install its hook.

        Called after the barrier's ghosts are scheduled (they look up
        the *previous* window's log — their frames committed there) and
        before the window runs.  The hook is installed here, every
        window, because a checkpoint restore comes back without one.
        """
        self._log_t: List[float] = []
        self._log_s: List[int] = []
        self._log_base = self._seq
        self._log_last: Optional[float] = None
        self.on_event = self._log_instant

    def _log_instant(self, ev) -> None:
        """``on_event`` hook: on entering a new dispatch instant, log the
        previous one with the seq counter as it stood when it ended."""
        last = self._log_last
        if self.now != last:
            if last is not None:
                # the loop re-arms a periodic event before calling its
                # hook; that re-arm already belongs to the new instant
                seq = self._seq if ev.interval is None else self._seq - 1
                self._log_t.append(last)
                self._log_s.append(seq)
            self._log_last = self.now

    def end_seqlog(self) -> None:
        """Log the window's last instant (call after the window ran)."""
        if self._log_last is not None:
            self._log_t.append(self._log_last)
            self._log_s.append(self._seq)
            self._log_last = None

    def schedule_ghost(self, air_start: float, commit: float,
                       fn, *args) -> Event:
        """Schedule a ghost with the commit instant's fractional seq key."""
        if air_start < self.now:
            raise SimulationError(
                f"ghost air start t={air_start} before now={self.now}")
        i = bisect.bisect_right(self._log_t, commit) - 1
        base = self._log_s[i] if i >= 0 else self._log_base
        self._ghost_ord += 1
        key = base - 0.5 + self._ghost_ord * 1e-9
        ev = Event(air_start, key, fn, args)
        ev.sim = self
        heapq.heappush(self._queue, (air_start, key, ev))
        return ev


# ----------------------------------------------------------------------
# per-worker state
# ----------------------------------------------------------------------
class _ShardState:
    """Commit collector plus shard bookkeeping (a checkpoint root)."""

    def __init__(self, sim, index: int, owned: FrozenSet[int],
                 owner_of: Dict[int, int],
                 neighbor_sets: Dict[int, set], delta: float):
        self.sim = sim
        self.index = index
        self.owned = frozenset(owned)
        self.owner_of = dict(owner_of)
        self.delta = delta
        #: commits of the current window: (commit time, air_start,
        #: sender, frame, air_time, target shard tuple)
        self.pending: List[Tuple[float, float, int, object, float,
                                 Tuple[int, ...]]] = []
        self.wall = 0.0
        # Shards a frame from each owned sender can reach, from the t=0
        # adjacency.  Fault flaps only *remove* edges afterwards, so the
        # static snapshot is a sound superset: at worst a ghost is
        # shipped to a shard where nobody hears it any more.
        self._targets: Dict[int, Tuple[int, ...]] = {}
        for nid in self.owned:
            hearers = neighbor_sets.get(nid, ())
            targets = {self.owner_of[h] for h in hearers
                       if h in self.owner_of}
            targets.discard(index)
            self._targets[nid] = tuple(sorted(targets))

    def on_commit(self, sender_id: int, frame: object, air_start: float,
                  air_time: float) -> None:
        """``Medium.tx_commit_hook``: record a local frame commitment."""
        targets = self._targets.get(sender_id)
        if targets is None:
            raise ShardError(
                f"shard {self.index}: non-owned node {sender_id} "
                f"transmitted — a muted replica received traffic "
                f"(ownership invariant broken)"
            )
        if air_start + 1e-12 < self.sim.now + self.delta:
            raise ShardError(
                f"shard {self.index}: node {sender_id} committed a frame "
                f"{air_start - self.sim.now:.2e}s before air, inside the "
                f"lookahead {self.delta:.2e}s — the conservative window "
                f"contract is broken"
            )
        if targets:
            self.pending.append(
                (self.sim.now, air_start, sender_id, frame, air_time,
                 targets))


def _cross_in_flight(medium: Medium, state: _ShardState) -> int:
    """Foreign (ghost) frames currently on this shard's air."""
    owned = state.owned
    return sum(1 for tx in medium._active
               if tx.sender.node_id not in owned)


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
def _build_worker(payload: Dict[str, Any]):
    recipe: ShardRecipe = payload["recipe"]
    observe = recipe.capture_trace or recipe.capture_metrics
    if observe:
        _metrics.auto_attach(True, capture_trace=recipe.capture_trace,
                             trace_capacity=None)
    try:
        net, injector = build_network(recipe)
    finally:
        if observe:
            _metrics.drain_attached()
            _metrics.auto_attach(False)
    owned = frozenset(payload["owned"])
    shard_adopt(net.medium, owned)
    # worker kernel: ghost seq-key machinery on top of the one dispatch
    # loop (the class swap and its log survive checkpoint capture/restore)
    net.sim.__class__ = _WorkerSim
    net.sim._init_shard_log()
    # targets come from the pre-filter t=0 adjacency
    neighbor_sets = {nid: set(hearers)
                     for nid, hearers in net.medium.neighbor_sets.items()}
    state = _ShardState(net.sim, payload["index"], owned,
                        payload["owner_of"], neighbor_sets,
                        payload["delta"])
    net.medium.tx_commit_hook = state.on_commit
    flows = FlowSet(net, recipe.flows, base_port=recipe.base_port,
                    params=recipe.params,
                    receiver_params=recipe.receiver_params, owned=owned)
    roots = {"state": state, "net": net, "flows": flows,
             "injector": injector}
    return net.sim, roots


def _collect_worker(sim, roots, duration: float) -> Dict[str, Any]:
    state: _ShardState = roots["state"]
    net = roots["net"]
    owner_of = state.owner_of
    index = state.index
    trace: List[Dict[str, Any]] = []
    bus = sim.trace_bus
    if bus is not None:
        # keep exactly the events this shard owns (node -1 — global
        # events like link flaps, replica-identical — go to shard 0)
        trace = [ev.as_dict() for ev in bus.events
                 if owner_of.get(ev.node, 0) == index]
    snapshot = sim.metrics.snapshot() if sim.metrics is not None else None
    return {
        "index": index,
        "trace": trace,
        "metrics": snapshot,
        "flows": roots["flows"].results(duration).flows,
        "events": sim.events_processed,
        "wall_s": state.wall,
        "now": sim.now,
        "frames_delivered": net.medium.frames_delivered,
        "frames_collided": net.medium.frames_collided,
        "frames_lost": net.medium.frames_lost,
    }


def _worker_main(conn, payload: Dict[str, Any]) -> None:
    """Worker process entry: build (or restore) a replica, serve windows."""
    try:
        if payload["mode"] == "fresh":
            sim, roots = _build_worker(payload)
        else:
            sim, roots = Checkpoint.from_bytes(payload["blob"]).restore()
        state: _ShardState = roots["state"]
        net = roots["net"]
        flows: FlowSet = roots["flows"]
        medium = net.medium
        conn.send(("ready", sim.peek_time()))
        while True:
            msg = conn.recv()
            cmd = msg[0]
            if cmd == "advance" or cmd == "instant":
                _, t, ghosts = msg
                # Ghost seq keys come from the *previous* window's log
                # (the frames committed there), so schedule before
                # begin_seqlog resets it for the window about to run.
                for commit, air_start, sender_id, frame, air_time in ghosts:
                    sim.schedule_ghost(air_start, commit,
                                       medium.ghost_begin,
                                       sender_id, frame, air_time)
                sim.begin_seqlog()
                t0 = time.perf_counter()
                if cmd == "advance":
                    sim.run_exclusive(t)
                else:
                    sim.run(until=t)
                sim.end_seqlog()
                state.wall += time.perf_counter() - t0
                commits = state.pending
                state.pending = []
                conn.send(("window", commits, sim.peek_time(),
                           _cross_in_flight(medium, state)))
            elif cmd == "meter":
                flows.start_metering()
                conn.send(("ok",))
            elif cmd == "checkpoint":
                blob = Checkpoint.capture(sim, roots).to_bytes()
                conn.send(("ckpt", blob,
                           _cross_in_flight(medium, state)))
            elif cmd == "collect":
                conn.send(("result", _collect_worker(sim, roots, msg[1])))
            elif cmd == "close":
                conn.send(("ok",))
                return
            else:  # pragma: no cover - protocol guard
                raise ShardError(f"unknown command {cmd!r}")
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - pipe already gone
            pass


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------
class ShardedSimulator:
    """Drives N shard workers through lock-stepped conservative windows.

    Presents the phase surface the workload engine needs —
    ``run(until)``, ``start_metering()``, ``finalize(duration)`` — so
    :func:`run_sharded` can mirror ``FlowSet.measure`` exactly.

    With ``heal=True`` (the default) the coordinator survives worker
    death: a worker that exits or stops answering within
    ``worker_timeout`` seconds is killed, respawned from its heal base
    (the build payload, or the checkpoint refreshed every
    ``heal_every`` barriers), and fast-forwarded by replaying the
    coordinator's command journal — every window command plus the
    ghost frames it delivered.  Workers are deterministic replicas, so
    the respawned worker rejoins the next lock-step window in a state
    byte-identical to the one lost, and the merged results are
    identical to an unkilled run (pinned by the process-chaos tests).
    Each recovery is recorded in :attr:`respawns`.  ``barrier_hook``
    is called as ``hook(self, window_index, barrier_time)`` before
    every window — the process-chaos injection point.
    """

    def __init__(self, recipe: ShardRecipe, shards: int = 1,
                 _restore: Optional[Dict[str, Any]] = None,
                 heal: bool = True,
                 heal_every: Optional[int] = None,
                 worker_timeout: Optional[float] = None,
                 barrier_hook=None):
        recipe.validate()
        self.recipe = recipe
        self.shards = shards
        self.delta = recipe.lookahead()
        self.now = 0.0
        self.metering = False
        #: (barrier_time, cross-shard frames in flight) per barrier
        self.barrier_log: List[Tuple[float, int]] = []
        self.last_checkpoint: Optional[bytes] = None
        self.last_checkpoint_cross: Optional[int] = None
        #: undelivered cross-shard commits:
        #: (commit time, air_start, sender, frame, air_time, targets)
        self._ghost_out: List[Tuple[float, float, int, object, float,
                                    Tuple[int, ...]]] = []
        #: self-healing: respawn a dead/hung worker from its last heal
        #: base (initial payload, or a checkpoint refreshed every
        #: ``heal_every`` barriers) and replay the command journal —
        #: workers are deterministic, so the replayed replica is
        #: byte-identical to the lost one
        self._heal = heal
        self._heal_every = heal_every
        self._worker_timeout = worker_timeout or _WORKER_TIMEOUT
        #: called as hook(self, window_index, t) at the top of every
        #: lock-stepped window — the process-chaos injection point
        self.barrier_hook = barrier_hook
        #: completed barriers (the chaos schedules' window index)
        self.windows = 0
        #: command journal since the last heal base: ("window", cmd, t,
        #: per_shard_ghosts) and ("meter",) entries in execution order
        self._journal: List[Tuple] = []
        #: one dict per respawn: shard, reason, windows_replayed, wall_s
        self.respawns: List[Dict[str, Any]] = []
        if _restore is None:
            positions = recipe_positions(recipe)
            comm_range = recipe.builder_kwargs.get("comm_range", 10.0)
            self.plan = plan_shards(positions, comm_range, shards)
            self.owner_of = {nid: k for k, band in enumerate(self.plan)
                             for nid in band}
            payloads = [
                {"mode": "fresh", "recipe": recipe, "index": k,
                 "owned": tuple(band), "owner_of": self.owner_of,
                 "delta": self.delta}
                for k, band in enumerate(self.plan)
            ]
        else:
            self.plan = _restore["plan"]
            self.owner_of = _restore["owner_of"]
            self.now = _restore["now"]
            self.metering = _restore["metering"]
            self._ghost_out = list(_restore["ghosts"])
            payloads = [{"mode": "restore", "blob": blob}
                        for blob in _restore["workers"]]
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = multiprocessing.get_context("spawn")
        self._ctx = ctx
        #: respawn base: the payload each worker can be rebuilt from
        #: (the fresh/restore payload initially; a heal checkpoint later)
        self._base_payloads = list(payloads)
        self._conns = []
        self._procs = []
        try:
            for payload in payloads:
                parent, child = ctx.Pipe(duplex=True)
                proc = ctx.Process(target=_worker_main,
                                   args=(child, payload), daemon=True)
                proc.start()
                child.close()
                self._conns.append(parent)
                self._procs.append(proc)
            self._peeks: List[Optional[float]] = [
                self._recv(k, "ready")[1] for k in range(shards)
            ]
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # protocol plumbing
    # ------------------------------------------------------------------
    def _recv(self, k: int, expect: str):
        conn = self._conns[k]
        try:
            if not conn.poll(self._worker_timeout):
                raise ShardWorkerDeath(
                    f"shard {k}: no reply within "
                    f"{self._worker_timeout:.0f}s (deadlock or death)")
            msg = conn.recv()
        except (EOFError, OSError):
            raise ShardWorkerDeath(
                f"shard {k}: worker died "
                f"(exitcode={self._procs[k].exitcode})")
        if msg[0] == "error":
            raise ShardError(f"shard {k} failed:\n{msg[1]}")
        if msg[0] != expect:
            raise ShardError(f"shard {k}: expected {expect!r}, "
                             f"got {msg[0]!r}")
        return msg

    def _send(self, k: int, msg: Tuple) -> bool:
        """Best-effort send; False if the pipe is already dead (the
        failure surfaces — and heals — at the matching receive)."""
        try:
            self._conns[k].send(msg)
            return True
        except (OSError, ValueError, BrokenPipeError):
            return False

    def _respawn(self, k: int, reason: str) -> None:
        """Replace a dead worker: rebuild from the heal base, replay
        the journal.  Workers are deterministic replicas, so the
        replayed worker reaches a byte-identical state; replies from
        replayed windows are discarded (their commits were already
        folded into ``_ghost_out`` at the original barriers)."""
        t0 = time.perf_counter()
        proc = self._procs[k]
        try:
            proc.kill()  # SIGKILL: also fells SIGSTOPped (hung) workers
        except (OSError, AttributeError):  # pragma: no cover
            pass
        proc.join(timeout=10)
        try:
            self._conns[k].close()
        except OSError:  # pragma: no cover
            pass
        parent, child = self._ctx.Pipe(duplex=True)
        newproc = self._ctx.Process(target=_worker_main,
                                    args=(child, self._base_payloads[k]),
                                    daemon=True)
        newproc.start()
        child.close()
        self._conns[k] = parent
        self._procs[k] = newproc
        self._recv(k, "ready")
        replayed = 0
        for entry in self._journal:
            if entry[0] == "meter":
                self._conns[k].send(("meter",))
                self._recv(k, "ok")
            else:
                _, cmd, t, per_shard = entry
                self._conns[k].send((cmd, t, per_shard[k]))
                self._recv(k, "window")
                replayed += 1
        self.respawns.append({
            "shard": k,
            "reason": reason,
            "windows_replayed": replayed,
            "wall_s": round(time.perf_counter() - t0, 3),
        })

    def _request(self, k: int, msg: Tuple, expect: str):
        """Send one command and await its reply, healing the worker
        (respawn + journal replay + one re-send) if it died."""
        try:
            self._send(k, msg)
            return self._recv(k, expect)
        except ShardWorkerDeath as exc:
            if not self._heal:
                raise
            self._respawn(k, reason=str(exc))
            self._conns[k].send(msg)
            return self._recv(k, expect)

    def _step(self, cmd: str, t: float) -> None:
        """One lock-stepped window: deliver ghosts, advance, gather."""
        if self.barrier_hook is not None:
            self.barrier_hook(self, self.windows, t)
        per_shard: List[List[Tuple[float, float, int, object, float]]] = [
            [] for _ in range(self.shards)
        ]
        # Commit order first: the worker's fractional ghost seq keys are
        # assigned in delivery order, so this *is* the oracle's tie
        # order for ghosts sharing a dispatch instant.
        for commit, air_start, sender_id, frame, air_time, targets in sorted(
                self._ghost_out, key=lambda g: (g[0], g[1], g[2])):
            for k in targets:
                per_shard[k].append(
                    (commit, air_start, sender_id, frame, air_time))
        self._ghost_out = []
        for k in range(self.shards):
            self._send(k, (cmd, t, per_shard[k]))
        cross_total = 0
        for k in range(self.shards):
            try:
                msg = self._recv(k, "window")
            except ShardWorkerDeath as exc:
                if not self._heal:
                    raise
                self._respawn(k, reason=str(exc))
                self._conns[k].send((cmd, t, per_shard[k]))
                msg = self._recv(k, "window")
            _, commits, peek, n_cross = msg
            self._ghost_out.extend(commits)
            self._peeks[k] = peek
            cross_total += n_cross
        self.now = t
        self.windows += 1
        self.barrier_log.append((t, cross_total))
        self._journal.append(("window", cmd, t, per_shard))
        if (self._heal and self._heal_every is not None
                and len(self._journal) >= self._heal_every):
            self._refresh_heal_base()

    def _refresh_heal_base(self) -> None:
        """Re-base self-healing on fresh worker checkpoints.

        Bounds replay cost after a crash to ``heal_every`` windows; the
        journal restarts empty against the new base."""
        blobs = [self._request(k, ("checkpoint",), "ckpt")[1]
                 for k in range(self.shards)]
        self._base_payloads = [{"mode": "restore", "blob": blob}
                               for blob in blobs]
        self._journal = []

    # ------------------------------------------------------------------
    # phase surface
    # ------------------------------------------------------------------
    def run(self, until: float,
            checkpoint_at: Optional[float] = None) -> None:
        """Advance all shards to exactly ``until`` (inclusive).

        Dispatches the same events the oracle's ``run(until=until)``
        would.  With ``checkpoint_at``, a checkpoint is captured at the
        first barrier at or after that time (barrier times are a pure
        function of recipe + shard count, so a re-run checkpoints at
        the identical instant).

        A single shard owns every node, so no frame ever crosses a
        boundary and the lock-stepped windows are pure overhead: the
        phase collapses to the final window pair (same event order —
        there are no ghosts to inject at intermediate barriers).
        """
        while self.shards > 1:
            candidates = [p for p in self._peeks if p is not None]
            candidates.extend(g[1] for g in self._ghost_out)
            if not candidates:
                break
            t_next = min(candidates) + self.delta
            if t_next >= until:
                break
            self._step("advance", t_next)
            if (checkpoint_at is not None and self.last_checkpoint is None
                    and self.now >= checkpoint_at):
                self._capture_checkpoint()
        # All remaining pre-``until`` events are within one lookahead of
        # ``until``, so their commits air at >= until: safe to finish
        # the phase in one exclusive window plus the inclusive step.
        self._step("advance", until)
        self._step("instant", until)
        if (checkpoint_at is not None and self.last_checkpoint is None
                and checkpoint_at <= until):
            self._capture_checkpoint()

    def start_metering(self) -> None:
        """Open the measurement window in every shard (one barrier)."""
        for k in range(self.shards):
            self._request(k, ("meter",), "ok")
        self._journal.append(("meter",))
        self.metering = True

    def _capture_checkpoint(self) -> None:
        blobs: List[bytes] = []
        cross_total = 0
        for k in range(self.shards):
            _, blob, n_cross = self._request(k, ("checkpoint",), "ckpt")
            blobs.append(blob)
            cross_total += n_cross
        payload = {
            "magic": MAGIC,
            "recipe": self.recipe,
            "shards": self.shards,
            "plan": self.plan,
            "owner_of": self.owner_of,
            "now": self.now,
            "metering": self.metering,
            "ghosts": list(self._ghost_out),
            "workers": blobs,
        }
        self.last_checkpoint = pickle.dumps(
            payload, pickle.HIGHEST_PROTOCOL)
        self.last_checkpoint_cross = cross_total

    @classmethod
    def resume(cls, blob: bytes) -> "ShardedSimulator":
        """Rebuild a coordinator (and its workers) from a checkpoint."""
        payload = pickle.loads(blob)
        if not (isinstance(payload, dict) and payload.get("magic") == MAGIC):
            raise ShardError("not a sharded-run checkpoint (bad magic)")
        return cls(payload["recipe"], payload["shards"], _restore=payload)

    def finalize(self, duration: float) -> Dict[str, Any]:
        """Collect every shard's partials and merge (workers stay up)."""
        results = [self._request(k, ("collect", duration), "result")[1]
                   for k in range(self.shards)]
        return merge_results(self.recipe, results, self.owner_of, duration)

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        for k, conn in enumerate(self._conns):
            try:
                conn.send(("close",))
            except (OSError, ValueError):
                pass
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - SIGSTOPped worker
                proc.kill()
                proc.join(timeout=5)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass


# ----------------------------------------------------------------------
# merging
# ----------------------------------------------------------------------
def canonical_trace(events: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Sort events by ``(t, node, per-node occurrence)``.

    Each node's events must appear in their emission order in
    ``events`` (true for one bus, and for concatenated owner-filtered
    shard streams — every node's events come from exactly one shard).
    The result is the canonical order both the oracle and any shard
    count produce.
    """
    occurrence: Dict[int, int] = {}
    keyed = []
    for ev in events:
        node = ev["node"]
        i = occurrence.get(node, 0)
        occurrence[node] = i + 1
        keyed.append(((ev["t"], node, i), ev))
    keyed.sort(key=lambda pair: pair[0])
    return [ev for _, ev in keyed]


def _key_node(key: str) -> Optional[int]:
    """The ``node`` label of a rendered metric key, or None."""
    brace = key.find("{")
    if brace < 0:
        return None
    for item in key[brace + 1:-1].split(","):
        if item.startswith("node="):
            try:
                return int(item[5:])
            except ValueError:
                return None
    return None


def merge_metrics(
    snapshots: Sequence[Dict[str, Any]],
    owner_of: Dict[int, int],
) -> Dict[str, Any]:
    """Compose one oracle-shaped snapshot from per-shard snapshots.

    Every activity instrument carries ``node=<id>`` and is authoritative
    only in that node's owner shard (muted replicas hold stale copies).
    Unlabelled instruments (fault injections) are replica-identical, so
    shard 0's copy stands for all.
    """
    merged: Dict[str, Any] = {}
    for section in ("counters", "gauges", "histograms"):
        out: Dict[str, Any] = {}
        for index, snap in enumerate(snapshots):
            for key, value in snap.get(section, {}).items():
                node = _key_node(key)
                if node is None:
                    if index == 0:
                        out[key] = value
                elif owner_of.get(node, 0) == index:
                    out[key] = value
        merged[section] = dict(sorted(out.items()))
    return merged


def _flow_block(result: FlowSetResult) -> Dict[str, Any]:
    """A FlowSetResult as the comparable ``flows``/``aggregate`` dicts."""
    return {
        "flows": [
            {"index": f.index, "src": f.src, "dst": f.dst, "port": f.port,
             "kind": f.kind, "bytes": f.bytes_delivered,
             "goodput_bps": f.goodput_bps, "connected": f.connected,
             "errors": list(f.errors)}
            for f in result.flows
        ],
        "aggregate": {
            "goodput_bps": result.aggregate_goodput_bps,
            "fairness": result.fairness,
            "flows_connected": result.flows_connected,
            "bytes_delivered": result.bytes_delivered,
        },
    }


def merge_results(
    recipe: ShardRecipe,
    results: Sequence[Dict[str, Any]],
    owner_of: Dict[int, int],
    duration: float,
) -> Dict[str, Any]:
    """Merge per-shard ``collect`` payloads into one oracle-shaped result."""
    by_index = {r["index"]: r for r in results}
    ordered = [by_index[k] for k in range(len(results))]
    trace: List[Dict[str, Any]] = []
    if recipe.capture_trace:
        for r in ordered:
            trace.extend(r["trace"])
        trace = canonical_trace(trace)
    metrics = None
    if recipe.capture_metrics and ordered[0]["metrics"] is not None:
        metrics = merge_metrics([r["metrics"] for r in ordered], owner_of)
    # bytes from the destination's owner, the outcome from the source's
    flows = []
    for index, spec in enumerate(recipe.flows):
        received = ordered[owner_of[spec.dst]]["flows"][index]
        sent = ordered[owner_of[spec.src]]["flows"][index]
        flows.append(replace(
            received, connected=sent.connected, errors=sent.errors))
    return {
        "trace": trace,
        "metrics": metrics,
        **_flow_block(FlowSetResult.of(flows, duration)),
        "per_shard": [
            {"index": r["index"], "events": r["events"],
             "wall_s": r["wall_s"], "now": r["now"],
             "frames_delivered": r["frames_delivered"],
             "frames_collided": r["frames_collided"],
             "frames_lost": r["frames_lost"]}
            for r in ordered
        ],
        "events": sum(r["events"] for r in ordered),
    }


# ----------------------------------------------------------------------
# whole-run drivers (oracle and sharded) — the equivalence surface
# ----------------------------------------------------------------------
def run_oracle(recipe: ShardRecipe, warmup: float,
               duration: float) -> Dict[str, Any]:
    """The recipe on the single-process kernel — the ground truth."""
    observe = recipe.capture_trace or recipe.capture_metrics
    if observe:
        _metrics.auto_attach(True, capture_trace=recipe.capture_trace,
                             trace_capacity=None)
    try:
        net, injector = build_network(recipe)
    finally:
        attached = _metrics.drain_attached() if observe else []
        if observe:
            _metrics.auto_attach(False)
    flows = FlowSet(net, recipe.flows, base_port=recipe.base_port,
                    params=recipe.params,
                    receiver_params=recipe.receiver_params)
    t0 = time.perf_counter()
    result = flows.measure(warmup, duration)
    wall = time.perf_counter() - t0
    trace: List[Dict[str, Any]] = []
    metrics = None
    if attached:
        registry, bus = attached[0]
        if recipe.capture_trace and bus is not None:
            trace = canonical_trace([ev.as_dict() for ev in bus.events])
        if recipe.capture_metrics:
            metrics = registry.snapshot()
    return {
        "trace": trace,
        "metrics": metrics,
        **_flow_block(result),
        "events": net.sim.events_processed,
        "wall_s": wall,
        "now": net.sim.now,
    }


def run_sharded(
    recipe: ShardRecipe,
    shards: int,
    warmup: float,
    duration: float,
    checkpoint_at: Optional[float] = None,
    heal: bool = True,
    heal_every: Optional[int] = None,
    worker_timeout: Optional[float] = None,
    barrier_hook=None,
) -> Dict[str, Any]:
    """The recipe across ``shards`` workers, ``FlowSet.measure``-shaped.

    ``heal``/``heal_every``/``worker_timeout`` configure worker
    self-healing and ``barrier_hook`` is the per-window chaos hook —
    all forwarded to :class:`ShardedSimulator`.  The merged result
    carries the ``respawns`` log (empty when nothing died).
    """
    sharded = ShardedSimulator(recipe, shards, heal=heal,
                               heal_every=heal_every,
                               worker_timeout=worker_timeout,
                               barrier_hook=barrier_hook)
    try:
        t0 = time.perf_counter()
        sharded.run(warmup, checkpoint_at=checkpoint_at)
        sharded.start_metering()
        sharded.run(warmup + duration, checkpoint_at=checkpoint_at)
        wall = time.perf_counter() - t0
        merged = sharded.finalize(duration)
        merged["wall_s"] = wall
        merged["now"] = sharded.now
        merged["barriers"] = len(sharded.barrier_log)
        merged["barrier_log"] = list(sharded.barrier_log)
        merged["checkpoint"] = sharded.last_checkpoint
        merged["checkpoint_cross"] = sharded.last_checkpoint_cross
        merged["respawns"] = list(sharded.respawns)
        return merged
    finally:
        sharded.close()


def resume_sharded(blob: bytes, until: float,
                   duration: float) -> Dict[str, Any]:
    """Resume a checkpointed sharded run, advance to ``until``, merge."""
    sharded = ShardedSimulator.resume(blob)
    try:
        sharded.run(until)
        merged = sharded.finalize(duration)
        merged["now"] = sharded.now
        return merged
    finally:
        sharded.close()


# ----------------------------------------------------------------------
# equivalence gate
# ----------------------------------------------------------------------
def equivalence_report(
    recipe: ShardRecipe,
    warmup: float,
    duration: float,
    shard_counts: Sequence[int],
    diff_out: Optional[str] = None,
) -> Dict[str, Any]:
    """Oracle vs every shard count; identical = gate passes.

    Compares the canonical event trace, the merged metrics snapshot and
    the per-flow outcomes byte-for-byte (via sorted JSON).  On failure,
    writes the oracle and diverging traces (JSONL) plus a summary into
    ``diff_out`` for artifact upload.
    """
    oracle = run_oracle(recipe, warmup, duration)
    oracle_trace = json.dumps(oracle["trace"], sort_keys=True)
    oracle_flows = json.dumps(oracle["flows"], sort_keys=True)
    report: Dict[str, Any] = {
        "warmup": warmup, "duration": duration,
        "oracle": {"events": oracle["events"],
                   "wall_s": round(oracle["wall_s"], 3),
                   "trace_events": len(oracle["trace"])},
        "runs": [], "ok": True,
    }
    failures: List[str] = []
    for shards in shard_counts:
        run = run_sharded(recipe, shards, warmup, duration)
        mismatches: List[str] = []
        if json.dumps(run["trace"], sort_keys=True) != oracle_trace:
            mismatches.append("trace")
        metric_diffs: List[str] = []
        if recipe.capture_metrics:
            metric_diffs = diff_snapshots(oracle["metrics"],
                                          run["metrics"])
            if metric_diffs:
                mismatches.append("metrics")
        if json.dumps(run["flows"], sort_keys=True) != oracle_flows:
            mismatches.append("flows")
        entry = {
            "shards": shards,
            "events": run["events"],
            "barriers": run["barriers"],
            "wall_s": round(run["wall_s"], 3),
            "trace_events": len(run["trace"]),
            "identical": not mismatches,
            "mismatches": mismatches,
        }
        report["runs"].append(entry)
        if mismatches:
            report["ok"] = False
            failures.append(f"shards={shards}: {', '.join(mismatches)}")
            if diff_out is not None:
                os.makedirs(diff_out, exist_ok=True)
                _write_jsonl(os.path.join(diff_out, "oracle.jsonl"),
                             oracle["trace"])
                _write_jsonl(
                    os.path.join(diff_out, f"sharded_{shards}.jsonl"),
                    run["trace"])
                with open(os.path.join(diff_out,
                                       f"diff_{shards}.txt"), "w") as fh:
                    fh.write("\n".join(
                        [f"divergent sections: {mismatches}"]
                        + metric_diffs[:200]) + "\n")
    report["failures"] = failures
    return report


def _write_jsonl(path: str, events: Sequence[Dict[str, Any]]) -> None:
    with open(path, "w") as fh:
        for ev in events:
            fh.write(json.dumps(ev, sort_keys=True) + "\n")


def default_gate_recipe(chaos: bool = False) -> ShardRecipe:
    """The CI gate's small grid mesh: 4x5 nodes, four staggered flows.

    The grid spans four spatial-index columns, so the planner can cut
    it into up to 4 shards; flows cross the cuts in both directions.
    The chaos variant flaps a boundary link, reboots a relay and drifts
    a clock — all replica-deterministic kinds.
    """
    chaos_spec = None
    if chaos:
        chaos_spec = {
            "name": "shard-gate-chaos",
            "faults": [
                {"kind": "link_flap", "a": 2, "b": 3, "at": 1.2,
                 "down_for": 0.4},
                {"kind": "node_reboot", "node": 7, "at": 1.6,
                 "outage": 0.5},
                {"kind": "clock_drift", "node": 4, "skew": 1.0003},
            ],
        }
    return ShardRecipe(
        builder="grid",
        builder_kwargs={"rows": 4, "cols": 5, "seed": 3},
        flows=[
            FlowSpec(src=4, dst=0),
            FlowSpec(src=9, dst=5, start=0.25),
            FlowSpec(src=14, dst=10, start=0.5),
            FlowSpec(src=15, dst=19, start=0.75, kind="sensor",
                     report_bytes=82, interval=0.5),
        ],
        chaos=chaos_spec,
        capture_trace=True,
        capture_metrics=True,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI for the shard-equivalence CI job (``python -m repro.sim.shard``)."""
    parser = argparse.ArgumentParser(
        description="Gate sharded simulation against the single-process "
                    "oracle: byte-identical traces, metrics and flows.")
    parser.add_argument("--shards", type=int, nargs="+", default=[1, 2, 4],
                        help="shard counts to verify (default: 1 2 4)")
    parser.add_argument("--warmup", type=float, default=1.0)
    parser.add_argument("--duration", type=float, default=2.0)
    parser.add_argument("--chaos", action="store_true",
                        help="use the chaos-schedule gate variant")
    parser.add_argument("--diff-out", default=None, metavar="DIR",
                        help="write diverging traces here on failure")
    parser.add_argument("--json-out", default=None, metavar="FILE",
                        help="write the JSON report here")
    args = parser.parse_args(argv)
    recipe = default_gate_recipe(chaos=args.chaos)
    report = equivalence_report(recipe, args.warmup, args.duration,
                                args.shards, diff_out=args.diff_out)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    print(json.dumps({k: v for k, v in report.items() if k != "runs"},
                     sort_keys=True))
    for run in report["runs"]:
        status = "identical" if run["identical"] else "DIVERGED"
        print(f"  shards={run['shards']}: {status} "
              f"({run['events']} events, {run['barriers']} barriers, "
              f"{run['wall_s']}s)")
    if not report["ok"]:
        print("shard-equivalence FAILED: " + "; ".join(report["failures"]),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
