#!/usr/bin/env python
"""Automatic failure triage for fault-injected runs.

Given a fault schedule (JSON spec) that makes an invariant-verified
run fail, this tool turns "a long chaotic run violated something" into
a minimal, fast repro:

1. **Reproduce** — run the scenario with the live
   :class:`repro.verify.InvariantEngine` attached and periodic
   :class:`repro.sim.checkpoint.CheckpointManager` snapshots.
2. **Minimize** — delta-debug (ddmin) the schedule's fault list to the
   smallest subset that still triggers the *same first* violation.
3. **Replay** — restore the checkpoint nearest before the first
   violation and re-run just the tail, confirming the violation
   reproduces from the snapshot (the short repro a human then debugs).

Output: ``triage_report.json`` (first violation, minimized schedule,
replay confirmation, per-step run counts) and
``minimized_spec.json`` (a runnable ``--faults`` spec).  Exit code 3
when a violation was found and triaged, 0 when the run is clean.

The scenario is the chaos chain used by the CI fault gates: a bulk
TCP transfer over an N-hop chain with the schedule injected.

``--corrupt AT`` additionally smashes the sender's ``snd_nxt`` at sim
time AT — a deterministic, schedule-independent way to exercise the
triage pipeline end-to-end (used by the tests and for demos; with the
corruption being schedule-independent, ddmin correctly minimizes the
fault list to empty).

Usage::

    PYTHONPATH=src python tools/triage.py --faults spec.json
    PYTHONPATH=src python tools/triage.py --corrupt 12.0   # self-demo
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import (  # noqa: E402
    BulkTransfer,
    CheckpointManager,
    InvariantEngine,
    TcpStack,
    build_chain,
    tcplp_params,
)
from repro.faults import FaultInjector, FaultSchedule  # noqa: E402

#: exit code when a violation was found (and triaged)
EXIT_VIOLATION = 3

#: how far past the first violation a replay runs (sim seconds)
REPLAY_SLACK = 1.0


class _Corruptor:
    """Test hook: smash a connection's snd_nxt at a fixed sim time."""

    def __init__(self, xfer: BulkTransfer):
        self.xfer = xfer

    def __call__(self) -> None:
        conn = self.xfer.connection
        if conn is not None:
            conn.snd_nxt = (conn.snd_una - 1000) & 0xFFFFFFFF


def run_once(
    spec: Dict[str, object],
    seed: int = 7,
    hops: int = 2,
    duration: float = 40.0,
    checkpoint_every: Optional[float] = 5.0,
    corrupt_at: Optional[float] = None,
    keep_checkpoints: int = 64,
) -> Dict[str, object]:
    """One verified, checkpointed chaos run; returns its artifacts.

    The returned dict holds the ``engine`` (violations), the
    checkpoint ``manager`` (None when ``checkpoint_every`` is None —
    ddmin probes skip snapshots, they only read ``engine.ok``), the
    built ``net`` and ``xfer``.
    """
    net = build_chain(hops, seed=seed, with_cloud=False)
    for n in net.nodes.values():
        n.mac.params.retry_delay = 0.04
    injector = None
    if spec.get("faults"):
        injector = FaultInjector(net, FaultSchedule.from_dict(spec)).arm()
    params = tcplp_params(window_segments=4)

    def _stack(nid: int) -> TcpStack:
        node = net.nodes[nid]
        return TcpStack(net.sim, node.ipv6, nid, cpu=node.radio.cpu,
                        sleepy=node.sleepy)

    xfer = BulkTransfer(net.sim, _stack(hops), _stack(0), receiver_id=0,
                        params=params, receiver_params=params)
    engine = InvariantEngine(net, interval=0.5).start()
    manager = None
    if checkpoint_every is not None:
        manager = CheckpointManager(
            net.sim, roots={"xfer": xfer}, interval=checkpoint_every,
            keep=keep_checkpoints).start()
    if corrupt_at is not None:
        net.sim.schedule_at(corrupt_at, _Corruptor(xfer))
    net.sim.run(until=duration)
    return {"net": net, "xfer": xfer, "engine": engine,
            "manager": manager, "injector": injector}


def ddmin(items: Sequence[object],
          fails: Callable[[List[object]], bool]) -> List[object]:
    """Classic delta debugging: minimal sublist for which ``fails``.

    ``fails(items)`` must be True on entry (the full list reproduces
    the failure); the result is 1-minimal — removing any single
    element makes the failure disappear.
    """
    items = list(items)
    if not items:
        return items
    if fails([]):
        return []
    n = 2
    while len(items) >= 2:
        chunk = max(1, len(items) // n)
        subsets = [items[i:i + chunk] for i in range(0, len(items), chunk)]
        reduced = False
        for i, subset in enumerate(subsets):
            complement = [x for j, s in enumerate(subsets) if j != i
                          for x in s]
            if fails(complement):
                items = complement
                n = max(2, n - 1)
                reduced = True
                break
        if not reduced:
            if n >= len(items):
                break
            n = min(len(items), n * 2)
    return items


def minimize_schedule(
    spec: Dict[str, object],
    fails_with: Callable[[Dict[str, object]], bool],
    progress: Callable[[str], None] = lambda msg: None,
) -> Dict[str, object]:
    """ddmin the spec's fault list; returns the minimized spec."""
    runs = [0]

    def fails(faults: List[object]) -> bool:
        runs[0] += 1
        candidate = dict(spec, faults=list(faults))
        verdict = fails_with(candidate)
        progress(f"  ddmin run {runs[0]}: {len(faults)} fault(s) -> "
                 f"{'FAIL' if verdict else 'pass'}")
        return verdict

    minimal = ddmin(list(spec.get("faults", [])), fails)
    out = dict(spec, faults=minimal)
    out["name"] = f"{spec.get('name', 'schedule')}-minimized"
    return out


def replay_from_checkpoint(result: Dict[str, object]) -> Dict[str, object]:
    """Restore the snapshot nearest before the first violation and
    re-run the tail; returns a JSON-ready confirmation record."""
    engine = result["engine"]
    manager = result["manager"]
    first = engine.first_violation()
    if first is None:
        return {"replayed": False, "reason": "no violation"}
    cp = manager.nearest_before(first.time)
    if cp is None:
        return {"replayed": False,
                "reason": f"no checkpoint before t={first.time:.3f} "
                          f"(interval too coarse?)"}
    sim2, _roots2 = cp.restore()
    # The restored graph carries its own InvariantEngine clone: the
    # original engine's periodic _tick event was reachable from the
    # heap at capture, so it was deep-copied with the sim.  Recover it
    # through that event's bound method.
    replay_engine = None
    for ev in sim2.pending_events():
        owner = getattr(ev.fn, "__self__", None)
        if isinstance(owner, InvariantEngine):
            replay_engine = owner
            break
    if replay_engine is None:
        return {"replayed": False, "reason": "no engine in snapshot"}
    replay_engine.violations.clear()
    sim2.run(until=first.time + REPLAY_SLACK)
    reproduced = [v for v in replay_engine.violations
                  if v.time >= cp.time]
    return {
        "replayed": True,
        "checkpoint_time": cp.time,
        "first_violation_time": first.time,
        "replay_horizon": first.time + REPLAY_SLACK,
        "violations_reproduced": len(reproduced),
        "reproduced_first": reproduced[0].as_dict() if reproduced else None,
        "matches_original": bool(
            reproduced and reproduced[0].detail == first.detail
            and reproduced[0].layer == first.layer
        ),
    }


def triage(
    spec: Dict[str, object],
    seed: int = 7,
    hops: int = 2,
    duration: float = 40.0,
    checkpoint_every: float = 5.0,
    corrupt_at: Optional[float] = None,
    progress: Callable[[str], None] = print,
) -> Dict[str, object]:
    """Full pipeline: reproduce, minimize, replay.  Returns the report."""
    progress(f"[triage] full run: {len(spec.get('faults', []))} fault(s), "
             f"{duration:.0f}s on a {hops}-hop chain (seed {seed})")
    result = run_once(spec, seed=seed, hops=hops, duration=duration,
                      checkpoint_every=checkpoint_every,
                      corrupt_at=corrupt_at)
    engine = result["engine"]
    report: Dict[str, object] = {
        "seed": seed,
        "hops": hops,
        "duration": duration,
        "checkpoint_every": checkpoint_every,
        "corrupt_at": corrupt_at,
        "schedule": spec,
        "checks_run": engine.checks_run,
        "violations": [v.as_dict() for v in engine.violations],
    }
    first = engine.first_violation()
    if first is None:
        progress("[triage] clean: no invariant violations")
        report["clean"] = True
        return report
    report["clean"] = False
    progress(f"[triage] first violation at t={first.time:.3f}: "
             f"{first.layer}/node{first.node} {first.detail}")

    def fails_with(candidate: Dict[str, object]) -> bool:
        probe = run_once(candidate, seed=seed, hops=hops,
                         duration=min(duration, first.time + REPLAY_SLACK),
                         checkpoint_every=None,  # probes need no snapshots
                         corrupt_at=corrupt_at)
        return not probe["engine"].ok

    progress("[triage] minimizing fault schedule (ddmin) ...")
    minimized = minimize_schedule(spec, fails_with, progress)
    report["minimized_schedule"] = minimized
    progress(f"[triage] minimized: {len(spec.get('faults', []))} -> "
             f"{len(minimized['faults'])} fault(s)")

    progress("[triage] replaying from nearest checkpoint ...")
    replay = replay_from_checkpoint(result)
    report["replay"] = replay
    if replay.get("replayed"):
        progress(f"[triage] replay from t={replay['checkpoint_time']:.1f} "
                 f"reproduced {replay['violations_reproduced']} "
                 f"violation(s); matches_original="
                 f"{replay['matches_original']}")
    else:
        progress(f"[triage] replay skipped: {replay.get('reason')}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--faults", default=None, metavar="SPEC.json",
                        help="fault schedule to triage (docs/faults.md "
                             "format); defaults to an empty schedule")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--hops", type=int, default=2,
                        help="chain length of the scenario (default 2)")
    parser.add_argument("--duration", type=float, default=40.0,
                        help="sim seconds for the full run (default 40)")
    parser.add_argument("--checkpoint-every", type=float, default=5.0,
                        help="auto-checkpoint interval (default 5)")
    parser.add_argument("--corrupt", type=float, default=None,
                        metavar="AT", dest="corrupt_at",
                        help="smash the sender's snd_nxt at sim time AT "
                             "(deterministic pipeline self-test)")
    parser.add_argument("-o", "--output", default="triage_report.json")
    parser.add_argument("--minimized-out", default="minimized_spec.json",
                        help="where to write the runnable minimized "
                             "schedule (only on violation)")
    args = parser.parse_args(argv)

    if args.faults is not None:
        try:
            spec = FaultSchedule.from_json(args.faults).to_dict()
        except (OSError, ValueError) as exc:
            parser.error(f"--faults {args.faults}: {exc}")
    else:
        spec = {"name": "empty", "faults": []}
    if not spec.get("faults") and args.corrupt_at is None:
        print("note: empty schedule and no --corrupt; expecting a "
              "clean run", file=sys.stderr)

    report = triage(spec, seed=args.seed, hops=args.hops,
                    duration=args.duration,
                    checkpoint_every=args.checkpoint_every,
                    corrupt_at=args.corrupt_at)
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"wrote {args.output}")
    if report["clean"]:
        return 0
    with open(args.minimized_out, "w") as fh:
        json.dump(report["minimized_schedule"], fh, indent=2,
                  sort_keys=True)
    print(f"wrote {args.minimized_out}")
    return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
