"""The chaos harness: run a sweep twice -- once clean, once abused --
and prove the supervision layer kept its promises.

``python -m repro chaos`` and ``make chaos-smoke`` both land here.
Three invariants (docs/RESILIENCE.md):

1. **Digest** -- the chaotic sweep's results are bit-identical
   (``sha256(stable_repr(results))``) to the clean sweep's, despite
   worker SIGKILLs, SIGSTOP stalls and transient freezes mid-run.
2. **Journal** -- ``runs.jsonl`` after the chaotic sweep records every
   point exactly once: no lost points, no double-runs, and any
   quarantined poison point is listed explicitly as a ``"poisoned"``
   failure rather than vanishing.
3. **No orphans** -- no worker process outlives the sweep, whatever
   was signalled while it ran.

On top of those, the harness checks the *plan landed* (a chaos run
that delivered no faults proves nothing), that the store quarantines
the corrupted record and recomputes it to the clean value, and that
the truncated event log still parses and validates.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chaos.monkey import ChaosMonkey
from repro.chaos.plan import ChaosPlan
from repro.flow.pool import WorkStealingDispatcher
from repro.flow.keying import stable_repr
from repro.flow.runner import ExperimentRunner, read_journal
from repro.store.cas import ResultStore


def chaos_point(args: Tuple[str, int, float]) -> Dict[str, str]:
    """The sweep body: deterministic hash chain, tunable duration.

    ``("pill-*", ...)`` tags are poison: they kill the worker outright
    (``os._exit``) on every attempt -- the harness's stand-in for a
    point that reliably fells whatever process runs it.
    """
    tag, size, delay = args
    if tag.startswith("pill"):
        os._exit(23)
    time.sleep(delay)
    h = hashlib.sha256(tag.encode("utf-8"))
    for _ in range(size):
        h.update(h.digest())
    return {"tag": tag, "digest": h.hexdigest()}


def results_digest(results: Sequence[Any]) -> str:
    """Stable digest of a sweep's results, for clean-vs-chaos compare."""
    return hashlib.sha256(
        stable_repr(list(results)).encode("utf-8")
    ).hexdigest()


def journal_counts(path: str) -> Dict[str, List[Dict[str, Any]]]:
    """Every complete journal record, grouped by cache key."""
    by_key: Dict[str, List[Dict[str, Any]]] = {}
    for rec in read_journal(path):
        by_key.setdefault(rec["key"], []).append(rec)
    return by_key


def _orphans(before: "set[int]") -> List[int]:
    """Pids of multiprocessing children alive now but not at snapshot."""
    return sorted(
        child.pid for child in multiprocessing.active_children()
        if child.pid not in before and child.is_alive()
    )


@dataclass
class ChaosReport:
    """Everything ``make chaos-smoke`` asserts, plus the fault log."""

    seed: int
    points: int
    clean_digest: str = ""
    chaos_digest: str = ""
    delivered: Dict[str, int] = field(default_factory=dict)
    dispatcher: Dict[str, int] = field(default_factory=dict)
    journal_points: int = 0
    poisoned_keys: List[str] = field(default_factory=list)
    corrupt_quarantined: int = 0
    recompute_digest: str = ""
    orphans: List[int] = field(default_factory=list)
    fault_log: List[Tuple[str, int, str]] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = [
            f"chaos harness: seed={self.seed} points={self.points}",
            f"  digest clean={self.clean_digest[:16]}... "
            f"chaos={self.chaos_digest[:16]}... "
            f"{'MATCH' if self.clean_digest == self.chaos_digest else 'MISMATCH'}",
            "  delivered: " + " ".join(
                f"{k}={v}" for k, v in sorted(self.delivered.items())
            ),
            "  dispatcher: " + " ".join(
                f"{k}={v}" for k, v in sorted(self.dispatcher.items())
            ),
            f"  journal: {self.journal_points} points exactly once; "
            f"poisoned={self.poisoned_keys or 'none'}",
            f"  store: {self.corrupt_quarantined} corrupt record(s) "
            f"quarantined; recompute "
            f"{'MATCH' if self.recompute_digest == self.clean_digest else 'MISMATCH'}",
            f"  orphans: {self.orphans or 'none'}",
        ]
        for kind, ordinal, detail in self.fault_log:
            lines.append(f"    @{ordinal:>3}  {kind:<16} {detail}")
        if self.violations:
            lines.append("  VIOLATIONS:")
            for v in self.violations:
                lines.append(f"    - {v}")
        else:
            lines.append("  all invariants held")
        return "\n".join(lines)


def run_chaos(
    out_dir: str,
    *,
    seed: int = 7,
    points: int = 12,
    workers: int = 3,
    delay: float = 0.08,
    liveness: float = 2.0,
    heartbeat: float = 0.1,
) -> ChaosReport:
    """Clean sweep, chaotic sweep, then assert the three invariants."""
    if points < 4:
        raise ValueError(f"need >= 4 points for a meaningful run, got {points}")
    report = ChaosReport(seed=seed, points=points)
    sweep = [(f"pt-{k:03d}", 200 + k, delay) for k in range(points)]
    before = {child.pid for child in multiprocessing.active_children()}

    clean_store = ResultStore(os.path.join(out_dir, "clean-store"))
    clean_runner = ExperimentRunner(
        store=clean_store, retries=4, backoff=0.05, timeout=60.0
    )
    clean = WorkStealingDispatcher(
        clean_runner, workers=workers, heartbeat=heartbeat, liveness=liveness
    ).map(chaos_point, sweep, label="chaos")
    report.clean_digest = results_digest(clean)

    plan = ChaosPlan(seed, horizon=min(10, points))
    monkey = ChaosMonkey(plan)
    chaos_store = ResultStore(os.path.join(out_dir, "chaos-store"))
    chaos_store.chaos = monkey
    chaos_runner = ExperimentRunner(
        store=chaos_store, retries=4, backoff=0.05, timeout=60.0
    )
    dispatcher = WorkStealingDispatcher(
        chaos_runner, workers=workers, heartbeat=heartbeat,
        liveness=liveness, chaos=monkey,
    )
    try:
        chaotic = dispatcher.map(chaos_point, sweep, label="chaos")
    finally:
        monkey.release()
    report.chaos_digest = results_digest(chaotic)
    report.delivered = monkey.summary()
    report.dispatcher = {
        "dispatched": dispatcher.dispatched,
        "restarts": dispatcher.worker_restarts,
        "stalls": dispatcher.stalls,
        "steals": dispatcher.steals,
        "poisoned": dispatcher.poisoned,
    }
    report.fault_log = list(monkey.log)

    # Invariant 1: the chaos did not change a single result bit.
    if report.chaos_digest != report.clean_digest:
        report.violations.append(
            "digest mismatch: chaotic sweep results differ from clean run"
        )
    # The plan must actually have landed.
    for kind, n in (("kills", monkey.kills), ("stalls", monkey.stalls),
                    ("corruptions", monkey.corruptions)):
        if n < 1:
            report.violations.append(
                f"plan did not land: {kind}={n} (expected >= 1)"
            )
    if dispatcher.stalls < 1:
        report.violations.append(
            "dispatcher never detected a stall despite an injected SIGSTOP"
        )

    # Invariant 2: journal shows every point exactly once, no doubles.
    by_key = journal_counts(chaos_runner.journal_path)
    report.journal_points = len(by_key)
    if len(by_key) != points:
        report.violations.append(
            f"journal covers {len(by_key)} keys, sweep had {points} points"
        )
    for key, recs in sorted(by_key.items()):
        terminal = [r for r in recs if r.get("status") in ("ok", "failed")]
        if len(terminal) != 1:
            report.violations.append(
                f"journal key {key[:12]}... has {len(terminal)} terminal "
                f"records (want exactly 1)"
            )
        for rec in terminal:
            if rec.get("status") == "failed":
                if rec.get("kind") == "poisoned":
                    report.poisoned_keys.append(key)
                else:
                    report.violations.append(
                        f"journal key {key[:12]}... failed "
                        f"({rec.get('kind')}: {rec.get('message')})"
                    )

    # Invariant 3: no orphan worker processes.
    report.orphans = _orphans(before)
    if report.orphans:
        report.violations.append(
            f"orphan worker processes survived the sweep: {report.orphans}"
        )

    # Store: the flipped byte must be caught and quarantined on
    # re-read, and a re-run on the same store must recompute the
    # missing point back to the clean value.
    verify_store = ResultStore(os.path.join(out_dir, "chaos-store"))
    for key in list(verify_store.keys()):
        verify_store.get(key)
    report.corrupt_quarantined = verify_store.corrupt_records
    if report.corrupt_quarantined < monkey.corruptions:
        report.violations.append(
            f"store quarantined {report.corrupt_quarantined} records, "
            f"monkey corrupted {monkey.corruptions}"
        )
    rerun = ExperimentRunner(
        store=verify_store, retries=4, backoff=0.05, timeout=60.0
    ).map(chaos_point, sweep, label="chaos")
    report.recompute_digest = results_digest(rerun)
    if report.recompute_digest != report.clean_digest:
        report.violations.append(
            "post-quarantine recompute does not match the clean digest"
        )

    # The truncated event log must still parse and validate.
    from repro.telemetry import events as _events

    stream = _events.read_events(
        os.path.join(out_dir, "chaos-store", "events.jsonl")
    )
    try:
        _events.validate_events(stream)
    except _events.TelemetryError as exc:
        report.violations.append(f"event stream failed validation: {exc}")
    if monkey.event_truncations < 1:
        report.violations.append("plan did not land: event log never truncated")

    return report


def run_poison(
    out_dir: str,
    *,
    workers: int = 2,
    delay: float = 0.02,
) -> ChaosReport:
    """Quarantine drill: one poison-pill point among healthy ones.

    The pill kills every worker that touches it; the dispatcher must
    quarantine it after ``poison_threshold`` consecutive kills, finish
    the healthy points untouched, and journal the pill as an explicit
    ``"poisoned"`` failure -- all without tripping the restart budget.
    """
    report = ChaosReport(seed=0, points=5)
    sweep: List[Tuple[str, int, float]] = [
        (f"ok-{k}", 100, delay) for k in range(4)
    ]
    sweep.append(("pill-0", 100, delay))
    before = {child.pid for child in multiprocessing.active_children()}

    store = ResultStore(os.path.join(out_dir, "poison-store"))
    runner = ExperimentRunner(
        store=store, retries=5, backoff=0.05, timeout=60.0,
        on_failure="record",
    )
    dispatcher = WorkStealingDispatcher(
        runner, workers=workers, heartbeat=0.1, liveness=5.0,
        poison_threshold=2,
    )
    results = dispatcher.map(chaos_point, sweep, label="poison")
    report.dispatcher = {
        "dispatched": dispatcher.dispatched,
        "restarts": dispatcher.worker_restarts,
        "stalls": dispatcher.stalls,
        "steals": dispatcher.steals,
        "poisoned": dispatcher.poisoned,
    }

    if dispatcher.poisoned != 1:
        report.violations.append(
            f"expected exactly 1 quarantined point, got {dispatcher.poisoned}"
        )
    healthy = [r for r in results[:4] if r is not None]
    if len(healthy) != 4:
        report.violations.append(
            f"only {len(healthy)}/4 healthy points completed around the pill"
        )
    if results[4] is not None:
        report.violations.append("the poison pill produced a result (?)")
    poisoned = [f for f in runner.failures if f.kind == "poisoned"]
    if len(poisoned) != 1:
        report.violations.append(
            f"expected 1 PointFailure of kind 'poisoned', got {len(poisoned)}"
        )
    by_key = journal_counts(runner.journal_path)
    for key, recs in by_key.items():
        terminal = [r for r in recs if r.get("status") in ("ok", "failed")]
        if len(terminal) != 1:
            report.violations.append(
                f"poison journal key {key[:12]}... has {len(terminal)} "
                f"terminal records"
            )
        if any(r.get("kind") == "poisoned" for r in terminal):
            report.poisoned_keys.append(key)
    if len(report.poisoned_keys) != 1:
        report.violations.append(
            f"journal lists {len(report.poisoned_keys)} poisoned keys, want 1"
        )
    report.journal_points = len(by_key)
    report.orphans = _orphans(before)
    if report.orphans:
        report.violations.append(
            f"orphan worker processes survived the poison drill: "
            f"{report.orphans}"
        )
    return report


def chaos_main(
    out: Optional[str] = None,
    *,
    seed: int = 7,
    points: int = 12,
    workers: int = 3,
    keep: bool = False,
) -> int:
    """``python -m repro chaos``: run both drills, print, exit 0/1."""
    scratch = out or tempfile.mkdtemp(prefix="repro-chaos-")
    made_temp = out is None
    try:
        chaos_report = run_chaos(
            scratch, seed=seed, points=points, workers=workers
        )
        print(chaos_report.render())
        poison_report = run_poison(scratch)
        print()
        print("poison drill: " + (
            "quarantined as specified"
            if poison_report.ok else "FAILED"
        ))
        for v in poison_report.violations:
            print(f"    - {v}")
        ok = chaos_report.ok and poison_report.ok
        print()
        print("chaos harness: " + ("OK" if ok else "FAILED"))
        return 0 if ok else 1
    finally:
        if made_temp and not keep:
            shutil.rmtree(scratch, ignore_errors=True)
        elif keep:
            print(f"(scratch kept at {scratch})")
