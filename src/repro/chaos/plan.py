"""Seeded fault schedules: the *what and when* of a chaos run.

A plan is compiled once from ``(seed, fault counts)`` and is pure data
after that -- the same seed always yields the same schedule, which is
what lets ``make chaos-smoke`` file a failing chaos run as a repro
bundle ("seed 1307 breaks the digest invariant") instead of a shrug.

Worker faults are keyed to **dispatch ordinals** (the dispatcher's
``dispatched`` counter: the Nth task handed to any worker), store
faults to **put ordinals** (the Nth record written).  Ordinals, not
point indices, because they are the sequence the injection hooks
actually observe, and because they make the schedule independent of
which worker happens to draw which point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Every fault kind a plan may schedule.
#:
#: ``kill``            SIGKILL the worker right after a task lands on it.
#: ``stall``           SIGSTOP the worker and leave it wedged -- only the
#:                     dispatcher's liveness deadline can reclaim it.
#: ``slow``            SIGSTOP the worker, SIGCONT it ``duration`` seconds
#:                     later -- a transient freeze that must *not* trip
#:                     the (longer) liveness deadline.
#: ``corrupt_record``  flip a byte in the just-written store record so the
#:                     sha256 check quarantines it on next read.
#: ``truncate_events`` cut the tail off the sweep's events.jsonl,
#:                     leaving a torn final record.
ACTION_KINDS = (
    "kill",
    "stall",
    "slow",
    "corrupt_record",
    "truncate_events",
)

#: Kinds injected via ``on_dispatch`` (keyed to dispatch ordinals).
WORKER_KINDS = ("kill", "stall", "slow")


@dataclass(frozen=True)
class ChaosAction:
    """One scheduled fault: ``kind`` fires at ordinal ``at``."""

    kind: str
    at: int
    duration: float = 0.0  # seconds suspended; only "slow" uses it

    def __post_init__(self) -> None:
        if self.kind not in ACTION_KINDS:
            raise ValueError(
                f"unknown chaos action kind {self.kind!r}; "
                f"expected one of {ACTION_KINDS}"
            )
        if self.at < 1:
            raise ValueError(f"ordinals are 1-based, got at={self.at}")


class ChaosPlan:
    """Compile a deterministic fault schedule from a seed.

    ``horizon`` is the window of ordinals (``2 .. horizon+1`` for
    dispatches, ``1 .. horizon`` for store puts) faults are drawn from;
    dispatch ordinal 1 is always left clean so the first task proves
    the farm works before the abuse starts.  The worker-fault count
    (kills + stalls + slows) and the corruption count must each fit
    inside the horizon, since each fault lands on a distinct ordinal.
    """

    def __init__(
        self,
        seed: int,
        *,
        kills: int = 1,
        stalls: int = 1,
        slows: int = 1,
        corruptions: int = 1,
        event_truncations: int = 1,
        horizon: int = 12,
        slow_duration: float = 0.4,
    ) -> None:
        counts = dict(
            kills=kills, stalls=stalls, slows=slows,
            corruptions=corruptions, event_truncations=event_truncations,
        )
        for name, n in counts.items():
            if n < 0:
                raise ValueError(f"{name} must be >= 0, got {n}")
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        worker_faults = kills + stalls + slows
        if worker_faults > horizon:
            raise ValueError(
                f"{worker_faults} worker faults cannot land on distinct "
                f"ordinals within horizon {horizon}"
            )
        if corruptions > horizon:
            raise ValueError(
                f"{corruptions} store faults cannot land on distinct "
                f"ordinals within horizon {horizon}"
            )
        if event_truncations > horizon:
            raise ValueError(
                f"{event_truncations} event truncations cannot land on "
                f"distinct ordinals within horizon {horizon}"
            )
        self.seed = seed
        self.horizon = horizon
        self.slow_duration = slow_duration
        rng = random.Random(f"repro-chaos|{seed}")

        actions: List[ChaosAction] = []
        # Dispatch ordinal 1 stays clean: start at 2.
        dispatch_slots = rng.sample(range(2, 2 + horizon), worker_faults)
        cursor = 0
        for kind, n in (("kill", kills), ("stall", stalls), ("slow", slows)):
            for at in dispatch_slots[cursor:cursor + n]:
                duration = slow_duration if kind == "slow" else 0.0
                actions.append(ChaosAction(kind, at, duration))
            cursor += n
        for at in rng.sample(range(1, 1 + horizon), corruptions):
            actions.append(ChaosAction("corrupt_record", at))
        for at in rng.sample(range(2, 2 + horizon), event_truncations):
            actions.append(ChaosAction("truncate_events", at))
        self.actions: Tuple[ChaosAction, ...] = tuple(
            sorted(actions, key=lambda a: (a.at, a.kind))
        )

    def by_kind(self, *kinds: str) -> Dict[int, ChaosAction]:
        """``{ordinal: action}`` for the given kinds (schedule lookup)."""
        return {a.at: a for a in self.actions if a.kind in kinds}

    def count(self, kind: str) -> int:
        return sum(1 for a in self.actions if a.kind == kind)

    def render(self) -> str:
        lines = [f"chaos plan (seed {self.seed}, horizon {self.horizon})"]
        for a in self.actions:
            extra = f" for {a.duration:g}s" if a.kind == "slow" else ""
            lines.append(f"  @{a.at:>3}  {a.kind}{extra}")
        if len(lines) == 1:
            lines.append("  (empty)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"ChaosPlan(seed={self.seed}, actions={len(self.actions)}, "
            f"horizon={self.horizon})"
        )
