"""The injector: executes a :class:`ChaosPlan` through the hook protocol.

The dispatcher and store expose exactly four seams, all no-ops in
production (``chaos is None``):

* ``attach_session(session)`` -- called once per :meth:`map`, hands the
  monkey the :class:`~repro.flow.runner.MapSession` (for the events
  path to truncate);
* ``on_dispatch(worker, i, attempt, ordinal)`` -- after a task lands on
  a worker; the monkey signals the worker's process here;
* ``tick()`` -- once per scheduler loop; the monkey resumes "slow"
  workers whose suspension expired;
* ``on_store_put(store, record)`` -- after a record is durably
  written; the monkey damages it here.

Every fault actually delivered is appended to :attr:`ChaosMonkey.log`
-- the harness asserts the plan *landed* (a chaos run where no worker
died proves nothing) and the report prints the log verbatim.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.plan import WORKER_KINDS, ChaosPlan


class ChaosMonkey:
    """Deliver the plan's faults as the sweep reaches their ordinals."""

    def __init__(self, plan: ChaosPlan) -> None:
        self.plan = plan
        self.session: Optional[Any] = None
        self.puts = 0
        self.kills = 0
        self.stalls = 0
        self.slows = 0
        self.corruptions = 0
        self.event_truncations = 0
        #: (kind, ordinal, detail) for every fault actually delivered.
        self.log: List[Tuple[str, int, str]] = []
        self._worker_faults = plan.by_kind(*WORKER_KINDS)
        self._corruptions = plan.by_kind("corrupt_record")
        # Truncations re-arm until the events file exists and has a
        # tail worth cutting, so a schedule slot is never silently lost
        # to an empty log.
        self._truncations = sorted(plan.by_kind("truncate_events"))
        self._resume_at: List[Tuple[float, int]] = []  # (deadline, pid)

    # -- dispatcher hooks --------------------------------------------------
    def attach_session(self, session: Any) -> None:
        self.session = session

    def on_dispatch(self, worker: Any, i: int, attempt: int,
                    ordinal: int) -> None:
        action = self._worker_faults.pop(ordinal, None)
        if action is not None:
            pid = worker.proc.pid
            if action.kind == "kill":
                self._signal(pid, signal.SIGKILL)
                self.kills += 1
            elif action.kind == "stall":
                self._signal(pid, signal.SIGSTOP)
                self.stalls += 1
            else:  # slow: freeze now, thaw in tick()
                self._signal(pid, signal.SIGSTOP)
                self._resume_at.append(
                    (time.monotonic() + action.duration, pid)
                )
                self.slows += 1
            self.log.append(
                (action.kind, ordinal,
                 f"pid {pid} holding point {i} attempt {attempt}")
            )
        if self._truncations and ordinal >= self._truncations[0]:
            if self._truncate_events(ordinal):
                self._truncations.pop(0)

    def tick(self) -> None:
        if not self._resume_at:
            return
        now = time.monotonic()
        due = [entry for entry in self._resume_at if entry[0] <= now]
        if not due:
            return
        self._resume_at = [e for e in self._resume_at if e[0] > now]
        for _, pid in due:
            self._signal(pid, signal.SIGCONT)

    def release(self) -> None:
        """SIGCONT anything still suspended (harness teardown safety)."""
        for _, pid in self._resume_at:
            self._signal(pid, signal.SIGCONT)
        self._resume_at = []

    # -- store hook --------------------------------------------------------
    def on_store_put(self, store: Any, record: Any) -> None:
        self.puts += 1
        if self._corruptions.pop(self.puts, None) is None:
            return
        path = store.record_path(record.key)
        try:
            with open(path, "r+b") as fh:
                fh.seek(-1, os.SEEK_END)
                last = fh.read(1)
                fh.seek(-1, os.SEEK_END)
                fh.write(bytes([last[0] ^ 0xFF]))
        except OSError:
            return
        self.corruptions += 1
        self.log.append(
            ("corrupt_record", self.puts,
             f"flipped final payload byte of {record.key[:12]}...")
        )

    # -- internals ---------------------------------------------------------
    def _truncate_events(self, ordinal: int) -> bool:
        session = self.session
        path = session.events_path() if session is not None else None
        if not path or not os.path.exists(path):
            return False
        try:
            size = os.path.getsize(path)
            if size < 32:
                return False  # nothing worth tearing yet; re-arm
            os.truncate(path, size - 9)  # cut into the final record
        except OSError:
            return False
        self.event_truncations += 1
        self.log.append(
            ("truncate_events", ordinal,
             f"cut events log from {size} to {size - 9} bytes")
        )
        return True

    @staticmethod
    def _signal(pid: int, signum: int) -> None:
        try:
            os.kill(pid, signum)
        except (ProcessLookupError, PermissionError):
            pass

    def summary(self) -> Dict[str, int]:
        return {
            "kills": self.kills,
            "stalls": self.stalls,
            "slows": self.slows,
            "corruptions": self.corruptions,
            "event_truncations": self.event_truncations,
        }

    def render_log(self) -> str:
        lines = ["faults delivered:"]
        for kind, ordinal, detail in self.log:
            lines.append(f"  @{ordinal:>3}  {kind:<16} {detail}")
        if len(lines) == 1:
            lines.append("  (none)")
        return "\n".join(lines)
