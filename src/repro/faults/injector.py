"""Scripted and randomized link-fault campaigns.

The library's baseline error model is a per-link Bernoulli BER fixed at
build time (:class:`repro.core.config.LinkConfig`).  Real fault
campaigns need more shapes: burst errors (an elevated BER for a cycle
window), stuck-at links (every flit corrupted for a spell), and
transient *dead* links that drop flits outright -- the one failure mode
the bare ACK/NACK protocol cannot recover from, which is exactly what
the sender resync timer and the NI transaction timeout exist for (see
docs/RESILIENCE.md).

:class:`FaultInjector` schedules :class:`FaultWindow` s onto the
``Link`` instances of a built :class:`~repro.network.noc.Noc`.  It is a
plain always-on component (no quiescence contract), so fault windows
open and close punctually in both scheduling modes even on links that
are asleep; per-link ``add_probe`` hooks additionally count the flits
each link actually moved while one of its windows was open.
"""

from __future__ import annotations

import fnmatch
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.link import Link
from repro.sim.component import Component
from repro.sim.kernel import SimulationError

#: Recognised fault shapes.
FAULT_MODES = ("burst", "stuck", "dead")


@dataclass(frozen=True)
class FaultWindow:
    """One fault episode on one link direction.

    ``link`` is an exact ``Link`` name or an ``fnmatch`` pattern over
    them (links are unidirectional, so per-direction overrides fall out
    naturally: ``link.s0.p1->s1.p0`` faults only that direction, while
    ``link.s0.*`` faults everything leaving ``s0``).

    Modes: ``burst`` raises the BER to ``error_rate`` for the window;
    ``stuck`` corrupts every flit (BER 1.0, which the build-time config
    deliberately rejects); ``dead`` drops flits without a trace.
    """

    link: str
    start: int
    duration: int
    mode: str = "burst"
    error_rate: float = 0.5

    def __post_init__(self) -> None:
        if self.mode not in FAULT_MODES:
            raise ValueError(f"mode must be one of {FAULT_MODES}, got {self.mode!r}")
        if self.start < 0:
            raise ValueError("start cycle must be >= 0")
        if self.duration < 1:
            raise ValueError("duration must be >= 1 cycle")
        if not 0.0 < self.error_rate <= 1.0:
            raise ValueError("error_rate must be in (0, 1]")

    @property
    def end(self) -> int:
        """First cycle after the window."""
        return self.start + self.duration


class FaultInjector(Component):
    """Applies a schedule of :class:`FaultWindow` s to a built NoC.

    Create *after* the NoC (it needs the link instances) and it adds
    itself to the NoC's simulator; the injector then opens and closes
    fault overrides as simulation time passes.  Overlapping windows on
    the same link compose as "most recently opened wins"; when the last
    one closes the link reverts to its configured behaviour.
    """

    #: Checkpoint contract (docs/CHECKPOINT.md): the NoC back-reference
    #: and the resolved window schedule are rebuilt by re-constructing
    #: the injector in the restore workflow; only progress state
    #: (_next_event, _open, counters, probe baselines) is captured.
    SNAPSHOT_STRUCTURAL = frozenset({"noc", "_resolved", "_events"})

    def __init__(
        self,
        noc,
        windows: Sequence[FaultWindow],
        name: str = "faults",
        probe_links: Sequence[str] = (),
    ) -> None:
        super().__init__(name)
        self.noc = noc
        self.windows: Tuple[FaultWindow, ...] = ()
        self._resolved: List[Tuple[FaultWindow, Tuple[Link, ...]]] = []
        self._events: List[Tuple[int, int, int, Link, FaultWindow, bool]] = []
        self._next_event = 0
        # Per link: stack of currently open windows, newest last.
        self._open: Dict[str, List[FaultWindow]] = {}
        # instrumentation
        self.windows_opened = 0
        self.windows_closed = 0
        #: Flits each faulted link moved (carried or dropped) while one
        #: of its windows was open -- counted by per-link tick probes,
        #: which fire only on cycles the link actually executed.
        self.flits_during_fault: Dict[str, int] = {}
        self._probe_last: Dict[str, int] = {}
        #: Lifecycle telemetry: window open/close emit ``fault`` trace
        #: instants (see :mod:`repro.telemetry.lifecycle`).
        self.lifecycle = False

        self._resolved, self._events = self._resolve(windows)
        self.windows = tuple(windows)

        noc.sim.add(self)
        # Register on the NoC so enable_lifecycle / telemetry find us.
        if not hasattr(noc, "fault_injectors"):
            noc.fault_injectors = []
        noc.fault_injectors.append(self)
        # Probes are structural (registering one invalidates a compiled
        # program), so they are laid down once, here: on every link the
        # initial schedule touches plus any ``probe_links`` names given
        # up front.  ``set_windows`` may later swap in any schedule that
        # stays within this probed set -- the batch runner pre-declares
        # the union of its per-lane schedules this way.
        probed = {l for _, links in self._resolved for l in links}
        by_name = {link.name: link for link in noc.links}
        for pat in probe_links:
            names = (
                fnmatch.filter(sorted(by_name), pat)
                if any(ch in pat for ch in "*?[")
                else ([pat] if pat in by_name else [])
            )
            if not names:
                raise SimulationError(
                    f"probe_links pattern matches no link: {pat!r}"
                )
            probed.update(by_name[n] for n in names)
        for link in probed:
            self.flits_during_fault[link.name] = 0
            self._probe_last[link.name] = 0
            noc.sim.add_probe(link, self._make_probe(link))

    def _resolve(self, windows: Sequence[FaultWindow]):
        """Resolve ``windows`` onto concrete links; returns the
        ``(resolved, events)`` pair -- the windows with their links and
        the sorted event schedule -- without touching the injector.
        Typos fail here, not mid-campaign."""
        by_name = {link.name: link for link in self.noc.links}
        resolved: List[Tuple[FaultWindow, Tuple[Link, ...]]] = []
        events: List[Tuple[int, int, int, Link, FaultWindow, bool]] = []
        for wi, w in enumerate(windows):
            if any(ch in w.link for ch in "*?["):
                names = fnmatch.filter(sorted(by_name), w.link)
            else:
                names = [w.link] if w.link in by_name else []
            if not names:
                raise SimulationError(
                    f"fault window matches no link: {w.link!r} "
                    f"(links are named e.g. {next(iter(sorted(by_name)))!r})"
                )
            links = tuple(by_name[n] for n in names)
            resolved.append((w, links))
            for link in links:
                # Tie-break by (cycle, open-before-close, window index)
                # so schedules are deterministic however windows overlap.
                events.append((w.start, 0, wi, link, w, True))
                events.append((w.end, 1, wi, link, w, False))
        events.sort(key=lambda e: (e[0], e[1], e[2], e[3].name))
        return resolved, events

    def set_windows(self, windows: Sequence[FaultWindow]) -> None:
        """Replace the fault schedule on a live injector.

        Meant for replica-lane reuse (:mod:`repro.sim.batch`): the same
        built network runs many schedules without re-registering probes,
        so a compiled program stays valid.  Every link the new schedule
        resolves to must already be probed -- construct the injector
        with ``probe_links`` naming the union of all schedules' links.
        Progress state is cleared exactly as :meth:`reset` clears it;
        call at a cycle-0 boundary (after ``sim.reset()``).  A rejected
        schedule leaves the injector exactly as it was.
        """
        resolved, events = self._resolve(windows)
        missing = sorted(
            {
                l.name for _, links in resolved for l in links
                if l.name not in self.flits_during_fault
            }
        )
        if missing:
            raise SimulationError(
                f"set_windows touches unprobed link(s) {missing}: pass "
                f"probe_links= at construction to pre-declare them"
            )
        self.reset()  # clears the outgoing schedule's link overrides
        self.windows = tuple(windows)
        self._resolved = resolved
        self._events = events

    def _make_probe(self, link: Link):
        def probe(_cycle: int) -> None:
            moved = link.flits_carried + link.flits_dropped
            if link.fault_active:
                self.flits_during_fault[link.name] += (
                    moved - self._probe_last[link.name]
                )
            self._probe_last[link.name] = moved
        return probe

    def reset(self) -> None:
        self._next_event = 0
        self._open.clear()
        self.windows_opened = 0
        self.windows_closed = 0
        for name in self.flits_during_fault:
            self.flits_during_fault[name] = 0
            self._probe_last[name] = 0
        for _, links in self._resolved:
            for link in links:
                link.clear_fault()

    @property
    def done(self) -> bool:
        """Every scheduled window has opened and closed."""
        return self._next_event >= len(self._events)

    def _apply(self, link: Link, cycle: int) -> None:
        stack = self._open.get(link.name)
        if not stack:
            link.clear_fault()
            return
        w = stack[-1]
        if w.mode == "dead":
            link.set_fault(drop=True)
        elif w.mode == "stuck":
            link.set_fault(error_rate=1.0)
        else:
            link.set_fault(error_rate=w.error_rate)

    def idle_until(self):
        """Cycle of the next scheduled window event, else ``None``.

        The generated loop's idle-span contract
        (:func:`repro.sim.compiled._generate`): ``tick`` is a no-op on
        every cycle before the one returned, so a span in which nothing
        else happens either may be crossed without calling it.
        """
        i = self._next_event
        return self._events[i][0] if i < len(self._events) else None

    def tick(self, cycle: int) -> None:
        # Overrides set during tick(t) govern flits the link samples at
        # t+1 -- identically under both scheduling modes, because a
        # contract-less component ticks every cycle in either.
        while self._next_event < len(self._events) and self._events[self._next_event][0] <= cycle:
            _, _, _, link, w, opening = self._events[self._next_event]
            self._next_event += 1
            stack = self._open.setdefault(link.name, [])
            if opening:
                stack.append(w)
                self.windows_opened += 1
            else:
                stack.remove(w)
                self.windows_closed += 1
            self._apply(link, cycle)
            if self.lifecycle:
                self.trace(
                    cycle,
                    "fault",
                    link=link.name,
                    mode=w.mode,
                    phase="open" if opening else "close",
                    rate=(1.0 if w.mode == "stuck" else w.error_rate),
                )


def randomized_windows(
    link_names: Sequence[str],
    n_windows: int,
    horizon: int,
    seed: int = 0,
    modes: Sequence[str] = FAULT_MODES,
    min_duration: int = 10,
    max_duration: int = 100,
    error_rates: Tuple[float, float] = (0.05, 0.5),
) -> Tuple[FaultWindow, ...]:
    """A reproducible random fault schedule over the given links.

    Draws ``n_windows`` windows with starts in ``[0, horizon)``,
    durations in ``[min_duration, max_duration]`` and burst error rates
    in ``error_rates`` -- all from one seeded PRNG, so a campaign spec
    (builder + seed) regenerates the identical schedule.
    """
    if not link_names:
        raise ValueError("randomized_windows needs at least one link name")
    if min_duration < 1 or max_duration < min_duration:
        raise ValueError("need 1 <= min_duration <= max_duration")
    rng = random.Random(seed)
    windows = []
    for _ in range(n_windows):
        mode = rng.choice(list(modes))
        windows.append(
            FaultWindow(
                link=rng.choice(list(link_names)),
                start=rng.randrange(max(1, horizon)),
                duration=rng.randint(min_duration, max_duration),
                mode=mode,
                error_rate=round(rng.uniform(*error_rates), 4),
            )
        )
    return tuple(windows)
