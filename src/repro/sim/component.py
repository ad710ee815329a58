"""Base class for synchronous components."""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:
    from repro.sim.channel import Wire
    from repro.sim.kernel import Simulator


class Component:
    """A clocked hardware block.

    Subclasses implement :meth:`tick`, called once per cycle.  Within a
    tick a component reads wire values latched at the end of the
    previous cycle and drives values that become visible next cycle, so
    internal state may be updated in place without ordering hazards.

    Fast-path scheduling (see ``docs/PERFORMANCE.md``): a component may
    additionally implement the *quiescence contract* --
    :meth:`wake_inputs` plus :meth:`is_quiescent` -- which lets the
    kernel skip its ``tick`` on cycles where the tick would provably be
    a no-op.  Components that do not implement the contract are ticked
    every cycle, which is always correct.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.sim: "Simulator | None" = None
        # Kernel bookkeeping (set by Simulator.add).
        self._sched_index = 0
        self._sleepy = False

    def bind(self, sim: "Simulator") -> None:
        """Kernel hook: associate the component with its simulator."""
        self.sim = sim

    def reset(self) -> None:
        """Return all internal state to its power-on value.

        Subclasses with state must override and call ``super().reset()``.
        """

    def tick(self, cycle: int) -> None:
        """Advance one clock cycle.  Must be overridden."""
        raise NotImplementedError

    # -- fast-path quiescence contract ------------------------------------
    def wake_inputs(self) -> "typing.Sequence[Wire] | None":
        """The complete set of wires whose values this component reads.

        Returning a sequence of kernel-owned wires opts the component
        into fast-path scheduling: whenever every listed wire reads its
        default value *and* :meth:`is_quiescent` is true, the kernel may
        skip :meth:`tick` entirely.  The list must be complete -- a read
        wire omitted here can carry data the sleeping component never
        sees.  Return ``None`` (the default) to opt out; the component
        is then ticked every cycle.
        """
        return None

    def is_quiescent(self) -> bool:
        """True when ``tick`` would be a no-op given all-default inputs.

        Part 2 of the fast-path contract: called by the kernel after
        each tick of an opted-in component.  Must return ``True`` only
        if, as long as every :meth:`wake_inputs` wire reads its default,
        ``tick`` would change no internal state, drive no wire and
        record no statistic.  Components with pending time-based work
        (timers, schedules, unsent flits) must return ``False``.
        """
        return False

    def request_wakeup(self) -> None:
        """Ask the kernel for a tick next cycle even if quiescent.

        The escape valve of the quiescence contract for components that
        decide, outside :meth:`is_quiescent`, that they need to run.
        """
        if self.sim is not None:
            self.sim.wake(self)

    def trace(self, cycle: int, event: str, **fields: object) -> None:
        """Emit a trace event through the owning simulator's tracer."""
        if self.sim is not None:
            self.sim.tracer.record(cycle, self.name, event, fields)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"
