"""The cycle-driven simulation kernel.

A :class:`Simulator` owns a set of :class:`~repro.sim.component.Component`
objects and the :class:`~repro.sim.channel.Wire` registers that connect
them.  Each clock cycle:

1. every *active* component's ``tick`` runs (order-independent, because
   wires are double-buffered), then
2. every *hot* wire latches its driven value (or decays to default), and
   wires left holding a non-default value wake their readers for the
   next cycle.

There are **two tick loops** behind three mode names
(:data:`KERNEL_MODES`):

* ``"interpreted"`` -- :meth:`Simulator._step_full`, the hand-written
  reference: tick every component, latch every wire, every cycle.  It
  is the oracle the other modes are checked against and the only loop
  in this module.
* ``"compiled"`` (the default) and ``"fast"`` -- the **activity-tracked**
  loop, generated once per network structure by
  :mod:`repro.sim.compiled`.  A component that implements the
  quiescence contract
  (:meth:`~repro.sim.component.Component.wake_inputs` +
  :meth:`~repro.sim.component.Component.is_quiescent`) is only ticked on
  cycles where it received new input on a watched wire, reported pending
  internal work after its last tick, or explicitly requested a wakeup;
  components that do not implement the contract are ticked every cycle.
  ``"compiled"`` additionally replaces the ``tick`` of stock components
  with specialized inlined *lanes*; ``"fast"`` runs the same generated
  loop with every component on the generic ``c.tick(cyc)`` lane -- a
  diagnostic mode that tells a scheduler/quiescence bug from a
  lane-transliteration bug.

All modes produce cycle-identical results, which ``tests/test_fastpath.py``,
``tests/test_compiled_kernel.py`` and
:func:`repro.network.experiments.verify_fast_path` check
digest-for-digest.

This mirrors a single-clock synchronous RTL design, which is exactly the
discipline xpipes Lite imposes on its SystemC library so that synthesis
and simulation views stay equivalent; the scheduled loop merely skips
ticks that the registered-wire discipline proves are no-ops and removes
interpreter dispatch from the ticks that remain.
See ``docs/PERFORMANCE.md`` for the contracts and measured speedups.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.sim.channel import FlitChannel, Wire
from repro.sim.component import Component
from repro.sim.trace import NullTracer, Tracer


class SimulationError(RuntimeError):
    """Raised for structural misuse of the kernel (duplicate names...)."""


#: The scheduler modes :meth:`Simulator.set_kernel` accepts.
KERNEL_MODES = ("interpreted", "fast", "compiled")


class Simulator:
    """Single-clock cycle-accurate simulator.

    Parameters
    ----------
    tracer:
        Optional event tracer; defaults to a no-op tracer.
    kernel:
        Scheduler mode name (one of :data:`KERNEL_MODES`).  The default
        ``"compiled"`` elaborates the code-generated loop lazily on the
        first :meth:`run` (or eagerly via :meth:`compile`);
        ``"interpreted"`` is the tick-everything reference loop -- the
        correctness escape hatch; results are identical either way.
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        kernel: str = "compiled",
    ) -> None:
        self.cycle = 0
        self._tracer: Tracer = tracer if tracer is not None else NullTracer()
        self._components: List[Component] = []
        self._component_names: Dict[str, Component] = {}
        self._wires: List[Wire] = []
        self._wire_names: Dict[str, Wire] = {}
        self._watchers: List[Callable[[int], None]] = []
        self._probes: Dict[Component, List[Callable[[int], None]]] = {}
        # Activity-scheduler state, maintained by the generated loop.
        self._sleepy: List[Component] = []  # contract implementors
        self._awake: Dict[Component, None] = {}  # sleepy components due a tick
        self._hot_wires: List[Wire] = []  # wires needing latch attention
        # ``_structure_rev`` counts structural mutations (registration,
        # probe attachment, tracer swap, mode change); the
        # generated program is only valid for the revision it was
        # elaborated against and is rebuilt on the next run otherwise.
        self._structure_rev = 0
        self._program = None
        self._program_rev = -1
        #: Optional :class:`repro.telemetry.profile.KernelProfiler`
        #: wrapped into the next generated program (see set_profiler).
        self.profiler = None
        # Instrumentation: how much work the scheduler actually skipped.
        self.ticks_executed = 0
        self.ticks_skipped = 0
        self._kernel = "interpreted"  # nothing to re-arm yet; see set_kernel
        self.set_kernel(kernel)

    # -- construction ----------------------------------------------------
    def add(self, component: Component) -> Component:
        """Register a component; returns it for chaining."""
        if component.name in self._component_names:
            raise SimulationError(f"duplicate component name: {component.name!r}")
        self._structure_changed()
        component.bind(self)
        component._sched_index = len(self._components)
        self._components.append(component)
        self._component_names[component.name] = component
        wake = component.wake_inputs()
        # Only kernel-owned wires participate in change detection; a
        # component watching a foreign wire must stay always-active.
        if wake is not None and all(w._hot is not None for w in wake):
            component._sleepy = True
            self._sleepy.append(component)
            self._awake[component] = None
            for w in wake:
                w.readers.append(component)
        else:
            component._sleepy = False
        return component

    def wire(self, name: str, default: Any = None) -> Wire:
        """Create and register a double-buffered wire."""
        if name in self._wire_names:
            raise SimulationError(f"duplicate wire name: {name!r}")
        self._structure_changed()
        w = Wire(name, default)
        w._hot = self._hot_wires
        self._wires.append(w)
        self._wire_names[name] = w
        return w

    def flit_channel(self, name: str) -> FlitChannel:
        """Create a flit channel (forward flit wire + reverse ACK wire)."""
        return FlitChannel(
            name,
            forward=self.wire(f"{name}.fwd"),
            backward=self.wire(f"{name}.bwd"),
        )

    def component(self, name: str) -> Component:
        """Look up a registered component by name."""
        try:
            return self._component_names[name]
        except KeyError:
            raise SimulationError(f"no component named {name!r}") from None

    @property
    def components(self) -> List[Component]:
        return list(self._components)

    def add_watcher(self, fn: Callable[[int], None]) -> None:
        """Register a callback invoked after every cycle (for probes)."""
        self._watchers.append(fn)

    def remove_watcher(self, fn: Callable[[int], None]) -> None:
        """Unregister a watcher (no-op if it was never registered).

        Lets runtime monitors -- e.g. ``repro.faults.ProgressWatchdog``
        -- detach cleanly instead of haunting the simulation forever.
        """
        try:
            self._watchers.remove(fn)
        except ValueError:
            pass

    def add_probe(self, component: Component, fn: Callable[[int], None]) -> None:
        """Invoke ``fn(cycle)`` right after ``component`` ticks.

        Unlike a watcher -- which fires every cycle -- a probe fires only
        on cycles where its component actually executed, in every
        scheduling mode.  This is what makes sampling monitors
        activity-aware under the scheduled loop: state owned by a component
        cannot change on cycles the component was skipped, so the probe
        sees every state transition while paying nothing for quiescent
        stretches (the monitor accounts skipped cycles by weighting the
        last observed sample -- see
        :class:`repro.network.monitors.NetworkMonitor`).
        """
        if component.sim is not self:
            raise SimulationError(
                f"cannot probe {component!r}: not registered with this simulator"
            )
        # Probed components are ineligible for specialized codegen lanes
        # (a lane would elide ticks the probe must observe), so a new
        # probe invalidates any compiled program.
        self._structure_changed()
        self._probes.setdefault(component, []).append(fn)

    # -- scheduler control -------------------------------------------------
    @property
    def tracer(self) -> Tracer:
        """The event tracer.  Assigning one is a structural event: lane
        choice depends on it (specialized lanes elide trace callouts,
        which is only invisible under :class:`NullTracer`), so the next
        run re-elaborates the generated program."""
        return self._tracer

    @tracer.setter
    def tracer(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._structure_changed()

    def wake(self, component: Component) -> None:
        """Schedule a contract-implementing component for the next tick."""
        if component._sleepy:
            self._awake[component] = None

    @property
    def kernel(self) -> str:
        """The active scheduler mode name (see :data:`KERNEL_MODES`)."""
        return self._kernel

    def set_kernel(self, mode: str) -> None:
        """Select the scheduler mode at a cycle boundary.

        ``"interpreted"`` is the hand-written tick-everything loop;
        ``"compiled"`` and ``"fast"`` are the generated activity-tracked
        loop with and without specialized lanes (elaborated lazily on
        the next :meth:`run`).  All three are cycle-identical; switching
        is always safe at a cycle boundary.
        """
        if mode not in KERNEL_MODES:
            raise SimulationError(
                f"set_kernel needs one of {KERNEL_MODES}, got {mode!r}"
            )
        if mode == self._kernel:
            return
        if self._kernel == "interpreted":
            self._arm_scheduler()
        self._kernel = mode
        self._structure_changed()  # lane choice differs per mode

    def _arm_scheduler(self) -> None:
        """Conservatively arm the activity tracker after the reference
        loop, which maintains neither set: every sleepy component wakes,
        and every wire currently holding (or driving) a non-default
        value enters the hot list."""
        self._awake = dict.fromkeys(self._sleepy)
        hot = self._hot_wires
        for w in hot:
            w._queued = False
        del hot[:]
        for w in self._wires:
            if w._driven or w._cur is not w.default:
                w._queued = True
                hot.append(w)

    def compile(self):
        """Switch to the ``"compiled"`` mode, elaborating eagerly.

        Returns the live :class:`~repro.sim.compiled.CompiledProgram`.
        Every component compiles: one without a quiescence contract
        takes the ``always`` lane, one carrying an instance-level
        ``tick`` the ``generic`` lane.
        """
        self.set_kernel("compiled")
        return self._ensure_program()

    def _structure_changed(self) -> None:
        """Structural mutation: any generated program is now stale."""
        self._structure_rev += 1

    def set_profiler(self, profiler) -> None:
        """Attach (or with ``None`` detach) a
        :class:`repro.telemetry.profile.KernelProfiler`.

        The profiler wraps the generated program's lane thunks at build
        time, so attaching invalidates any live program; the next run
        re-elaborates with counting/sampling wrappers installed.
        Detached (the default), the generated code carries no wrappers
        at all -- the cost is one branch per *compile*, never per cycle.
        """
        self.profiler = profiler
        self._structure_changed()

    def _ensure_program(self):
        """The generated program for the current structure revision."""
        if self._program_rev != self._structure_rev:
            from repro.sim.compiled import compile_simulator

            self._program = compile_simulator(self)
            self._program_rev = self._structure_rev
        return self._program

    # -- execution -------------------------------------------------------
    def reset(self) -> None:
        """Reset time, all wires and all components.

        A generated program's bindings stay alive across the reset:
        every stock component's ``reset`` mutates its codegen-bound
        containers in place (``tests/test_batch.py`` proves
        reset-and-rerun digests match a fresh build), and a custom
        component must do the same.
        """
        self.cycle = 0
        for w in self._hot_wires:
            w._queued = False
        del self._hot_wires[:]
        for w in self._wires:
            w.reset()
        for c in self._components:
            c.reset()
        self._awake = dict.fromkeys(self._sleepy)
        self.ticks_executed = 0
        self.ticks_skipped = 0

    def step(self) -> None:
        """Advance exactly one clock cycle."""
        self.run(1)

    def _step_full(self) -> None:
        """The classical loop: tick everything, latch everything."""
        cyc = self.cycle
        for c in self._components:
            c.tick(cyc)
        if self._probes:
            for c in self._components:
                fns = self._probes.get(c)
                if fns is not None:
                    for fn in fns:
                        fn(cyc)
        for w in self._wires:
            w.update()
        hot = self._hot_wires
        if hot:  # drives still enqueue; discard the bookkeeping
            for w in hot:
                w._queued = False
            del hot[:]
        self.ticks_executed += len(self._components)
        for fn in self._watchers:
            fn(cyc)
        self.cycle = cyc + 1

    def run(self, cycles: int) -> None:
        """Advance ``cycles`` clock cycles.

        Rejects negative cycle counts -- a silent no-op there has
        historically hidden sign bugs in sweep arithmetic.
        """
        if cycles < 0:
            raise SimulationError(
                f"run() needs a non-negative cycle count, got {cycles}"
            )
        if self._kernel == "interpreted":
            for _ in range(cycles):
                self._step_full()
        elif cycles:
            self._ensure_program().run(cycles)

    def run_until(
        self,
        predicate: Callable[[], bool],
        max_cycles: int = 1_000_000,
        stride: int = 1,
    ) -> int:
        """Step until ``predicate()`` is true; returns cycles spent.

        Raises :class:`SimulationError` up front on a non-callable
        predicate, and -- reporting the cycle it stopped at -- if the
        predicate is still false after ``max_cycles`` steps, the
        standard guard against deadlocked networks in tests.

        ``stride`` is the fast lane for cheap-to-miss predicates: the
        simulator advances ``stride`` cycles between predicate checks
        (one :meth:`run` call, so the compiled kernel stays in its flat
        loop).  The predicate is therefore evaluated at *stride
        granularity* -- the run may stop up to ``stride - 1`` cycles
        after the predicate first turned true.  ``max_cycles`` is still
        respected exactly: the final chunk is clipped to the budget.
        """
        if not callable(predicate):
            raise SimulationError(
                f"run_until needs a callable predicate, got "
                f"{type(predicate).__name__}: {predicate!r}"
            )
        if stride is True or stride is False or not isinstance(stride, int) or stride < 1:
            raise SimulationError(
                f"run_until needs a positive integer stride, got {stride!r}"
            )
        start = self.cycle
        while not predicate():
            spent = self.cycle - start
            if spent >= max_cycles:
                raise SimulationError(
                    f"run_until exceeded {max_cycles} cycles "
                    f"(started at cycle {start}, stopped at cycle {self.cycle})"
                )
            self.run(min(stride, max_cycles - spent))
        return self.cycle - start
