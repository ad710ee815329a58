"""Cycle-accurate simulation kernel.

The kernel models synchronous digital hardware the way xpipes Lite's
SystemC library does: every inter-component wire is a register, so a
value driven in cycle *t* is visible to its reader in cycle *t + 1*.
This double-buffered discipline makes component evaluation order
irrelevant and maps one-to-one onto the pipelined, fully registered
design style the paper advocates for synthesizability.

The same discipline enables the kernel's activity-tracked scheduling
(the default ``"compiled"`` mode): components that declare their read
wires and a quiescence predicate are only ticked on cycles where they
can actually do work.  See :mod:`repro.sim.kernel` and
``docs/PERFORMANCE.md``.

Public surface:

* :class:`~repro.sim.kernel.Simulator` -- owns components and wires,
  advances time.
* :class:`~repro.sim.component.Component` -- base class with a single
  per-cycle ``tick`` hook.
* :class:`~repro.sim.channel.Wire` -- a double-buffered register.
* :class:`~repro.sim.channel.FlitChannel` -- a forward flit wire plus a
  reverse ACK/NACK wire, the link-level interface used across the whole
  library.
* :mod:`~repro.sim.stats` -- latency samples and counters.
* :mod:`~repro.sim.trace` -- human-readable event tracing.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "channel": ("AckSignal", "FlitChannel", "Wire"),
    "component": ("Component",),
    "compiled": ("CompiledProgram", "compiled_source"),
    "kernel": ("KERNEL_MODES", "SimulationError", "Simulator"),
    "stats": ("Counter", "LatencySampler"),
    "trace": ("NullTracer", "TextTracer", "Tracer"),
})
