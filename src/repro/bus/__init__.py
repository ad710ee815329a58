"""Shared-bus baseline (AMBA AHB-like).

The paper's motivation section argues that shared buses -- in-order
completion, no multiple outstanding transactions, arbitration overhead,
poor scalability -- cannot keep up with many-core SoCs.  This package
makes that argument measurable: a cycle-accurate single-channel shared
bus with centralized arbitration that accepts the *same* OCP masters
and slaves as the NoC, so the F9 bench can sweep load on identical
workloads.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ahb": ("SharedBus", "SharedBusConfig"),
    "bridge": ("BridgedBus", "BusBridge"),
})
