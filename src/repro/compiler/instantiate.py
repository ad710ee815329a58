"""Hierarchical system instantiation: the two orthogonal views.

The paper stresses that the same specification yields a *simulation
view* (runnable SystemC) and a *synthesis view* (synthesizable netlist)
without divergence.  Here the simulation view is a live
:class:`~repro.network.noc.Noc` and the synthesis view is the analytic
:class:`~repro.synth.report.SynthesisReport` (plus the generated source
of :mod:`repro.compiler.codegen`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.compiler.spec import NocSpecification
from repro.synth.report import SynthesisReport, synthesize_noc
from repro.synth.technology import TechnologyLibrary, UMC130

if TYPE_CHECKING:
    from repro.network.noc import Noc
    from repro.sim.trace import Tracer


def simulation_view(spec: NocSpecification, tracer: Optional[Tracer] = None) -> Noc:
    """Instantiate the runnable network described by a specification
    (the one function here that loads the simulator)."""
    from repro.network.noc import Noc

    return Noc(spec.to_topology(), spec.build_config(), tracer=tracer)


def synthesis_view(
    spec: NocSpecification,
    target_freq_mhz: float = 1000.0,
    lib: TechnologyLibrary = UMC130,
) -> SynthesisReport:
    """Estimate the synthesized implementation of a specification."""
    return synthesize_noc(
        spec.to_topology(),
        spec.build_config(),
        target_freq_mhz=target_freq_mhz,
        lib=lib,
    )
