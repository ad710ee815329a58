"""Whole-NoC synthesis reports.

:func:`synthesize_noc` walks a topology exactly like the hardware
instantiation does, estimates area/frequency/power per instance and
aggregates -- the "quick and accurate estimations" the paper's design
flow uses to explore topologies without running synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.core.config import NocBuildConfig, NocParameters
from repro.network.topology import Topology
from repro.synth.area import link_area_mm2, ni_area_mm2, switch_area_mm2
from repro.synth.power import DEFAULT_ACTIVITY, ni_power_mw, switch_power_mw
from repro.synth.technology import TechnologyLibrary, UMC130
from repro.synth.timing import ni_max_freq_mhz, switch_max_freq_mhz


@dataclass(frozen=True)
class ComponentReport:
    """One synthesized instance."""

    name: str
    kind: str  # "switch" | "initiator_ni" | "target_ni" | "link"
    label: str  # e.g. "5x5", "flit32"
    area_mm2: float
    max_freq_mhz: float
    power_mw: float


@dataclass
class SynthesisReport:
    """All instances of one NoC plus totals."""

    noc_name: str
    target_freq_mhz: float
    components: List[ComponentReport] = field(default_factory=list)

    @property
    def total_area_mm2(self) -> float:
        return sum(c.area_mm2 for c in self.components)

    @property
    def total_power_mw(self) -> float:
        return sum(c.power_mw for c in self.components)

    @property
    def min_max_freq_mhz(self) -> float:
        """The NoC clock is set by its slowest component."""
        return min(c.max_freq_mhz for c in self.components)

    def by_kind(self, kind: str) -> List[ComponentReport]:
        return [c for c in self.components if c.kind == kind]

    def area_by_kind(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for c in self.components:
            totals[c.kind] = totals.get(c.kind, 0.0) + c.area_mm2
        return totals

    def to_table(self) -> str:
        """Human-readable summary table."""
        lines = [
            f"Synthesis report: {self.noc_name} @ {self.target_freq_mhz:.0f} MHz",
            f"{'component':<24} {'kind':<14} {'label':<8} "
            f"{'area mm2':>9} {'fmax MHz':>9} {'power mW':>9}",
        ]
        for c in self.components:
            lines.append(
                f"{c.name:<24} {c.kind:<14} {c.label:<8} "
                f"{c.area_mm2:>9.4f} {c.max_freq_mhz:>9.0f} {c.power_mw:>9.2f}"
            )
        lines.append(
            f"{'TOTAL':<24} {'':<14} {'':<8} "
            f"{self.total_area_mm2:>9.4f} {self.min_max_freq_mhz:>9.0f} "
            f"{self.total_power_mw:>9.2f}"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class NocCensus:
    """What the synthesis models read of a topology: every switch with
    its radix and every NI with its role, in report order, plus the
    link count.  Only the topology decides it, so a mapped fabric takes
    it once (:attr:`repro.flow.selection.MappedFabric.census`) and
    :func:`synthesize_noc` sizes it under every configuration."""

    name: str
    switches: Tuple[Tuple[str, int], ...]  # (name, radix)
    nis: Tuple[Tuple[str, bool], ...]  # (name, is initiator)
    n_links: int

    @classmethod
    def of(cls, topology: Topology) -> "NocCensus":
        topology.validate()
        return cls(
            name=topology.name,
            switches=tuple((s, topology.radix_of(s)) for s in topology.switches),
            nis=tuple((ni, topology.is_initiator(ni)) for ni in topology.nis),
            # Two unidirectional links per switch-switch edge and per NI
            # attachment, exactly as the simulation view wires them.
            n_links=2 * len(topology.edges) + 2 * len(topology.nis),
        )


def synthesize_noc(
    topology: Union[Topology, NocCensus],
    config: Optional[NocBuildConfig] = None,
    target_freq_mhz: float = 1000.0,
    lib: TechnologyLibrary = UMC130,
    activity: float = DEFAULT_ACTIVITY,
    include_links: bool = True,
) -> SynthesisReport:
    """Estimate area/frequency/power for every instance of a topology
    (or of its :class:`NocCensus`, taken once for many configurations).

    Components whose maximum achievable frequency falls below the
    target are synthesized at their own maximum instead (the paper's
    mesh case study does exactly this: NIs and 4x4 switches close
    1 GHz while the 6x4 switches settle at 875-980 MHz).  Instances of
    one netlist -- switches of one radix, NIs of one role -- are
    evaluated once and reported once each, in topology order.
    """
    census = topology if isinstance(topology, NocCensus) else NocCensus.of(topology)
    cfg = config or NocBuildConfig()
    params: NocParameters = cfg.params
    report = SynthesisReport(noc_name=census.name, target_freq_mhz=target_freq_mhz)

    n_initiators = sum(initiator for _, initiator in census.nis)
    n_targets = max(len(census.nis) - n_initiators, 1)
    n_initiators = max(n_initiators, 1)
    ni_cfg = cfg.ni_config()

    def switch_model(radix: int) -> tuple:
        sw_cfg = cfg.switch_config(radix)
        fmax = switch_max_freq_mhz(sw_cfg, params, lib)
        f_run = min(target_freq_mhz, fmax)
        return (
            "switch",
            sw_cfg.label(),
            switch_area_mm2(sw_cfg, params, lib=lib, target_freq_mhz=f_run),
            fmax,
            switch_power_mw(sw_cfg, params, f_run, lib=lib, activity=activity),
        )

    def ni_model(initiator: bool) -> tuple:
        n_dest = n_targets if initiator else n_initiators
        fmax = ni_max_freq_mhz(ni_cfg, lib, initiator)
        f_run = min(target_freq_mhz, fmax)
        return (
            "initiator_ni" if initiator else "target_ni",
            f"flit{params.flit_width}",
            ni_area_mm2(
                ni_cfg, lib=lib, initiator=initiator,
                n_destinations=n_dest, target_freq_mhz=f_run,
            ),
            fmax,
            ni_power_mw(
                ni_cfg, f_run, lib=lib, initiator=initiator,
                n_destinations=n_dest, activity=activity,
            ),
        )

    for instances, model in ((census.switches, switch_model), (census.nis, ni_model)):
        models = {key: model(key) for key in {key for _, key in instances}}
        report.components.extend(
            ComponentReport(name, *models[key]) for name, key in instances
        )

    if include_links:
        n_links = census.n_links
        area = link_area_mm2(cfg.link, params, lib)
        power = area * (target_freq_mhz / 1000.0) * lib.dyn_mw_per_mm2_ghz * activity
        report.components.append(
            ComponentReport(
                name=f"links[{n_links}]",
                kind="link",
                label=f"{cfg.link.stages}st",
                area_mm2=n_links * area,
                max_freq_mhz=1e6 / lib.t_reg_ps,
                power_mw=n_links * power,
            )
        )
    return report


def mesh_operating_point(report: SynthesisReport) -> Dict[str, float]:
    """Per-kind achieved frequency summary (min fmax per kind)."""
    out: Dict[str, float] = {}
    for c in report.components:
        out[c.kind] = min(out.get(c.kind, float("inf")), c.max_freq_mhz)
    return out
