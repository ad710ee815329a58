"""Energy models: joules per flit, per packet, per transaction.

Power (``repro.synth.power``) answers "how hot at this clock"; energy
answers "what does moving a bit cost", which is what topology selection
actually trades against latency.  Since dynamic power is
``area x density x f x activity``, the *energy per cycle of full
activity* is frequency-independent (the classic CV² picture):

    E_cycle [pJ] = area [mm2] x dyn_mw_per_mm2_ghz

A switch at full activity moves ``n_outputs`` flits per cycle, so its
energy per flit-hop divides by the radix; links and NIs follow the same
construction.  :func:`measure_noc_energy` combines these constants with
the *measured* activity counters of a finished simulation -- flits per
link, flits per switch, packets per NI -- into a whole-run energy
report, including leakage for the cycles simulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from repro.core.config import LinkConfig, NiConfig, NocParameters, SwitchConfig
from repro.synth.area import link_area_mm2, ni_area_mm2, switch_area_mm2
from repro.synth.technology import TechnologyLibrary, UMC130

if TYPE_CHECKING:
    from repro.network.noc import Noc


def switch_energy_per_flit_pj(
    config: SwitchConfig,
    params: NocParameters,
    lib: TechnologyLibrary = UMC130,
) -> float:
    """Dynamic energy of one flit traversing one switch."""
    area = switch_area_mm2(config, params, lib=lib)
    return area * lib.dyn_mw_per_mm2_ghz / config.n_outputs


def link_energy_per_flit_pj(
    config: LinkConfig,
    params: NocParameters,
    lib: TechnologyLibrary = UMC130,
) -> float:
    """Dynamic energy of one flit crossing one (unidirectional) link."""
    return link_area_mm2(config, params, lib) * lib.dyn_mw_per_mm2_ghz


def ni_energy_per_packet_pj(
    config: NiConfig,
    lib: TechnologyLibrary = UMC130,
    initiator: bool = True,
    n_destinations: int = 8,
) -> float:
    """Dynamic energy of packetizing (or reassembling) one packet."""
    area = ni_area_mm2(config, lib=lib, initiator=initiator, n_destinations=n_destinations)
    return area * lib.dyn_mw_per_mm2_ghz


@dataclass
class EnergyReport:
    """Energy of one finished simulation run."""

    dynamic_pj: Dict[str, float]  # per component kind
    leakage_pj: float
    cycles: int
    completed_transactions: int

    @property
    def total_dynamic_pj(self) -> float:
        return sum(self.dynamic_pj.values())

    @property
    def total_pj(self) -> float:
        return self.total_dynamic_pj + self.leakage_pj

    @property
    def pj_per_transaction(self) -> float:
        if self.completed_transactions == 0:
            return float("nan")
        return self.total_pj / self.completed_transactions

    def describe(self) -> str:
        lines = [
            f"energy over {self.cycles} cycles, "
            f"{self.completed_transactions} transactions:",
        ]
        for kind, pj in sorted(self.dynamic_pj.items()):
            lines.append(f"  dynamic {kind:<10} {pj / 1000.0:10.2f} nJ")
        lines.append(f"  leakage            {self.leakage_pj / 1000.0:10.2f} nJ")
        lines.append(
            f"  total              {self.total_pj / 1000.0:10.2f} nJ  "
            f"({self.pj_per_transaction:.1f} pJ/txn)"
        )
        return "\n".join(lines)


def measure_noc_energy(
    noc: "Noc",
    freq_mhz: float = 1000.0,
    lib: TechnologyLibrary = UMC130,
) -> EnergyReport:
    """Energy of everything a finished :class:`Noc` run actually did.

    Dynamic energy uses each component's measured activity (flits
    routed/carried, packets built); leakage charges every instantiated
    component for the full simulated time at ``freq_mhz``.
    """
    cfg = noc.config
    params = cfg.params
    topo = noc.topology
    dynamic: Dict[str, float] = {"switch": 0.0, "link": 0.0, "ni": 0.0}
    total_area = 0.0

    for name, sw in noc.switches.items():
        e_flit = switch_energy_per_flit_pj(sw.config, params, lib)
        dynamic["switch"] += sw.flits_routed * e_flit
        total_area += switch_area_mm2(sw.config, params, lib=lib)

    e_link = link_energy_per_flit_pj(cfg.link, params, lib)
    for link in noc.links:
        dynamic["link"] += link.flits_carried * e_link
        total_area += link_area_mm2(cfg.link, params, lib)

    n_targets = max(len(topo.targets), 1)
    n_initiators = max(len(topo.initiators), 1)
    ni_cfg = cfg.ni_config()
    e_ini = ni_energy_per_packet_pj(ni_cfg, lib, True, n_targets)
    e_tgt = ni_energy_per_packet_pj(ni_cfg, lib, False, n_initiators)
    for ni in noc.initiator_nis.values():
        dynamic["ni"] += ni.tx.packets_sent * e_ini
        total_area += ni_area_mm2(ni_cfg, lib=lib, initiator=True, n_destinations=n_targets)
    for ni in noc.target_nis.values():
        dynamic["ni"] += ni.tx.packets_sent * e_tgt
        total_area += ni_area_mm2(ni_cfg, lib=lib, initiator=False, n_destinations=n_initiators)

    cycles = noc.sim.cycle
    seconds = cycles / (freq_mhz * 1e6) if freq_mhz > 0 else 0.0
    leakage_pj = total_area * lib.leak_mw_per_mm2 * seconds * 1e9  # mW*s -> pJ

    return EnergyReport(
        dynamic_pj=dynamic,
        leakage_pj=leakage_pj,
        cycles=cycles,
        completed_transactions=noc.total_completed(),
    )
