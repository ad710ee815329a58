"""Whole-NoC assembly: the simulation view of a topology.

:class:`Noc` does for the Python library what the xpipesCompiler's
simulation view does for the SystemC one: given a
:class:`~repro.network.topology.Topology` and a parameter set, it

1. computes source routes for every NI pair (dimension-order on meshes,
   shortest-path otherwise),
2. instantiates one :class:`~repro.core.switch.Switch` per topology
   switch with its derived radix,
3. instantiates :class:`~repro.core.ni.InitiatorNI` /
   :class:`~repro.core.ni.TargetNI` per attached core with their LUT
   contents,
4. connects everything with pipelined :class:`~repro.core.link.Link`
   components, sizing every go-back-N window to its link's round trip,
5. exposes OCP ports where behavioural cores (traffic masters, memory
   slaves) plug in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import (
    ArbitrationPolicy,
    LinkConfig,
    NiConfig,
    NocParameters,
    SwitchConfig,
)
from repro.core.crc import codec_for_flit_width
from repro.core.credit_switch import InputBufferedSwitch
from repro.core.flow_control import window_for_link
from repro.core.link import Link
from repro.core.ni import InitiatorNI, TargetNI
from repro.core.ocp import OcpMasterPort, OcpSlavePort
from repro.core.routing import AddressMap, Route, RoutingTable, compute_routes
from repro.core.switch import Switch
from repro.network.cores import OcpMemorySlave, OcpTrafficMaster
from repro.network.topology import Topology
from repro.network.traffic import TrafficPattern
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.stats import LatencySampler
from repro.sim.trace import Tracer


@dataclass(frozen=True)
class NocBuildConfig:
    """Everything the builder needs besides the topology itself."""

    params: NocParameters = field(default_factory=NocParameters)
    buffer_depth: int = 6
    pipeline_stages: int = 2
    arbitration: ArbitrationPolicy = ArbitrationPolicy.ROUND_ROBIN
    link: LinkConfig = field(default_factory=LinkConfig)
    ni_buffer_depth: int = 4
    ni_max_outstanding: int = 8
    ni_posted_writes: bool = False
    ni_enforce_thread_order: bool = False
    #: End-to-end transaction timeout at the initiator NIs (cycles; see
    #: docs/RESILIENCE.md).  ``None`` keeps the paper's hang-forever
    #: semantics; a value arms retry (``ni_txn_retries`` attempts) then
    #: SResp.ERR delivery for lost transactions.
    ni_txn_timeout: Optional[int] = None
    ni_txn_retries: int = 0
    #: Sender-side lost-flit recovery (cycles of reverse-channel
    #: silence before a go-back-N sender rewinds; ``None`` disables).
    #: Needed for links that *drop* flits (dead-link faults) rather
    #: than corrupt them.  Applies to every switch and NI sender.
    link_resync_timeout: Optional[int] = None
    #: Bit-accurate error mode: attach a real CRC per flit (pair with
    #: ``LinkConfig(bit_errors=True)``); undetected errors become
    #: possible, as in silicon.
    crc_mode: bool = False
    #: Link-level flow control: the paper's "ack_nack" (output-queued
    #: switch + go-back-N retransmission) or the classical "credit"
    #: (input-buffered switch + credit counters).  Credit mode assumes
    #: reliable links and rejects error injection (see A10).
    flow_control: str = "ack_nack"
    #: Per-link overrides keyed by frozenset({element_a, element_b});
    #: typically produced from a floorplan via
    #: :func:`repro.flow.floorplan.link_configs_from_floorplan` so long
    #: wires get the pipeline stages they need.  Unlisted links use
    #: ``link``.
    link_overrides: "Dict[frozenset, LinkConfig]" = field(default_factory=dict)
    routing_policy: Optional[str] = None  # None = topology default
    seed: int = 1
    #: Scheduler mode (see ``docs/PERFORMANCE.md``): "compiled", the
    #: generated activity-tracked loop, elaborated lazily on the first
    #: run; "fast", the same loop without specialized lanes; or
    #: "interpreted", the classical tick-everything reference loop.
    #: Results are cycle-identical in every mode (checked by
    #: :func:`repro.network.experiments.verify_fast_path`).
    kernel: str = "compiled"

    def link_for(self, a: str, b: str) -> LinkConfig:
        """The link configuration between two elements."""
        return self.link_overrides.get(frozenset((a, b)), self.link)


class Noc:
    """A fully wired, runnable xpipes Lite network."""

    def __init__(
        self,
        topology: Topology,
        config: Optional[NocBuildConfig] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        topology.validate()
        self.topology = topology
        self.config = config or NocBuildConfig()
        self.sim = Simulator(tracer, kernel=self.config.kernel)
        params = self.config.params

        all_nis = topology.initiators + topology.targets
        if len(all_nis) > params.max_nodes:
            raise SimulationError(
                f"{len(all_nis)} NIs exceed the {params.node_id_bits}-bit "
                f"node id space ({params.max_nodes})"
            )
        self.node_ids: Dict[str, int] = {ni: i for i, ni in enumerate(all_nis)}
        self.address_map = AddressMap(topology.targets)

        if self.config.flow_control not in ("ack_nack", "credit"):
            raise SimulationError(
                f"unknown flow_control {self.config.flow_control!r}"
            )
        self.credit_mode = self.config.flow_control == "credit"
        if self.credit_mode:
            rates = [self.config.link.error_rate] + [
                lc.error_rate for lc in self.config.link_overrides.values()
            ]
            if any(r > 0 for r in rates) or self.config.crc_mode:
                raise SimulationError(
                    "credit flow control assumes reliable links: it cannot "
                    "retransmit, so error injection/CRC mode is rejected "
                    "(use ack_nack for unreliable links)"
                )
            if self.config.pipeline_stages != 2:
                raise SimulationError(
                    "credit mode models only the 2-stage switch"
                )
            if self.config.link_resync_timeout is not None:
                raise SimulationError(
                    "link_resync_timeout is a go-back-N recovery knob; "
                    "credit senders cannot retransmit"
                )
        self.codec = (
            codec_for_flit_width(params.flit_width) if self.config.crc_mode else None
        )
        policy = self.config.routing_policy or topology.default_policy
        self.routing_policy = policy
        self.routes: Dict[tuple, Route] = compute_routes(topology, policy)
        self._check_routes()

        self._build_fabric()
        self._build_nis()
        if self.config.link_resync_timeout is not None:
            for sender in self._gbn_senders():
                sender.resync_timeout = self.config.link_resync_timeout

        self.masters: Dict[str, OcpTrafficMaster] = {}
        self.slaves: Dict[str, OcpMemorySlave] = {}

    # -- construction ------------------------------------------------------
    def _check_routes(self) -> None:
        params = self.config.params
        for (src, dst), route in self.routes.items():
            if route.hops > params.max_hops:
                raise SimulationError(
                    f"route {src}->{dst} needs {route.hops} hops; raise "
                    f"NocParameters.max_hops (currently {params.max_hops})"
                )
            for port in route:
                if port >= params.max_radix:
                    raise SimulationError(
                        f"route {src}->{dst} uses port {port}; raise "
                        f"NocParameters.port_bits (currently {params.port_bits})"
                    )

    def _build_fabric(self) -> None:
        """Create channels, links and switches."""
        topo, cfg, sim = self.topology, self.config, self.sim
        max_stages = max(
            [cfg.link.stages] + [lc.stages for lc in cfg.link_overrides.values()]
        )
        # One window covers the deepest link in the design; per-port
        # windows would save a few registers but complicate nothing
        # else, so the estimation models use the same simplification.
        self.link_window = window_for_link(max_stages)
        self.links: List[Link] = []
        # Per-switch channel arrays, filled port by port.
        self._sw_in: Dict[str, List] = {s: [] for s in topo.switches}
        self._sw_out: Dict[str, List] = {s: [] for s in topo.switches}
        # Per-NI channels (NI transmit toward fabric, NI receive from it).
        self._ni_tx: Dict[str, object] = {}
        self._ni_rx: Dict[str, object] = {}

        # Guard against silently ignored overrides (typoed names).
        valid_pairs = {frozenset(e) for e in topo.edges}
        valid_pairs |= {
            frozenset((ni, topo.switch_of(ni))) for ni in topo.nis
        }
        unknown = set(cfg.link_overrides) - valid_pairs
        if unknown:
            pretty = ", ".join(sorted("-".join(sorted(k)) for k in unknown))
            raise SimulationError(
                f"link_overrides name connections that do not exist: {pretty}"
            )

        link_seed = cfg.seed
        done_edges = set()
        for s in topo.switches:
            for port, neighbor in enumerate(topo.ports_of(s)):
                if neighbor in self._sw_in:  # switch-to-switch edge
                    edge = tuple(sorted((s, neighbor)))
                    if edge in done_edges:
                        continue
                    done_edges.add(edge)
                    self._wire_switch_pair(s, neighbor, link_seed)
                    link_seed += 2
                else:  # NI attachment
                    self._wire_ni(neighbor, s, link_seed)
                    link_seed += 2

        self.switches: Dict[str, Switch] = {}
        for s in topo.switches:
            radix = topo.radix_of(s)
            sw_cfg = SwitchConfig(
                n_inputs=radix,
                n_outputs=radix,
                buffer_depth=cfg.buffer_depth,
                pipeline_stages=cfg.pipeline_stages,
                arbitration=cfg.arbitration,
            )
            # Ports were appended in declaration order, matching the
            # topology's port numbering.
            in_by_port = sorted(self._sw_in[s], key=lambda t: t[0])
            out_by_port = sorted(self._sw_out[s], key=lambda t: t[0])
            if self.credit_mode:
                # Each output's credit pool mirrors the input buffer of
                # the element behind that port.
                capacities = [
                    cfg.buffer_depth if n in self._sw_in else cfg.ni_buffer_depth
                    for n in topo.ports_of(s)
                ]
                switch = InputBufferedSwitch(
                    s,
                    sw_cfg,
                    in_channels=[c for _, c in in_by_port],
                    out_channels=[c for _, c in out_by_port],
                    out_capacities=capacities,
                )
            else:
                switch = Switch(
                    s,
                    sw_cfg,
                    in_channels=[c for _, c in in_by_port],
                    out_channels=[c for _, c in out_by_port],
                    out_windows=self.link_window,
                    codec=self.codec,
                )
            self.switches[s] = switch
            sim.add(switch)

    def _wire_switch_pair(self, a: str, b: str, seed: int) -> None:
        """Two unidirectional links between switches ``a`` and ``b``."""
        topo, cfg, sim = self.topology, self.config, self.sim
        link_cfg = cfg.link_for(a, b)
        pa = topo.port_toward(a, b)
        pb = topo.port_toward(b, a)
        # a -> b
        ch_a_out = sim.flit_channel(f"{a}.out{pa}")
        ch_b_in = sim.flit_channel(f"{b}.in{pb}")
        self.links.append(
            sim.add(Link(f"link.{a}.p{pa}->{b}.p{pb}", ch_a_out, ch_b_in, link_cfg, seed))
        )
        self._sw_out[a].append((pa, ch_a_out))
        self._sw_in[b].append((pb, ch_b_in))
        # b -> a
        ch_b_out = sim.flit_channel(f"{b}.out{pb}")
        ch_a_in = sim.flit_channel(f"{a}.in{pa}")
        self.links.append(
            sim.add(Link(f"link.{b}.p{pb}->{a}.p{pa}", ch_b_out, ch_a_in, link_cfg, seed + 1))
        )
        self._sw_out[b].append((pb, ch_b_out))
        self._sw_in[a].append((pa, ch_a_in))

    def _wire_ni(self, ni: str, switch: str, seed: int) -> None:
        """Two unidirectional links between an NI and its switch."""
        topo, cfg, sim = self.topology, self.config, self.sim
        link_cfg = cfg.link_for(ni, switch)
        p = topo.port_toward(switch, ni)
        # NI -> switch
        ch_ni_tx = sim.flit_channel(f"{ni}.tx")
        ch_sw_in = sim.flit_channel(f"{switch}.in{p}")
        self.links.append(
            sim.add(Link(f"link.{ni}->{switch}.p{p}", ch_ni_tx, ch_sw_in, link_cfg, seed))
        )
        self._ni_tx[ni] = ch_ni_tx
        self._sw_in[switch].append((p, ch_sw_in))
        # switch -> NI
        ch_sw_out = sim.flit_channel(f"{switch}.out{p}")
        ch_ni_rx = sim.flit_channel(f"{ni}.rx")
        self.links.append(
            sim.add(Link(f"link.{switch}.p{p}->{ni}", ch_sw_out, ch_ni_rx, link_cfg, seed + 1))
        )
        self._sw_out[switch].append((p, ch_sw_out))
        self._ni_rx[ni] = ch_ni_rx

    def _build_nis(self) -> None:
        topo, cfg, sim = self.topology, self.config, self.sim
        ni_cfg = NiConfig(
            params=cfg.params,
            buffer_depth=cfg.ni_buffer_depth,
            max_outstanding=cfg.ni_max_outstanding,
            posted_writes=cfg.ni_posted_writes,
            enforce_thread_order=cfg.ni_enforce_thread_order,
            txn_timeout=cfg.ni_txn_timeout,
            txn_retries=cfg.ni_txn_retries,
        )
        self.initiator_nis: Dict[str, InitiatorNI] = {}
        self.target_nis: Dict[str, TargetNI] = {}
        self.master_ports: Dict[str, OcpMasterPort] = {}
        self.slave_ports: Dict[str, OcpSlavePort] = {}

        for name in topo.initiators:
            port = OcpMasterPort(sim, f"{name}.ocp")
            self.master_ports[name] = port
            table = RoutingTable(
                address_map=self.address_map,
                forward={
                    t: (self.node_ids[t], self.routes[(name, t)]) for t in topo.targets
                },
            )
            ni = InitiatorNI(
                f"{name}.ni",
                node_id=self.node_ids[name],
                config=ni_cfg,
                ocp=port,
                req_channel=self._ni_tx[name],
                resp_channel=self._ni_rx[name],
                routing=table,
                link_window=self.link_window,
                codec=self.codec,
                credit_capacity=cfg.buffer_depth if self.credit_mode else None,
            )
            self.initiator_nis[name] = ni
            sim.add(ni)

        irq_target = self.node_ids[topo.initiators[0]] if topo.initiators else None
        for name in topo.targets:
            port = OcpSlavePort(sim, f"{name}.ocp")
            self.slave_ports[name] = port
            table = RoutingTable(
                reverse={
                    self.node_ids[i]: self.routes[(name, i)] for i in topo.initiators
                },
            )
            ni = TargetNI(
                f"{name}.ni",
                node_id=self.node_ids[name],
                config=ni_cfg,
                ocp=port,
                req_channel=self._ni_rx[name],
                resp_channel=self._ni_tx[name],
                routing=table,
                link_window=self.link_window,
                interrupt_target=irq_target,
                codec=self.codec,
                credit_capacity=cfg.buffer_depth if self.credit_mode else None,
            )
            self.target_nis[name] = ni
            sim.add(ni)

    # -- core population -----------------------------------------------------
    def add_traffic_master(
        self,
        ni_name: str,
        pattern: TrafficPattern,
        max_outstanding: int = 4,
        max_transactions: Optional[int] = None,
    ) -> OcpTrafficMaster:
        if ni_name not in self.master_ports:
            raise SimulationError(f"{ni_name!r} is not an initiator NI")
        master = OcpTrafficMaster(
            f"{ni_name}.core",
            self.master_ports[ni_name],
            pattern,
            self.address_map,
            max_outstanding=max_outstanding,
            max_transactions=max_transactions,
        )
        self.masters[ni_name] = master
        self.sim.add(master)
        return master

    def add_memory_slave(
        self, ni_name: str, wait_states: int = 1, interrupt_schedule=None
    ) -> OcpMemorySlave:
        if ni_name not in self.slave_ports:
            raise SimulationError(f"{ni_name!r} is not a target NI")
        slave = OcpMemorySlave(
            f"{ni_name}.core",
            self.slave_ports[ni_name],
            wait_states=wait_states,
            interrupt_schedule=interrupt_schedule,
        )
        self.slaves[ni_name] = slave
        self.sim.add(slave)
        return slave

    def populate(
        self,
        patterns: Dict[str, TrafficPattern],
        wait_states: int = 1,
        max_outstanding: int = 4,
        max_transactions: Optional[int] = None,
    ) -> None:
        """Attach one traffic master per pattern and a memory per target."""
        for ni_name, pattern in patterns.items():
            self.add_traffic_master(
                ni_name, pattern, max_outstanding=max_outstanding,
                max_transactions=max_transactions,
            )
        for t in self.topology.targets:
            self.add_memory_slave(t, wait_states=wait_states)

    # -- execution -----------------------------------------------------------
    def run(self, cycles: int) -> None:
        self.sim.run(cycles)

    def run_until_drained(self, max_cycles: int = 1_000_000, margin: int = 50) -> int:
        """Run until every master finished its quota and the NoC is idle.

        Requires all masters to have ``max_transactions`` set.  Returns
        the number of cycles simulated (excluding the drain margin).
        """
        for m in self.masters.values():
            if m.max_transactions is None:
                raise SimulationError(
                    f"{m.name}: run_until_drained needs max_transactions"
                )
        spent = self.sim.run_until(
            lambda: all(m.done for m in self.masters.values()), max_cycles
        )
        self.sim.run(margin)
        return spent

    # -- measurements ----------------------------------------------------------
    def aggregate_latency(self) -> LatencySampler:
        """All masters' end-to-end latency samples merged."""
        merged = LatencySampler("noc.latency")
        for m in self.masters.values():
            merged.samples.extend(m.latency.samples)
        return merged

    def network_latency(self) -> LatencySampler:
        """Pure packet latency (injection -> reassembly) across all NIs.

        Excludes OCP handshakes and memory service time, isolating what
        the fabric itself costs -- the number to compare against the
        hop-count model in :mod:`repro.flow.selection`.
        """
        merged = LatencySampler("noc.pkt_latency")
        for ni in self.initiator_nis.values():
            merged.samples.extend(ni.packet_latency.samples)
        for ni in self.target_nis.values():
            merged.samples.extend(ni.packet_latency.samples)
        return merged

    def total_completed(self) -> int:
        return sum(m.completed for m in self.masters.values())

    def total_issued(self) -> int:
        return sum(m.issued for m in self.masters.values())

    def _gbn_senders(self):
        """Every go-back-N sender in the design (empty in credit mode)."""
        if self.credit_mode:
            return
        for sw in self.switches.values():
            for p in sw.outputs:
                yield p.sender
        for ni in self.initiator_nis.values():
            yield ni.tx.sender
        for ni in self.target_nis.values():
            yield ni.tx.sender

    def total_retransmissions(self) -> int:
        return sum(s.retransmissions for s in self._gbn_senders())

    def total_errors_injected(self) -> int:
        return sum(link.errors_injected for link in self.links)

    def total_flits_carried(self) -> int:
        return sum(link.flits_carried for link in self.links)

    def total_flits_dropped(self) -> int:
        """Flits swallowed by dead-link fault windows (see repro.faults)."""
        return sum(link.flits_dropped for link in self.links)

    def total_transactions_failed(self) -> int:
        """Transactions the NIs gave up on (SResp.ERR to the master)."""
        return sum(ni.transactions_failed for ni in self.initiator_nis.values())

    def total_transactions_retried(self) -> int:
        return sum(ni.transactions_retried for ni in self.initiator_nis.values())

    def stats_digest(self) -> str:
        """sha256 over every observable statistic, for equivalence checks.

        Two runs of identically-built NoCs must produce the same digest
        regardless of scheduler mode (``NocBuildConfig.kernel``) -- this
        is what the differential tests and
        :func:`repro.network.experiments.verify_fast_path` assert.
        Transaction ids are deliberately excluded: they come from a
        process-global counter and differ between runs in one process.
        """
        import hashlib

        lines = [f"cycle={self.sim.cycle}"]
        for name in sorted(self.masters):
            m = self.masters[name]
            lines.append(
                f"master {name} issued={m.issued} completed={m.completed} "
                f"failed={m.failed} "
                f"latency={m.latency.samples!r} interrupts={len(m.interrupts)}"
            )
        for name in sorted(self.slaves):
            s = self.slaves[name]
            lines.append(
                f"slave {name} reads={s.reads_served} writes={s.writes_served} "
                f"mem={sorted(s.memory.items())!r}"
            )
        for name in sorted(self.initiator_nis):
            ni = self.initiator_nis[name]
            lines.append(
                f"ini {name} issued={ni.transactions_issued} "
                f"delivered={ni.responses_delivered} irqs={ni.interrupts_delivered} "
                f"retried={ni.transactions_retried} failed={ni.transactions_failed} "
                f"stale={ni.stale_responses} "
                f"pkt={ni.packet_latency.samples!r}"
            )
        for name in sorted(self.target_nis):
            ni = self.target_nis[name]
            lines.append(
                f"tgt {name} served={ni.requests_served} "
                f"pkt={ni.packet_latency.samples!r}"
            )
        for name in sorted(self.switches):
            sw = self.switches[name]
            lines.append(
                f"switch {name} routed={sw.flits_routed} "
                f"conflicts={sw.allocation_conflicts}"
            )
        for link in sorted(self.links, key=lambda l: l.name):
            lines.append(
                f"link {link.name} carried={link.flits_carried} "
                f"errors={link.errors_injected} dropped={link.flits_dropped}"
            )
        lines.append(f"retransmissions={self.total_retransmissions()}")
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def describe(self) -> str:
        """One-screen structural and runtime summary."""
        topo = self.topology
        lines = [
            f"NoC {topo.name!r}: {len(topo.switches)} switches, "
            f"{len(topo.initiators)} initiators, {len(topo.targets)} targets",
            f"  params: flit {self.config.params.flit_width}b, "
            f"buffers {self.config.buffer_depth}, "
            f"{self.config.pipeline_stages}-stage switches, "
            f"{self.config.arbitration.value} arbitration, "
            f"routing {self.routing_policy}",
            f"  links: {len(self.links)} ({self.config.link.stages}-stage base, "
            f"window {self.link_window})",
        ]
        if self.sim.cycle:
            lines.append(
                f"  after {self.sim.cycle} cycles: "
                f"{self.total_completed()}/{self.total_issued()} transactions, "
                f"{self.total_flits_carried()} flit-hops, "
                f"{self.total_retransmissions()} retransmissions, "
                f"{self.total_errors_injected()} injected errors"
            )
        return "\n".join(lines)
