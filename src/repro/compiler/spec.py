"""The NoC specification: the compiler's single input.

A :class:`NocSpecification` captures everything the xpipesCompiler
needs: global parameters, per-component-type configuration, the switch
fabric, and which core plugs in where.  Specifications serialize to
JSON so flows can hand them across tools (SunMap emits one, the
compiler consumes it), and round-trip losslessly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import ArbitrationPolicy, LinkConfig, NocBuildConfig, NocParameters
from repro.network.topology import Topology


@dataclass(frozen=True)
class CoreBinding:
    """One core: its NI kind and the switch it attaches to."""

    name: str
    is_initiator: bool
    switch: str


@dataclass
class NocSpecification:
    """Everything needed to instantiate one NoC."""

    name: str
    params: NocParameters = field(default_factory=NocParameters)
    buffer_depth: int = 6
    pipeline_stages: int = 2
    arbitration: ArbitrationPolicy = ArbitrationPolicy.ROUND_ROBIN
    link: LinkConfig = field(default_factory=LinkConfig)
    ni_buffer_depth: int = 4
    ni_max_outstanding: int = 8
    ni_posted_writes: bool = False
    ni_enforce_thread_order: bool = False
    #: Per-connection link overrides, keyed by frozenset of endpoints
    #: (see NocBuildConfig.link_overrides).
    link_overrides: Dict[frozenset, LinkConfig] = field(default_factory=dict)
    flow_control: str = "ack_nack"
    routing_policy: Optional[str] = None
    switches: List[str] = field(default_factory=list)
    edges: List[Tuple[str, str]] = field(default_factory=list)
    coords: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    cores: List[CoreBinding] = field(default_factory=list)

    # -- conversions ---------------------------------------------------------
    @staticmethod
    def from_topology(
        topology: Topology,
        config: Optional[NocBuildConfig] = None,
        name: Optional[str] = None,
    ) -> "NocSpecification":
        """Capture an attached topology + build config as a specification."""
        topology.validate()
        cfg = config or NocBuildConfig()
        cores = [
            CoreBinding(ni, topology.is_initiator(ni), topology.switch_of(ni))
            for ni in topology.nis
        ]
        return NocSpecification(
            name=name or topology.name,
            params=cfg.params,
            buffer_depth=cfg.buffer_depth,
            pipeline_stages=cfg.pipeline_stages,
            arbitration=cfg.arbitration,
            link=cfg.link,
            ni_buffer_depth=cfg.ni_buffer_depth,
            ni_max_outstanding=cfg.ni_max_outstanding,
            ni_posted_writes=cfg.ni_posted_writes,
            ni_enforce_thread_order=cfg.ni_enforce_thread_order,
            link_overrides=dict(cfg.link_overrides),
            flow_control=cfg.flow_control,
            routing_policy=cfg.routing_policy,
            switches=topology.switches,
            edges=topology.edges,
            coords=dict(topology.coords),
            cores=cores,
        )

    def to_topology(self) -> Topology:
        """Rebuild the attached topology this specification describes."""
        topo = Topology(self.name)
        for s in self.switches:
            topo.add_switch(s, coord=self.coords.get(s))
        for a, b in self.edges:
            topo.connect(a, b)
        for core in self.cores:
            if core.is_initiator:
                topo.add_initiator(core.name)
            else:
                topo.add_target(core.name)
            topo.attach(core.name, core.switch)
        topo.validate()
        return topo

    def build_config(self) -> NocBuildConfig:
        return NocBuildConfig(
            params=self.params,
            buffer_depth=self.buffer_depth,
            pipeline_stages=self.pipeline_stages,
            arbitration=self.arbitration,
            link=self.link,
            ni_buffer_depth=self.ni_buffer_depth,
            ni_max_outstanding=self.ni_max_outstanding,
            ni_posted_writes=self.ni_posted_writes,
            ni_enforce_thread_order=self.ni_enforce_thread_order,
            link_overrides=dict(self.link_overrides),
            flow_control=self.flow_control,
            routing_policy=self.routing_policy,
        )

    # -- serialization ---------------------------------------------------------
    def to_json(self, indent: int = 2) -> str:
        doc = {
            "name": self.name,
            "params": asdict(self.params),
            "buffer_depth": self.buffer_depth,
            "pipeline_stages": self.pipeline_stages,
            "arbitration": self.arbitration.value,
            "link": asdict(self.link),
            "ni_buffer_depth": self.ni_buffer_depth,
            "ni_max_outstanding": self.ni_max_outstanding,
            "ni_posted_writes": self.ni_posted_writes,
            "ni_enforce_thread_order": self.ni_enforce_thread_order,
            "link_overrides": {
                "|".join(sorted(k)): asdict(v)
                for k, v in self.link_overrides.items()
            },
            "flow_control": self.flow_control,
            "routing_policy": self.routing_policy,
            "switches": self.switches,
            "edges": [list(e) for e in self.edges],
            "coords": {k: list(v) for k, v in self.coords.items()},
            "cores": [asdict(c) for c in self.cores],
        }
        return json.dumps(doc, indent=indent)

    @staticmethod
    def from_json(text: str) -> "NocSpecification":
        """Parse a specification; a document that is not one raises
        ``ValueError`` naming what is wrong."""
        doc = json.loads(text)
        try:
            return NocSpecification._from_doc(doc)
        except KeyError as exc:
            raise ValueError(f"missing field {exc}") from None
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"malformed specification: {exc}") from None

    @staticmethod
    def _from_doc(doc: dict) -> "NocSpecification":
        return NocSpecification(
            name=doc["name"],
            params=NocParameters(**doc["params"]),
            buffer_depth=doc["buffer_depth"],
            pipeline_stages=doc["pipeline_stages"],
            arbitration=ArbitrationPolicy(doc["arbitration"]),
            link=LinkConfig(**doc["link"]),
            ni_buffer_depth=doc["ni_buffer_depth"],
            ni_max_outstanding=doc["ni_max_outstanding"],
            ni_posted_writes=doc.get("ni_posted_writes", False),
            ni_enforce_thread_order=doc.get("ni_enforce_thread_order", False),
            link_overrides={
                frozenset(k.split("|")): LinkConfig(**v)
                for k, v in doc.get("link_overrides", {}).items()
            },
            flow_control=doc.get("flow_control", "ack_nack"),
            routing_policy=doc.get("routing_policy"),
            switches=list(doc["switches"]),
            edges=[tuple(e) for e in doc["edges"]],
            coords={k: tuple(v) for k, v in doc["coords"].items()},
            cores=[CoreBinding(**c) for c in doc["cores"]],
        )
