"""The NoC specification: the compiler's single input.

A :class:`NocSpecification` captures everything the xpipesCompiler
needs: the component settings (one
:class:`~repro.core.config.NocBuildConfig`, which both views read), the
switch fabric, and which core plugs in where.  Specifications serialize
to JSON so flows can hand them across tools (SunMap emits one, the
compiler consumes it).

The JSON form is :mod:`repro.core.codec`'s, derived from the field
types, so every setting round-trips and a new one needs no codec edit.
The config's keys sit flat beside the required ``name``, ``switches``,
``edges``, ``coords`` and ``cores``; an absent setting takes its
default, and a misfit or a setting the config refuses is an error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.codec import INLINE, decode, encode
from repro.core.config import NocBuildConfig
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
    config: NocBuildConfig = field(metadata=INLINE)
    switches: List[str]
    edges: List[Tuple[str, str]]
    coords: Dict[str, Tuple[int, int]]
    cores: List[CoreBinding]

    # -- conversions ---------------------------------------------------------
    @staticmethod
    def from_topology(
        topology: Topology,
        config: Optional[NocBuildConfig] = None,
        name: Optional[str] = None,
    ) -> "NocSpecification":
        """Capture an attached topology + build config as a specification."""
        topology.validate()
        cores = [
            CoreBinding(ni, topology.is_initiator(ni), topology.switch_of(ni))
            for ni in topology.nis
        ]
        return NocSpecification(
            name=name or topology.name,
            config=config or NocBuildConfig(),
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

    # -- serialization ---------------------------------------------------------
    def to_json(self, indent: int = 2) -> str:
        return json.dumps(encode(self), indent=indent)

    @staticmethod
    def from_json(text: str) -> "NocSpecification":
        """Parse a specification; a document that is not one raises
        ``ValueError`` naming what is wrong."""
        try:
            return decode(NocSpecification, json.loads(text))
        except TypeError as exc:
            raise ValueError(f"malformed specification: {exc}") from None
