"""The NoC specification: the compiler's single input.

A :class:`NocSpecification` captures everything the xpipesCompiler
needs: the component settings (one
:class:`~repro.core.config.NocBuildConfig`, which both views read), the
switch fabric, and which core plugs in where.  Specifications serialize
to JSON so flows can hand them across tools (SunMap emits one, the
compiler consumes it).

The JSON codec is derived from the config's dataclass fields, so every
setting round-trips losslessly and a new field needs no codec edit.
The config's keys sit flat beside ``name``, ``switches``, ``edges``,
``coords`` and ``cores``; an absent one takes its default.  Reading
refuses an unknown key, a value whose type is not the field's (``bool``
is not an ``int``) and a setting the config's own checks reject.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import typing
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import NocBuildConfig
from repro.network.topology import Topology

#: The spec's own keys; every other key is a :class:`NocBuildConfig` field.
_STRUCTURE = ("name", "switches", "edges", "coords", "cores")


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
    config: NocBuildConfig = field(default_factory=NocBuildConfig)
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
        doc = {
            "name": self.name,
            **_encode(self.config),
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
        settings = {k: v for k, v in doc.items() if k not in _STRUCTURE}
        return NocSpecification(
            name=doc["name"],
            config=_decode_record(NocBuildConfig, settings, ""),
            switches=list(doc["switches"]),
            edges=[tuple(e) for e in doc["edges"]],
            coords={k: tuple(v) for k, v in doc["coords"].items()},
            cores=[CoreBinding(**c) for c in doc["cores"]],
        )


# -- the codec: driven by field types, so it names no setting ------------------
def _encode(value: Any) -> Any:
    """JSON form of a setting: a record as an object of its fields, an
    enum as its value, a map keyed by element pairs with ``a|b`` keys."""
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {"|".join(sorted(k)): _encode(v) for k, v in value.items()}
    return value


def _decode_record(cls: type, doc: dict, where: str) -> Any:
    """Build ``cls`` from its JSON object; absent fields take defaults."""
    hints = typing.get_type_hints(cls)
    for k in doc:
        if k not in hints:
            raise TypeError(f"unknown key {k!r}{' in ' + where if where else ''}")
    return cls(**{
        k: _decode(hints[k], v, f"{where}.{k}" if where else k)
        for k, v in doc.items()
    })


def _decode(tp: Any, value: Any, where: str) -> Any:
    """The value of JSON ``value`` as type ``tp``, or ``TypeError``."""
    args = typing.get_args(tp)
    if type(None) in args:  # Optional[X]
        if value is None:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        args = typing.get_args(tp)
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return tp(value)
    is_map = typing.get_origin(tp) is dict
    if (is_map or dataclasses.is_dataclass(tp)) and not isinstance(value, dict):
        raise TypeError(f"{where}: expected an object, got {value!r}")
    if is_map:
        return {frozenset(k.split("|")): _decode(args[1], v, f"{where}[{k}]")
                for k, v in value.items()}
    if dataclasses.is_dataclass(tp):
        return _decode_record(tp, value, where)
    if tp is float and type(value) is int:
        return float(value)
    if type(value) is not tp:  # exact: a JSON bool is no int
        raise TypeError(f"{where}: expected {tp.__name__}, got {value!r}")
    return value
