"""Flits: the unit of link-level transfer.

A packet is decomposed into flits of ``flit_width`` bits (the paper's
"flit decomposition").  The head flit carries enough of the header for
switches to route; the tail flit releases the wormhole path.  Single-flit
packets are both head and tail.

Flit payloads are plain integers (bit-accurate), so packetization and
reassembly are real bit-shuffling operations that property tests can
round-trip.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple


class FlitType(enum.Enum):
    HEAD = "head"
    BODY = "body"
    TAIL = "tail"
    HEAD_TAIL = "head_tail"  # single-flit packet

    @property
    def is_head(self) -> bool:
        return self in (FlitType.HEAD, FlitType.HEAD_TAIL)

    @property
    def is_tail(self) -> bool:
        return self in (FlitType.TAIL, FlitType.HEAD_TAIL)


_packet_ids = itertools.count(1)


def next_packet_id() -> int:
    """Globally unique packet id (simulation bookkeeping only)."""
    return next(_packet_ids)


@dataclass(frozen=True, slots=True)
class Flit:
    """One flit on a link.

    Attributes
    ----------
    ftype:
        Position within the packet (head/body/tail).
    payload:
        ``width`` bits of packet content, as a non-negative int.
    width:
        Flit width in bits.
    packet_id:
        Simulation-level identity of the owning packet (not transmitted
        on real wires; used for tracing and latency accounting).
    index:
        Flit position within the packet, 0-based.
    route:
        On head flits, the full source route as a tuple of output-port
        indices.  In hardware these are the leading bits of the header
        (and therefore of this flit's ``payload``); they are duplicated
        here as parsed metadata so switches need not re-slice bits every
        hop.  The packetizer guarantees payload/route consistency.
    route_offset:
        How many route hops have been consumed so far.  In hardware the
        head flit's route field is shifted in place; modelling it as an
        offset keeps flits immutable and testing simple.
    seqno:
        Link-level go-back-N sequence number; stamped by the sender FSM,
        meaningless end to end.
    corrupted:
        Set by the link error model in abstract mode; stands for "the
        receiver's CRC check will fail".
    crc:
        In bit-accurate mode, the CRC the sender computed over the
        payload; the receiver recomputes and compares.  -1 when the
        link runs in abstract (flag-based) mode.
    birth_cycle:
        Cycle the flit was first injected (for network latency stats).
    """

    ftype: FlitType
    payload: int
    width: int
    packet_id: int = 0
    index: int = 0
    route: Optional[Tuple[int, ...]] = None
    route_offset: int = 0
    seqno: int = -1
    corrupted: bool = False
    crc: int = -1  # link-level CRC (bit-accurate mode); -1 = not carried
    birth_cycle: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        if self.payload < 0:
            raise ValueError("flit payload must be non-negative")
        if self.payload >= (1 << self.width):
            raise ValueError(
                f"payload {self.payload:#x} does not fit in {self.width} bits"
            )

    @property
    def is_head(self) -> bool:
        return self.ftype.is_head

    @property
    def is_tail(self) -> bool:
        return self.ftype.is_tail

    @property
    def next_hop(self) -> int:
        """Output port to take at the current switch (head flits only)."""
        if self.route is None:
            raise ValueError(f"{self!r} carries no route")
        if self.route_offset >= len(self.route):
            raise ValueError(f"{self!r} has exhausted its route")
        return self.route[self.route_offset]

    def advance_route(self) -> "Flit":
        """Consume one route hop (what the switch does in hardware).

        With :meth:`with_seqno`, one of the two per-hop stamps: clone
        and stamp fused into a single pass over the slots (see
        :func:`_clone`); the compiled lanes call both as plain functions.
        """
        c = _new(Flit)
        _s_ftype(c, self.ftype)
        _s_payload(c, self.payload)
        _s_width(c, self.width)
        _s_packet_id(c, self.packet_id)
        _s_index(c, self.index)
        _s_route(c, self.route)
        _s_route_offset(c, self.route_offset + 1)
        _s_seqno(c, self.seqno)
        _s_corrupted(c, self.corrupted)
        _s_crc(c, self.crc)
        _s_birth_cycle(c, self.birth_cycle)
        return c

    def with_seqno(self, seqno: int) -> "Flit":
        c = _new(Flit)
        _s_ftype(c, self.ftype)
        _s_payload(c, self.payload)
        _s_width(c, self.width)
        _s_packet_id(c, self.packet_id)
        _s_index(c, self.index)
        _s_route(c, self.route)
        _s_route_offset(c, self.route_offset)
        _s_seqno(c, seqno)
        _s_corrupted(c, self.corrupted)
        _s_crc(c, self.crc)
        _s_birth_cycle(c, self.birth_cycle)
        return c

    def with_route_offset(self, offset: int) -> "Flit":
        c = _clone(self)
        _s_route_offset(c, offset)
        return c

    def corrupt(self) -> "Flit":
        c = _clone(self)
        _s_corrupted(c, True)
        return c

    def with_crc(self, crc: int) -> "Flit":
        c = _clone(self)
        _s_crc(c, crc)
        return c

    def flip_bits(self, positions) -> "Flit":
        """Invert payload bits (the bit-accurate link error model)."""
        payload = self.payload
        for b in positions:
            if not 0 <= b < self.width:
                raise ValueError(f"bit {b} outside a {self.width}-bit flit")
            payload ^= 1 << b
        return replace(self, payload=payload)

    def stamped(self, cycle: int) -> "Flit":
        c = _clone(self)
        _s_birth_cycle(c, cycle)
        return c

    def __repr__(self) -> str:
        tag = {"head": "H", "body": "B", "tail": "T", "head_tail": "HT"}[self.ftype.value]
        corrupt = "!" if self.corrupted else ""
        return f"Flit<{tag}{corrupt} pkt={self.packet_id}#{self.index} seq={self.seqno}>"


_new = object.__new__
# ``Flit`` is frozen, so copies are written through the slot descriptors;
# binding each ``__set__`` once at import makes a field write a single C
# call (``object.__setattr__`` re-resolves the name on every write).
(
    _s_ftype, _s_payload, _s_width, _s_packet_id, _s_index, _s_route,
    _s_route_offset, _s_seqno, _s_corrupted, _s_crc, _s_birth_cycle,
) = (Flit.__dict__[name].__set__ for name in Flit.__slots__)


def _clone(f: Flit) -> Flit:
    """Field-for-field copy of a frozen flit, bypassing ``__init__``.

    The single-field mutators above are the per-hop hot path of the whole
    simulator (every link traversal stamps a seqno, every switch consumes
    a route hop).  ``dataclasses.replace`` rebuilds a field dict and
    re-runs ``__post_init__`` on every call; none of those mutators can
    invalidate the payload/width check, so a raw slot copy is
    behaviourally identical and severalfold cheaper.  ``flip_bits`` keeps
    ``replace`` -- it does change the payload.
    """
    c = _new(Flit)
    _s_ftype(c, f.ftype)
    _s_payload(c, f.payload)
    _s_width(c, f.width)
    _s_packet_id(c, f.packet_id)
    _s_index(c, f.index)
    _s_route(c, f.route)
    _s_route_offset(c, f.route_offset)
    _s_seqno(c, f.seqno)
    _s_corrupted(c, f.corrupted)
    _s_crc(c, f.crc)
    _s_birth_cycle(c, f.birth_cycle)
    return c


def _packet_flit(
    ftype: FlitType, payload: int, width: int, packet_id: int, index: int,
    route: Optional[Tuple[int, ...]], birth_cycle: int,
) -> Flit:
    """``Flit(...)`` as the packetizer calls it, slots written directly.

    The frozen dataclass ``__init__`` pays ``object.__setattr__`` per
    field; the payload/width check is the same ``__post_init__``.
    """
    c = _new(Flit)
    _s_ftype(c, ftype)
    _s_payload(c, payload)
    _s_width(c, width)
    _s_packet_id(c, packet_id)
    _s_index(c, index)
    _s_route(c, route)
    _s_route_offset(c, 0)
    _s_seqno(c, -1)
    _s_corrupted(c, False)
    _s_crc(c, -1)
    _s_birth_cycle(c, birth_cycle)
    c.__post_init__()
    return c


def flit_type_for(index: int, total: int) -> FlitType:
    """Flit type of flit ``index`` in an ``total``-flit packet."""
    if total <= 0:
        raise ValueError("a packet has at least one flit")
    if total == 1:
        return FlitType.HEAD_TAIL
    if index == 0:
        return FlitType.HEAD
    if index == total - 1:
        return FlitType.TAIL
    return FlitType.BODY
