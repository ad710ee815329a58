"""Packets and their ~50-bit headers.

The xpipes Lite NI is *transaction centric*: each OCP transaction
becomes one packet with a single header register (about 50 bits, built
from MAddr after the LUT lookup plus command/burst fields) followed by
one payload register per burst beat.  This module defines the header
format and its bit-accurate pack/unpack; flit decomposition lives in
:mod:`repro.core.packetizer`.

Header layout, transmitted MSB-first so the source route leads:

=============  ======================  =======================================
field          width                    meaning
=============  ======================  =======================================
route          max_hops * port_bits     output-port index per hop, hop 0 first
kind           3                        packet kind (see :class:`PacketKind`)
src_id         node_id_bits             issuing NI (response routing key)
thread_id      2                        OCP threading extension
burst_len      burst_bits               beats in the transaction
addr           addr_offset_bits         address offset within the target
=============  ======================  =======================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Tuple

from repro.core.config import NocParameters
from repro.core.flit import next_packet_id

KIND_BITS = 3
THREAD_BITS = 2
ADDR_OFFSET_BITS = 12


class PacketKind(enum.Enum):
    """What a packet carries; 3 bits on the wire."""

    READ_REQ = 0
    WRITE_REQ = 1
    READ_RESP = 2
    WRITE_ACK = 3
    INTERRUPT = 4  # sideband signalling, target -> initiator
    WRITE_POSTED = 5  # fire-and-forget write: no WRITE_ACK comes back

    @property
    def is_request(self) -> bool:
        return self in (
            PacketKind.READ_REQ,
            PacketKind.WRITE_REQ,
            PacketKind.WRITE_POSTED,
        )

    @property
    def is_response(self) -> bool:
        return self in (PacketKind.READ_RESP, PacketKind.WRITE_ACK)

    def payload_beats(self, burst_len: int) -> int:
        """Number of data beats that follow this header."""
        if self in (
            PacketKind.WRITE_REQ,
            PacketKind.WRITE_POSTED,
            PacketKind.READ_RESP,
        ):
            return burst_len
        return 0


@dataclass(frozen=True)
class PacketHeader:
    """The decoded header register of one packet."""

    route: Tuple[int, ...]
    kind: PacketKind
    src_id: int
    burst_len: int
    addr: int
    thread_id: int = 0

    def validate(self, params: NocParameters) -> None:
        """Raise ``ValueError`` if any field exceeds its wire width."""
        if len(self.route) > params.max_hops:
            raise ValueError(
                f"route of {len(self.route)} hops exceeds max_hops={params.max_hops}"
            )
        for hop in self.route:
            if not 0 <= hop < params.max_radix:
                raise ValueError(f"route hop {hop} out of range for {params.port_bits} bits")
        if not 0 <= self.src_id < params.max_nodes:
            raise ValueError(f"src_id {self.src_id} exceeds {params.node_id_bits} bits")
        if not 0 <= self.burst_len <= params.max_burst:
            raise ValueError(f"burst_len {self.burst_len} exceeds {params.burst_bits} bits")
        if not 0 <= self.addr < (1 << ADDR_OFFSET_BITS):
            raise ValueError(f"addr {self.addr:#x} exceeds {ADDR_OFFSET_BITS} bits")
        if not 0 <= self.thread_id < (1 << THREAD_BITS):
            raise ValueError(f"thread_id {self.thread_id} exceeds {THREAD_BITS} bits")

    @staticmethod
    def bit_width(params: NocParameters) -> int:
        """Total header register width -- "about 50 bits" in the paper."""
        return (
            params.route_bits
            + KIND_BITS
            + params.node_id_bits
            + THREAD_BITS
            + params.burst_bits
            + ADDR_OFFSET_BITS
        )

    def pack(self, params: NocParameters) -> int:
        """Encode the header into its wire integer (MSB = route hop 0)."""
        self.validate(params)
        return self._pack_validated(params)

    def _pack_validated(self, params: NocParameters) -> int:
        """:meth:`pack` for a header the caller has just validated."""
        value = 0
        # Route field: hop 0 in the most significant hop slot, unused
        # trailing hop slots zero.
        for slot in range(params.max_hops):
            hop = self.route[slot] if slot < len(self.route) else 0
            value = (value << params.port_bits) | hop
        value = (value << KIND_BITS) | self.kind.value
        value = (value << params.node_id_bits) | self.src_id
        value = (value << THREAD_BITS) | self.thread_id
        value = (value << params.burst_bits) | self.burst_len
        value = (value << ADDR_OFFSET_BITS) | self.addr
        return value

    @staticmethod
    def unpack(value: int, params: NocParameters, route_len: int) -> "PacketHeader":
        """Decode a header integer.

        ``route_len`` must be supplied by the caller (the receiving NI
        knows it consumed the whole route; trailing zero hop slots are
        otherwise ambiguous with port 0).
        """
        addr = value & ((1 << ADDR_OFFSET_BITS) - 1)
        value >>= ADDR_OFFSET_BITS
        burst_len = value & ((1 << params.burst_bits) - 1)
        value >>= params.burst_bits
        thread_id = value & ((1 << THREAD_BITS) - 1)
        value >>= THREAD_BITS
        src_id = value & ((1 << params.node_id_bits) - 1)
        value >>= params.node_id_bits
        kind = PacketKind(value & ((1 << KIND_BITS) - 1))
        value >>= KIND_BITS
        hops = []
        for slot in range(params.max_hops):
            shift = (params.max_hops - 1 - slot) * params.port_bits
            hops.append((value >> shift) & ((1 << params.port_bits) - 1))
        return PacketHeader(
            route=tuple(hops[:route_len]),
            kind=kind,
            src_id=src_id,
            burst_len=burst_len,
            addr=addr,
            thread_id=thread_id,
        )


@dataclass(frozen=True)
class Packet:
    """A header plus zero or more payload beats (one per burst beat)."""

    header: PacketHeader
    payload: Tuple[int, ...] = ()
    packet_id: int = field(default_factory=next_packet_id)
    birth_cycle: int = field(default=-1, compare=False)

    def validate(self, params: NocParameters) -> None:
        self.header.validate(params)
        expected = self.header.kind.payload_beats(self.header.burst_len)
        if len(self.payload) != expected:
            raise ValueError(
                f"{self.header.kind.name} with burst_len={self.header.burst_len} "
                f"needs {expected} beats, got {len(self.payload)}"
            )
        for beat in self.payload:
            if not 0 <= beat < (1 << params.data_width):
                raise ValueError(f"beat {beat:#x} exceeds {params.data_width} bits")

    def total_bits(self, params: NocParameters) -> int:
        """Bits on the wire: header register + payload registers."""
        return PacketHeader.bit_width(params) + len(self.payload) * params.data_width

    def flit_count(self, params: NocParameters) -> int:
        """Flits after decomposition at the configured flit width."""
        bits = self.total_bits(params)
        return -(-bits // params.flit_width)

    def __repr__(self) -> str:
        return (
            f"Packet<{self.header.kind.name} id={self.packet_id} "
            f"src={self.header.src_id} beats={len(self.payload)} "
            f"route={self.header.route}>"
        )
