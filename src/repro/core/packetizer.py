"""Packetization: flit decomposition and reassembly.

The paper's NI builds one ~50-bit header register per transaction and
one payload register per burst beat, then *decomposes* both into flits
of the configured width.  This module performs that decomposition
bit-accurately and reverses it at the receiving NI.

Wire format: the packet is a single bit stream -- header register first
(MSB-first, so the source route leads and is available in the head
flit), then each payload beat MSB-first.  The stream is cut into
``flit_width`` chunks; the final flit is zero-padded in its least
significant bits.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.config import NocParameters
from repro.core.flit import Flit, _packet_flit, flit_type_for
from repro.core.packet import Packet, PacketHeader


class PacketizationError(ValueError):
    """Malformed flit stream at reassembly time."""


def decompose_bits(value: int, total_bits: int, flit_width: int) -> List[int]:
    """Split ``total_bits`` of ``value`` (MSB-first) into flit payloads."""
    if value < 0 or (total_bits and value >= (1 << total_bits)):
        raise ValueError(f"value does not fit in {total_bits} bits")
    n_flits = -(-total_bits // flit_width)
    padded = value << (n_flits * flit_width - total_bits)
    chunks = []
    for i in range(n_flits):
        shift = (n_flits - 1 - i) * flit_width
        chunks.append((padded >> shift) & ((1 << flit_width) - 1))
    return chunks


def recompose_bits(chunks: List[int], total_bits: int, flit_width: int) -> int:
    """Inverse of :func:`decompose_bits`: drop padding, rebuild the int."""
    value = 0
    for c in chunks:
        value = (value << flit_width) | c
    padding = len(chunks) * flit_width - total_bits
    if padding < 0:
        raise PacketizationError(
            f"{len(chunks)} flits of {flit_width} bits cannot hold {total_bits} bits"
        )
    return value >> padding


class Packetizer:
    """Turns packets into flit lists (the NI back end's transmit path)."""

    def __init__(self, params: NocParameters) -> None:
        self.params = params
        self.header_bits = PacketHeader.bit_width(params)

    def packet_bits(self, packet: Packet) -> int:
        """The packet's full bit stream as one integer."""
        packet.header.validate(self.params)
        return self._stream(packet)

    def _stream(self, packet: Packet) -> int:
        # packet_bits for a packet whose header has just been validated.
        value = packet.header._pack_validated(self.params)
        data_width = self.params.data_width
        for beat in packet.payload:
            value = (value << data_width) | beat
        return value

    def decompose(self, packet: Packet, birth_cycle: int = -1) -> List[Flit]:
        """Flit decomposition of one packet.

        The head flit additionally carries the parsed route as metadata
        (in hardware it is the leading bits of the payload; switches
        read it from there).
        """
        params = self.params
        packet.validate(params)  # header and beats, once
        width = params.flit_width
        chunks = decompose_bits(
            self._stream(packet),
            self.header_bits + len(packet.payload) * params.data_width,
            width,
        )
        total = len(chunks)
        return [
            _packet_flit(
                flit_type_for(i, total), chunk, width, packet.packet_id, i,
                packet.header.route if i == 0 else None, birth_cycle,
            )
            for i, chunk in enumerate(chunks)
        ]


class Depacketizer:
    """Reassembles flits back into packets (the NI receive path).

    Feed flits in arrival order; :meth:`feed` returns a completed
    :class:`Packet` when the tail flit lands, else ``None``.  Wormhole
    switching guarantees flits of a packet arrive contiguously on one
    channel, so a single accumulator suffices per channel.
    """

    def __init__(self, params: NocParameters) -> None:
        self.params = params
        self.header_bits = PacketHeader.bit_width(params)
        self._chunks: List[int] = []
        self._route_len: Optional[int] = None
        self._packet_id: Optional[int] = None
        self._birth_cycle: int = -1

    @property
    def busy(self) -> bool:
        """True while a packet is partially assembled."""
        return bool(self._chunks)

    def reset(self) -> None:
        self._chunks = []
        self._route_len = None
        self._packet_id = None
        self._birth_cycle = -1

    def feed(self, flit: Flit) -> Optional[Packet]:
        if flit.corrupted:
            raise PacketizationError(f"corrupted flit reached reassembly: {flit!r}")
        if flit.is_head:
            if self._chunks:
                raise PacketizationError("head flit while a packet is in flight")
            # The NI sits at the end of the route: every hop was consumed,
            # so the head's route_offset tells us the route length needed
            # to parse the header's route field.
            self._route_len = flit.route_offset
            self._packet_id = flit.packet_id
            self._birth_cycle = flit.birth_cycle
        elif not self._chunks:
            raise PacketizationError(f"stray non-head flit: {flit!r}")
        elif flit.packet_id != self._packet_id:
            raise PacketizationError(
                f"interleaved packets: expected {self._packet_id}, got {flit.packet_id}"
            )
        self._chunks.append(flit.payload)
        if not flit.is_tail:
            return None
        return self._finish()

    def _finish(self) -> Packet:
        chunks, route_len = self._chunks, self._route_len
        packet_id, birth = self._packet_id, self._birth_cycle
        self.reset()
        width = self.params.flit_width
        total_bits_max = len(chunks) * width
        if total_bits_max < self.header_bits:
            raise PacketizationError("packet shorter than its header")
        # Recover the header from the leading bits, then use its burst
        # length to locate the payload beats and the final padding.
        stream = 0
        for c in chunks:
            stream = (stream << width) | c
        header_int = stream >> (total_bits_max - self.header_bits)
        header = PacketHeader.unpack(header_int, self.params, route_len)
        beats = header.kind.payload_beats(header.burst_len)
        total_bits = self.header_bits + beats * self.params.data_width
        expected_flits = -(-total_bits // width)
        if expected_flits != len(chunks):
            raise PacketizationError(
                f"{header.kind.name} burst_len={header.burst_len} expects "
                f"{expected_flits} flits, received {len(chunks)}"
            )
        payload_stream = stream >> (total_bits_max - total_bits)
        payload = []
        for b in range(beats):
            shift = (beats - 1 - b) * self.params.data_width
            payload.append((payload_stream >> shift) & ((1 << self.params.data_width) - 1))
        return Packet(
            header=header,
            payload=tuple(payload),
            packet_id=packet_id if packet_id is not None else 0,
            birth_cycle=birth,
        )
