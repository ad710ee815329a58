"""Unit tests for flit decomposition and reassembly."""

import pytest

from repro.core.config import NocParameters
from repro.core.flit import FlitType
from repro.core.packet import Packet, PacketHeader, PacketKind
from repro.core.packetizer import (
    Depacketizer,
    PacketizationError,
    Packetizer,
    decompose_bits,
    recompose_bits,
)
from repro.flow.bandwidth import flits_per_transaction


def make_packet(kind=PacketKind.WRITE_REQ, beats=2, route=(1, 2)):
    payload = tuple(0x1000 + i for i in range(beats)) if kind.payload_beats(beats) else ()
    return Packet(
        header=PacketHeader(
            route=route,
            kind=kind,
            src_id=5,
            burst_len=beats,
            addr=0x123,
        ),
        payload=payload,
    )


class TestBitChunking:
    def test_exact_fit(self):
        assert decompose_bits(0xABCD, 16, 8) == [0xAB, 0xCD]

    def test_padding_on_last_chunk(self):
        # 12 bits into 8-bit flits: second flit has 4 bits of padding.
        chunks = decompose_bits(0xABC, 12, 8)
        assert chunks == [0xAB, 0xC0]

    def test_roundtrip(self):
        value, bits, width = 0x1F2E3D, 24, 7
        chunks = decompose_bits(value, bits, width)
        assert recompose_bits(chunks, bits, width) == value

    def test_rejects_oversized_value(self):
        with pytest.raises(ValueError):
            decompose_bits(0x100, 8, 8)

    def test_recompose_rejects_impossible_count(self):
        with pytest.raises(PacketizationError):
            recompose_bits([0, 0], 17, 8)


class TestPacketizer:
    def test_flit_count_matches_packet(self, params32):
        pk = Packetizer(params32)
        packet = make_packet()
        flits = pk.decompose(packet)
        assert len(flits) == flits_per_transaction(params32, len(packet.payload))

    def test_flit_types_frame_the_packet(self, params32):
        flits = Packetizer(params32).decompose(make_packet())
        assert flits[0].ftype is FlitType.HEAD
        assert flits[-1].ftype is FlitType.TAIL
        for f in flits[1:-1]:
            assert f.ftype is FlitType.BODY

    def test_wide_flit_gives_single_head_tail(self):
        params = NocParameters(flit_width=128)
        packet = make_packet(kind=PacketKind.READ_REQ, beats=1)
        flits = Packetizer(params).decompose(packet)
        assert len(flits) == 1
        assert flits[0].ftype is FlitType.HEAD_TAIL

    def test_head_flit_carries_route_metadata(self, params32):
        flits = Packetizer(params32).decompose(make_packet(route=(3, 1)))
        assert flits[0].route == (3, 1)
        assert all(f.route is None for f in flits[1:])

    def test_head_route_matches_leading_payload_bits(self, params32):
        """The route metadata mirrors the head flit's actual bits."""
        flits = Packetizer(params32).decompose(make_packet(route=(3, 1)))
        head = flits[0]
        top = head.payload >> (params32.flit_width - 2 * params32.port_bits)
        assert top == (3 << params32.port_bits) | 1

    def test_birth_cycle_propagates(self, params32):
        flits = Packetizer(params32).decompose(make_packet(), birth_cycle=77)
        assert all(f.birth_cycle == 77 for f in flits)

    def test_invalid_packet_rejected(self, params32):
        bad = Packet(
            header=PacketHeader(
                route=(1,), kind=PacketKind.WRITE_REQ, src_id=1, burst_len=2, addr=0
            ),
            payload=(1,),  # wrong beat count
        )
        with pytest.raises(ValueError):
            Packetizer(params32).decompose(bad)


def consumed(flit, hops):
    """``flit`` after ``hops`` switches have each taken one route hop."""
    for _ in range(hops):
        flit = flit.advance_route()
    return flit


def roundtrip(params, packet):
    flits = Packetizer(params).decompose(packet)
    # Simulate full route consumption as the network would do.
    arrived = [
        consumed(f, len(packet.header.route)) if f.is_head else f for f in flits
    ]
    dp = Depacketizer(params)
    out = None
    for f in arrived:
        result = dp.feed(f)
        if result is not None:
            out = result
    return out


class TestDepacketizer:
    @pytest.mark.parametrize("width", [16, 32, 64, 128])
    @pytest.mark.parametrize("kind,beats", [
        (PacketKind.READ_REQ, 1),
        (PacketKind.WRITE_REQ, 1),
        (PacketKind.WRITE_REQ, 4),
        (PacketKind.READ_RESP, 8),
        (PacketKind.WRITE_ACK, 1),
        (PacketKind.INTERRUPT, 0),
    ])
    def test_roundtrip_kinds_and_widths(self, width, kind, beats):
        params = NocParameters(flit_width=width)
        if kind is PacketKind.INTERRUPT:
            packet = Packet(
                header=PacketHeader(
                    route=(1, 2), kind=kind, src_id=5, burst_len=0, addr=7
                )
            )
        else:
            packet = make_packet(kind=kind, beats=beats)
        out = roundtrip(params, packet)
        assert out is not None
        assert out.header == packet.header
        assert out.payload == packet.payload

    def test_partial_packet_returns_none(self, params32):
        flits = Packetizer(params32).decompose(make_packet())
        dp = Depacketizer(params32)
        head = consumed(flits[0], 2)
        assert dp.feed(head) is None
        assert dp.busy

    def test_corrupted_flit_rejected(self, params32):
        flits = Packetizer(params32).decompose(make_packet())
        dp = Depacketizer(params32)
        with pytest.raises(PacketizationError, match="corrupted"):
            dp.feed(flits[0].corrupt())

    def test_stray_body_flit_rejected(self, params32):
        flits = Packetizer(params32).decompose(make_packet())
        dp = Depacketizer(params32)
        with pytest.raises(PacketizationError, match="stray"):
            dp.feed(flits[1])

    def test_interleaved_packets_rejected(self, params32):
        a = Packetizer(params32).decompose(make_packet())
        b = Packetizer(params32).decompose(make_packet())
        dp = Depacketizer(params32)
        dp.feed(consumed(a[0], 2))
        with pytest.raises(PacketizationError, match="head flit while"):
            dp.feed(consumed(b[0], 2))

    def test_wrong_packet_body_rejected(self, params32):
        a = Packetizer(params32).decompose(make_packet())
        b = Packetizer(params32).decompose(make_packet())
        dp = Depacketizer(params32)
        dp.feed(consumed(a[0], 2))
        with pytest.raises(PacketizationError, match="interleaved"):
            dp.feed(b[1])

    def test_reset_clears_state(self, params32):
        flits = Packetizer(params32).decompose(make_packet())
        dp = Depacketizer(params32)
        dp.feed(consumed(flits[0], 2))
        dp.reset()
        assert not dp.busy

    def test_packet_id_preserved(self, params32):
        packet = make_packet()
        out = roundtrip(params32, packet)
        assert out.packet_id == packet.packet_id

    def test_route_length_recovered_from_offset(self, params32):
        """The receiver infers route length from consumed hops."""
        packet = make_packet(route=(1, 2, 3, 0))
        out = roundtrip(params32, packet)
        assert out.header.route == (1, 2, 3, 0)
