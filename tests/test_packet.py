"""Unit tests for packets and header packing."""

import pytest

from repro.core.config import NocParameters
from repro.core.packet import (
    ADDR_OFFSET_BITS,
    Packet,
    PacketHeader,
    PacketKind,
)
from repro.flow.bandwidth import flits_per_transaction


def header(**kw):
    defaults = dict(
        route=(1, 2, 0), kind=PacketKind.READ_REQ, src_id=3, burst_len=1, addr=0x40
    )
    defaults.update(kw)
    return PacketHeader(**defaults)


class TestPacketKind:
    def test_request_response_partition(self):
        assert PacketKind.READ_REQ.is_request
        assert PacketKind.WRITE_REQ.is_request
        assert PacketKind.READ_RESP.is_response
        assert PacketKind.WRITE_ACK.is_response
        assert not PacketKind.INTERRUPT.is_request
        assert not PacketKind.INTERRUPT.is_response

    @pytest.mark.parametrize("kind,beats", [
        (PacketKind.READ_REQ, 0),
        (PacketKind.WRITE_REQ, 4),
        (PacketKind.READ_RESP, 4),
        (PacketKind.WRITE_ACK, 0),
        (PacketKind.INTERRUPT, 0),
    ])
    def test_payload_beats(self, kind, beats):
        assert kind.payload_beats(4) == beats


class TestHeaderPacking:
    def test_roundtrip(self, params32):
        h = header()
        packed = h.pack(params32)
        out = PacketHeader.unpack(packed, params32, route_len=len(h.route))
        assert out == h

    def test_roundtrip_all_kinds(self, params32):
        for kind in PacketKind:
            h = header(kind=kind)
            out = PacketHeader.unpack(h.pack(params32), params32, len(h.route))
            assert out.kind is kind

    def test_route_leads_the_header(self, params32):
        # Hop 0 occupies the most significant port_bits of the header.
        h = header(route=(5,))
        packed = h.pack(params32)
        total = PacketHeader.bit_width(params32)
        top_bits = packed >> (total - params32.port_bits)
        assert top_bits == 5

    def test_header_width_is_about_50_bits(self, params32):
        assert 45 <= PacketHeader.bit_width(params32) <= 60

    def test_validate_rejects_long_route(self, params32):
        h = header(route=tuple([0] * (params32.max_hops + 1)))
        with pytest.raises(ValueError, match="max_hops"):
            h.validate(params32)

    def test_validate_rejects_wide_port(self, params32):
        with pytest.raises(ValueError, match="out of range"):
            header(route=(params32.max_radix,)).validate(params32)

    def test_validate_rejects_big_src(self, params32):
        with pytest.raises(ValueError, match="src_id"):
            header(src_id=params32.max_nodes).validate(params32)

    def test_validate_rejects_big_burst(self, params32):
        with pytest.raises(ValueError, match="burst_len"):
            header(burst_len=params32.max_burst + 1).validate(params32)

    def test_validate_rejects_big_addr(self, params32):
        with pytest.raises(ValueError, match="addr"):
            header(addr=1 << ADDR_OFFSET_BITS).validate(params32)

    def test_thread_id_roundtrip(self, params32):
        h = header(thread_id=3)
        out = PacketHeader.unpack(h.pack(params32), params32, len(h.route))
        assert out.thread_id == 3


class TestPacket:
    def test_write_needs_matching_beats(self, params32):
        h = header(kind=PacketKind.WRITE_REQ, burst_len=2)
        Packet(header=h, payload=(1, 2)).validate(params32)
        with pytest.raises(ValueError, match="beats"):
            Packet(header=h, payload=(1,)).validate(params32)

    def test_read_request_has_no_payload(self, params32):
        h = header(kind=PacketKind.READ_REQ)
        with pytest.raises(ValueError, match="beats"):
            Packet(header=h, payload=(1,)).validate(params32)

    def test_payload_word_must_fit_data_width(self, params32):
        h = header(kind=PacketKind.WRITE_REQ, burst_len=1)
        with pytest.raises(ValueError, match="exceeds"):
            Packet(header=h, payload=(1 << 32,)).validate(params32)

    def test_total_bits(self, params32):
        h = header(kind=PacketKind.WRITE_REQ, burst_len=3)
        p = Packet(header=h, payload=(1, 2, 3))
        expected = PacketHeader.bit_width(params32) + 3 * 32
        assert p.total_bits(params32) == expected

    def test_flit_count_rounds_up(self, params32):
        h = header(kind=PacketKind.READ_REQ)
        p = Packet(header=h)
        bits = PacketHeader.bit_width(params32)
        assert flits_per_transaction(params32, len(p.payload)) == -(-bits // 32)

    def test_packet_ids_unique(self, params32):
        a = Packet(header=header())
        b = Packet(header=header())
        assert a.packet_id != b.packet_id
