"""Property-based tests: packetization is a lossless bit-level codec."""

from hypothesis import given, settings, strategies as st

from repro.core.config import NocParameters
from repro.core.packet import (
    ADDR_OFFSET_BITS,
    Packet,
    PacketHeader,
    PacketKind,
)
from repro.core.packetizer import (
    Depacketizer,
    Packetizer,
    decompose_bits,
    recompose_bits,
)
from repro.flow.bandwidth import flits_per_transaction

params_strategy = st.builds(
    NocParameters,
    flit_width=st.sampled_from([8, 16, 24, 32, 48, 64, 128]),
    data_width=st.sampled_from([16, 32, 64]),
    max_hops=st.integers(min_value=2, max_value=10),
    port_bits=st.integers(min_value=2, max_value=4),
)


@st.composite
def header_strategy(draw, params):
    hops = draw(st.integers(min_value=0, max_value=params.max_hops))
    route = tuple(
        draw(st.integers(min_value=0, max_value=params.max_radix - 1))
        for _ in range(hops)
    )
    kind = draw(st.sampled_from(list(PacketKind)))
    burst = draw(st.integers(min_value=0 if kind.payload_beats(1) == 0 else 1,
                             max_value=min(8, params.max_burst)))
    if kind.payload_beats(burst) and burst == 0:
        burst = 1
    return PacketHeader(
        route=route,
        kind=kind,
        src_id=draw(st.integers(min_value=0, max_value=params.max_nodes - 1)),
        burst_len=burst,
        addr=draw(st.integers(min_value=0, max_value=(1 << ADDR_OFFSET_BITS) - 1)),
        thread_id=draw(st.integers(min_value=0, max_value=3)),
    )


@st.composite
def packet_strategy(draw):
    params = draw(params_strategy)
    header = draw(header_strategy(params))
    beats = header.kind.payload_beats(header.burst_len)
    payload = tuple(
        draw(st.integers(min_value=0, max_value=(1 << params.data_width) - 1))
        for _ in range(beats)
    )
    return params, Packet(header=header, payload=payload)


class TestBitChunkingProps:
    @given(
        value=st.integers(min_value=0),
        bits=st.integers(min_value=1, max_value=512),
        width=st.integers(min_value=1, max_value=128),
    )
    def test_decompose_recompose_roundtrip(self, value, bits, width):
        value %= 1 << bits
        chunks = decompose_bits(value, bits, width)
        assert recompose_bits(chunks, bits, width) == value
        assert len(chunks) == -(-bits // width)
        assert all(0 <= c < (1 << width) for c in chunks)


class TestHeaderProps:
    @given(data=st.data())
    def test_pack_unpack_roundtrip(self, data):
        params = data.draw(params_strategy)
        header = data.draw(header_strategy(params))
        packed = header.pack(params)
        assert 0 <= packed < (1 << PacketHeader.bit_width(params))
        out = PacketHeader.unpack(packed, params, route_len=len(header.route))
        assert out == header


class TestPacketizationProps:
    @given(packet_strategy())
    @settings(max_examples=150, deadline=None)
    def test_full_roundtrip(self, params_and_packet):
        params, packet = params_and_packet
        flits = Packetizer(params).decompose(packet)
        assert len(flits) == flits_per_transaction(params, len(packet.payload))
        # Deliver with the route fully consumed, as at the far NI.
        dp = Depacketizer(params)
        out = None
        for f in flits:
            if f.is_head:
                for _ in packet.header.route:
                    f = f.advance_route()
            result = dp.feed(f)
            if result is not None:
                out = result
        assert out is not None
        assert out.header == packet.header
        assert out.payload == packet.payload

    @given(packet_strategy())
    @settings(max_examples=60, deadline=None)
    def test_flit_framing_invariants(self, params_and_packet):
        params, packet = params_and_packet
        flits = Packetizer(params).decompose(packet)
        assert flits[0].is_head
        assert flits[-1].is_tail
        assert sum(1 for f in flits if f.is_head) == 1
        assert sum(1 for f in flits if f.is_tail) == 1
        assert [f.index for f in flits] == list(range(len(flits)))
        assert all(f.width == params.flit_width for f in flits)
        assert all(f.packet_id == packet.packet_id for f in flits)
