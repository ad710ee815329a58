"""Ablation A5 -- error-detection fidelity: no CRC vs CRC-8 vs CRC-16.

The abstract error model assumes perfect detection; this ablation runs
the bit-accurate mode (real payload bit flips, real CRC codecs) and
measures what detection strength actually buys: the silent-corruption
rate of the delivered stream.

Shape claims: without a CRC every injected flip is delivered silently;
CRC-8 catches essentially all single/double-bit flips at these widths
(residual rate ~2^-8 per corrupted flit, usually zero at this sample
size); CRC-16 is at least as strong.  Detection costs retransmissions,
which grow with the protection level actually exercised.
"""

from benchmarks._common import emit

from repro.core.config import LinkConfig
from repro.core.crc import CRC16_CCITT, CRC8_ATM, CrcCodec
from repro.core.flit import Flit, flit_type_for
from repro.core.flow_control import window_for_link
from repro.core.link import Link
from repro.sim.kernel import Simulator
from tests.harness import FlitSink, FlitSource

N_FLITS = 400
BER = 0.08
WIDTH = 32


def stream():
    return [
        Flit(
            ftype=flit_type_for(i, N_FLITS),
            payload=(i * 2654435761) % (1 << WIDTH),
            width=WIDTH,
            index=i,
        )
        for i in range(N_FLITS)
    ]


def run_codec(codec):
    sim = Simulator()
    cfg = LinkConfig(stages=1, error_rate=BER, bit_errors=True)
    up = sim.flit_channel("up")
    down = sim.flit_channel("down")
    link = sim.add(Link("l", up, down, cfg, seed=23))
    tx = FlitSource("tx", up, window=window_for_link(1))
    tx.sender.codec = codec
    rx = FlitSink("rx", down)
    rx.receiver.codec = codec
    sim.add(tx)
    sim.add(rx)
    sent = stream()
    tx.submit(list(sent))
    sim.run(60_000)
    silent = sum(
        1 for got, want in zip(rx.got, sent) if got.payload != want.payload
    )
    return {
        "delivered": len(rx.got),
        "silent": silent,
        "detected": rx.receiver.corrupted_flits,
        "injected": link.errors_injected,
    }


def rows(runner):
    results = {
        "none": run_codec(None),
        "crc8": run_codec(CrcCodec(WIDTH, width=8, poly=CRC8_ATM)),
        "crc16": run_codec(CrcCodec(WIDTH, width=16, poly=CRC16_CCITT)),
    }
    lines = [
        f"A5: error-detection fidelity ({N_FLITS} flits, BER={BER}, bit-accurate)",
        f"{'codec':<7} {'delivered':>10} {'silent bad':>11} {'detected':>9} "
        f"{'injected':>9}",
    ]
    for name, r in results.items():
        lines.append(
            f"{name:<7} {r['delivered']:>10} {r['silent']:>11} "
            f"{r['detected']:>9} {r['injected']:>9}"
        )
    return lines, (results,)


def check_shape(results):
    none, crc8, crc16 = results["none"], results["crc8"], results["crc16"]
    for r in results.values():
        assert r["delivered"] == N_FLITS
    # No CRC: every corruption lands silently, nothing detected.
    assert none["detected"] == 0
    assert none["silent"] > 10
    # CRC-8 catches (essentially) everything at 1-2 bit flips.
    assert crc8["detected"] > 0
    assert crc8["silent"] <= none["silent"] // 10
    # CRC-16 at least as strong.
    assert crc16["silent"] <= crc8["silent"]
    assert crc16["detected"] > 0


def main(runner):
    lines, data = rows(runner)
    emit("a5_crc_fidelity", lines)
    check_shape(*data)
