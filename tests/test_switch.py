"""Unit tests for the 2-stage output-queued wormhole switch."""

import pytest

from tests.harness import FlitSink, FlitSource, packet_flits
from repro.core.config import ArbitrationPolicy, LinkConfig, NocParameters, SwitchConfig
from repro.core.link import Link
from repro.core.switch import Switch, SwitchProtocolError
from repro.sim.channel import AckKind
from repro.sim.kernel import KERNEL_MODES, Simulator


def make_switch_rig(
    n_in=2,
    n_out=2,
    buffer_depth=6,
    pipeline_stages=2,
    arbitration=ArbitrationPolicy.ROUND_ROBIN,
    link_cfg=None,
    window=7,
    kernel="compiled",
):
    """A switch with a FlitSource per input and a FlitSink per output,
    each connected through a Link (so timing matches real networks).
    Under ``kernel="compiled"`` the switch runs on its generated
    ``_sw_NxM`` lane (source and sink have no quiescence contract)."""
    sim = Simulator(kernel=kernel)
    cfg = SwitchConfig(
        n_inputs=n_in,
        n_outputs=n_out,
        buffer_depth=buffer_depth,
        pipeline_stages=pipeline_stages,
        arbitration=arbitration,
    )
    lcfg = link_cfg or LinkConfig()
    sources, sinks = [], []
    sw_in, sw_out = [], []
    for i in range(n_in):
        src_ch = sim.flit_channel(f"src{i}")
        in_ch = sim.flit_channel(f"in{i}")
        sim.add(Link(f"lin{i}", src_ch, in_ch, lcfg, seed=i))
        sources.append(sim.add(FlitSource(f"tx{i}", src_ch, window=window)))
        sw_in.append(in_ch)
    for o in range(n_out):
        out_ch = sim.flit_channel(f"out{o}")
        snk_ch = sim.flit_channel(f"snk{o}")
        sim.add(Link(f"lout{o}", out_ch, snk_ch, lcfg, seed=100 + o))
        sinks.append(sim.add(FlitSink(f"rx{o}", snk_ch)))
        sw_out.append(out_ch)
    switch = sim.add(Switch("sw", cfg, sw_in, sw_out, out_windows=window))
    return sim, switch, sources, sinks


class TestBasicRouting:
    def test_single_packet_routed_to_its_port(self):
        sim, sw, (tx0, tx1), (rx0, rx1) = make_switch_rig()
        tx0.submit(packet_flits(4, route=(1,)))
        sim.run(40)
        assert [f.index for f in rx1.got] == [0, 1, 2, 3]
        assert rx0.got == []

    def test_route_offset_advanced_once(self):
        sim, sw, (tx0, _), (rx0, rx1) = make_switch_rig()
        tx0.submit(packet_flits(2, route=(0,)))
        sim.run(40)
        head = rx0.got[0]
        assert head.route_offset == 1

    def test_two_streams_to_different_outputs_in_parallel(self):
        sim, sw, (tx0, tx1), (rx0, rx1) = make_switch_rig()
        tx0.submit(packet_flits(6, route=(0,), packet_id=1))
        tx1.submit(packet_flits(6, route=(1,), packet_id=2))
        sim.run(60)
        assert len(rx0.got) == 6 and len(rx1.got) == 6
        assert all(f.packet_id == 1 for f in rx0.got)
        assert all(f.packet_id == 2 for f in rx1.got)

    def test_min_latency_is_two_stages(self):
        """Input wire -> output wire takes exactly 2 switch cycles."""
        sim = Simulator()
        cfg = SwitchConfig(n_inputs=1, n_outputs=1, buffer_depth=4)
        in_ch = sim.flit_channel("in")
        out_ch = sim.flit_channel("out")
        sw = sim.add(Switch("sw", cfg, [in_ch], [out_ch], out_windows=7))
        flit = packet_flits(1, route=(0,))[0].with_seqno(0)
        in_ch.send(flit)
        # Cycle 0: flit latched onto the input wire.
        sim.step()
        assert out_ch.peek_flit() is None
        # Cycle 1: input stage accepts into the output queue.
        sim.step()
        assert out_ch.peek_flit() is None
        # Cycle 2: output stage transmits; visible on the wire next edge.
        sim.step()
        assert out_ch.peek_flit() is not None

    def test_bad_route_port_raises(self):
        sim, sw, (tx0, _), _ = make_switch_rig()
        tx0.submit(packet_flits(1, route=(5,)))
        with pytest.raises(SwitchProtocolError, match="output 5"):
            sim.run(20)

    def test_body_without_head_raises(self):
        sim = Simulator()
        cfg = SwitchConfig(n_inputs=1, n_outputs=1)
        in_ch = sim.flit_channel("in")
        out_ch = sim.flit_channel("out")
        sim.add(Switch("sw", cfg, [in_ch], [out_ch], out_windows=7))
        stray = packet_flits(3, route=(0,))[1].with_seqno(0)  # a BODY flit
        in_ch.send(stray)
        with pytest.raises(SwitchProtocolError, match="idle input"):
            sim.run(5)


class TestWormhole:
    kernel = "compiled"  # re-run under the other kernels below

    def test_packets_do_not_interleave_on_contended_output(self):
        sim, sw, (tx0, tx1), (rx0, _) = make_switch_rig(kernel=self.kernel)
        tx0.submit(packet_flits(5, route=(0,), packet_id=1))
        tx1.submit(packet_flits(5, route=(0,), packet_id=2))
        sim.run(120)
        got = rx0.got
        assert len(got) == 10
        # Wormhole: all flits of one packet before any of the other.
        first = got[0].packet_id
        switch_point = [f.packet_id for f in got].index(
            3 - first
        )  # the other id (1<->2)
        assert all(f.packet_id == first for f in got[:switch_point])
        assert all(f.packet_id != first for f in got[switch_point:])

    def test_output_lock_releases_after_tail(self):
        sim, sw, (tx0, tx1), (rx0, _) = make_switch_rig(kernel=self.kernel)
        tx0.submit(packet_flits(3, route=(0,), packet_id=1))
        sim.run(40)
        assert sw.outputs[0].locked_input is None
        tx1.submit(packet_flits(3, route=(0,), packet_id=2))
        sim.run(40)
        assert len(rx0.got) == 6

    def test_single_flit_packet_never_locks(self):
        sim, sw, (tx0, _), (rx0, _) = make_switch_rig(kernel=self.kernel)
        tx0.submit(packet_flits(1, route=(0,)))
        sim.run(10)
        assert sw.outputs[0].locked_input is None


class TestArbitration:
    kernel = "compiled"  # re-run under the other kernels below

    def test_round_robin_alternates_between_packet_streams(self):
        sim, sw, (tx0, tx1), (rx0, _) = make_switch_rig(kernel=self.kernel)
        for p in range(4):
            tx0.submit(packet_flits(2, route=(0,), packet_id=10 + p))
            tx1.submit(packet_flits(2, route=(0,), packet_id=20 + p))
        sim.run(400)
        ids = [f.packet_id for f in rx0.got if f.is_head]
        # Both inputs got served.
        assert any(i >= 20 for i in ids) and any(i < 20 for i in ids)
        assert len(rx0.got) == 16

    def test_fixed_priority_favours_input_zero(self):
        sim, sw, (tx0, tx1), (rx0, _) = make_switch_rig(
            arbitration=ArbitrationPolicy.FIXED_PRIORITY, kernel=self.kernel
        )
        for p in range(3):
            tx0.submit(packet_flits(2, route=(0,), packet_id=10 + p))
            tx1.submit(packet_flits(2, route=(0,), packet_id=20 + p))
        sim.run(400)
        heads = [f.packet_id for f in rx0.got if f.is_head]
        # All of input 0's packets complete before input 1's last one.
        assert heads.index(12) < heads.index(22)

    def test_conflicts_are_counted(self):
        sim, sw, (tx0, tx1), _ = make_switch_rig(kernel=self.kernel)
        tx0.submit(packet_flits(4, route=(0,), packet_id=1))
        tx1.submit(packet_flits(4, route=(0,), packet_id=2))
        sim.run(100)
        assert sw.allocation_conflicts > 0


class TestBackpressure:
    kernel = "compiled"  # re-run under the other kernels below

    def test_full_output_queue_nacks_upstream(self):
        # Sink gate closed: output queue fills, input flits get NACKed.
        sim = Simulator(kernel=self.kernel)
        cfg = SwitchConfig(n_inputs=1, n_outputs=1, buffer_depth=2)
        lcfg = LinkConfig()
        src_ch = sim.flit_channel("src")
        in_ch = sim.flit_channel("in")
        sim.add(Link("lin", src_ch, in_ch, lcfg, seed=0))
        tx = sim.add(FlitSource("tx", src_ch))
        out_ch = sim.flit_channel("out")
        snk_ch = sim.flit_channel("snk")
        sim.add(Link("lout", out_ch, snk_ch, lcfg, seed=1))
        gate = {"open": False}
        rx = sim.add(FlitSink("rx", snk_ch, accept=lambda f: gate["open"]))
        sw = sim.add(Switch("sw", cfg, [in_ch], [out_ch], out_windows=7))
        tx.submit(packet_flits(12, route=(0,)))
        sim.run(150)
        assert len(rx.got) == 0
        rejected_before = sw.receivers[0].rejected_flits
        assert rejected_before > 0  # queue filled and pushed back
        gate["open"] = True
        sim.run(600)
        assert [f.index for f in rx.got] == list(range(12))

    def test_no_flit_lost_or_duplicated_under_backpressure(self):
        sim, sw, (tx0, tx1), (rx0, _) = make_switch_rig(
            buffer_depth=2, kernel=self.kernel
        )
        tx0.submit(packet_flits(8, route=(0,), packet_id=1))
        tx1.submit(packet_flits(8, route=(0,), packet_id=2))
        sim.run(500)
        by_pkt = {1: [], 2: []}
        for f in rx0.got:
            by_pkt[f.packet_id].append(f.index)
        assert by_pkt[1] == list(range(8))
        assert by_pkt[2] == list(range(8))


# Every wormhole / arbitration / backpressure scenario above again under
# the other kernels: contended ticks execute the generated allocator
# under "compiled" and ``Switch._input_stage`` under the other two.
for _cls in (TestWormhole, TestArbitration, TestBackpressure):
    for _kernel in KERNEL_MODES:
        if _kernel != _cls.kernel:
            _name = f"{_cls.__name__}_{_kernel}"
            globals()[_name] = type(_name, (_cls,), {"kernel": _kernel})


@pytest.mark.parametrize("kernel", KERNEL_MODES)
class TestContendedTick:
    """One allocation tick with every input busy, state for state."""

    def rig(self, kernel, n_in, n_out):
        sim = Simulator(kernel=kernel)
        cfg = SwitchConfig(n_inputs=n_in, n_outputs=n_out)
        ins = [sim.flit_channel(f"in{i}") for i in range(n_in)]
        outs = [sim.flit_channel(f"out{o}") for o in range(n_out)]
        sw = sim.add(Switch("sw", cfg, ins, outs, out_windows=7))
        return sim, sw, ins

    def test_three_heads_one_output_plus_corrupt_and_stale(self, kernel):
        sim, sw, ins = self.rig(kernel, 5, 2)
        for i in range(3):
            head = packet_flits(3, route=(1,), packet_id=10 + i)[0]
            ins[i].send(head.with_seqno(0))
        ins[3].send(packet_flits(1, route=(0,), packet_id=13)[0].with_seqno(0).corrupt())
        ins[4].send(packet_flits(1, route=(0,), packet_id=14)[0].with_seqno(3))
        sim.run(2)  # latch onto the input wires, then the allocation tick
        acks = [ch.peek_ack() for ch in ins]
        assert [a.kind for a in acks] == [AckKind.ACK] + [AckKind.NACK] * 4
        assert [a.seqno for a in acks] == [0, 0, 0, 0, 3]
        rx = sw.receivers
        assert [r.accepted_flits for r in rx] == [1, 0, 0, 0, 0]
        assert [r.rejected_flits for r in rx] == [0, 1, 1, 0, 0]
        assert [r.corrupted_flits for r in rx] == [0, 0, 0, 1, 0]
        assert [r.out_of_order_flits for r in rx] == [0, 0, 0, 0, 1]
        assert [r._expected for r in rx] == [1, 0, 0, 0, 0]
        assert sw.allocation_conflicts == 2 and sw.flits_routed == 1
        assert sw.outputs[1].locked_input == 0 and sw._input_dest[0] == 1
        assert sw.outputs[0].locked_input is None
        assert [a._next for a in sw._arbiters] == [0, 1]
        (queued,) = sw.outputs[1].queue
        assert (queued.packet_id, queued.route_offset) == (10, 1)
        # The losers retry: round robin now starts at input 1, but the
        # wormhole lock holds the port for input 0's packet.
        ins[1].send(packet_flits(3, route=(1,), packet_id=11)[0].with_seqno(0))
        ins[0].send(packet_flits(3, route=(1,), packet_id=10)[1].with_seqno(1))
        sim.run(2)
        assert ins[0].peek_ack().kind is AckKind.ACK
        assert ins[1].peek_ack().kind is AckKind.NACK
        assert sw.allocation_conflicts == 3 and sw.flits_routed == 2

    @pytest.mark.parametrize("contended", [False, True])
    def test_negative_route_hop_raises(self, kernel, contended):
        # route=(-1,) once livelocked the reference loop (nACKed forever)
        # and was delivered to the *last* output by the generated lane.
        sim, sw, ins = self.rig(kernel, 2, 2)
        if contended:
            ins[0].send(packet_flits(1, route=(0,), packet_id=1)[0].with_seqno(0))
        ins[1].send(packet_flits(1, route=(-1,), packet_id=2)[0].with_seqno(0))
        with pytest.raises(SwitchProtocolError, match="output -1"):
            sim.run(3)
        assert sw.flits_routed == 0


class TestDeepPipeline:
    def test_seven_stage_mode_delivers(self):
        sim, sw, (tx0, _), (rx0, _) = make_switch_rig(pipeline_stages=7)
        tx0.submit(packet_flits(5, route=(0,)))
        sim.run(120)
        assert [f.index for f in rx0.got] == list(range(5))

    def test_seven_stage_mode_is_slower(self):
        def first_arrival(stages):
            sim, sw, (tx0, _), (rx0, _) = make_switch_rig(pipeline_stages=stages)
            tx0.submit(packet_flits(1, route=(0,)))
            cyc = 0
            while not rx0.got and cyc < 100:
                sim.step()
                cyc += 1
            return cyc

        assert first_arrival(7) == first_arrival(2) + 5

    def test_deep_pipeline_backpressure_safe(self):
        sim, sw, (tx0, tx1), (rx0, _) = make_switch_rig(
            pipeline_stages=5, buffer_depth=2
        )
        tx0.submit(packet_flits(6, route=(0,), packet_id=1))
        tx1.submit(packet_flits(6, route=(0,), packet_id=2))
        sim.run(800)
        assert len(rx0.got) == 12


class TestConstruction:
    def test_channel_count_mismatch_rejected(self):
        sim = Simulator()
        cfg = SwitchConfig(n_inputs=2, n_outputs=2)
        chans = [sim.flit_channel(f"c{i}") for i in range(3)]
        with pytest.raises(ValueError, match="inputs configured"):
            Switch("sw", cfg, chans[:1], chans[1:3])

    def test_reset_clears_everything(self):
        sim, sw, (tx0, _), (rx0, _) = make_switch_rig()
        tx0.submit(packet_flits(4, route=(0,)))
        sim.run(30)
        sim.reset()
        assert sw.flits_routed == 0
        assert sw.outputs[0].queue.is_empty
        assert sw.outputs[0].locked_input is None
