"""Coverage for smaller surfaces: windows lists, tracers, bus reset."""

import pytest

from repro.bus import SharedBus
from repro.core.config import SwitchConfig
from repro.core.crc import codec_for_flit_width
from repro.core.switch import Switch
from repro.network.noc import Noc
from repro.network.topology import attach_round_robin, mesh
from repro.network.traffic import ScriptedTraffic, TxnTemplate, UniformRandomTraffic
from repro.sim.kernel import Simulator
from repro.sim.trace import TextTracer
from tests.harness import FlitSink, FlitSource, packet_flits


class TestSwitchVariants:
    def test_per_output_window_list(self):
        sim = Simulator()
        cfg = SwitchConfig(n_inputs=1, n_outputs=2)
        ins = [sim.flit_channel("i0")]
        outs = [sim.flit_channel("o0"), sim.flit_channel("o1")]
        sw = Switch("sw", cfg, ins, outs, out_windows=[5, 9])
        assert sw.outputs[0].sender.window == 5
        assert sw.outputs[1].sender.window == 9

    def test_codec_threads_into_fsms(self):
        sim = Simulator()
        cfg = SwitchConfig(n_inputs=1, n_outputs=1)
        codec = codec_for_flit_width(32)
        sw = Switch(
            "sw", cfg, [sim.flit_channel("i")], [sim.flit_channel("o")],
            out_windows=7, codec=codec,
        )
        assert sw.receivers[0].codec is codec
        assert sw.outputs[0].sender.codec is codec

    def test_direct_connection_without_links(self):
        """Switches can be wired channel-to-channel (no Link component)
        for unit rigs; the protocol still works at 1-cycle wires."""
        sim = Simulator()
        cfg = SwitchConfig(n_inputs=1, n_outputs=1)
        in_ch = sim.flit_channel("in")
        out_ch = sim.flit_channel("out")
        sim.add(Switch("sw", cfg, [in_ch], [out_ch], out_windows=7))
        tx = sim.add(FlitSource("tx", in_ch))
        rx = sim.add(FlitSink("rx", out_ch))
        tx.submit(packet_flits(4, route=(0,)))
        sim.run(40)
        assert [f.index for f in rx.got] == [0, 1, 2, 3]


class TestNocTracer:
    def test_switch_routing_events_traced(self):
        topo = mesh(1, 2)
        topo.add_initiator("cpu")
        topo.add_target("mem")
        topo.attach("cpu", "sw_0_0")
        topo.attach("mem", "sw_1_0")
        tracer = TextTracer()
        noc = Noc(topo, tracer=tracer)
        noc.add_traffic_master(
            "cpu",
            ScriptedTraffic([(0, TxnTemplate("mem", is_read=True))]),
            max_transactions=1,
        )
        noc.add_memory_slave("mem")
        noc.run_until_drained(max_cycles=100_000)
        assert tracer.of(event="route")  # switches narrated their work
        assert tracer.of(event="issue")  # the NI narrated the OCP issue


class TestBusReset:
    def test_bus_reset_replays_identically(self):
        def run(bus):
            bus.run_until_drained()
            return (bus.total_completed(), sorted(bus.aggregate_latency().samples))

        bus = SharedBus(["cpu0", "cpu1"], ["mem0"])
        for i, m in enumerate(["cpu0", "cpu1"]):
            bus.add_traffic_master(
                m, UniformRandomTraffic(["mem0"], 0.2, seed=i), max_transactions=10
            )
        bus.add_memory_slave("mem0")
        first = run(bus)
        bus.sim.reset()
        assert run(bus) == first
