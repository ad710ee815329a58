"""Unit tests for the simulation kernel: wires, components, time."""

import pytest

from repro.sim.channel import Wire
from repro.sim.component import Component
from repro.sim.kernel import SimulationError, Simulator


class Driver(Component):
    """Drives a wire with the cycle number every tick."""

    def __init__(self, name, wire):
        super().__init__(name)
        self.wire = wire

    def tick(self, cycle):
        self.wire.drive(cycle)


class Sampler(Component):
    """Records what it sees on a wire each tick."""

    def __init__(self, name, wire):
        super().__init__(name)
        self.wire = wire
        self.seen = []

    def reset(self):
        self.seen = []

    def tick(self, cycle):
        self.seen.append(self.wire.value)


class TestWire:
    def test_initial_value_is_default(self):
        w = Wire("w", default=7)
        assert w.value == 7

    def test_drive_not_visible_until_update(self):
        w = Wire("w")
        w.drive(42)
        assert w.value is None
        w.update()
        assert w.value == 42

    def test_undriven_wire_decays_to_default(self):
        w = Wire("w", default=0)
        w.drive(5)
        w.update()
        assert w.value == 5
        w.update()  # nobody drove this cycle
        assert w.value == 0

    def test_last_drive_wins(self):
        w = Wire("w")
        w.drive(1)
        w.drive(2)
        w.update()
        assert w.value == 2

    def test_reset_restores_default(self):
        w = Wire("w", default="idle")
        w.drive("busy")
        w.update()
        w.reset()
        assert w.value == "idle"


class TestSimulator:
    def test_one_cycle_wire_latency(self, sim):
        w = sim.wire("w")
        sim.add(Driver("drv", w))
        sampler = sim.add(Sampler("smp", w))
        sim.run(3)
        # Value driven in cycle t is seen in cycle t+1.
        assert sampler.seen == [None, 0, 1]

    def test_component_order_does_not_matter(self):
        results = []
        for reverse in (False, True):
            sim = Simulator()
            w = sim.wire("w")
            comps = [Driver("drv", w), Sampler("smp", w)]
            if reverse:
                comps.reverse()
            for c in comps:
                sim.add(c)
            sim.run(4)
            sampler = sim.component("smp")
            results.append(list(sampler.seen))
        assert results[0] == results[1]

    def test_duplicate_component_name_rejected(self, sim):
        w = sim.wire("w")
        sim.add(Driver("x", w))
        with pytest.raises(SimulationError, match="duplicate component"):
            sim.add(Sampler("x", w))

    def test_duplicate_wire_name_rejected(self, sim):
        sim.wire("w")
        with pytest.raises(SimulationError, match="duplicate wire"):
            sim.wire("w")

    def test_component_lookup(self, sim):
        w = sim.wire("w")
        drv = sim.add(Driver("drv", w))
        assert sim.component("drv") is drv
        with pytest.raises(SimulationError, match="no component"):
            sim.component("nope")

    def test_cycle_counter_advances(self, sim):
        assert sim.cycle == 0
        sim.run(10)
        assert sim.cycle == 10

    def test_negative_cycle_count_rejected(self, sim):
        with pytest.raises(SimulationError, match="non-negative"):
            sim.run(-5)

    def test_zero_cycles_is_a_no_op(self, sim):
        sim.run(0)
        assert sim.cycle == 0

    def test_run_until_counts_cycles(self, sim):
        w = sim.wire("w")
        sampler = sim.add(Sampler("smp", w))
        spent = sim.run_until(lambda: sim.cycle >= 5)
        assert spent == 5

    def test_run_until_raises_on_timeout(self, sim):
        with pytest.raises(SimulationError, match="exceeded"):
            sim.run_until(lambda: False, max_cycles=10)

    def test_reset_restores_time_and_components(self, sim):
        w = sim.wire("w")
        sim.add(Driver("drv", w))
        sampler = sim.add(Sampler("smp", w))
        sim.run(5)
        sim.reset()
        assert sim.cycle == 0
        assert sampler.seen == []
        assert w.value is None

    def test_watchers_run_every_cycle(self, sim):
        calls = []
        sim.add_watcher(calls.append)
        sim.run(3)
        assert calls == [0, 1, 2]

    def test_flit_channel_names_wires(self, sim):
        ch = sim.flit_channel("lnk")
        assert ch.forward.name == "lnk.fwd"
        assert ch.backward.name == "lnk.bwd"

    def test_base_component_tick_is_abstract(self, sim):
        c = Component("raw")
        with pytest.raises(NotImplementedError):
            c.tick(0)
