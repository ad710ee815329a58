"""Unit tests for event tracing."""

import io

from repro.sim.component import Component
from repro.sim.kernel import KERNEL_MODES, Simulator
from repro.sim.trace import NullTracer, TextTracer


class Chatty(Component):
    def tick(self, cycle):
        self.trace(cycle, "tick", value=cycle * 2)


class TestTextTracer:
    def test_records_events_with_fields(self):
        tracer = TextTracer()
        sim = Simulator(tracer)
        sim.add(Chatty("c"))
        sim.run(3)
        assert len(tracer.events) == 3
        cycle, source, event, fields = tracer.events[0]
        assert (cycle, source, event) == (0, "c", "tick")
        assert fields == {"value": 0}

    def test_filtering(self):
        tracer = TextTracer()
        sim = Simulator(tracer)
        sim.add(Chatty("a"))
        sim.add(Chatty("b"))
        sim.run(2)
        assert len(tracer.of(source="a")) == 2
        assert len(tracer.of(event="tick")) == 4
        assert tracer.of(source="zzz") == []

    def test_stream_output(self):
        buf = io.StringIO()
        tracer = TextTracer(stream=buf)
        sim = Simulator(tracer)
        sim.add(Chatty("core"))
        sim.run(1)
        assert "core" in buf.getvalue()
        assert "value=0" in buf.getvalue()

    def test_limit_caps_memory(self):
        tracer = TextTracer(limit=5)
        sim = Simulator(tracer)
        sim.add(Chatty("c"))
        sim.run(100)
        assert len(tracer.events) == 5

    def test_null_tracer_discards(self):
        tracer = NullTracer()
        sim = Simulator(tracer)
        sim.add(Chatty("c"))
        sim.run(5)  # must simply not blow up

    def test_component_without_sim_traces_silently(self):
        c = Chatty("orphan")
        c.tick(0)  # no simulator bound; trace is a no-op


class TestGoldenFormat:
    """The text stream format is an interface: tools parse these lines."""

    def test_stream_lines_match_golden(self):
        buf = io.StringIO()
        tracer = TextTracer(stream=buf)
        sim = Simulator(tracer)
        sim.add(Chatty("core0"))
        sim.run(2)
        golden = (
            "[       0] core0                    tick             value=0\n"
            "[       1] core0                    tick             value=2\n"
        )
        assert buf.getvalue() == golden

    def test_multiple_fields_space_separated_in_order(self):
        class Multi(Component):
            def tick(self, cycle):
                self.trace(cycle, "hop", pkt=7, wait=cycle)

        buf = io.StringIO()
        tracer = TextTracer(stream=buf)
        sim = Simulator(tracer)
        sim.add(Multi("sw"))
        sim.run(1)
        assert buf.getvalue().rstrip().endswith("pkt=7 wait=0")


class TestMidRunAttach:
    # A swap is a structural event for the generated loop (lanes are
    # chosen per tracer type), so each case runs under every mode.
    def test_tracer_attached_mid_run_sees_only_later_events(self):
        for kernel in KERNEL_MODES:
            sim = Simulator(kernel=kernel)  # starts with the NullTracer
            sim.add(Chatty("c"))
            sim.run(3)
            tracer = TextTracer()
            sim.tracer = tracer
            sim.run(2)
            assert [e[0] for e in tracer.events] == [3, 4], kernel
            assert tracer.events[0][3] == {"value": 6}

    def test_tracer_swap_back_to_null(self):
        for kernel in KERNEL_MODES:
            tracer = TextTracer()
            sim = Simulator(tracer, kernel=kernel)
            sim.add(Chatty("c"))
            sim.run(2)
            sim.tracer = NullTracer()
            sim.run(5)
            assert len(tracer.events) == 2, kernel
