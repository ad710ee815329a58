"""Credit-based flow control: FSMs, the input-buffered switch, and
the whole-NoC credit mode."""

import pytest

from repro.core.config import LinkConfig, SwitchConfig
from repro.core.credit import (
    CreditProtocolError,
    CreditReceiver,
    CreditSender,
    CreditToken,
)
from repro.core.credit_switch import InputBufferedSwitch
from repro.core.flit import Flit, FlitType
from repro.core.link import Link
from repro.network.noc import Noc, NocBuildConfig
from repro.network.scoreboard import (
    add_checked_masters,
    assert_all_clean,
    private_stripe_patterns,
)
from repro.network.topology import attach_round_robin, mesh
from repro.sim.kernel import Simulator
from tests.harness import packet_flits


def flit(payload=1):
    return Flit(ftype=FlitType.HEAD_TAIL, payload=payload, width=8)


class TestCreditSender:
    def test_spends_and_recovers_credits(self, sim):
        ch = sim.flit_channel("c")
        tx = CreditSender(ch, capacity=2)
        assert tx.credits == 2
        tx.enqueue(flit())
        assert tx.credits == 1
        tx.on_cycle()
        sim.step()
        assert ch.peek_flit() is not None
        ch.send_ack(CreditToken(1))
        sim.step()
        tx.on_cycle()
        assert tx.credits == 2

    def test_blocks_without_credit(self, sim):
        ch = sim.flit_channel("c")
        tx = CreditSender(ch, capacity=1)
        tx.enqueue(flit())
        assert not tx.can_accept()
        with pytest.raises(CreditProtocolError, match="without a credit"):
            tx.enqueue(flit())

    def test_credit_overflow_detected(self, sim):
        ch = sim.flit_channel("c")
        tx = CreditSender(ch, capacity=1)
        ch.send_ack(CreditToken(1))
        sim.step()
        with pytest.raises(CreditProtocolError, match="overflow"):
            tx.on_cycle()

    def test_idle_property(self, sim):
        ch = sim.flit_channel("c")
        tx = CreditSender(ch, capacity=2)
        assert tx.idle
        tx.enqueue(flit())
        assert not tx.idle and tx.in_flight == 1

    def test_capacity_validated(self, sim):
        with pytest.raises(ValueError):
            CreditSender(sim.flit_channel("c"), capacity=0)


class TestCreditReceiver:
    def test_poll_and_grant(self, sim):
        ch = sim.flit_channel("c")
        rx = CreditReceiver(ch)
        ch.send(flit(7))
        sim.step()
        got = rx.poll()
        assert got is not None and got.payload == 7
        rx.grant()
        rx.on_cycle()
        sim.step()
        assert ch.peek_ack() == CreditToken(1)

    def test_grants_batch_into_one_token(self, sim):
        ch = sim.flit_channel("c")
        rx = CreditReceiver(ch)
        rx.grant(2)
        rx.grant(1)
        rx.on_cycle()
        sim.step()
        assert ch.peek_ack() == CreditToken(3)

    def test_corrupted_flit_is_fatal(self, sim):
        ch = sim.flit_channel("c")
        rx = CreditReceiver(ch)
        ch.send(flit().corrupt())
        sim.step()
        with pytest.raises(CreditProtocolError, match="reliable links"):
            rx.poll()


class TestInputBufferedSwitch:
    def make_rig(self, n_in=2, n_out=2, depth=4):
        sim = Simulator()
        cfg = SwitchConfig(n_inputs=n_in, n_outputs=n_out, buffer_depth=depth)
        ins = [sim.flit_channel(f"i{i}") for i in range(n_in)]
        outs = [sim.flit_channel(f"o{i}") for i in range(n_out)]
        sw = sim.add(InputBufferedSwitch("sw", cfg, ins, outs, out_capacities=4))
        txs = [CreditSender(ch, capacity=depth, name=f"tx{i}")
               for i, ch in enumerate(ins)]
        rxs = [CreditReceiver(ch, name=f"rx{i}") for i, ch in enumerate(outs)]
        return sim, sw, txs, rxs

    def run_stream(self, sim, txs, rxs, streams, cycles=200):
        got = {o: [] for o in range(len(rxs))}
        queues = {i: list(fs) for i, fs in streams.items()}
        for _ in range(cycles):
            for i, tx in enumerate(txs):
                if queues.get(i) and tx.can_accept():
                    tx.enqueue(queues[i].pop(0))
                tx.on_cycle()
            for o, rx in enumerate(rxs):
                f = rx.poll()
                if f is not None:
                    got[o].append(f)
                    rx.grant()
                rx.on_cycle()
            sim.step()
        return got

    def test_routes_and_preserves_order(self):
        sim, sw, txs, rxs = self.make_rig()
        streams = {0: packet_flits(5, route=(1,), packet_id=1)}
        got = self.run_stream(sim, txs, rxs, streams)
        assert [f.index for f in got[1]] == list(range(5))
        assert got[0] == []

    def test_wormhole_no_interleave(self):
        sim, sw, txs, rxs = self.make_rig()
        streams = {
            0: packet_flits(4, route=(0,), packet_id=1),
            1: packet_flits(4, route=(0,), packet_id=2),
        }
        got = self.run_stream(sim, txs, rxs, streams)
        assert len(got[0]) == 8
        first = got[0][0].packet_id
        ids = [f.packet_id for f in got[0]]
        cut = ids.index(3 - first)
        assert all(i == first for i in ids[:cut])

    def test_backpressure_without_loss(self):
        """Stalled consumer: credits throttle the stream; nothing drops."""
        sim, sw, txs, rxs = self.make_rig()
        streams = {0: packet_flits(12, route=(0,), packet_id=1)}
        got = {0: [], 1: []}
        queues = {0: list(streams[0])}
        held = 0
        for cyc in range(400):
            if queues[0] and txs[0].can_accept():
                txs[0].enqueue(queues[0].pop(0))
            txs[0].on_cycle()
            txs[1].on_cycle()
            for o, rx in enumerate(rxs):
                f = rx.poll()
                if f is not None:
                    got[o].append(f)
                    if o == 0 and cyc < 100:
                        held += 1  # consumer asleep: credits withheld
                    else:
                        rx.grant()
                rx.on_cycle()
            if cyc == 100 and held:
                rxs[0].grant(held)  # consumer wakes and drains its buffer
                held = 0
            sim.step()
        # The stall capped in-flight flits at the credit pool...
        assert len(got[0]) == 12
        # ...and delivery stayed exactly-once, in order.
        assert [f.index for f in got[0]] == list(range(12))

    @pytest.mark.parametrize("hop", [2, -1])
    def test_route_hop_outside_the_outputs_raises(self, hop):
        # A negative hop used to match no output and block the input forever.
        sim, sw, txs, rxs = self.make_rig()
        streams = {0: packet_flits(2, route=(hop,))}
        with pytest.raises(CreditProtocolError, match=f"output {hop}"):
            self.run_stream(sim, txs, rxs, streams, cycles=20)

    def test_deep_pipeline_rejected(self):
        sim = Simulator()
        cfg = SwitchConfig(n_inputs=1, n_outputs=1, pipeline_stages=7)
        with pytest.raises(ValueError, match="2-stage"):
            InputBufferedSwitch(
                "sw", cfg, [sim.flit_channel("i")], [sim.flit_channel("o")], 4
            )


class TestCreditNoc:
    def test_checked_traffic_drains(self):
        topo = mesh(2, 2)
        cpus, mems = attach_round_robin(topo, 2, 2)
        noc = Noc(topo, NocBuildConfig(flow_control="credit"))
        patterns = private_stripe_patterns(cpus, mems, rate=0.15, seed=6)
        masters = add_checked_masters(noc, patterns, max_transactions=25)
        for m in mems:
            noc.add_memory_slave(m)
        noc.run_until_drained(max_cycles=500_000)
        assert noc.total_completed() == 50
        assert_all_clean(masters)
        assert noc.total_retransmissions() == 0

    def test_error_injection_rejected(self):
        topo = mesh(2, 2)
        attach_round_robin(topo, 1, 1)
        with pytest.raises(ValueError, match="reliable links"):
            Noc(topo, NocBuildConfig(
                flow_control="credit", link=LinkConfig(error_rate=0.01)
            ))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown flow_control"):
            NocBuildConfig(flow_control="psychic")

    def test_credit_latency_competitive_at_low_load(self):
        def mean(mode):
            topo = mesh(2, 2)
            cpus, mems = attach_round_robin(topo, 2, 2)
            noc = Noc(topo, NocBuildConfig(flow_control=mode))
            from repro.network.traffic import UniformRandomTraffic

            noc.populate(
                {c: UniformRandomTraffic(mems, 0.02, seed=i)
                 for i, c in enumerate(cpus)},
                max_transactions=20,
            )
            noc.run_until_drained(max_cycles=500_000)
            return noc.aggregate_latency().mean()

        assert mean("credit") == pytest.approx(mean("ack_nack"), rel=0.25)

    def test_credit_mode_with_pipelined_links(self):
        """Deep links stretch the credit return loop; correctness holds
        (throughput throttles until credits complete the round trip)."""
        topo = mesh(2, 2)
        cpus, mems = attach_round_robin(topo, 2, 2)
        noc = Noc(topo, NocBuildConfig(
            flow_control="credit", link=LinkConfig(stages=3)
        ))
        from repro.network.traffic import UniformRandomTraffic

        noc.populate(
            {c: UniformRandomTraffic(mems, 0.1, seed=i) for i, c in enumerate(cpus)},
            max_transactions=20,
        )
        noc.run_until_drained(max_cycles=1_000_000)
        assert noc.total_completed() == 40

    def test_credit_mode_deterministic_reset(self):
        topo = mesh(2, 2)
        cpus, mems = attach_round_robin(topo, 2, 2)
        noc = Noc(topo, NocBuildConfig(flow_control="credit"))
        from repro.network.traffic import UniformRandomTraffic

        noc.populate(
            {c: UniformRandomTraffic(mems, 0.1, seed=i) for i, c in enumerate(cpus)},
            max_transactions=15,
        )
        noc.run_until_drained(max_cycles=500_000)
        first = (noc.sim.cycle, sorted(noc.aggregate_latency().samples))
        noc.sim.reset()
        noc.run_until_drained(max_cycles=500_000)
        assert (noc.sim.cycle, sorted(noc.aggregate_latency().samples)) == first


class TestFlowControlDifferential:
    """ack_nack and credit are different link layers over the same
    routing fabric.  With reliable links and no queueing contention
    (one transaction in flight per master), neither layer should cost
    a cycle over the other: the same seeded traffic must see the
    identical latency sample set, transaction for transaction.  (Under
    contention the two genuinely diverge -- NACK storms vs credit
    stalls resolve conflicts differently -- which bench A10 measures.)
    """

    @pytest.mark.parametrize("rate", [0.02, 0.05])
    def test_identical_latency_contention_free(self, rate):
        from repro.network.traffic import UniformRandomTraffic

        results = {}
        for fc in ("ack_nack", "credit"):
            topo = mesh(2, 2)
            cpus, mems = attach_round_robin(topo, 2, 2)
            noc = Noc(topo, NocBuildConfig(flow_control=fc))
            noc.populate(
                {
                    c: UniformRandomTraffic(mems, rate, seed=i)
                    for i, c in enumerate(cpus)
                },
                max_outstanding=1,
            )
            noc.run(4000)
            results[fc] = (
                noc.total_completed(),
                sorted(noc.aggregate_latency().samples),
            )
        assert results["ack_nack"][0] > 0
        assert results["ack_nack"] == results["credit"]

    def test_credit_mode_rejects_resync_timeout(self):
        topo = mesh(2, 2)
        attach_round_robin(topo, 2, 2)
        with pytest.raises(ValueError, match="resync"):
            Noc(topo, NocBuildConfig(
                flow_control="credit", link_resync_timeout=40
            ))
