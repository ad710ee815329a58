"""The protocol's promises as executable invariants (first slice).

Cross-kernel digest equality proves the kernels *agree*; it cannot say
they are *right* -- since every measurement runs on the generated
program, ``"compiled"`` vs ``"fast"`` compares one lane library with
itself.  This oracle states what the paper's architecture promises,
independently of any kernel, and checks it after every switch and NI
tick:

* **wormhole non-interleaving** -- the flits entering one output queue
  form ``H B* T | HT`` runs of a single packet, and the port is locked
  exactly while a run is open;
* **in-order exactly-once per link** -- a receiver's ``_expected``
  advances by one per accepted flit and only for the clean flit whose
  ``seqno == _expected``, across go-back-N rewinds;
* **window bounds** -- ``0 <= _send_ptr <= len(_buffer) <= window`` and
  the retransmission buffer holds consecutive sequence numbers;
* **conservation** -- at drain, every flit injected at a source NI was
  ejected exactly once, in order, at the NI its source route names.

It is installed through ``Simulator.set_profiler`` (the hook is
duck-typed on ``_install``), so components *keep* their specialized
lanes; ``add_probe`` would move them to ``generic`` and the generated
allocator would go unchecked.
"""

from collections import Counter

import pytest

from repro.core.ni import InitiatorNI, TargetNI
from repro.core.switch import Switch
from repro.faults import FaultInjector, FaultWindow
from repro.network.experiments import TopologyNocBuilder
from repro.network.noc import NocBuildConfig
from repro.network.topology import mesh
from repro.network.traffic import UniformRandomTraffic


class ProtocolOracle:
    def __init__(self, noc):
        self.noc = noc
        self.lane_map = {}
        #: NI component -> its topology name
        self.ni_names = {
            ni: name
            for name, ni in {**noc.initiator_nis, **noc.target_nis}.items()
        }
        self.checks = 0
        #: packet id -> [source NI, NI its route leads to, flits injected]
        self.injected = {}
        #: packet id -> [ejecting NI, flits ejected]
        self.ejected = {}

    # -- the set_profiler hook ---------------------------------------------
    def _install(self, sim, TH, lane_map):
        self.lane_map = dict(lane_map)
        for comp, thunk in list(TH.items()):
            checks = self._checks_for(comp)
            if checks:
                def wrapped(cyc, nxt, _t=thunk, _checks=checks, _name=comp.name):
                    _t(cyc, nxt)
                    self.checks += 1
                    for check in _checks:
                        check(f"{_name} @ cycle {cyc}")
                TH[comp] = wrapped
        return TH

    def _checks_for(self, comp):
        if type(comp) is Switch:
            checks = [self._receiver(r) for r in comp.receivers]
            for port in comp.outputs:
                checks.append(self._sender(port.sender))
                checks.append(self._output_queue(port))
            return checks
        if type(comp) in (InitiatorNI, TargetNI):
            ni = self.ni_names[comp]
            return [
                self._receiver(comp.rx, lambda f: self._eject(ni, f)),
                self._sender(comp.tx.sender, lambda f: self._inject(ni, f)),
            ]
        return []

    # -- per-link: in-order, exactly once -----------------------------------
    def _receiver(self, r, on_accept=None):
        seen = [r._expected, r.accepted_flits]

        def check(where):
            accepted = r.accepted_flits - seen[1]
            assert accepted in (0, 1), f"{where}: {r.name} took {accepted} flits"
            assert r._expected - seen[0] == accepted, (
                f"{where}: {r.name}._expected moved {r._expected - seen[0]} "
                f"for {accepted} accepted flit(s)"
            )
            if accepted:
                flit = r.channel.peek_flit()
                assert flit is not None and not flit.corrupted, f"{where}: {r.name}"
                assert flit.seqno == seen[0], (
                    f"{where}: {r.name} accepted seq {flit.seqno}, expected {seen[0]}"
                )
                seen[0] += 1
                seen[1] += 1
                if on_accept is not None:
                    on_accept(flit)

        return check

    def _sender(self, s, on_stamp=None):
        seen = [s._next_seqno]

        def check(where):
            buf = s._buffer
            assert 0 <= s._send_ptr <= len(buf) <= s.window, (
                f"{where}: {s.name} ptr={s._send_ptr} fill={len(buf)} window={s.window}"
            )
            first = s._next_seqno - len(buf)
            assert [f.seqno for f in buf] == list(range(first, s._next_seqno)), (
                f"{where}: {s.name} buffer is not a run of sequence numbers"
            )
            stamped = s._next_seqno - seen[0]
            assert stamped in (0, 1), f"{where}: {s.name} stamped {stamped} flits"
            if stamped:
                seen[0] += 1
                if on_stamp is not None:
                    on_stamp(buf[-1])

        return check

    # -- per output port: wormhole ------------------------------------------
    def _output_queue(self, port):
        seen = {"out": port.flits_out, "len": len(port.queue), "open": None, "index": -1}

        def check(where):
            popped = port.flits_out - seen["out"]
            pushed = len(port.queue) - (seen["len"] - popped)
            assert popped in (0, 1) and pushed in (0, 1), (
                f"{where}: {port.queue.name} popped {popped}, pushed {pushed}"
            )
            assert len(port.queue) <= port.queue.depth, f"{where}: {port.queue.name}"
            seen["out"] = port.flits_out
            seen["len"] = len(port.queue)
            if pushed:
                flit = list(port.queue)[-1]
                if flit.is_head:
                    assert seen["open"] is None and flit.index == 0, (
                        f"{where}: {flit!r} entered {port.queue.name} inside "
                        f"packet {seen['open']}"
                    )
                else:
                    assert (seen["open"], seen["index"] + 1) == (flit.packet_id, flit.index), (
                        f"{where}: {flit!r} entered {port.queue.name} after "
                        f"packet {seen['open']} flit {seen['index']}"
                    )
                seen["open"] = None if flit.is_tail else flit.packet_id
                seen["index"] = flit.index
            assert (port.locked_input is None) == (seen["open"] is None), (
                f"{where}: {port.queue.name} lock={port.locked_input} "
                f"with packet {seen['open']} open"
            )

        return check

    # -- end to end: conservation ---------------------------------------------
    def _destination(self, ni, route):
        """The NI a source route from ``ni`` leads to."""
        topo = self.noc.topology
        at = topo.switch_of(ni)
        for hop in route:
            at = topo.ports_of(at)[hop]
        return at

    def _inject(self, ni, flit):
        if flit.is_head:
            assert flit.packet_id not in self.injected, f"{flit!r} injected twice"
            self.injected[flit.packet_id] = [ni, self._destination(ni, flit.route), 0]
        row = self.injected[flit.packet_id]
        assert (row[0], row[2]) == (ni, flit.index), f"{flit!r} injected at {ni}: {row}"
        row[2] += 1

    def _eject(self, ni, flit):
        row = self.ejected.setdefault(flit.packet_id, [ni, 0])
        assert (row[0], row[1]) == (ni, flit.index), f"{flit!r} ejected at {ni}: {row}"
        row[1] += 1

    def check_drained(self):
        """Flits injected == flits ejected per (source, destination)."""
        assert set(self.injected) == set(self.ejected)
        sent, received = Counter(), Counter()
        for pid, (src, dst, n) in self.injected.items():
            at, m = self.ejected[pid]
            assert (at, m) == (dst, n), (
                f"packet {pid}: {n} flits {src}->{dst}, {m} arrived at {at}"
            )
            sent[src, dst] += n
            received[src, at] += m
        assert sent == received and sum(sent.values()) > 0
        return sent


QUOTA = 100  # transactions per master: ~1200 saturated cycles, then a drain


def saturated_noc(kernel, faulted):
    """The ledger's ``sim_saturated`` operating point: 4x4 mesh, 8 + 8
    cores, rate 0.4 -- optionally with an error burst on every link
    leaving a central switch."""
    noc = TopologyNocBuilder(
        mesh, (4, 4), n_initiators=8, n_targets=8,
        config=NocBuildConfig(kernel=kernel),
    )()
    if faulted:
        FaultInjector(noc, (
            FaultWindow("link.sw_1_1.*", start=200, duration=400, error_rate=0.2),
        ))
    noc.populate(
        {
            c: UniformRandomTraffic(noc.topology.targets, 0.4, seed=11 + 17 * k)
            for k, c in enumerate(noc.topology.initiators)
        },
        max_outstanding=4,
        max_transactions=QUOTA,
    )
    oracle = ProtocolOracle(noc)
    noc.sim.set_profiler(oracle)
    return noc, oracle


@pytest.mark.timeout_guard(300)
@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "fault-window"])
@pytest.mark.parametrize("kernel", ["compiled", "fast"])
def test_invariants_hold_at_saturation(kernel, faulted):
    noc, oracle = saturated_noc(kernel, faulted)
    noc.run(1000)
    # The regime the invariants are for: contention, nACKs, rewinds.
    assert sum(sw.allocation_conflicts for sw in noc.switches.values()) > 100
    assert noc.total_retransmissions() > 100
    assert noc.total_errors_injected() > 0 if faulted else True
    lanes = {oracle.lane_map[name] for name in noc.switches}
    assert lanes == ({"switch"} if kernel == "compiled" else {"generic"})
    noc.run_until_drained(max_cycles=20_000)
    assert noc.total_completed() == QUOTA * len(noc.masters)
    pairs = oracle.check_drained()
    assert len(pairs) > len(noc.masters)  # requests and responses both
    assert oracle.checks > 10_000


def test_the_oracle_can_fail():
    # A checker that cannot fail proves nothing: skip one sequence
    # number on a busy switch input and the very next tick must trip.
    noc, oracle = saturated_noc("compiled", faulted=False)
    noc.run(200)
    busy = max(
        (r for sw in noc.switches.values() for r in sw.receivers),
        key=lambda r: r.accepted_flits,
    )
    busy._expected += 1
    with pytest.raises(AssertionError, match="_expected moved"):
        noc.run(50)
