"""The compiled tick kernel: static elaboration + unrolled codegen.

An elaborated :class:`~repro.sim.kernel.Simulator` is a *static* graph:
after construction, the component set, the wires, and the reader/driver
relations never change (the registered-wire discipline the paper imposes
for synthesizability guarantees it).  This module exploits that the way
pymtl3's "mamba" pass pipeline does -- elaborate once, schedule
statically, generate one specialized flat tick function per network --
instead of paying Python object-walking and dynamic dispatch on every
cycle.

It is the simulator's **only activity-scheduled loop**: every kernel
mode except ``"interpreted"`` (the hand-written tick-everything oracle,
``Simulator._step_full``) runs the program generated here.
``compile_simulator`` walks the simulator once and emits Python source
(``_sw_NxM`` switch builders plus one ``_build`` function assembled
per-component) which is ``exec``'d and bound to the live objects; the
static lane factories it calls are an ordinary module,
:mod:`repro.sim.lanes`, imported by the generated text.  The run loop
tracks activity (awake set, hot-wire latching) and dispatches each
woken component through its *lane*:

``switch``
    Two-stage go-back-N switches, entirely in generated text: the
    output stage, then the allocator for any number of active inputs --
    a straight-line cut for exactly one (the sparse regime), the full
    three-phase allocation (candidates, one winner per requested
    output, ACK + wormhole commit or nACK) for two or more (the
    saturated one).  Arbiters stay live so round-robin state matches;
    the ``repr(flit)`` trace argument is elided (only legal under a
    ``NullTracer``).  ``Switch._input_stage`` is the reference the
    other two kernel modes run, never called from this lane.
``ni-initiator`` / ``ni-target``
    Network interfaces: ``InitiatorNI.tick`` / ``TargetNI.tick``
    transliterated phase for phase under the lane's eligibility gates
    (:func:`repro.sim.lanes._initiator_lane` / ``_target_lane``), with
    the receiver poll and the transmit pump inlined and the idle path
    collapsing to that pump.  Only the per-packet work --
    packetization, reassembly, response matching -- stays real calls.
``link``
    Zero-latency fault-free links become two inlined wire moves; a live
    fault override (``set_fault``) delegates to the real ``tick``.
``master``
    ``OcpTrafficMaster`` over exact ``UniformRandomTraffic``: the
    per-cycle Bernoulli gate draw is hoisted into the generated loop
    (unrolled per master with literal rate/window constants), so an idle
    master costs one RNG draw and one compare instead of a full tick.
    The RNG stream stays draw-for-draw identical (see
    ``UniformRandomTraffic._next_transaction_predrawn``).
``generic``
    Everything else: the component's late-bound ``tick`` plus its
    ``is_quiescent`` re-arm.  Probed components, components carrying an
    instance-level ``tick``, and every component under a live tracer
    take this lane, so observers see exactly the ticks the component's
    own code performs.
``always``
    Components with no quiescence contract (fault injectors) run every
    cycle the loop steps, linear-merged with the woken set in
    scheduling order.

The loop does not step through *idle spans* -- cycles with nothing
awake and no wire hot -- when every always-lane component says when it
next has work (``idle_until()``): it spins on the masters' gate draws
alone and advances the counters arithmetically, for every caller of
``run`` (see :func:`_generate`; the generated header's ``# idle spans:``
line records whether the block was emitted and, if not, who blocked it).

Kernel mode ``"compiled"`` picks specialized lanes wherever a component
qualifies; mode ``"fast"`` is the same loop with every component on the
``generic``/``always`` lane -- a diagnostic that separates a
scheduler/quiescence bug (both modes diverge from ``"interpreted"``)
from a lane-transliteration bug (only ``"compiled"`` does).  Both are
cycle-identical to the reference loop -- digest-for-digest under
``verify_fast_path``, including open fault windows and a mid-run
``set_kernel`` handoff.  Structural mutations (``add``/``wire``/
``add_probe``, a tracer swap, a kernel mode change) invalidate the
program; it is re-elaborated on the next run.  ``reset`` does not:
every stock component resets its codegen-bound containers in place.

A numpy structure-of-arrays lane was considered and rejected: wires
carry arbitrary Python objects (flits, ACK signals, OCP transactions),
so there is no homogeneous register file to vectorize -- the win here
is removing dispatch, not data layout.

See ``docs/PERFORMANCE.md`` ("Compiled kernel") for the contract and
measured speedups.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Tuple

from repro.sim.kernel import Simulator
from repro.sim.trace import NullTracer

__all__ = ["CompiledProgram", "compile_simulator", "compiled_source"]


class CompiledProgram:
    """A code-generated flat run loop bound to one elaborated simulator.

    Attributes
    ----------
    source:
        The generated Python source (deterministic for a given network
        structure; golden-filed by ``tests/test_codegen_golden.py``).
    run:
        ``run(cycles)`` -- the generated loop, cycle-identical to the
        reference loop (``Simulator._step_full``) iterated.
    rev:
        The simulator structure revision this program was elaborated
        against; any structural mutation makes it stale.
    lane_of:
        Component name -> lane name ("switch", "ni-initiator",
        "ni-target", "link", "master", "generic", "always").
    lanes:
        Lane name -> component count (a compile summary for tests and
        benchmarks).
    idle_spans:
        How the loop crosses a cycle with nothing awake and no wire
        hot: ``"collapse"`` (the emitted idle-span block, see
        :func:`_generate`) or ``"per-cycle (blocked by ...)"`` naming
        the always-lane component that forbids it.  The same text is
        the ``# idle spans:`` line of ``source``.
    """

    __slots__ = ("source", "run", "rev", "lane_of", "lanes", "idle_spans")

    def __init__(self, source, run, rev, lane_of, idle_spans):
        self.source = source
        self.run = run
        self.rev = rev
        self.lane_of: Dict[str, str] = dict(lane_of)
        self.lanes: Dict[str, int] = {}
        for lane in self.lane_of.values():
            self.lanes[lane] = self.lanes.get(lane, 0) + 1
        self.idle_spans = idle_spans

    def __repr__(self) -> str:
        summary = " ".join(f"{k}={v}" for k, v in sorted(self.lanes.items()))
        return (
            f"CompiledProgram(rev={self.rev}, {summary or 'empty'}, "
            f"idle spans: {self.idle_spans})"
        )


#: Lane name -> factory in :mod:`repro.sim.lanes` (``switch`` lanes bind a
#: shape-specialized ``_sw_NxM`` builder emitted by :func:`_emit_switch`).
_FACTORY_OF = {
    "always": "_always_lane",
    "generic": "_generic_lane",
    "master": "_master_awake_lane",
    "ni-initiator": "_initiator_lane",
    "ni-target": "_target_lane",
    "link": "_link_lane",
}


def _emit_switch(n_in: int, n_out: int) -> str:
    """Emit an unrolled switch-lane builder for one port shape.

    The three per-port scans -- output stage, input activity detection,
    re-arm -- are unrolled into straight-line guards over pre-bound
    per-port names.  The allocator between them comes in two cuts,
    both state-for-state transliterations of ``Switch._input_stage`` /
    ``_commit``: straight-line for exactly one active input, three
    phases looping over the ports for more.  (One body for 1..N inputs
    measured 4% slower saturated and ~20% slower sparse.)  One builder
    is shared by every switch of the same (inputs x outputs) shape.
    """
    name = f"_sw_{n_in}x{n_out}"
    lines = [
        f"def {name}(c):",
        f"    # Unrolled switch lane: {n_in} inputs x {n_out} outputs.",
        "    recvs = c.receivers",
        "    arbs = c._arbiters",
        "    req_of = c._requested_output",
        "    dst = c._input_dest",
        "    onehot = tuple(",
        f"        tuple(i == j for j in range({n_in})) for i in range({n_in})",
        "    )",
        "    rins = tuple(",
        "        (r, r.channel.forward, r.channel.backward,",
        "         r._detected_corrupt if r.codec is not None else None)",
        "        for r in recvs",
        "    )",
        "    ACC = tuple((p, p.queue._items, p.queue.depth) for p in c.outputs)",
        f"    rq = [-1] * {n_in}  # contended-tick scratch: request per input",
        f"    wn = [-1] * {n_out}  # ... and winner per requested output",
        "    _len = len",
    ]
    for k in range(n_in):
        lines.append(f"    f{k} = recvs[{k}].channel.forward")
    for k in range(n_out):
        lines += [
            f"    p{k} = c.outputs[{k}]",
            f"    q{k} = p{k}.queue._items",
            f"    s{k} = p{k}.sender",
            f"    b{k} = s{k}._buffer",
            f"    w{k} = s{k}.channel.backward",
            f"    m{k} = _port_pump(p{k})",
            f"    rs{k} = s{k}.resync_timeout is not None",
        ]
    lines.append("    def t(cyc, nxt, c=c):")
    # Output stage, one line per port.  The guard is deliberately looser
    # than the port's precise activity test: a window-full sender with no
    # resync timer gets a no-op pump() call, which is exactly what the
    # real output stage does too.
    for k in range(n_out):
        lines += [
            f"        if q{k} or b{k} or w{k}._cur is not None:",
            f"            m{k}()",
        ]
    # Input activity scan: -1 idle, -2 contended, else the active index.
    # (-2 must stick: compare against -1 exactly, not "< 0".)
    lines.append("        act = 0 if f0._cur is not None else -1")
    for k in range(1, n_in):
        lines += [
            f"        if f{k}._cur is not None:",
            f"            act = {k} if act == -1 else -2",
        ]
    lines += [
        "        if act >= 0:",
        "            # GoBackNReceiver.poll unrolled around the allocator cut.",
        "            r, fw, rbw, det = rins[act]",
        "            f = fw._cur",
        "            seq = f.seqno",
        "            if f.corrupted if det is None else det(f):",
        "                r.corrupted_flits += 1",
        "                _drive(rbw, _AS(_NACK, seq))",
        "            elif seq != r._expected:",
        "                r.out_of_order_flits += 1",
        "                _drive(rbw, _AS(_NACK, seq))",
        "            else:",
        "                ft = f.ftype",
        "                if ft is _H or ft is _HT:",
        "                    rt = f.route",
        "                    ro = f.route_offset",
        "                    if rt is None or ro >= _len(rt):",
        "                        out_idx = req_of(act, f)  # raises: bad route",
        "                    else:",
        "                        out_idx = rt[ro]",
        f"                        if not 0 <= out_idx < {n_out}:",
        "                            out_idx = req_of(act, f)  # raises: bad hop",
        "                else:",
        "                    out_idx = dst[act]",
        "                    if out_idx is None:",
        "                        out_idx = req_of(act, f)  # raises: idle input",
        "                p, qi, depth = ACC[out_idx]",
        "                li = p.locked_input",
        "                if li is None:",
        "                    granted = arbs[out_idx].grant(onehot[act]) == act",
        "                else:",
        "                    granted = li == act",
        "                    if not granted:",
        "                        c.allocation_conflicts += 1",
        "                if granted and _len(qi) < depth:",
        "                    r.accepted_flits += 1",
        "                    r._expected = seq + 1",
        "                    rbw._nxt = _AS(_ACK, seq)",
        "                    rbw._driven = True",
        "                    if not rbw._queued:",
        "                        rbw._queued = True",
        "                        rbw._hot.append(rbw)",
        "                    if ft is _H or ft is _HT:",
        "                        f = _FHOP(f)",
        "                        if ft is _H:",
        "                            p.locked_input = act",
        "                            dst[act] = out_idx",
        "                    elif ft is _TL:",
        "                        p.locked_input = None",
        "                        dst[act] = None",
        "                    qi.append(f)",
        "                    c.flits_routed += 1",
        "                else:",
        "                    r.rejected_flits += 1",
        "                    _drive(rbw, _AS(_NACK, seq))",
        "        elif act == -2:",
        "            # Contended: the reference allocator's three phases, state",
        "            # for state.  Phase 1 -- per input: -1 idle, -2 corrupted, -3",
        "            # out of sequence, else the output its candidate requests.",
        "            i = 0",
        "            for r, fw, rbw, det in rins:",
        "                f = fw._cur",
        "                if f is None:",
        "                    o = -1",
        "                elif f.corrupted if det is None else det(f):",
        "                    o = -2",
        "                elif f.seqno != r._expected:",
        "                    o = -3",
        "                else:",
        "                    ft = f.ftype",
        "                    if ft is _H or ft is _HT:",
        "                        rt = f.route",
        "                        ro = f.route_offset",
        "                        if rt is None or ro >= _len(rt):",
        "                            o = req_of(i, f)  # raises: bad route",
        "                        else:",
        "                            o = rt[ro]",
        f"                            if not 0 <= o < {n_out}:",
        "                                o = req_of(i, f)  # raises: bad hop",
        "                    else:",
        "                        o = dst[i]",
        "                        if o is None:",
        "                            o = req_of(i, f)  # raises: idle input",
        "                rq[i] = o",
        "                i += 1",
        "            # Phase 2 -- per requested output: the wormhole owner or the",
        "            # arbiter's grant, losers counted, queue space tested before",
        "            # anything commits.",
        "            j = 0",
        "            for p, qi, depth in ACC:",
        "                n = rq.count(j)",
        "                if n:",
        "                    li = p.locked_input",
        "                    if li is None:",
        "                        w = arbs[j].grant(",
        "                            onehot[rq.index(j)] if n == 1",
        "                            else [o == j for o in rq]",
        "                        )",
        "                        n -= 1",
        "                    elif rq[li] == j:",
        "                        w = li",
        "                        n -= 1",
        "                    else:",
        "                        w = -1",
        "                    c.allocation_conflicts += n",
        "                    wn[j] = w if _len(qi) < depth else -1",
        "                j += 1",
        "            # Phase 3 -- per input: ACK + wormhole commit, or nACK.",
        "            i = 0",
        "            for r, fw, rbw, det in rins:",
        "                o = rq[i]",
        "                if o != -1:",
        "                    f = fw._cur",
        "                    seq = f.seqno",
        "                    if o == -2:",
        "                        r.corrupted_flits += 1",
        "                        _drive(rbw, _AS(_NACK, seq))",
        "                    elif o == -3:",
        "                        r.out_of_order_flits += 1",
        "                        _drive(rbw, _AS(_NACK, seq))",
        "                    elif wn[o] == i:",
        "                        r.accepted_flits += 1",
        "                        r._expected = seq + 1",
        "                        _drive(rbw, _AS(_ACK, seq))",
        "                        p, qi, depth = ACC[o]",
        "                        ft = f.ftype",
        "                        if ft is _H or ft is _HT:",
        "                            f = _FHOP(f)",
        "                            if ft is _H:",
        "                                p.locked_input = i",
        "                                dst[i] = o",
        "                        elif ft is _TL:",
        "                            p.locked_input = None",
        "                            dst[i] = None",
        "                        qi.append(f)",
        "                        c.flits_routed += 1",
        "                    else:",
        "                        r.rejected_flits += 1",
        "                        _drive(rbw, _AS(_NACK, seq))",
        "                i += 1",
    ]
    # Re-arm: one short-circuit expression across all output ports.
    arm = [
        f"q{k} or (b{k} and (rs{k} or s{k}._send_ptr < _len(b{k})))"
        for k in range(n_out)
    ]
    cond = "\n                or ".join(arm)
    lines += [
        f"        if ({cond}):",
        "            nxt[c] = None",
        "    return t",
    ]
    return "\n".join(lines) + "\n"


def _classify(sim: Simulator, c, specialize: bool) -> str:
    """Pick the codegen lane for one contract-implementing component.

    ``specialize=False`` (kernel mode ``"fast"``) keeps every component
    on the ``generic`` lane.
    """
    # Specialized lanes elide trace callouts and whole ticks; both are
    # only invisible under the no-op tracer, without probes, and when
    # the class's own ``tick`` is the one that would have run.
    if (
        not specialize
        or type(sim.tracer) is not NullTracer
        or c in sim._probes
        or "tick" in c.__dict__
    ):
        return "generic"
    from repro.core.flow_control import GoBackNReceiver, GoBackNSender
    from repro.core.link import Link
    from repro.core.ni import InitiatorNI, TargetNI
    from repro.core.switch import Switch
    from repro.network.cores import OcpTrafficMaster
    from repro.network.traffic import UniformRandomTraffic

    t = type(c)
    if t is OcpTrafficMaster:
        if type(c.pattern) is UniformRandomTraffic:
            return "master"
    elif t is Switch:
        if (
            c.config.pipeline_stages == 2
            and not c.lifecycle
            and all(type(p.sender) is GoBackNSender for p in c.outputs)
            and all(type(r) is GoBackNReceiver for r in c.receivers)
        ):
            return "switch"
    elif t is InitiatorNI:
        if (
            not c._credit_mode
            and c.config.txn_timeout is None
            and not c.config.enforce_thread_order
            and not c.lifecycle
            and type(c.tx.sender) is GoBackNSender
            and type(c.rx) is GoBackNReceiver
        ):
            return "ni-initiator"
    elif t is TargetNI:
        if (
            not c._credit_mode
            and not c.lifecycle
            and type(c.tx.sender) is GoBackNSender
            and type(c.rx) is GoBackNReceiver
        ):
            return "ni-target"
    elif t is Link:
        if c._depth == 0 and c.config.error_rate == 0.0 and not c.lifecycle:
            return "link"
    return "generic"


def _generate(sim: Simulator) -> Tuple[str, List[Tuple[str, str]], str]:
    """Generate the per-network module source; returns
    ``(source, lanes, idle_spans)``.

    Deterministic: the text depends only on the network structure (and
    the tracer type), never on runtime state or ids -- the golden-file
    test relies on this.

    **Idle spans.**  A cycle with nothing awake and no wire hot is, by
    the quiescence contracts, one tick per always-lane component plus
    one gate draw per armed drawer-lane master.  When every always-lane
    component implements ``idle_until()`` (the cycle of its next
    scheduled work, or ``None``; its ticks before that cycle are
    no-ops) and none is probed, the awake-empty branch of both loops
    crosses such cycles in a spin that performs only the draws -- each
    master's own RNG, in the per-cycle order -- up to the end of this
    ``run(n)`` or the earliest ``idle_until()``, and advances ``cyc`` /
    ``exe`` / ``skp`` by exactly what the per-cycle branch counts.  A
    passing draw ends the spin mid-cycle: ``hit`` names the master, the
    masters before it have already drawn (and failed) for that cycle,
    and the ordinary per-cycle text finishes it.  An always-lane
    component without ``idle_until``, or a probed one, means the block
    is not emitted (``idle_spans`` names it); the observed loop also
    steps per cycle while a watcher is attached.
    """
    specialize = sim.kernel != "fast"
    lane_of: List[Tuple[str, str]] = [
        (c.name, "always" if not c._sleepy else _classify(sim, c, specialize))
        for c in sim._components
    ]
    idle_spans = "collapse"
    for c, (_, lane) in zip(sim._components, lane_of):
        if lane == "always" and (not hasattr(c, "idle_until") or c in sim._probes):
            why = "probed" if hasattr(c, "idle_until") else "no idle_until"
            idle_spans = f"per-cycle (blocked by {c.name!r}: {why})"
            break
    collapse = idle_spans == "collapse"

    bind: List[str] = []
    masters: List[str] = []  # variable names of drawer-lane masters
    blocks: List[str] = []  # unrolled per-master gate blocks (slow loop)
    fast_sleep: List[str] = []  # fast-loop variant, awake set non-empty
    fast_idle: List[str] = []  # fast-loop variant, awake set empty
    rebinds: List[str] = []  # per-run rebinds for the drawer lane
    armed: List[Tuple[str, str]] = []  # per master: (arm{i}, its gate text)
    spin: List[str] = []  # the idle-span spin's one draw per armed master

    always_vars: List[str] = []  # no quiescence contract: run every cycle
    switch_shapes: set = set()
    for i, (c, (_, lane)) in enumerate(zip(sim._components, lane_of)):
        var = f"c{i}"
        if lane == "always":
            always_vars.append(var)
        bind.append(f"    {var} = N[{c.name!r}]  # {type(c).__name__}: {lane}")
        if lane == "switch":
            # Switches get shape-specialized unrolled builders emitted
            # into the generated text (see _emit_switch) instead of a
            # repro.sim.lanes factory.
            shape = (len(c.receivers), len(c.outputs))
            switch_shapes.add(shape)
            bind.append(f"    TH[{var}] = _sw_{shape[0]}x{shape[1]}({var})")
        else:
            bind.append(f"    TH[{var}] = {_FACTORY_OF[lane]}({var})")
        if lane == "master":
            masters.append(var)
            j = len(masters)
            rebinds.append(f"        rnd{i} = {var}.pattern._rng.random")
            rebinds.append(f"        if{i} = {var}._in_flight")
            rebinds.append(f"        tk{i} = {var}.tick")
            rate = repr(float(c.pattern.rate))
            maxo = int(c.max_outstanding)
            gate = f"_len(if{i}) < {maxo}"
            if c.max_transactions is not None:
                gate += f" and {var}.issued < {int(c.max_transactions)}"
            rebinds.append(f"        arm{i} = {gate}")
            armed.append((f"arm{i}", gate))
            spin.append(
                f"if arm{i} and rnd{i}() < {rate}:\n    hit = {j}\n    break"
            )

            # This cycle's gate may be settled already: the idle-span
            # spin drew for master ``hit`` (passed) and for those before
            # it (failed).
            pre, post = (
                (f"hit == {j} or (hit < {j} and ", ")") if collapse else ("", "")
            )
            blocks.append(
                f"""\
            if {var} not in awake:
                slept += 1
                if {pre}{gate} and rnd{i}() < {rate}{post}:
                    tk{i}(cyc, _predrawn_inject=True)
                    if {var}._pending is not None:
                        nxt[{var}] = None"""
            )
            # ``arm{i}`` caches the injection-window gate: a sleeping
            # master's ``_in_flight``/``issued`` only change inside its
            # own tick, so the gate is recomputed exactly after a drawer
            # inject or an awake-cycle tick and is constant in between.
            fast_sleep.append(
                f"""\
                    if {var} not in awake:
                        slept += 1
                        if arm{i} and rnd{i}() < {rate}:
                            tk{i}(cyc, _predrawn_inject=True)
                            arm{i} = {gate}
                            if {var}._pending is not None:
                                nxt[{var}] = None
                    else:
                        arm{i} = {gate}"""
            )
            fast_idle.append(
                f"""\
                    if {pre}arm{i} and rnd{i}() < {rate}{post}:
                        tk{i}(cyc, _predrawn_inject=True)
                        arm{i} = {gate}
                        if {var}._pending is not None:
                            nxt[{var}] = None"""
            )

    lane_counts: Dict[str, int] = {}
    for _, lane in lane_of:
        lane_counts[lane] = lane_counts.get(lane, 0) + 1
    summary = " ".join(f"{k}={v}" for k, v in sorted(lane_counts.items()))

    master_blocks = ("\n".join(blocks) + "\n") if blocks else ""
    master_rebinds = ("\n".join(rebinds) + "\n") if rebinds else ""

    # Always-active components (fault injectors, anything without a
    # quiescence contract) run every cycle, interleaved with the woken
    # set in scheduling-index order (a linear merge), so run order --
    # and thus RNG/arbitration state -- matches the reference loop's.
    # Networks without them keep the plain sorted-awake text.
    always_bind = ""
    if always_vars:
        always_bind = f"""\
    AL = ({", ".join(always_vars)},)
    NA = {len(always_vars)}
{"    IU = tuple(c.idle_until for c in AL)" + chr(10) if collapse else ""}\

    def _mkrun(awake):
        woken = sorted(awake, key=_SK)
        run = []
        i = j = 0
        nj = len(woken)
        while i < NA and j < nj:
            if AL[i]._sched_index < woken[j]._sched_index:
                run.append(AL[i])
                i += 1
            else:
                run.append(woken[j])
                j += 1
        if i < NA:
            run.extend(AL[i:])
        else:
            run.extend(woken[j:])
        return run
"""
    mkrun = "_mkrun(awake)" if always_vars else "sorted(awake, key=_SK)"

    def reindent(text: str, spaces: int) -> str:
        pad = " " * spaces
        return "\n".join(
            (pad + line) if line.strip() else line for line in text.split("\n")
        )

    def span(observed: bool) -> str:
        # The idle-span block (see the docstring), at column 0.  The
        # observed loop does not cache gates, yields to watchers and
        # publishes its counters; otherwise the two loops share it.
        if not collapse:
            return ""
        per_cycle = len(always_vars) + len(masters)
        if masters:
            # Nobody armed: nothing can end the span early, so no spin.
            any_armed = " or ".join(arm for arm, _ in armed)
            cross = [f"for k in range(lim if {any_armed} else 0):"]
            cross += [reindent(text, 4) for text in spin]
            cross += ["else:", "    k = lim"]
        else:
            cross = ["k = lim"]
        cross += [
            "cyc += k",
            f"exe += k * {per_cycle}",
            f"skp += k * {len(sim._components) - per_cycle}",
        ]
        if observed:
            cross += [
                "S.cycle = cyc",
                "S.ticks_executed = te0 + exe",
                "S.ticks_skipped = ts0 + skp",
            ]
        cross += ["if not hit:", "    continue"] if masters else ["continue"]
        lines = [
            f"if not HOT{' and not WL' if observed else ''}:",
            "    # Idle span: until ``lim`` a cycle is one gate draw per armed",
            "    # master and nothing else -- cross ``k`` of them arithmetically.",
        ]
        if observed:
            lines += [f"    {arm} = {gate}" for arm, gate in armed]
        lines.append("    lim = end - cyc")
        if always_vars:
            lines += [
                "    for due in IU:",
                "        u = due()",
                "        if u is not None and u - cyc < lim:",
                "            lim = u - cyc",
                "    if lim > 0:",
            ]
        lines += [reindent(line, 8 if always_vars else 4) for line in cross]
        return "\n".join(lines) + "\n"

    hit0 = "hit = 0\n" if collapse and masters else ""
    if always_vars:
        slow_idle = f"""\
            else:
{reindent(span(True), 16)}\
                for c in AL:
                    TH[c](cyc, nxt)
                if P:
                    for c in AL:
                        fns = P.get(c)
                        if fns is not None:
                            for fn in fns:
                                fn(cyc)
                nrun = NA"""
        fast_idle_run = (
            "                    for c in AL:\n"
            "                        TH[c](cyc, nxt)\n"
            "                    nrun = NA"
        )
    else:
        slow_idle = f"""\
            else:
{reindent(span(True), 16)}\
                nrun = 0"""
        fast_idle_run = "                    nrun = 0"
    fast_idle_run = reindent(hit0 + span(False), 20) + fast_idle_run
    if collapse:
        loop_bound = "        end = cyc + n\n"
        loop_head = "while cyc < end:"
    else:
        loop_bound = ""
        loop_head = "for _ in range(n):"

    rearm = ""
    if masters:
        rearm = f"""\
            # Run-boundary invariant: a drawer-lane master sleeps inside
            # the loop, but the interpreted kernels keep every unfinished
            # master awake -- re-arm them so snapshots taken between runs
            # (and kernel switches) see interpreted-equivalent state.
            aw = S._awake
            for m in ({", ".join(masters)},):
                if not m.is_quiescent():
                    aw[m] = None
"""
        slow_try_open = "        try:\n"
        slow_epilogue = "        finally:\n" + rearm.rstrip("\n")
    else:
        slow_try_open = ""
        slow_epilogue = ""

    slow_loop = f"""\
        {loop_head}
            awake = nxt
            S._awake = nxt = {{}}
            slept = 0
{reindent(hit0, 12)}\
            if awake:
                if rck == awake.keys():
                    run = rcv
                else:
                    run = {mkrun}
                    rck = frozenset(awake)
                    rcv = run
                for c in run:
                    TH[c](cyc, nxt)
                if P:
                    for c in run:
                        fns = P.get(c)
                        if fns is not None:
                            for fn in fns:
                                fn(cyc)
                nrun = _len(run)
{slow_idle}
{master_blocks or ''}\
            exe += nrun + slept
            skp += NC - nrun - slept
            if HOT:
                keep = []
                ka = keep.append
                for w in HOT:
                    if w._driven:
                        w._cur = w._nxt
                        w._driven = False
                    else:
                        w._cur = w.default
                    w._nxt = w.default
                    if w._cur is not w.default:
                        ka(w)
                        for r in w.readers:
                            nxt[r] = None
                    else:
                        w._queued = False
                HOT[:] = keep
            S.ticks_executed = te0 + exe
            S.ticks_skipped = ts0 + skp
            for fn in WL:
                fn(cyc)
            cyc += 1
            S.cycle = cyc"""
    if masters:
        slow_loop = reindent(slow_loop, 4)

    run_slow = f"""\
    def run_slow(n):
        # Observed loop: watchers, probes or a live tracer can read
        # simulator state mid-run, so cycle/tick counters are published
        # every cycle, exactly like Simulator.step().
        cyc = S.cycle
{loop_bound}\
        te0 = S.ticks_executed
        ts0 = S.ticks_skipped
        exe = 0
        skp = 0
        rck = None
        rcv = ()
        nxt = S._awake
        _len = len
{master_rebinds}\
{slow_try_open}\
{slow_loop}
{slow_epilogue}"""

    # The fast loop: nothing user-visible executes inside the loop (no
    # watchers, no probes, NullTracer), so counter publication moves to a
    # ``finally`` and the per-cycle probe/watcher plumbing disappears.
    # Exception states match the observed loop's: ``cyc``/``exe``/``skp`` are
    # advanced at the same program points, so the deferred write-back
    # lands the same values a per-cycle publication would have.
    if masters:
        fb_sleep = "\n".join(fast_sleep)
        # In the awake-empty branch no master can be awake: drop the
        # membership tests and count every drawer master as slept.
        idle_slept = (
            f"                    slept = {len(masters)}\n" + "\n".join(fast_idle)
        )
    else:
        fb_sleep = ""
        idle_slept = "                    slept = 0"

    run_fast = f"""\
    def run_fast(n):
        cyc = S.cycle
{loop_bound}\
        te0 = S.ticks_executed
        ts0 = S.ticks_skipped
        exe = 0
        skp = 0
        rck = None
        rcv = ()
        nxt = S._awake
        _len = len
{master_rebinds}\
        try:
            {loop_head}
                awake = nxt
                S._awake = nxt = {{}}
                if awake:
                    slept = 0
                    if rck == awake.keys():
                        run = rcv
                    else:
                        run = {mkrun}
                        rck = frozenset(awake)
                        rcv = run
                    for c in run:
                        TH[c](cyc, nxt)
                    nrun = _len(run)
{fb_sleep}\
{"" if not masters else chr(10)}\
                else:
{fast_idle_run}
{idle_slept}
                exe += nrun + slept
                skp += NC - nrun - slept
                if HOT:
                    keep = []
                    ka = keep.append
                    for w in HOT:
                        if w._driven:
                            w._cur = w._nxt
                            w._driven = False
                        else:
                            w._cur = w.default
                        w._nxt = w.default
                        if w._cur is not w.default:
                            ka(w)
                            for r in w.readers:
                                nxt[r] = None
                        else:
                            w._queued = False
                    HOT[:] = keep
                cyc += 1
        finally:
            S.cycle = cyc
            S.ticks_executed = te0 + exe
            S.ticks_skipped = ts0 + skp
{rearm}\
        return None

    def run_cycles(n):
        # ``add_watcher`` and tracer swaps deliberately do not bump the
        # structure revision, so the observed/unobserved split is chosen
        # per run, not per compile.
        if WL or P or type(S.tracer) is not _NT:
            return run_slow(n)
        return run_fast(n)"""

    run_fn = run_slow + "\n        return None\n\n" + run_fast

    header = (
        "# Compiled tick kernel -- generated by repro.sim.compiled; do not\n"
        "# edit (structural changes re-elaborate it automatically).\n"
        f"# network: {len(sim._components)} components, "
        f"{len(sim._wires)} wires\n"
        f"# lanes: {summary or 'none'}\n"
        f"# idle spans: {idle_spans}\n"
    )
    build = (
        "def _build(sim):\n"
        "    S = sim\n"
        "    N = S._component_names\n"
        "    TH = {}\n"
        "    HOT = S._hot_wires\n"
        "    P = S._probes\n"
        "    WL = S._watchers\n"
        f"    NC = {len(sim._components)}\n"
        + ("\n".join(bind) + "\n" if bind else "")
        + "    if _PROF is not None:\n"
        "        TH = _PROF(S, TH)\n"
        + always_bind
        + "\n"
        + run_fn
        + "\n"
        "\n"
        "    return run_cycles\n"
    )
    switch_defs = "\n\n".join(
        _emit_switch(ni, no) for ni, no in sorted(switch_shapes)
    )
    if switch_defs:
        switch_defs += "\n\n"
    source = header + "\nfrom repro.sim.lanes import *\n\n\n" + switch_defs + build
    return source, lane_of, idle_spans


def compiled_source(sim: Simulator) -> str:
    """The generated kernel source for ``sim``'s current structure.

    The text is a pure function of network structure, tracer type and
    kernel mode -- byte-stable across processes for the same
    construction code (see ``tests/test_codegen_golden.py``).
    """
    return _generate(sim)[0]


@functools.lru_cache(maxsize=16)
def _code_for(source: str):
    # The text is byte-identical for every rebuild of one topology
    # (each load-sweep point, batch lane) and
    # ``builtins.compile`` is most of an elaboration, so the code object
    # -- immutable, holding no simulator state -- is shared per source.
    return compile(source, "<repro.sim.compiled>", "exec")


def compile_simulator(sim: Simulator) -> CompiledProgram:
    """Elaborate ``sim`` into a :class:`CompiledProgram`.

    Normally reached through :meth:`Simulator.compile` or lazily on the
    first :meth:`Simulator.run` under any mode but ``"interpreted"``.
    """
    source, lane_of, idle_spans = _generate(sim)
    # The generated _build wraps its lane thunks through the global
    # _PROF when a KernelProfiler is attached; None keeps unprofiled
    # kernels entirely wrapper-free (one build-time branch, never per
    # cycle).
    g: Dict[str, object] = {"_PROF": None}
    profiler = sim.profiler
    if profiler is not None:
        lane_map = dict(lane_of)
        g["_PROF"] = lambda S, TH: profiler._install(S, TH, lane_map)
    exec(_code_for(source), g)
    return CompiledProgram(
        source=source, run=g["_build"](sim), rev=sim._structure_rev,
        lane_of=lane_of, idle_spans=idle_spans,
    )
