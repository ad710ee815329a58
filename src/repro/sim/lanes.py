"""The lane factories every compiled tick kernel binds.

The static half of :mod:`repro.sim.compiled`'s output: the generated
per-network text (``_sw_NxM`` switch builders + ``_build``) starts with
``from repro.sim.lanes import *`` and calls these.  Each factory binds
one live component's state into locals once and returns a
``thunk(cyc, nxt)`` that performs the component's cycle and re-arms it
in ``nxt`` exactly when its ``is_quiescent()`` would have reported
pending work.  ``__all__`` is the import contract: every name the
generated text may use, nothing else (``tests/test_codegen_golden.py``
checks it).
"""

import operator

from repro.core.flit import Flit, FlitType
from repro.sim.channel import AckKind, AckSignal
from repro.sim.trace import NullTracer as _NT

__all__ = [
    "_ACK", "_AS", "_FHOP", "_H", "_HT", "_NACK", "_NT", "_SK", "_TL",
    "_always_lane", "_drive", "_generic_lane", "_initiator_lane",
    "_link_lane", "_master_awake_lane", "_port_pump", "_target_lane",
]

_SK = operator.attrgetter("_sched_index")
_ACK = AckKind.ACK
_NACK = AckKind.NACK
_AS = AckSignal
_H = FlitType.HEAD
_TL = FlitType.TAIL
_HT = FlitType.HEAD_TAIL
# The two per-hop flit stamps (fused clone + field write), called as
# plain functions: no bound-method object per flit.
_FHOP = Flit.advance_route
_FSEQ = Flit.with_seqno


def _drive(w, v):
    # Wire.drive for kernel-owned wires (hot list always attached).
    w._nxt = v
    w._driven = True
    if not w._queued:
        w._queued = True
        w._hot.append(w)


def _sender_cycle(s):
    # GoBackNSender.on_cycle, transliterated with the wire drive inlined
    # (the channel's wires are kernel-owned, so the hot-list enqueue is
    # plain bookkeeping).
    bw = s.channel.backward
    fw = s.channel.forward
    def cycle():
        b = s._buffer
        ack = bw._cur
        if ack is not None:
            s._quiet_cycles = 0
            if ack.kind is _ACK:
                s.acks_seen += 1
                if b and b[0].seqno == ack.seqno:
                    del b[0]
                    sp = s._send_ptr - 1
                    s._send_ptr = sp if sp > 0 else 0
            else:
                s.nacks_seen += 1
                if s._send_ptr > 0 and ack.seqno <= s._last_sent_seqno:
                    s.rewinds += 1
                    s._send_ptr = 0
                    s._last_sent_seqno = b[0].seqno - 1
                else:
                    s.nacks_ignored += 1
        elif s.resync_timeout is not None and b and s._send_ptr >= len(b):
            s._quiet_cycles += 1
            if s._quiet_cycles >= s.resync_timeout:
                s._quiet_cycles = 0
                s.resyncs += 1
                s._send_ptr = 0
                s._last_sent_seqno = b[0].seqno - 1
        sp = s._send_ptr
        if sp < len(b):
            flit = b[sp]
            fw._nxt = flit
            fw._driven = True
            if not fw._queued:
                fw._queued = True
                fw._hot.append(fw)
            s._send_ptr = sp + 1
            s.sent_flits += 1
            s._quiet_cycles = 0
            s._last_sent_seqno = flit.seqno
            if flit.seqno <= s._max_seqno_sent:
                s.retransmissions += 1
            else:
                s._max_seqno_sent = flit.seqno
    return cycle


def _port_pump(p):
    # One switch output port's whole cycle -- queue head into the
    # retransmission buffer (abstract-mode seqno stamp is a direct flit
    # clone), then the sender FSM -- fused into a single closure so the
    # output-stage scan pays one call per active port.
    s = p.sender
    qi = p.queue._items
    sb = s._buffer
    fastq = s.codec is None
    bw = s.channel.backward
    fw = s.channel.forward
    win = s.window
    def pump(p=p, s=s):
        if qi and len(sb) < win:
            f = qi.popleft()
            if fastq:
                sb.append(_FSEQ(f, s._next_seqno))
                s._next_seqno += 1
            else:
                s.enqueue(f)
            p.flits_out += 1
        # GoBackNSender.on_cycle, transliterated as in _sender_cycle.
        ack = bw._cur
        if ack is not None:
            s._quiet_cycles = 0
            if ack.kind is _ACK:
                s.acks_seen += 1
                if sb and sb[0].seqno == ack.seqno:
                    del sb[0]
                    sp = s._send_ptr - 1
                    s._send_ptr = sp if sp > 0 else 0
            else:
                s.nacks_seen += 1
                if s._send_ptr > 0 and ack.seqno <= s._last_sent_seqno:
                    s.rewinds += 1
                    s._send_ptr = 0
                    s._last_sent_seqno = sb[0].seqno - 1
                else:
                    s.nacks_ignored += 1
        elif s.resync_timeout is not None and sb and s._send_ptr >= len(sb):
            s._quiet_cycles += 1
            if s._quiet_cycles >= s.resync_timeout:
                s._quiet_cycles = 0
                s.resyncs += 1
                s._send_ptr = 0
                s._last_sent_seqno = sb[0].seqno - 1
        sp = s._send_ptr
        if sp < len(sb):
            flit = sb[sp]
            fw._nxt = flit
            fw._driven = True
            if not fw._queued:
                fw._queued = True
                fw._hot.append(fw)
            s._send_ptr = sp + 1
            s.sent_flits += 1
            s._quiet_cycles = 0
            s._last_sent_seqno = flit.seqno
            if flit.seqno <= s._max_seqno_sent:
                s.retransmissions += 1
            else:
                s._max_seqno_sent = flit.seqno
    return pump


def _generic_lane(c):
    # ``tick`` stays late-bound, as in the reference loop, so an
    # instance-level override is honoured whenever it is installed.
    def t(cyc, nxt, c=c):
        c.tick(cyc)
        if not c.is_quiescent():
            nxt[c] = None
    return t


def _always_lane(c):
    # No quiescence contract: the component runs every cycle and never
    # enters the awake set (Simulator.wake ignores non-sleepy
    # components), so there is nothing to re-arm.
    def t(cyc, nxt, c=c):
        c.tick(cyc)
    return t


def _master_awake_lane(m):
    # An *awake* lane master runs its full tick; re-arming only while a
    # request is pending (re-drive each cycle until accepted).  Sleeping
    # masters are handled by the unrolled gate-draw block in the run
    # loop -- see the master lane in the generated run_cycles.
    tick = m.tick
    def t(cyc, nxt, m=m):
        tick(cyc)
        if m._pending is not None:
            nxt[m] = None
    return t


def _initiator_lane(c):
    # InitiatorNI.tick transliterated under the lane's eligibility gates
    # (no credit mode, no transaction timeout, no thread-order
    # resequencing, no lifecycle tracing): phase order and every state
    # read/write match the real tick; packetization and response
    # matching stay real calls -- they run once per packet, not per
    # cycle.
    req_w = c.ocp.request
    respacc_w = c.ocp.response_accept
    resp_w = c.ocp.response
    side_w = c.ocp.sideband
    rx = c.rx
    rxf = rx.channel.forward
    rxb = rx.channel.backward
    rxdet = rx._detected_corrupt if rx.codec is not None else None
    tx = c.tx
    fl = tx._flits
    s = tx.sender
    scyc = _sender_cycle(s)
    sb = s._buffer
    fastq = s.codec is None
    win = s.window
    rs = s.resync_timeout is not None
    rq = c._resp_queue
    sq = c._sideband_queue
    ro = c._reorder
    feed = c.depacketizer.feed
    lat = c.packet_latency.samples
    handle = c._handle_response_packet
    try_acc = c._try_accept_request
    MAXO = c.config.max_outstanding
    def t(cyc, nxt, c=c):
        full = not (req_w._cur is None and rxf._cur is None
                    and not rq and not sq)
        if full:
            # Front end: new OCP request?  The early-return gate of
            # _try_accept_request is inlined; the packetizing path
            # stays the real method.
            txn = req_w._cur
            if (txn is not None and txn.txn_id != c._last_txn_id
                    and tx._queued_packets < tx.capacity
                    and c._outstanding_count < MAXO):
                try_acc(cyc)
        # Back end transmit (_BackEndTx.on_cycle).
        if fl and len(sb) < win:
            f = fl.popleft()
            ft = f.ftype
            if ft is _TL or ft is _HT:
                tx._queued_packets -= 1
            if fastq:
                sb.append(_FSEQ(f, s._next_seqno))
                s._next_seqno += 1
            else:
                s.enqueue(f)
        scyc()
        if full:
            # Back end receive: GoBackNReceiver.poll unrolled around
            # the response-queue space check.
            f = rxf._cur
            if f is not None:
                seq = f.seqno
                if f.corrupted if rxdet is None else rxdet(f):
                    rx.corrupted_flits += 1
                    _drive(rxb, _AS(_NACK, seq))
                elif seq != rx._expected:
                    rx.out_of_order_flits += 1
                    _drive(rxb, _AS(_NACK, seq))
                elif len(rq) < MAXO:
                    rx.accepted_flits += 1
                    rx._expected = seq + 1
                    _drive(rxb, _AS(_ACK, seq))
                    pkt = feed(f)
                    if pkt is not None:
                        if pkt.birth_cycle >= 0:
                            lat.append(cyc - pkt.birth_cycle)
                        handle(pkt, cyc)
                else:
                    rx.rejected_flits += 1
                    _drive(rxb, _AS(_NACK, seq))
            # Front end: present the oldest completed response until
            # the master accepts it.
            if rq:
                r0 = rq[0]
                aid = respacc_w._cur
                if aid is not None and aid == r0.txn_id:
                    rq.popleft()
                    c.responses_delivered += 1
                    r0 = rq[0] if rq else None
                if r0 is not None:
                    _drive(resp_w, r0)
            # Sideband interrupts are single-cycle pulses to the core.
            if sq:
                _drive(side_w, sq.popleft())
                c.interrupts_delivered += 1
        if fl or (sb and (rs or s._send_ptr < len(sb))) or rq or sq or ro:
            nxt[c] = None
    return t


def _target_lane(c):
    # TargetNI.tick transliterated under the lane's eligibility gates
    # (no credit mode, no lifecycle tracing).  Phase order matches the
    # real tick: receive, issue-to-slave, collect-response, sideband,
    # transmit last.
    req_w = c.ocp.request
    reqacc_w = c.ocp.request_accept
    resp_w = c.ocp.response
    respacc_w = c.ocp.response_accept
    side_w = c.ocp.sideband
    rx = c.rx
    rxf = rx.channel.forward
    rxb = rx.channel.backward
    rxdet = rx._detected_corrupt if rx.codec is not None else None
    tx = c.tx
    fl = tx._flits
    s = tx.sender
    scyc = _sender_cycle(s)
    sb = s._buffer
    fastq = s.codec is None
    win = s.window
    rs = s.resync_timeout is not None
    rq = c._req_queue
    iss = c._issued
    feed = c.depacketizer.feed
    lat = c.packet_latency.samples
    handle = c._handle_request_packet
    respond = c._respond
    MAXO = c.config.max_outstanding
    def t(cyc, nxt, c=c):
        if not (rxf._cur is None and c._current is None and not rq
                and resp_w._cur is None and side_w._cur is None):
            # Receive path: GoBackNReceiver.poll unrolled around the
            # request-queue space check.
            f = rxf._cur
            if f is not None:
                seq = f.seqno
                if f.corrupted if rxdet is None else rxdet(f):
                    rx.corrupted_flits += 1
                    _drive(rxb, _AS(_NACK, seq))
                elif seq != rx._expected:
                    rx.out_of_order_flits += 1
                    _drive(rxb, _AS(_NACK, seq))
                elif len(rq) < MAXO:
                    rx.accepted_flits += 1
                    rx._expected = seq + 1
                    _drive(rxb, _AS(_ACK, seq))
                    pkt = feed(f)
                    if pkt is not None:
                        if pkt.birth_cycle >= 0:
                            lat.append(cyc - pkt.birth_cycle)
                        handle(pkt, cyc)
                else:
                    rx.rejected_flits += 1
                    _drive(rxb, _AS(_NACK, seq))
            # Issue the oldest reassembled request to the slave core.
            cur = c._current
            if cur is None and rq:
                txn, header = rq.popleft()
                c._current = cur = txn
                iss[txn.txn_id] = header
            if cur is not None:
                if reqacc_w._cur == cur.txn_id:
                    c._current = None
                else:
                    _drive(req_w, cur)
            # Collect the slave's response (deduplicated by txn id).
            resp = resp_w._cur
            if resp is not None and resp.txn_id != c._last_resp_txn:
                if resp.txn_id in iss and tx._queued_packets < tx.capacity:
                    c._last_resp_txn = resp.txn_id
                    _drive(respacc_w, resp.txn_id)
                    respond(resp, cyc)
            # Sideband from the slave becomes an INTERRUPT packet.
            ev = side_w._cur
            if ev is not None and tx._queued_packets < tx.capacity:
                c._send_interrupt(ev, cyc)
        # Back end transmit (_BackEndTx.on_cycle) -- last, as in tick.
        if fl and len(sb) < win:
            f = fl.popleft()
            ft = f.ftype
            if ft is _TL or ft is _HT:
                tx._queued_packets -= 1
            if fastq:
                sb.append(_FSEQ(f, s._next_seqno))
                s._next_seqno += 1
            else:
                s.enqueue(f)
        scyc()
        if (fl or (sb and (rs or s._send_ptr < len(sb)))
                or c._current is not None or rq):
            nxt[c] = None
    return t


def _link_lane(c):
    # Zero-latency fault-free link: two wire moves.  A runtime fault
    # override (FaultInjector windows) delegates to the real tick so
    # drop/corrupt RNG draws stay stream-identical.  Depth-0 links are
    # always quiescent -- they wake purely from their wires.
    tick = c.tick
    upf = c.up.forward
    upb = c.up.backward
    dnf = c.down.forward
    dnb = c.down.backward
    def t(cyc, nxt, c=c):
        if c._fault_drop or c._fault_rate is not None:
            tick(cyc)
            return
        f = upf._cur
        if f is not None:
            c.flits_carried += 1
            dnf._nxt = f
            dnf._driven = True
            if not dnf._queued:
                dnf._queued = True
                dnf._hot.append(dnf)
        a = dnb._cur
        if a is not None:
            upb._nxt = a
            upb._driven = True
            if not upb._queued:
                upb._queued = True
                upb._hot.append(upb)
    return t
