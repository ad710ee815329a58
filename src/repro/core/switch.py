"""The xpipes Lite switch.

The paper's switch is:

* **output queued** -- the only buffering is a FIFO per output port;
* **2-stage pipelined** -- one input/allocation stage, one crossbar/
  output stage (the original xpipes switch took 7 stages; that depth is
  still instantiable via ``SwitchConfig.pipeline_stages`` for the F8
  latency comparison);
* **wormhole switched** -- a head flit that wins an output port locks it
  for its packet until the tail flit passes;
* **source routed** -- the output port is read from the head flit's
  route field and the field is shifted (here: ``route_offset`` advances);
* protected by **ACK/NACK flow & error control** -- a flit that loses
  allocation, finds the output queue full, or arrives corrupted is
  NACKed and will be retransmitted by the upstream sender's go-back-N
  buffer.  There are no credits anywhere.

Timing: a flit visible on an input wire in cycle *t* that wins
allocation is pushed into its output queue in *t*, moves into the output
port's retransmission buffer and onto the output wire in *t + 1*, and is
visible downstream in *t + 2* -- the 2-stage pipeline.  Extra configured
stages insert a shift register between crossbar and output queue.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence

from repro.core.arbiter import make_arbiter
from repro.core.buffers import BoundedFifo
from repro.core.config import SwitchConfig
from repro.core.crc import CrcCodec
from repro.core.flit import Flit
from repro.core.flow_control import GoBackNReceiver, GoBackNSender, window_for_link
from repro.sim.channel import FlitChannel
from repro.sim.component import Component
from repro.sim.trace import NullTracer


class SwitchProtocolError(RuntimeError):
    """A flit stream violated wormhole framing (e.g. body without head)."""


class _OutputPort:
    """One output: delay pipe (extra stages) + queue + go-back-N sender."""

    def __init__(self, index: int, config: SwitchConfig, sender: GoBackNSender, name: str) -> None:
        self.index = index
        self.sender = sender
        self.queue: BoundedFifo[Flit] = BoundedFifo(config.buffer_depth, f"{name}.q{index}")
        extra = config.pipeline_stages - 2
        self.delay: Deque[Optional[Flit]] = deque([None] * max(extra, 0))
        self.locked_input: Optional[int] = None
        self.flits_out = 0

    @property
    def in_delay(self) -> int:
        return sum(1 for f in self.delay if f is not None)

    def has_space(self) -> bool:
        """Can one more flit be committed to this output this cycle?"""
        return self.queue.free > self.in_delay

    def reset(self) -> None:
        self.queue.clear()
        self.delay = deque([None] * len(self.delay))
        self.locked_input = None
        self.sender.reset()
        self.flits_out = 0


class Switch(Component):
    """A single xpipes Lite switch instance.

    Parameters
    ----------
    name:
        Component name.
    config:
        Port counts, queue depth, pipeline depth, arbitration policy.
    in_channels:
        One :class:`FlitChannel` per input; this switch is the receiver.
    out_channels:
        One :class:`FlitChannel` per output; this switch is the sender.
    out_windows:
        Go-back-N window per output channel; must cover the round trip
        of the attached link (see
        :func:`repro.core.flow_control.window_for_link`).  A single int
        applies to all outputs.
    """

    def __init__(
        self,
        name: str,
        config: SwitchConfig,
        in_channels: Sequence[FlitChannel],
        out_channels: Sequence[FlitChannel],
        out_windows: "int | Sequence[int]" = None,  # type: ignore[assignment]
        codec: "CrcCodec | None" = None,
    ) -> None:
        super().__init__(name)
        if len(in_channels) != config.n_inputs:
            raise ValueError(
                f"{name}: {config.n_inputs} inputs configured, "
                f"{len(in_channels)} channels given"
            )
        if len(out_channels) != config.n_outputs:
            raise ValueError(
                f"{name}: {config.n_outputs} outputs configured, "
                f"{len(out_channels)} channels given"
            )
        self.config = config
        if out_windows is None:
            out_windows = window_for_link(1)
        if isinstance(out_windows, int):
            out_windows = [out_windows] * config.n_outputs
        self.receivers = [
            GoBackNReceiver(ch, name=f"{name}.in{i}", codec=codec)
            for i, ch in enumerate(in_channels)
        ]
        self.outputs = [
            _OutputPort(
                i,
                config,
                GoBackNSender(ch, window=w, name=f"{name}.out{i}", codec=codec),
                name,
            )
            for i, (ch, w) in enumerate(zip(out_channels, out_windows))
        ]
        self._arbiters = [
            make_arbiter(config.arbitration, config.n_inputs) for _ in range(config.n_outputs)
        ]
        # Wormhole state per input: output this input's current packet
        # is locked onto, or None between packets.
        self._input_dest: List[Optional[int]] = [None] * config.n_inputs
        self.flits_routed = 0
        self.allocation_conflicts = 0
        #: Lifecycle telemetry (see :mod:`repro.telemetry.lifecycle`):
        #: when enabled, head-flit arrival cycles are tracked per input
        #: so each packet hop emits a ``hop`` trace event carrying its
        #: arbitration wait.  Off by default -- the only disabled-mode
        #: cost is one boolean test per stage.
        self.lifecycle = False
        # Per input: (packet_id, first cycle its head was seen here).
        self._head_arrival: "List[Optional[tuple]]" = [None] * config.n_inputs

    def reset(self) -> None:
        for r in self.receivers:
            r.reset()
        for o in self.outputs:
            o.reset()
        for a in self._arbiters:
            a.reset()
        # In place: compiled programs bind this list at elaboration.
        self._input_dest[:] = [None] * self.config.n_inputs
        self.flits_routed = 0
        self.allocation_conflicts = 0
        self._head_arrival = [None] * self.config.n_inputs

    # -- fast-path quiescence contract ------------------------------------
    def wake_inputs(self):
        wires = [r.channel.forward for r in self.receivers]
        wires.extend(o.sender.channel.backward for o in self.outputs)
        return wires

    def is_quiescent(self) -> bool:
        # With every input wire idle, a tick moves nothing: all queues
        # and delay pipes empty, every sender out of work.  (The sender
        # property also keeps resync-armed senders awake so their
        # timeout counters tick; this runs once per awake cycle.)
        for o in self.outputs:
            if not o.queue.is_empty or not o.sender.quiescent:
                return False
            for f in o.delay:
                if f is not None:
                    return False
        return True

    # -- per-cycle behaviour ----------------------------------------------
    def tick(self, cycle: int) -> None:
        self._output_stage(cycle)
        self._input_stage(cycle)

    def _output_stage(self, cycle: int) -> None:
        """Queue head -> retransmission buffer -> wire; shift delay pipes."""
        for port in self.outputs:
            sender = port.sender
            if (
                port.queue.is_empty
                and not port.delay
                and sender.quiescent
                and sender.channel.backward.value is None
            ):
                # Nothing queued, nothing to (re)transmit, no ACK to
                # consume: the whole port is a no-op this cycle.
                continue
            # Queue head moves to the wire first, then one delay-pipe
            # slot matures into the queue -- so each extra stage really
            # costs one cycle.
            if not port.queue.is_empty and port.sender.can_accept():
                flit = port.queue.pop()
                port.sender.enqueue(flit)
                port.flits_out += 1
            if port.delay:
                ready = port.delay.popleft()
                if ready is not None:
                    port.queue.push(ready)
            port.sender.on_cycle()

    def _requested_output(self, input_index: int, flit: Flit) -> int:
        if flit.is_head:
            hop = flit.next_hop
            if not 0 <= hop < self.config.n_outputs:
                raise SwitchProtocolError(
                    f"{self.name}: route asks for output {hop} of "
                    f"{self.config.n_outputs} ({flit!r})"
                )
            return hop
        dest = self._input_dest[input_index]
        if dest is None:
            raise SwitchProtocolError(
                f"{self.name}: body/tail flit on idle input {input_index}: {flit!r}"
            )
        return dest

    def _input_stage(self, cycle: int) -> None:
        """Route, allocate, and move winning flits into output queues."""
        # Every input wire idle (the common case on a lightly loaded
        # switch that is only awake to shepherd ACKs): nothing to
        # route, allocate, poll or NACK -- just keep delay pipes full.
        for r in self.receivers:
            if r.channel.forward.value is not None:
                break
        else:
            if self.config.pipeline_stages > 2:
                for port in self.outputs:
                    port.delay.append(None)
            return
        # Phase 1: candidate flit per input (clean + in sequence only).
        candidates: List[Optional[Flit]] = [r.peek() for r in self.receivers]
        requested: List[Optional[int]] = [None] * self.config.n_inputs
        for i, flit in enumerate(candidates):
            if flit is not None:
                requested[i] = self._requested_output(i, flit)
        if self.lifecycle:
            # First sighting of each head flit: the anchor for the hop's
            # arbitration-wait measurement.  Retransmissions of the same
            # head (same packet id) keep the original arrival cycle.
            for i, flit in enumerate(candidates):
                if flit is not None and flit.is_head:
                    seen = self._head_arrival[i]
                    if seen is None or seen[0] != flit.packet_id:
                        self._head_arrival[i] = (flit.packet_id, cycle)

        # Phase 2: one winner per output.
        winner_of: List[Optional[int]] = [None] * self.config.n_outputs
        for out_idx, port in enumerate(self.outputs):
            contenders = [
                i
                for i in range(self.config.n_inputs)
                if requested[i] == out_idx
            ]
            if not contenders:
                continue
            if port.locked_input is not None:
                # Wormhole: the owning packet has exclusive use.
                winner = port.locked_input if port.locked_input in contenders else None
                losers = [i for i in contenders if i != winner]
            else:
                reqs = [i in contenders for i in range(self.config.n_inputs)]
                winner = self._arbiters[out_idx].grant(reqs)
                losers = [i for i in contenders if i != winner]
            self.allocation_conflicts += len(losers)
            if winner is not None and port.has_space():
                winner_of[out_idx] = winner

        # Phase 3: poll every receiver; winners are accepted (ACK), the
        # rest are NACKed and retried by the upstream go-back-N sender.
        committed = [False] * self.config.n_outputs
        for i, receiver in enumerate(self.receivers):
            out_idx = requested[i]
            granted = out_idx is not None and winner_of[out_idx] == i
            accepted = receiver.poll(lambda _flit, ok=granted: ok)
            if accepted is None:
                continue
            assert out_idx is not None
            self._commit(i, out_idx, accepted, cycle)
            committed[out_idx] = True

        # Keep each delay pipe at its fixed length: outputs that did not
        # receive a flit this cycle shift in a bubble.
        for out_idx, port in enumerate(self.outputs):
            if self.config.pipeline_stages > 2 and not committed[out_idx]:
                port.delay.append(None)

    def _commit(self, input_index: int, out_idx: int, flit: Flit, cycle: int) -> None:
        """A flit won allocation: update wormhole state, enter the output."""
        port = self.outputs[out_idx]
        if self.lifecycle and flit.is_head:
            seen = self._head_arrival[input_index]
            arrival = (
                seen[1] if seen is not None and seen[0] == flit.packet_id else cycle
            )
            self._head_arrival[input_index] = None
            self.trace(
                cycle,
                "hop",
                pkt=flit.packet_id,
                inp=input_index,
                out=out_idx,
                arrival=arrival,
                wait=cycle - arrival,
            )
        if flit.is_head:
            flit = flit.advance_route()
            if not flit.is_tail:
                port.locked_input = input_index
                self._input_dest[input_index] = out_idx
        if flit.is_tail and not flit.is_head:
            port.locked_input = None
            self._input_dest[input_index] = None
        if self.config.pipeline_stages > 2:
            # Extra pipeline stages (deep-pipeline/original-xpipes mode).
            port.delay.append(flit)
        else:
            port.queue.push(flit)
        self.flits_routed += 1
        if self.sim is not None and type(self.sim.tracer) is not NullTracer:
            # repr(flit) is formatted per routed flit: only for a live tracer.
            self.trace(cycle, "route", flit=repr(flit), inp=input_index, out=out_idx)
