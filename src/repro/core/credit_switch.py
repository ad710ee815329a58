"""The input-buffered, credit-controlled switch.

Credit flow control needs a buffer whose occupancy the *upstream*
sender can track -- an input queue.  This switch is therefore the
architectural mirror image of :class:`repro.core.switch.Switch`:

* one FIFO per **input** (depth = ``config.buffer_depth``), advertised
  to the upstream sender as its credit pool;
* a single output register per output port feeding a
  :class:`~repro.core.credit.CreditSender` whose credits mirror the
  *downstream* element's input buffer;
* the same wormhole allocation and fixed/round-robin arbitration as the
  ACK/NACK switch, so A10 compares flow control, not routing.

Timing matches the 2-stage xpipes Lite switch: a flit visible on the
input wire in cycle *t* enters its input FIFO in *t*; allocation moves
a FIFO head through the crossbar and onto the output wire in the next
cycle it wins and has a credit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.arbiter import make_arbiter
from repro.core.buffers import BoundedFifo
from repro.core.config import SwitchConfig
from repro.core.credit import CreditProtocolError, CreditReceiver, CreditSender
from repro.core.flit import Flit
from repro.sim.channel import FlitChannel
from repro.sim.component import Component
from repro.sim.trace import NullTracer


class InputBufferedSwitch(Component):
    """A credit-controlled switch instance.

    ``out_capacities`` advertises, per output port, the input-buffer
    depth of the element behind that port (the downstream switch's FIFO
    or the NI's receive buffer).
    """

    def __init__(
        self,
        name: str,
        config: SwitchConfig,
        in_channels: Sequence[FlitChannel],
        out_channels: Sequence[FlitChannel],
        out_capacities: "int | Sequence[int]",
    ) -> None:
        super().__init__(name)
        if len(in_channels) != config.n_inputs:
            raise ValueError(f"{name}: input channel count mismatch")
        if len(out_channels) != config.n_outputs:
            raise ValueError(f"{name}: output channel count mismatch")
        if config.pipeline_stages != 2:
            raise ValueError(
                "the credit switch models only the 2-stage microarchitecture"
            )
        self.config = config
        if isinstance(out_capacities, int):
            out_capacities = [out_capacities] * config.n_outputs
        self.receivers = [
            CreditReceiver(ch, name=f"{name}.in{i}") for i, ch in enumerate(in_channels)
        ]
        self.in_queues: List[BoundedFifo[Flit]] = [
            BoundedFifo(config.buffer_depth, f"{name}.iq{i}")
            for i in range(config.n_inputs)
        ]
        self.senders = [
            CreditSender(ch, cap, name=f"{name}.out{o}")
            for o, (ch, cap) in enumerate(zip(out_channels, out_capacities))
        ]
        self._arbiters = [
            make_arbiter(config.arbitration, config.n_inputs)
            for _ in range(config.n_outputs)
        ]
        self._locked_input: List[Optional[int]] = [None] * config.n_outputs
        self._input_dest: List[Optional[int]] = [None] * config.n_inputs
        self.flits_routed = 0
        self.allocation_conflicts = 0

    def reset(self) -> None:
        for r in self.receivers:
            r.reset()
        for q in self.in_queues:
            q.clear()
        for s in self.senders:
            s.reset()
        for a in self._arbiters:
            a.reset()
        self._locked_input = [None] * self.config.n_outputs
        self._input_dest = [None] * self.config.n_inputs
        self.flits_routed = 0
        self.allocation_conflicts = 0

    # -- routing helpers ---------------------------------------------------
    def _requested_output(self, input_index: int, flit: Flit) -> int:
        if flit.is_head:
            hop = flit.next_hop
            if not 0 <= hop < self.config.n_outputs:
                raise CreditProtocolError(
                    f"{self.name}: route asks for output {hop}"
                )
            return hop
        dest = self._input_dest[input_index]
        if dest is None:
            raise CreditProtocolError(
                f"{self.name}: body/tail flit on idle input {input_index}"
            )
        return dest

    def tick(self, cycle: int) -> None:
        # 1. Allocation: move winning input-FIFO heads to the outputs.
        requested: List[Optional[int]] = [None] * self.config.n_inputs
        for i, q in enumerate(self.in_queues):
            head = q.peek()
            if head is not None:
                requested[i] = self._requested_output(i, head)
        for out_idx, sender in enumerate(self.senders):
            contenders = [
                i for i in range(self.config.n_inputs) if requested[i] == out_idx
            ]
            if not contenders:
                continue
            locked = self._locked_input[out_idx]
            if locked is not None:
                winner = locked if locked in contenders else None
                self.allocation_conflicts += len(contenders) - (winner is not None)
            else:
                reqs = [i in contenders for i in range(self.config.n_inputs)]
                winner = self._arbiters[out_idx].grant(reqs)
                self.allocation_conflicts += len(contenders) - 1
            if winner is None or not sender.can_accept():
                continue
            flit = self.in_queues[winner].pop()
            self.receivers[winner].grant()  # the input slot just freed
            if flit.is_head:
                flit = flit.advance_route()
                if not flit.is_tail:
                    self._locked_input[out_idx] = winner
                    self._input_dest[winner] = out_idx
            if flit.is_tail and not flit.is_head:
                self._locked_input[out_idx] = None
                self._input_dest[winner] = None
            sender.enqueue(flit)
            self.flits_routed += 1
            if self.sim is not None and type(self.sim.tracer) is not NullTracer:
                # repr(flit) is formatted per routed flit: only for a live tracer.
                self.trace(cycle, "route", flit=repr(flit), inp=winner, out=out_idx)

        # 2. Transmit (and absorb this cycle's returned credits).
        for s in self.senders:
            s.on_cycle()

        # 3. Accept arrivals into input FIFOs; push credit returns.
        for i, (r, q) in enumerate(zip(self.receivers, self.in_queues)):
            flit = r.poll()
            if flit is not None:
                q.push(flit)  # overflow = upstream violated its credits
            r.on_cycle()
