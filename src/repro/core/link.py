"""Pipelined, unreliable links.

xpipes Lite targets long on-chip wires that must be pipelined to meet
frequency, and that may corrupt data in flight -- the whole reason the
switch carries ACK/NACK retransmission hardware.  The :class:`Link`
component models one bidirectional link between two network elements:

* the *forward* direction shifts flits through ``stages - 1`` internal
  registers and may corrupt each passing flit with probability
  ``error_rate`` (a detected-error model: CRC logic in the receiver is
  abstracted into the flit's ``corrupted`` flag);
* the *backward* direction shifts ACK/NACK tokens with the same depth
  and is modelled as reliable (ACK wires are short and heavily guarded
  in the reference design; timeout-based recovery is out of scope).

End-to-end timing: a flit driven by the sender in cycle *t* is visible
to the receiver in cycle ``t + stages + 1`` (one cycle for the sender's
output register -- the channel wire -- plus the link's internal
stages).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Optional

from repro.core.config import LinkConfig
from repro.core.flit import Flit
from repro.sim.channel import AckSignal, FlitChannel
from repro.sim.component import Component


class Link(Component):
    """One direction-pair of wires between two network elements.

    Parameters
    ----------
    name:
        Component name.
    up:
        Channel whose sender side is driven by the upstream element.
    down:
        Channel whose receiver side is read by the downstream element.
    config:
        Pipeline depth and error rate.
    seed:
        Seed for this link's private error-injection PRNG, so whole
        network simulations are reproducible link by link.
    """

    def __init__(
        self,
        name: str,
        up: FlitChannel,
        down: FlitChannel,
        config: LinkConfig,
        seed: int = 0,
    ) -> None:
        super().__init__(name)
        self.config = config
        self.up = up
        self.down = down
        self._rng = random.Random(seed)
        self._seed = seed
        depth = config.stages - 1
        self._fwd: Deque[Optional[Flit]] = deque([None] * depth)
        self._bwd: Deque[Optional[AckSignal]] = deque([None] * depth)
        self._depth = depth
        self.flits_carried = 0
        self.errors_injected = 0
        self.flits_dropped = 0
        #: Flits sampled (carried or dropped) while a fault override was
        #: set -- what a FaultInjector window actually hit.
        self.flits_faulted = 0
        # Transient fault overrides (see repro.faults.FaultInjector):
        # unlike the immutable LinkConfig -- which rejects rate 1.0 --
        # these model *fault windows*: stuck-at links (rate 1.0 for a
        # spell) and dead links that drop flits outright.
        self._fault_rate: Optional[float] = None
        self._fault_drop = False
        #: Lifecycle telemetry (see :mod:`repro.telemetry.lifecycle`):
        #: when enabled, each injected error emits a ``link_error`` trace
        #: event so corrupted hops are visible in the exported timeline.
        self.lifecycle = False

    def reset(self) -> None:
        self._rng = random.Random(self._seed)
        self._fwd = deque([None] * self._depth)
        self._bwd = deque([None] * self._depth)
        self.flits_carried = 0
        self.errors_injected = 0
        self.flits_dropped = 0
        self.flits_faulted = 0
        self._fault_rate = None
        self._fault_drop = False

    # -- fault overrides ---------------------------------------------------
    def set_fault(
        self, error_rate: Optional[float] = None, drop: bool = False
    ) -> None:
        """Override the forward-path fault behaviour until cleared.

        ``error_rate`` replaces the configured Bernoulli rate (1.0 ==
        stuck-at: every flit corrupted); ``drop=True`` makes the link
        swallow flits entirely -- a dead link, which the base ACK/NACK
        protocol cannot recover from without a sender resync timeout or
        an NI transaction timeout.
        """
        if error_rate is None and not drop:
            raise ValueError("set_fault needs an error_rate or drop=True; "
                             "use clear_fault() to remove an override")
        if error_rate is not None and not (0.0 <= error_rate <= 1.0):
            raise ValueError(f"fault error_rate must be in [0, 1], got {error_rate}")
        self._fault_rate = error_rate
        self._fault_drop = drop

    def clear_fault(self) -> None:
        self._fault_rate = None
        self._fault_drop = False

    @property
    def fault_active(self) -> bool:
        return self._fault_drop or self._fault_rate is not None

    def _inject(self, flit: Optional[Flit], cycle: int) -> Optional[Flit]:
        if flit is None:
            return None
        if self._fault_drop:
            self.flits_faulted += 1
            self.flits_dropped += 1
            if self.lifecycle:
                self.trace(cycle, "link_error", pkt=flit.packet_id, seq=flit.seqno,
                           dropped=True)
            return None
        self.flits_carried += 1
        rate = self._fault_rate
        if rate is None:
            rate = self.config.error_rate
        else:
            self.flits_faulted += 1
        if rate > 0.0 and self._rng.random() < rate:
            self.errors_injected += 1
            if self.lifecycle:
                self.trace(cycle, "link_error", pkt=flit.packet_id, seq=flit.seqno)
            if self.config.bit_errors:
                # Bit-accurate mode: flip one real bit (sometimes two --
                # adjacent coupling faults); detection is the CRC's job.
                # Coupling is physical adjacency, so a fault on the MSB
                # pairs with its lower neighbour rather than wrapping to
                # the LSB on the far side of the bus.
                first = self._rng.randrange(flit.width)
                positions = [first]
                if self._rng.random() < 0.25 and flit.width > 1:
                    second = first + 1 if first + 1 < flit.width else first - 1
                    positions.append(second)
                return flit.flip_bits(positions)
            return flit.corrupt()
        return flit

    # -- fast-path quiescence contract ------------------------------------
    def wake_inputs(self):
        return (self.up.forward, self.down.backward)

    def is_quiescent(self) -> bool:
        # A link is pure shift registers: with both pipes empty and both
        # input wires idle, a tick only shifts bubbles.
        return all(f is None for f in self._fwd) and all(a is None for a in self._bwd)

    def tick(self, cycle: int) -> None:
        # Forward path: sample the upstream wire, shift the pipe.
        incoming = self._inject(self.up.peek_flit(), cycle)
        if self._depth == 0:
            outgoing = incoming
        else:
            self._fwd.append(incoming)
            outgoing = self._fwd.popleft()
        if outgoing is not None:
            self.down.send(outgoing)

        # Backward path: ACK/NACK tokens ride the same pipeline depth.
        ack_in = self.down.peek_ack()
        if self._depth == 0:
            ack_out = ack_in
        else:
            self._bwd.append(ack_in)
            ack_out = self._bwd.popleft()
        if ack_out is not None:
            self.up.send_ack(ack_out)
