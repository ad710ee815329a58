"""Double-buffered wires and the flit channel abstraction.

All inter-component communication in the simulator flows through
:class:`Wire` objects.  A wire behaves like a hardware register: the
value *driven* during cycle ``t`` becomes the value *read* during cycle
``t + 1``.  Because readers never observe same-cycle writes, the kernel
may evaluate components in any order and still be deterministic.

:class:`FlitChannel` bundles the two wires that make up one xpipes Lite
link direction: a forward wire carrying flits (or ``None`` for a bubble)
and a reverse wire carrying ACK/NACK tokens for the paper's
retransmission-based flow and error control.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional


class Wire:
    """A single double-buffered register connecting two components.

    Exactly one component should drive a wire each cycle; the last
    ``drive`` before the kernel's update phase wins.  Reading is
    unrestricted.  Wires must be created through
    :meth:`repro.sim.kernel.Simulator.wire` so the kernel can flip them.

    Kernel-owned fast-path state: ``readers`` lists the components the
    scheduler must wake while this wire holds a non-default value, and
    ``_hot``/``_queued`` implement change detection -- the first
    ``drive`` of a cycle enqueues the wire on the kernel's hot list so
    the latch phase touches only wires that can possibly change.
    """

    __slots__ = ("name", "default", "_cur", "_nxt", "_driven", "_queued", "_hot", "readers")

    def __init__(self, name: str, default: Any = None) -> None:
        self.name = name
        self.default = default
        self._cur: Any = default
        self._nxt: Any = default
        self._driven = False
        self._queued = False
        self._hot: "list | None" = None  # kernel hot list (None off-kernel)
        self.readers: list = []  # sleepy components woken by this wire

    @property
    def value(self) -> Any:
        """The registered value visible this cycle."""
        return self._cur

    def drive(self, value: Any) -> None:
        """Set the value that becomes visible next cycle."""
        self._nxt = value
        self._driven = True
        if not self._queued and self._hot is not None:
            self._queued = True
            self._hot.append(self)

    def update(self) -> None:
        """Kernel hook: latch the driven value (or decay to default)."""
        if self._driven:
            self._cur = self._nxt
            self._driven = False
        else:
            self._cur = self.default
        self._nxt = self.default

    def reset(self) -> None:
        self._cur = self.default
        self._nxt = self.default
        self._driven = False

    def __repr__(self) -> str:
        return f"Wire({self.name!r}, value={self._cur!r})"


class AckKind(enum.Enum):
    """Reverse-channel token kinds for ACK/NACK flow control."""

    ACK = "ack"
    NACK = "nack"


@dataclass(frozen=True, slots=True)
class AckSignal:
    """One ACK/NACK token travelling upstream.

    ``seqno`` identifies the flit being acknowledged so the go-back-N
    sender can release or rewind its retransmission buffer.
    """

    kind: AckKind
    seqno: int

    @staticmethod
    def ack(seqno: int) -> "AckSignal":
        return AckSignal(AckKind.ACK, seqno)

    @staticmethod
    def nack(seqno: int) -> "AckSignal":
        return AckSignal(AckKind.NACK, seqno)

    @property
    def is_ack(self) -> bool:
        return self.kind is AckKind.ACK


class FlitChannel:
    """One direction of an xpipes Lite link: flits forward, ACKs back.

    The channel owns two wires.  ``send``/``peek_flit`` operate on the
    forward wire (driven by the upstream sender); ``send_ack``/
    ``peek_ack`` operate on the reverse wire (driven by the downstream
    receiver).  Both wires are plain registers, so a flit sent in cycle
    *t* is seen in *t + 1* and its ACK, sent in *t + 1*, is seen by the
    sender in *t + 2* -- the minimum 2-cycle round trip the go-back-N
    window must cover.  Pipelined links stretch both directions further.
    """

    __slots__ = ("name", "forward", "backward")

    def __init__(self, name: str, forward: Wire, backward: Wire) -> None:
        self.name = name
        self.forward = forward
        self.backward = backward

    # -- sender side -----------------------------------------------------
    def send(self, flit: Any) -> None:
        """Drive one flit onto the forward wire for next cycle."""
        self.forward.drive(flit)

    def peek_ack(self) -> Optional[AckSignal]:
        """Read the ACK/NACK token visible this cycle, if any."""
        return self.backward.value

    # -- receiver side ---------------------------------------------------
    def peek_flit(self) -> Any:
        """Read the flit visible this cycle, or ``None`` for a bubble."""
        return self.forward.value

    def send_ack(self, ack: AckSignal) -> None:
        """Drive one ACK/NACK token onto the reverse wire."""
        self.backward.drive(ack)

    def __repr__(self) -> str:
        return f"FlitChannel({self.name!r})"
