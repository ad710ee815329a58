"""Reusable micro-harness components for protocol-level tests."""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.flit import Flit, flit_type_for
from repro.core.flow_control import GoBackNReceiver, GoBackNSender
from repro.sim.channel import FlitChannel
from repro.sim.component import Component


def packet_flits(
    n: int,
    route: tuple,
    width: int = 16,
    packet_id: int = 1,
    payload_base: int = 0,
) -> List[Flit]:
    """A hand-built packet of ``n`` flits with a route on its head."""
    flits = []
    for i in range(n):
        ftype = flit_type_for(i, n)
        flits.append(
            Flit(
                ftype=ftype,
                payload=(payload_base + i) % (1 << width),
                width=width,
                packet_id=packet_id,
                index=i,
                route=route if ftype.is_head else None,
            )
        )
    return flits


class FlitSource(Component):
    """Feeds a flit list through a go-back-N sender."""

    def __init__(self, name: str, channel: FlitChannel, flits=None, window: int = 7):
        super().__init__(name)
        self.sender = GoBackNSender(channel, window=window, name=name)
        self.queue: List[Flit] = list(flits or [])

    def submit(self, flits) -> None:
        self.queue.extend(flits)

    @property
    def drained(self) -> bool:
        return not self.queue and self.sender.idle

    def tick(self, cycle):
        if self.queue and self.sender.can_accept():
            self.sender.enqueue(self.queue.pop(0))
        self.sender.on_cycle()


class FlitSink(Component):
    """Accepts flits through a go-back-N receiver, optionally gated."""

    def __init__(
        self,
        name: str,
        channel: FlitChannel,
        accept: Optional[Callable[[Flit], bool]] = None,
    ):
        super().__init__(name)
        self.receiver = GoBackNReceiver(channel, name=name)
        self.accept = accept or (lambda f: True)
        self.got: List[Flit] = []

    def tick(self, cycle):
        f = self.receiver.poll(self.accept)
        if f is not None:
            self.got.append(f)


def flip_final_payload_byte(store, key: str) -> str:
    """Damage the record under ``key`` in place: flip the last byte of
    its payload inside the record's span in its segment, so the sha256
    check refuses it on the next read.  Returns the segment path."""
    from repro.store.cas import TRAILER_SIZE

    path, offset, length = store.locate(key)
    with open(path, "r+b") as fh:
        fh.seek(offset + length - TRAILER_SIZE - 1)
        last = fh.read(1)
        fh.seek(-1, 1)
        fh.write(bytes([last[0] ^ 0xFF]))
    return path


def point_outcomes(runner) -> list:
    """The ``point_end`` events of the points ``runner`` executed (not
    its cache hits), in file order: the one on-disk record of each
    computed point's outcome."""
    import os

    from repro.telemetry.events import EVENTS_BASENAME, read_events

    path = runner.events_path or os.path.join(runner.store.root, EVENTS_BASENAME)
    return [
        rec for rec in read_events(path)
        if rec.get("event") == "point_end" and rec.get("cached") is False
    ]
