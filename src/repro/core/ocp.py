"""OCP transaction layer.

The xpipes Lite NI front end speaks OCP (Open Core Protocol): an
end-to-end, transaction-centric socket with independent request and
response flows, burst support, sideband signals (interrupts) and
threading extensions.  This module models the subset the paper relies
on:

* :class:`BurstTransaction` -- one OCP request (MCmd/MAddr/MData/
  MBurstLength/MThreadID) covering single beats and bursts.
* :class:`OcpResponse` -- the matching SResp/SData response.
* :class:`OcpMasterPort` / :class:`OcpSlavePort` -- registered
  request/accept + response/accept handshakes between a core and its NI
  (and between a target NI and its slave core), plus a sideband wire for
  interrupts.

The handshake is fully registered (one-cycle accept latency), matching
the kernel's synchronous discipline.  A port carries whole transactions,
not individual phases; per-beat wire wiggling is abstracted because the
paper's evaluation depends on transaction/packet timing, not OCP phase
timing.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.sim.kernel import Simulator


class OcpCmd(enum.Enum):
    """OCP MCmd values used by the library."""

    IDLE = 0
    WRITE = 1
    READ = 2


class SResp(enum.Enum):
    """OCP SResp values."""

    NULL = 0
    DVA = 1  # data valid / accept
    ERR = 3


_txn_ids = itertools.count(1)


def next_txn_id() -> int:
    return next(_txn_ids)


@dataclass(frozen=True)
class BurstTransaction:
    """One OCP request transaction.

    ``burst_len`` is the number of beats; ``data`` holds one word per
    beat for writes and is empty for reads.  ``addr`` is the full MAddr;
    the initiator NI's LUT splits it into destination + offset.
    """

    cmd: OcpCmd
    addr: int
    burst_len: int = 1
    data: Tuple[int, ...] = ()
    thread_id: int = 0
    txn_id: int = field(default_factory=next_txn_id)
    issue_cycle: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        if self.cmd is OcpCmd.IDLE:
            raise ValueError("IDLE is not a transferable transaction")
        if self.burst_len < 1:
            raise ValueError("burst_len must be >= 1")
        if self.cmd is OcpCmd.WRITE and len(self.data) != self.burst_len:
            raise ValueError(
                f"write burst of {self.burst_len} beats needs "
                f"{self.burst_len} data words, got {len(self.data)}"
            )
        if self.cmd is OcpCmd.READ and self.data:
            raise ValueError("read requests carry no data")

    @property
    def is_read(self) -> bool:
        return self.cmd is OcpCmd.READ

    @property
    def is_write(self) -> bool:
        return self.cmd is OcpCmd.WRITE


@dataclass(frozen=True)
class OcpResponse:
    """One OCP response: SResp plus read data (one word per beat)."""

    txn_id: int
    sresp: SResp
    data: Tuple[int, ...] = ()
    thread_id: int = 0

    @property
    def ok(self) -> bool:
        return self.sresp is SResp.DVA


@dataclass(frozen=True)
class SidebandEvent:
    """A sideband signal (interrupt) raised by a target core."""

    source_id: int
    vector: int = 0


class OcpMasterPort:
    """The OCP socket between a master core and its initiator NI.

    The master drives ``request`` and holds it until ``request_accept``
    is observed; the NI deduplicates by ``txn_id``.  Responses flow the
    opposite way with the same discipline.  ``sideband`` delivers
    interrupt events from the network to the core.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.name = name
        self.request = sim.wire(f"{name}.mcmd")
        self.request_accept = sim.wire(f"{name}.scmdaccept")
        self.response = sim.wire(f"{name}.sresp")
        self.response_accept = sim.wire(f"{name}.mrespaccept")
        self.sideband = sim.wire(f"{name}.sinterrupt")

    # master-side helpers
    def drive_request(self, txn: Optional[BurstTransaction]) -> None:
        if txn is not None:
            self.request.drive(txn)

    def accepted_request_id(self) -> Optional[int]:
        """txn_id acknowledged by the NI this cycle, if any."""
        return self.request_accept.value

    def peek_response(self) -> Optional[OcpResponse]:
        return self.response.value

    def accept_response(self, txn_id: int) -> None:
        self.response_accept.drive(txn_id)

    def peek_sideband(self) -> Optional[SidebandEvent]:
        return self.sideband.value

    # NI-side helpers
    def peek_request(self) -> Optional[BurstTransaction]:
        return self.request.value

    def accept_request(self, txn_id: int) -> None:
        self.request_accept.drive(txn_id)

    def drive_response(self, resp: Optional[OcpResponse]) -> None:
        if resp is not None:
            self.response.drive(resp)

    def accepted_response_id(self) -> Optional[int]:
        """txn_id whose response the master consumed this cycle, if any."""
        return self.response_accept.value

    def raise_sideband(self, event: SidebandEvent) -> None:
        self.sideband.drive(event)


class OcpSlavePort:
    """The OCP socket between a target NI and its slave core.

    Structurally identical to :class:`OcpMasterPort` with the NI on the
    master side: the NI drives reassembled requests at the slave and the
    slave answers (possibly after wait states).  The sideband wire runs
    from the slave core into the NI.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.name = name
        self.request = sim.wire(f"{name}.mcmd")
        self.request_accept = sim.wire(f"{name}.scmdaccept")
        self.response = sim.wire(f"{name}.sresp")
        self.response_accept = sim.wire(f"{name}.mrespaccept")
        self.sideband = sim.wire(f"{name}.minterrupt")

    # NI-side helpers
    def drive_request(self, txn: Optional[BurstTransaction]) -> None:
        if txn is not None:
            self.request.drive(txn)

    def accepted_request_id(self) -> Optional[int]:
        """txn_id acknowledged by the slave this cycle, if any."""
        return self.request_accept.value

    def peek_response(self) -> Optional[OcpResponse]:
        return self.response.value

    def accept_response(self, txn_id: int) -> None:
        self.response_accept.drive(txn_id)

    def peek_sideband(self) -> Optional[SidebandEvent]:
        return self.sideband.value

    # slave-side helpers
    def peek_request(self) -> Optional[BurstTransaction]:
        return self.request.value

    def accept_request(self, txn_id: int) -> None:
        self.request_accept.drive(txn_id)

    def drive_response(self, resp: Optional[OcpResponse]) -> None:
        if resp is not None:
            self.response.drive(resp)

    def accepted_response_id(self) -> Optional[int]:
        """txn_id whose response the NI consumed this cycle, if any."""
        return self.response_accept.value

    def raise_sideband(self, event: SidebandEvent) -> None:
        self.sideband.drive(event)
