"""Component parameter spaces.

xpipes Lite components are C++ class templates specialized per instance
by the xpipesCompiler (flit width, I/O port counts, buffer sizes...).
These dataclasses are the Python equivalent: frozen, validated parameter
records shared by the simulation models in :mod:`repro.core` and the
synthesis models in :mod:`repro.synth`.  :class:`NocBuildConfig`
aggregates them for a whole network; it lives here, not beside the
builder (:mod:`repro.network.noc`), so the synthesis and DSE views can
read it without loading the simulator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional


class ArbitrationPolicy(enum.Enum):
    """Switch output-port arbitration, as in the paper: fixed or RR."""

    FIXED_PRIORITY = "fixed"
    ROUND_ROBIN = "round_robin"


@dataclass(frozen=True)
class NocParameters:
    """Global parameters shared by all components of one NoC instance.

    Attributes
    ----------
    flit_width:
        Bits per flit (the paper sweeps 16/32/64/128).
    data_width:
        OCP data word width in bits (one burst beat).
    addr_width:
        OCP address width in bits.
    max_hops:
        Maximum source-route length supported by the header format.
    port_bits:
        Bits per hop in the source route (log2 of max switch radix).
    node_id_bits:
        Bits used to identify an NI in packet headers.
    burst_bits:
        Bits for the burst-length field (max burst = 2**burst_bits - 1).
    """

    flit_width: int = 32
    data_width: int = 32
    addr_width: int = 32
    max_hops: int = 8
    port_bits: int = 3
    node_id_bits: int = 6
    burst_bits: int = 8

    def __post_init__(self) -> None:
        if self.flit_width < 4:
            raise ValueError(f"flit_width must be >= 4, got {self.flit_width}")
        if self.data_width < 8:
            raise ValueError(f"data_width must be >= 8, got {self.data_width}")
        if self.max_hops < 1:
            raise ValueError("max_hops must be positive")
        if self.port_bits < 1 or self.node_id_bits < 1 or self.burst_bits < 1:
            raise ValueError("field widths must be positive")

    @property
    def route_bits(self) -> int:
        """Bits reserved for the source route in the packet header."""
        return self.max_hops * self.port_bits

    @property
    def max_radix(self) -> int:
        """Largest switch port count addressable by one route hop."""
        return 1 << self.port_bits

    @property
    def max_burst(self) -> int:
        return (1 << self.burst_bits) - 1

    @property
    def max_nodes(self) -> int:
        return 1 << self.node_id_bits


@dataclass(frozen=True)
class SwitchConfig:
    """Parameters of one switch instance.

    The paper's switch is output-queued, 2-stage pipelined, with
    ACK/NACK flow control; the original xpipes switch had 7 pipeline
    stages, kept available here for the latency comparison (F8).
    """

    n_inputs: int
    n_outputs: int
    buffer_depth: int = 6
    pipeline_stages: int = 2
    arbitration: ArbitrationPolicy = ArbitrationPolicy.ROUND_ROBIN

    def __post_init__(self) -> None:
        if self.n_inputs < 1 or self.n_outputs < 1:
            raise ValueError("switch needs at least one input and one output")
        if self.buffer_depth < 2:
            raise ValueError("output queue depth must be >= 2")
        if self.pipeline_stages < 1:
            raise ValueError("pipeline_stages must be >= 1")

    @property
    def radix(self) -> int:
        return max(self.n_inputs, self.n_outputs)

    def label(self) -> str:
        """Human-readable size tag, e.g. ``4x4``."""
        return f"{self.n_inputs}x{self.n_outputs}"


@dataclass(frozen=True)
class LinkConfig:
    """Parameters of one pipelined link.

    ``stages`` is the number of pipeline retiming stages in each
    direction (>= 1); ``error_rate`` is the per-flit corruption
    probability modelling the unreliable wires the ACK/NACK protocol is
    designed for.

    ``bit_errors`` selects the bit-accurate error model: instead of
    flagging the flit as corrupted (perfect detection), the link flips
    one or two real payload bits and detection is left to the CRC the
    senders attach -- undetected errors become possible, exactly as in
    silicon.
    """

    stages: int = 1
    error_rate: float = 0.0
    bit_errors: bool = False

    def __post_init__(self) -> None:
        if self.stages < 1:
            raise ValueError("a link has at least one pipeline stage")
        if not 0.0 <= self.error_rate < 1.0:
            raise ValueError("error_rate must be in [0, 1)")


@dataclass(frozen=True)
class NiConfig:
    """Parameters of one network interface instance.

    The NI has independent request and response channels; each has a
    small output buffer feeding its ACK/NACK sender.

    ``posted_writes`` makes writes fire-and-forget: the initiator NI
    acknowledges them locally and no WRITE_ACK crosses the network
    (halves write latency, loses end-to-end write confirmation).
    ``enforce_thread_order`` adds the OCP resequencing buffer: responses
    are delivered to the master in per-thread issue order even when
    different targets answer out of order.

    ``txn_timeout`` arms end-to-end transaction timeouts in the
    initiator NI: a non-posted transaction with no response after that
    many cycles is retransmitted up to ``txn_retries`` times, then
    completed toward the master with ``SResp.ERR`` -- the master
    *reports* a lost transaction instead of hanging on it (see
    docs/RESILIENCE.md).  Disabled (``None``) by default.
    """

    params: NocParameters = field(default_factory=NocParameters)
    buffer_depth: int = 4
    max_outstanding: int = 4
    posted_writes: bool = False
    enforce_thread_order: bool = False
    txn_timeout: "int | None" = None
    txn_retries: int = 0

    def __post_init__(self) -> None:
        if self.buffer_depth < 2:
            raise ValueError("NI buffer depth must be >= 2")
        if self.max_outstanding < 1:
            raise ValueError("max_outstanding must be >= 1")
        if self.txn_timeout is not None and self.txn_timeout < 1:
            raise ValueError("txn_timeout must be >= 1 cycle (or None)")
        if self.txn_retries < 0:
            raise ValueError("txn_retries must be >= 0")


@dataclass(frozen=True)
class NocBuildConfig:
    """Everything the builder needs besides the topology itself."""

    params: NocParameters = field(default_factory=NocParameters)
    buffer_depth: int = 6
    pipeline_stages: int = 2
    arbitration: ArbitrationPolicy = ArbitrationPolicy.ROUND_ROBIN
    link: LinkConfig = field(default_factory=LinkConfig)
    ni_buffer_depth: int = 4
    ni_max_outstanding: int = 8
    ni_posted_writes: bool = False
    ni_enforce_thread_order: bool = False
    #: End-to-end transaction timeout at the initiator NIs (cycles; see
    #: docs/RESILIENCE.md).  ``None`` keeps the paper's hang-forever
    #: semantics; a value arms retry (``ni_txn_retries`` attempts) then
    #: SResp.ERR delivery for lost transactions.
    ni_txn_timeout: Optional[int] = None
    ni_txn_retries: int = 0
    #: Sender-side lost-flit recovery (cycles of reverse-channel
    #: silence before a go-back-N sender rewinds; ``None`` disables).
    #: Needed for links that *drop* flits (dead-link faults) rather
    #: than corrupt them.  Applies to every switch and NI sender.
    link_resync_timeout: Optional[int] = None
    #: Bit-accurate error mode: attach a real CRC per flit (pair with
    #: ``LinkConfig(bit_errors=True)``); undetected errors become
    #: possible, as in silicon.
    crc_mode: bool = False
    #: Link-level flow control: the paper's "ack_nack" (output-queued
    #: switch + go-back-N retransmission) or the classical "credit"
    #: (input-buffered switch + credit counters).  Credit mode assumes
    #: reliable links and rejects error injection (see A10).
    flow_control: str = "ack_nack"
    #: Per-link overrides keyed by frozenset({element_a, element_b});
    #: typically produced from a floorplan via
    #: :func:`repro.flow.floorplan.link_configs_from_floorplan` so long
    #: wires get the pipeline stages they need.  Unlisted links use
    #: ``link``.
    link_overrides: "Dict[frozenset, LinkConfig]" = field(default_factory=dict)
    routing_policy: Optional[str] = None  # None = topology default
    seed: int = 1
    #: Scheduler mode (see ``docs/PERFORMANCE.md``): "compiled", the
    #: generated activity-tracked loop, elaborated lazily on the first
    #: run; "fast", the same loop without specialized lanes; or
    #: "interpreted", the classical tick-everything reference loop.
    #: Results are cycle-identical in every mode (checked by
    #: :func:`repro.network.experiments.verify_fast_path`).
    kernel: str = "compiled"

    def link_for(self, a: str, b: str) -> LinkConfig:
        """The link configuration between two elements."""
        return self.link_overrides.get(frozenset((a, b)), self.link)
