"""The xpipes Lite component library.

This package is the paper's primary contribution: a parameterizable,
synthesis-oriented library of NoC building blocks --

* flits and packets (:mod:`~repro.core.flit`, :mod:`~repro.core.packet`),
* the OCP transaction layer (:mod:`~repro.core.ocp`),
* transaction-centric packetization (:mod:`~repro.core.packetizer`),
* initiator/target network interfaces (:mod:`~repro.core.ni`),
* the 2-stage output-queued wormhole switch (:mod:`~repro.core.switch`),
* pipelined unreliable links (:mod:`~repro.core.link`) and the go-back-N
  ACK/NACK flow & error control that rides them
  (:mod:`~repro.core.flow_control`),
* source routing (:mod:`~repro.core.routing`).

Every block is parameterized through the dataclasses in
:mod:`~repro.core.config`, mirroring the C++ class-template parameters
the xpipesCompiler specializes.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "config": ("ArbitrationPolicy", "LinkConfig", "NiConfig", "NocParameters",
               "SwitchConfig"),
    "credit": ("CreditReceiver", "CreditSender", "CreditToken"),
    "credit_switch": ("InputBufferedSwitch",),
    "flit": ("Flit", "FlitType"),
    "ocp": ("BurstTransaction", "OcpCmd", "OcpMasterPort", "OcpResponse",
            "OcpSlavePort", "SResp"),
    "packet": ("Packet", "PacketHeader", "PacketKind"),
    "packetizer": ("Depacketizer", "Packetizer"),
    "routing": ("Route", "RouteSet", "RoutingTable"),
})
