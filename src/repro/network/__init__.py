"""Network assembly: topologies, traffic, and whole-NoC construction.

This package instantiates the :mod:`repro.core` component library into
complete networks the way the xpipesCompiler's simulation view does:

* :mod:`~repro.network.topology` -- the topology library (mesh, torus,
  ring, star, spidergon, custom) with port bookkeeping and path policies;
* :mod:`~repro.network.cores` -- behavioural OCP master and slave cores;
* :mod:`~repro.network.traffic` -- synthetic traffic patterns;
* :mod:`~repro.network.noc` -- the builder that wires cores, NIs,
  switches and links into a runnable :class:`~repro.network.noc.Noc`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cores": ("OcpMemorySlave", "OcpTrafficMaster"),
    "deadlock": ("check_deadlock_freedom",),
    "experiments": ("LoadPoint", "load_sweep", "render_sweep", "saturation_rate"),
    "monitors": ("NetworkMonitor", "utilization_report"),
    "noc": ("Noc", "NocBuildConfig"),
    "scoreboard": ("CheckedTrafficMaster", "add_checked_masters", "assert_all_clean",
                   "private_stripe_patterns"),
    "topology": ("Topology", "TopologyError", "custom_topology", "fat_tree",
                 "fully_connected", "hypercube", "mesh", "ring", "spidergon",
                 "star", "torus"),
    "traffic": ("HotspotTraffic", "PermutationTraffic", "RateTableTraffic",
                "ScriptedTraffic", "TraceTraffic", "TrafficPattern", "TxnTemplate",
                "UniformRandomTraffic"),
})
