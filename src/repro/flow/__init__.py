"""The SunMap-style front-end design flow.

The paper's NoC synthesis flow (its design-flow figure) feeds the
xpipesCompiler from SunMap: the application is captured as a
communication graph, mapped onto candidate topologies, floorplanned,
and the best topology is selected using quick area/power/latency
estimations.  This package implements that front end:

* :mod:`~repro.flow.taskgraph` -- application task graphs and the core
  communication graphs derived from them;
* :mod:`~repro.flow.mapping` -- greedy and simulated-annealing mapping
  of cores onto a switch fabric;
* :mod:`~repro.flow.floorplan` -- grid floorplanning and wire-length /
  link-pipelining estimation;
* :mod:`~repro.flow.selection` -- topology selection driven by the
  synthesis models (the paper's "power of abstraction" loop);
* :mod:`~repro.flow.runner` -- parallel, disk-cached execution of
  independent experiment points (see ``docs/PERFORMANCE.md``).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "bandwidth": ("demand_routes", "route_loads"),
    "dse": ("DesignPoint", "explore_design_space", "pareto_frontier", "render_space"),
    "floorplan": ("Floorplan", "floorplan_topology"),
    "keying": ("stable_repr",),
    "mapping": ("anneal_mapping", "apply_mapping", "greedy_mapping", "mapping_cost",
                "slot_capacity"),
    "runner": ("ExperimentRunner",),
    "selection": ("CandidateResult", "select_topology"),
    "session": ("PointReport",),
    "taskgraph": ("CoreGraph", "CoreSpec", "TaskGraph", "demo_multimedia_soc",
                  "demo_telecom_soc"),
})
