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

from repro.flow.bandwidth import LinkLoad, check_feasibility, link_loads
from repro.flow.dse import DesignPoint, explore_design_space, pareto_frontier, render_space
from repro.flow.floorplan import Floorplan, floorplan_topology
from repro.flow.mapping import (
    anneal_mapping,
    apply_mapping,
    greedy_mapping,
    mapping_cost,
)
from repro.flow.keying import stable_repr
from repro.flow.runner import ExperimentRunner, PointReport
from repro.flow.selection import CandidateResult, select_topology
from repro.flow.taskgraph import (
    CoreGraph,
    CoreSpec,
    TaskGraph,
    demo_multimedia_soc,
    demo_telecom_soc,
)

__all__ = [
    "CandidateResult",
    "DesignPoint",
    "LinkLoad",
    "explore_design_space",
    "pareto_frontier",
    "render_space",
    "check_feasibility",
    "link_loads",
    "CoreGraph",
    "CoreSpec",
    "ExperimentRunner",
    "Floorplan",
    "PointReport",
    "stable_repr",
    "TaskGraph",
    "anneal_mapping",
    "apply_mapping",
    "demo_multimedia_soc",
    "demo_telecom_soc",
    "floorplan_topology",
    "greedy_mapping",
    "mapping_cost",
    "select_topology",
]
