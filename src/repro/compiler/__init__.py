"""The xpipesCompiler: NoC specification -> views.

    XpipesCompiler: NoC specification -> routing tables + xpipes components

The compiler consumes a :class:`~repro.compiler.spec.NocSpecification`
(cores, topology, mapping, component parameters) and produces the two
orthogonal views the paper describes:

* the **simulation view** -- a live, runnable
  :class:`~repro.network.noc.Noc` (:func:`~repro.compiler.instantiate.simulation_view`);
* the **synthesis view** -- SystemC-style structural source with one
  class template specialization per component type plus a hierarchical
  top level (:mod:`~repro.compiler.codegen`), and the analytic
  synthesis estimate (:func:`~repro.compiler.instantiate.synthesis_view`).

Routing tables (the NI LUT contents) are generated once and shared by
both views (:mod:`~repro.compiler.routing_tables`).

``python -m repro compile`` is the command-line front end
(:func:`compile_main`): one JSON specification in, routing tables,
the SystemC-style synthesis view and the synthesis estimate out.
"""

import sys

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "codegen": ("generate_systemc", "write_systemc"),
    "instantiate": ("simulation_view", "synthesis_view"),
    "routing_tables": ("generate_routing_tables", "render_routing_tables"),
    "spec": ("CoreBinding", "NocSpecification"),
})
__all__ = ["compile_main", *__all__]


def _demo_spec():
    from repro.compiler.spec import NocSpecification
    from repro.network.topology import attach_round_robin, mesh

    topo = mesh(2, 2)
    attach_round_robin(topo, 2, 2)
    return NocSpecification.from_topology(topo, name="demo2x2")


def compile_main(spec=None, output=None, tables=False, report=False,
                 freq=1000.0, demo=False) -> int:
    """``python -m repro compile``: ``--demo`` prints a starter
    specification; otherwise read the ``spec`` file and do any of
    ``--output DIR`` (write the synthesis view), ``--tables`` (print the
    routing tables) and ``--report`` (print the synthesis estimate at
    ``--freq`` MHz).  The parser requires exactly one of ``spec`` and
    ``--demo``; a spec with nothing to do is a usage error (exit 2), and
    so is one that does not load, does not route or that the simulator
    would refuse to build: :func:`repro.core.routing.violations` judges
    the whole route set before any view is produced, one error line per
    violated kind."""
    if demo:
        print(_demo_spec().to_json())
        return 0
    if not (output or tables or report):
        print("repro compile: error: nothing to do: pass --output, --tables "
              "and/or --report", file=sys.stderr)
        return 2
    from repro.compiler.spec import NocSpecification
    from repro.core.routing import RouteSet, refusal, violations

    try:
        with open(spec, "r", encoding="utf-8") as f:
            noc_spec = NocSpecification.from_json(f.read())
        errors = refusal(violations(
            RouteSet(noc_spec.to_topology(), noc_spec.config.routing_policy),
            noc_spec.config))
    except (OSError, ValueError, RecursionError) as exc:
        errors = [exc]
    for error in errors:
        print(f"repro compile: error: {spec}: {error}", file=sys.stderr)
    if errors:
        return 2
    if tables:
        from repro.compiler.routing_tables import (
            generate_routing_tables,
            render_routing_tables,
        )

        print(render_routing_tables(generate_routing_tables(noc_spec)))
    if report:
        from repro.compiler.instantiate import synthesis_view

        print(synthesis_view(noc_spec, target_freq_mhz=freq).to_table())
    if output:
        from repro.compiler.codegen import write_systemc

        for path in write_systemc(noc_spec, output):
            print(f"wrote {path}")
    return 0
