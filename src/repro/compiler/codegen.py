"""SystemC-style code generation: the synthesis view's source.

The real xpipesCompiler specializes C++ class templates ("creates a
class template for each network component type") and emits a
hierarchical top level.  This generator mirrors that output shape:

* ``xpipes_params.h``   -- global parameter #defines,
* ``switch_types.h``    -- one typedef per unique switch configuration,
* ``ni_types.h``        -- initiator/target NI typedefs,
* ``routing_tables.h``  -- NI LUT contents as constant arrays,
* ``<name>_top.cpp``    -- the hierarchical netlist (modules + signals).

The text is generated for inspection, diffing and downstream tooling;
this repository does not compile it (no SystemC available) -- the
equivalent behaviour runs through the simulation view instead.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

from repro.compiler.routing_tables import generate_routing_tables
from repro.compiler.spec import NocSpecification
from repro.core.packet import PacketHeader

_HEADER = """\
//
// Generated by repro.compiler (xpipes Lite reproduction)
// specification: {name}
// DO NOT EDIT -- regenerate from the NoC specification instead.
//
"""


def _params_h(spec: NocSpecification) -> str:
    cfg = spec.config
    p = cfg.params
    lines = [
        _HEADER.format(name=spec.name),
        "#ifndef XPIPES_PARAMS_H",
        "#define XPIPES_PARAMS_H",
        "",
        f"#define XPIPES_FLIT_WIDTH      {p.flit_width}",
        f"#define XPIPES_DATA_WIDTH      {p.data_width}",
        f"#define XPIPES_ADDR_WIDTH      {p.addr_width}",
        f"#define XPIPES_MAX_HOPS        {p.max_hops}",
        f"#define XPIPES_PORT_BITS       {p.port_bits}",
        f"#define XPIPES_NODE_ID_BITS    {p.node_id_bits}",
        f"#define XPIPES_BURST_BITS      {p.burst_bits}",
        f"#define XPIPES_HEADER_BITS     {PacketHeader.bit_width(p)}",
        f"#define XPIPES_BUFFER_DEPTH    {cfg.buffer_depth}",
        f"#define XPIPES_PIPELINE_STAGES {cfg.pipeline_stages}",
        f"#define XPIPES_LINK_STAGES     {cfg.link.stages}",
        f'#define XPIPES_ARBITRATION     "{cfg.arbitration.value}"',
        "",
        "#endif // XPIPES_PARAMS_H",
        "",
    ]
    return "\n".join(lines)


def _switch_instantiations(spec: NocSpecification) -> List[Tuple[str, int]]:
    """Unique switch radixes in the design, with instance counts."""
    topo = spec.to_topology()
    radixes: Dict[int, int] = {}
    for s in topo.switches:
        r = topo.radix_of(s)
        radixes[r] = radixes.get(r, 0) + 1
    return sorted((f"xpipes_switch_{r}x{r}", r) for r in radixes)


def _switch_types_h(spec: NocSpecification) -> str:
    lines = [
        _HEADER.format(name=spec.name),
        "#ifndef XPIPES_SWITCH_TYPES_H",
        "#define XPIPES_SWITCH_TYPES_H",
        "",
        '#include "xpipes_params.h"',
        '#include "xpipes_switch.h"  // template <int NIN, int NOUT, int DEPTH, int STAGES>',
        "",
    ]
    for typedef_name, radix in _switch_instantiations(spec):
        lines.append(
            f"typedef xpipes_switch<{radix}, {radix}, XPIPES_BUFFER_DEPTH, "
            f"XPIPES_PIPELINE_STAGES> {typedef_name};"
        )
    lines += ["", "#endif // XPIPES_SWITCH_TYPES_H", ""]
    return "\n".join(lines)


def _ni_types_h(spec: NocSpecification) -> str:
    lines = [
        _HEADER.format(name=spec.name),
        "#ifndef XPIPES_NI_TYPES_H",
        "#define XPIPES_NI_TYPES_H",
        "",
        '#include "xpipes_params.h"',
        '#include "xpipes_ni.h"  // template <int FLIT_W, int DATA_W, int OUTSTANDING>',
        "",
        "typedef xpipes_ni_initiator<XPIPES_FLIT_WIDTH, XPIPES_DATA_WIDTH, "
        f"{spec.config.ni_max_outstanding}> xpipes_initiator_ni;",
        "typedef xpipes_ni_target<XPIPES_FLIT_WIDTH, XPIPES_DATA_WIDTH, "
        f"{spec.config.ni_max_outstanding}> xpipes_target_ni;",
        "",
        "#endif // XPIPES_NI_TYPES_H",
        "",
    ]
    return "\n".join(lines)


def _routing_tables_h(spec: NocSpecification) -> str:
    tables = generate_routing_tables(spec)
    p = spec.config.params
    lines = [
        _HEADER.format(name=spec.name),
        "#ifndef XPIPES_ROUTING_TABLES_H",
        "#define XPIPES_ROUTING_TABLES_H",
        "",
        "// route words: one port index per hop, hop 0 first, -1 terminated",
        "",
    ]
    for ini, entries in sorted(tables.forward.items()):
        ident = ini.replace("-", "_")
        lines.append(f"// initiator {ini} (node id {tables.node_ids[ini]})")
        lines.append(
            f"static const int {ident}_lut[][2 + XPIPES_MAX_HOPS] = {{"
        )
        for target, (dest_id, route) in sorted(entries.items()):
            base = tables.address_map.base_of(target)
            hops = list(route) + [-1] * (p.max_hops - len(route))
            hop_txt = ", ".join(str(h) for h in hops)
            lines.append(
                f"    {{ {base:#x} >> 12, {dest_id}, {hop_txt} }},  // -> {target}"
            )
        lines.append("};")
        lines.append("")
    for target, entries in sorted(tables.reverse.items()):
        ident = target.replace("-", "_")
        lines.append(f"// target {target} (node id {tables.node_ids[target]})")
        lines.append(
            f"static const int {ident}_resp_lut[][1 + XPIPES_MAX_HOPS] = {{"
        )
        for ini_id, route in sorted(entries.items()):
            hops = list(route) + [-1] * (p.max_hops - len(route))
            hop_txt = ", ".join(str(h) for h in hops)
            lines.append(f"    {{ {ini_id}, {hop_txt} }},")
        lines.append("};")
        lines.append("")
    lines += ["#endif // XPIPES_ROUTING_TABLES_H", ""]
    return "\n".join(lines)


def _top_cpp(spec: NocSpecification) -> str:
    topo = spec.to_topology()
    name = spec.name.replace("-", "_")
    lines = [
        _HEADER.format(name=spec.name),
        "#include <systemc.h>",
        '#include "xpipes_params.h"',
        '#include "switch_types.h"',
        '#include "ni_types.h"',
        '#include "routing_tables.h"',
        "",
        f"SC_MODULE({name}_top) {{",
        "    sc_in<bool> clock;",
        "    sc_in<bool> reset;",
        "",
        "    // -- flit channels (forward flit + backward ACK/NACK) --",
    ]
    signals: List[str] = []
    wiring: List[str] = []

    def channel(sig: str) -> None:
        signals.append(
            f"    sc_signal<sc_uint<XPIPES_FLIT_WIDTH + 2> > {sig}_flit;"
        )
        signals.append(f"    sc_signal<sc_uint<8> > {sig}_ack;")

    # Switch-to-switch channels.
    for a, b in topo.edges:
        sa = f"{a}_{topo.port_toward(a, b)}__{b}_{topo.port_toward(b, a)}"
        channel(f"ch_{sa}_fwd")
        channel(f"ch_{sa}_rev")
    # NI channels.
    for ni in topo.nis:
        channel(f"ch_{ni}_tx")
        channel(f"ch_{ni}_rx")

    lines += signals
    lines.append("")
    lines.append("    // -- component instances --")
    for s in topo.switches:
        radix = topo.radix_of(s)
        lines.append(f"    xpipes_switch_{radix}x{radix} {s};")
    for ni in topo.nis:
        kind = "xpipes_initiator_ni" if topo.is_initiator(ni) else "xpipes_target_ni"
        lines.append(f"    {kind} {ni}_ni;")
    lines.append("")

    ctor_inits = ", ".join(
        [f'{s}("{s}")' for s in topo.switches]
        + [f'{ni}_ni("{ni}_ni")' for ni in topo.nis]
    )
    lines.append(f"    SC_CTOR({name}_top) : {ctor_inits} {{")
    for s in topo.switches:
        wiring.append(f"        {s}.clock(clock); {s}.reset(reset);")
        for port, neighbor in enumerate(topo.ports_of(s)):
            if neighbor in topo.switches:
                a, b = sorted((s, neighbor))
                sa = f"{a}_{topo.port_toward(a, b)}__{b}_{topo.port_toward(b, a)}"
                direction = "fwd" if s == a else "rev"
                other = "rev" if s == a else "fwd"
                wiring.append(
                    f"        {s}.out[{port}](ch_{sa}_{direction}_flit); "
                    f"{s}.out_ack[{port}](ch_{sa}_{direction}_ack);"
                )
                wiring.append(
                    f"        {s}.in[{port}](ch_{sa}_{other}_flit); "
                    f"{s}.in_ack[{port}](ch_{sa}_{other}_ack);"
                )
            else:
                ni = neighbor
                wiring.append(
                    f"        {s}.in[{port}](ch_{ni}_tx_flit); "
                    f"{s}.in_ack[{port}](ch_{ni}_tx_ack);"
                )
                wiring.append(
                    f"        {s}.out[{port}](ch_{ni}_rx_flit); "
                    f"{s}.out_ack[{port}](ch_{ni}_rx_ack);"
                )
    for ni in topo.nis:
        wiring.append(f"        {ni}_ni.clock(clock); {ni}_ni.reset(reset);")
        wiring.append(
            f"        {ni}_ni.tx_flit(ch_{ni}_tx_flit); {ni}_ni.tx_ack(ch_{ni}_tx_ack);"
        )
        wiring.append(
            f"        {ni}_ni.rx_flit(ch_{ni}_rx_flit); {ni}_ni.rx_ack(ch_{ni}_rx_ack);"
        )
    lines += wiring
    lines.append("    }")
    lines.append("};")
    lines.append("")
    return "\n".join(lines)


def _testbench_cpp(spec: NocSpecification) -> str:
    name = spec.name.replace("-", "_")
    lines = [
        _HEADER.format(name=spec.name),
        "#include <systemc.h>",
        f'#include "{name}_top.cpp"',
        "",
        "int sc_main(int argc, char *argv[]) {",
        "    sc_clock clock(\"clock\", 1, SC_NS);  // the synthesis target period",
        "    sc_signal<bool> reset;",
        "",
        f"    {name}_top dut(\"{name}_top\");",
        "    dut.clock(clock);",
        "    dut.reset(reset);",
        "",
        "    // Reset sequence, then free-running simulation.",
        "    reset.write(true);",
        "    sc_start(10, SC_NS);",
        "    reset.write(false);",
        "    sc_start(100000, SC_NS);",
        "    return 0;",
        "}",
        "",
    ]
    return "\n".join(lines)


def _makefile(spec: NocSpecification) -> str:
    name = spec.name.replace("-", "_")
    return (
        f"# Generated by repro.compiler for {spec.name}\n"
        "SYSTEMC_HOME ?= /usr/local/systemc\n"
        "CXX ?= g++\n"
        "CXXFLAGS += -I$(SYSTEMC_HOME)/include -O2\n"
        "LDFLAGS += -L$(SYSTEMC_HOME)/lib -lsystemc\n"
        "\n"
        f"{name}_tb: tb_{name}.cpp {name}_top.cpp *.h\n"
        f"\t$(CXX) $(CXXFLAGS) tb_{name}.cpp -o $@ $(LDFLAGS)\n"
        "\n"
        "clean:\n"
        f"\trm -f {name}_tb\n"
    )


def generate_systemc(spec: NocSpecification) -> Dict[str, str]:
    """All generated source files as {filename: content}."""
    name = spec.name.replace("-", "_")
    return {
        "xpipes_params.h": _params_h(spec),
        "switch_types.h": _switch_types_h(spec),
        "ni_types.h": _ni_types_h(spec),
        "routing_tables.h": _routing_tables_h(spec),
        f"{name}_top.cpp": _top_cpp(spec),
        f"tb_{name}.cpp": _testbench_cpp(spec),
        "Makefile": _makefile(spec),
    }


def write_systemc(spec: NocSpecification, directory: str) -> List[str]:
    """Generate and write the synthesis view; returns written paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for filename, content in generate_systemc(spec).items():
        path = os.path.join(directory, filename)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)
        paths.append(path)
    return paths
