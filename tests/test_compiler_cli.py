"""The xpipesCompiler front end: ``python -m repro compile``."""

import dataclasses
import json
import os

import pytest

from repro.__main__ import main


def compile_(*argv):
    return main(["compile", *argv])


@pytest.fixture
def spec_file(tmp_path, capsys):
    assert compile_("--demo") == 0
    text = capsys.readouterr().out
    path = tmp_path / "spec.json"
    path.write_text(text)
    return str(path)


class TestCli:
    def test_demo_emits_valid_json(self, capsys):
        assert compile_("--demo") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == "demo2x2"
        assert len(doc["switches"]) == 4

    def test_tables(self, spec_file, capsys):
        assert compile_(spec_file, "--tables") == 0
        out = capsys.readouterr().out
        assert "xpipes routing tables" in out
        assert "route=<" in out

    def test_report(self, spec_file, capsys):
        assert compile_(spec_file, "--report", "--freq", "800") == 0
        out = capsys.readouterr().out
        assert "Synthesis report: demo2x2 @ 800 MHz" in out
        assert "TOTAL" in out

    def test_output_generation(self, spec_file, tmp_path, capsys):
        out_dir = str(tmp_path / "gen")
        assert compile_(spec_file, "-o", out_dir) == 0
        files = os.listdir(out_dir)
        assert "xpipes_params.h" in files
        assert any(f.endswith("_top.cpp") for f in files)
        assert f"wrote {os.path.join(out_dir, 'xpipes_params.h')}" in (
            capsys.readouterr().out)

    def test_no_action_errors(self, spec_file, capsys):
        assert compile_(spec_file) == 2
        assert "nothing to do" in capsys.readouterr().err

    def test_missing_spec_errors(self, capsys):
        with pytest.raises(SystemExit) as exc:
            compile_("--tables")
        assert exc.value.code == 2
        assert "one of the arguments SPEC.json --demo is required" in (
            capsys.readouterr().err)

    def test_spec_and_demo_are_exclusive(self, spec_file, capsys):
        with pytest.raises(SystemExit) as exc:
            compile_(spec_file, "--demo")
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_the_old_entry_point_is_gone(self):
        with pytest.raises(ImportError):
            __import__("repro.compiler.__main__")


def holey_spec(policy=None):
    """A 2x3 mesh spec that lost two links but keeps its coordinates."""
    from repro.compiler import NocSpecification
    from repro.network.topology import attach_round_robin, mesh

    topo = mesh(2, 3)
    attach_round_robin(topo, 3, 3)
    spec = NocSpecification.from_topology(topo)
    gone = ({"sw_0_0", "sw_1_0"}, {"sw_1_1", "sw_2_1"})
    spec.edges = [e for e in spec.edges if set(e) not in gone]
    spec.config = dataclasses.replace(spec.config, routing_policy=policy)
    return spec.to_json()


def demo_doc(**changes):
    from repro.compiler import _demo_spec

    doc = json.loads(_demo_spec().to_json())
    doc.update(changes)
    return json.dumps(doc)


def mapped_spec(soc, fabric, max_radix):
    """The spec of one design-space candidate, mapped as the DSE maps it."""
    from repro.compiler import NocSpecification
    from repro.flow.selection import MappedFabric
    from repro.serve.service import core_graph_from_name, topology_from_name

    mapped = MappedFabric(core_graph_from_name(soc), topology_from_name(fabric),
                          max_radix=max_radix, anneal_iterations=1500, seed=0)
    return NocSpecification.from_topology(mapped.placement[0]).to_json()


def demo_edit(key, edit):
    """The demo spec with ``edit(doc[key])`` in place of ``doc[key]``."""
    doc = json.loads(demo_doc())
    doc[key] = edit(doc[key])
    return json.dumps(doc)


class TestBadSpec:
    """A spec that does not load, does not route or that the simulator
    would refuse is refused with one error line per violated kind and
    exit 2, before any view is produced."""

    @pytest.mark.parametrize("text, reason", [
        ("{not json", "Expecting property name"),
        ("[" * 100000 + "]" * 100000, "maximum recursion depth exceeded"),
        ("{}", "missing field 'name'"),
        ("[]", "malformed specification"),
        (demo_doc(routing_policy="fancy"), "unknown routing policy 'fancy'"),
        (demo_doc(params={"flit_width": 32, "bogus": 1}), "malformed specification"),
        (holey_spec("dor"), "no X-dimension neighbour"),
        (demo_doc(buffer_depth="x"), "buffer_depth: expected int, got 'x'"),
        (demo_doc(buffer_depth=0), "output queue depth must be >= 2"),
        (demo_doc(pipeline_stages=0), "pipeline_stages must be >= 1"),
        (demo_doc(ni_max_outstanding=0), "max_outstanding must be >= 1"),
        (demo_doc(flow_control="nope"), "unknown flow_control 'nope'"),
        (demo_doc(seed=True), "seed: expected int, got True"),
        (demo_doc(buffer_dept=3), "unknown key 'buffer_dept'"),
        (demo_edit("cores", lambda cores: [dict(cores[0], is_initiator="no")]
                   + cores[1:]),
         "cores[0].is_initiator: expected bool, got 'no'"),
        (demo_edit("coords", lambda coords: dict(coords, sw_0_0=[0.5, "x"])),
         "coords[sw_0_0][0]: expected int, got 0.5"),
        (demo_edit("edges", lambda edges: [edges[0] + ["sw_1_1"]] + edges[1:]),
         "edges[0]: expected a list of 2"),
        (demo_doc(switches="abc"), "switches: expected a list, got 'abc'"),
        (mapped_spec("telecom", "mesh-5x5", 4), "route ctl_cpu->dram needs 9 hops"),
        (mapped_spec("multimedia", "mesh-2x2", 16),
         "uses port 8; raise NocParameters.port_bits (currently 3)"),
        (demo_doc(flow_control="credit", crc_mode=True),
         "credit flow control assumes reliable links"),
        (demo_doc(flow_control="credit", pipeline_stages=7),
         "credit mode models only the 2-stage switch"),
        (demo_doc(link_overrides={"nope|sw_0_0": {"stages": 2}}),
         "link_overrides name connections that do not exist: nope-sw_0_0"),
        (demo_doc(params={"node_id_bits": 1}), "4 NIs exceed the 1-bit node id space (2)"),
    ], ids=["malformed-json", "deeply-nested-json", "empty-object", "not-an-object", "unknown-policy",
            "unknown-parameter", "holey-grid-explicit-dor", "buffer-depth-not-int",
            "buffer-depth-out-of-range", "pipeline-stages-out-of-range",
            "ni-max-outstanding-out-of-range", "unknown-flow-control", "seed-is-bool",
            "unknown-key", "initiator-flag-not-bool", "coord-not-int",
            "edge-of-three", "switches-not-a-list", "nine-hop-route", "port-past-the-field",
            "credit-with-crc", "credit-with-seven-stages", "override-of-no-link",
            "node-ids-past-the-field"])
    @pytest.mark.parametrize("action", ["--tables", "--report", "-o"])
    def test_is_refused_with_one_error_line(self, tmp_path, capsys, text, reason, action):
        path = tmp_path / "bad.json"
        path.write_text(text)
        out_dir = tmp_path / "gen"
        argv = [str(path), action] + ([str(out_dir)] if action == "-o" else [])
        assert compile_(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro compile: error: {path}: ")
        assert reason in captured.err
        assert captured.err.count("\n") == 1
        assert not out_dir.exists()

    def test_each_violated_kind_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(demo_doc(params={"node_id_bits": 1, "max_hops": 1},
                                 link_overrides={"nope|sw_0_0": {"stages": 2}}))
        assert compile_(str(path), "--tables") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        prefix = f"repro compile: error: {path}: "
        lines = captured.err.splitlines()
        assert all(line.startswith(prefix) for line in lines)
        assert [line[len(prefix):] for line in lines] == [
            "4 NIs exceed the 1-bit node id space (2)",
            "route cpu0->mem0 needs 2 hops; raise NocParameters.max_hops (currently 1) "
            "(and 7 more)",
            "link_overrides name connections that do not exist: nope-sw_0_0",
        ]

    def test_a_missing_file_is_refused(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert compile_(str(path), "--tables") == 2
        assert capsys.readouterr().err.startswith(f"repro compile: error: {path}: ")

    def test_a_holey_grid_routes_shortest_by_default(self, tmp_path, capsys):
        path = tmp_path / "holey.json"
        path.write_text(holey_spec())
        assert compile_(str(path), "--tables", "--report") == 0
        out = capsys.readouterr().out
        assert out.count("route=<") == 2 * 3 * 3
        assert "TOTAL" in out
