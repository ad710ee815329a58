"""Golden-file tests: generated output is stable.

Two generators are snapshotted here.  The synthesis view (SystemC) is
an interchange artifact -- downstream flows diff and check it in.  The
compiled tick kernel's Python source (``repro.sim.compiled``) is an
internal artifact, but golden-filed for the same reason: unintentional
churn in either generator is a regression even when the text is still
"valid".  If you change a generator on purpose, regenerate the
snapshot.

Regenerate the SystemC snapshot with::

    python - <<'PY'
    from repro.compiler import NocSpecification, generate_systemc
    spec = NocSpecification.from_json(open("tests/data/golden_spec.json").read())
    for name, content in generate_systemc(spec).items():
        open(f"tests/data/golden_systemc/{name}", "w").write(content)
    PY

Regenerate the compiled-kernel snapshot with ``make golden-kernel``.
"""

import os

import pytest

from repro.compiler import NocSpecification, generate_systemc

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_DIR = os.path.join(DATA, "golden_systemc")
GOLDEN_KERNEL = os.path.join(DATA, "golden_compiled_kernel.py.txt")


@pytest.fixture(scope="module")
def generated():
    with open(os.path.join(DATA, "golden_spec.json")) as f:
        spec = NocSpecification.from_json(f.read())
    return generate_systemc(spec)


class TestGoldenCodegen:
    def test_file_set_matches_snapshot(self, generated):
        assert sorted(generated) == sorted(os.listdir(GOLDEN_DIR))

    @pytest.mark.parametrize(
        "filename",
        sorted(os.listdir(GOLDEN_DIR)) if os.path.isdir(GOLDEN_DIR) else [],
    )
    def test_file_content_is_stable(self, generated, filename):
        with open(os.path.join(GOLDEN_DIR, filename)) as f:
            golden = f.read()
        assert generated[filename] == golden, (
            f"{filename} changed; if intentional, regenerate the snapshot "
            "(see module docstring)"
        )

    def test_generation_is_deterministic(self, generated):
        with open(os.path.join(DATA, "golden_spec.json")) as f:
            spec = NocSpecification.from_json(f.read())
        again = generate_systemc(spec)
        assert again == generated


def _golden_kernel_noc():
    """The canonical network the compiled-kernel snapshot is taken of:
    a populated 2x2 mesh, covering every specialized lane (switch,
    master, both NIs, link) plus the drawer-lane master unrolling."""
    from repro.network.experiments import TopologyNocBuilder
    from repro.network.topology import mesh
    from repro.network.traffic import UniformRandomTraffic

    noc = TopologyNocBuilder(mesh, (2, 2), n_initiators=2, n_targets=2)()
    noc.populate(
        {
            c: UniformRandomTraffic(noc.topology.targets, 0.05, seed=i)
            for i, c in enumerate(noc.topology.initiators)
        }
    )
    return noc


class TestCompiledKernelGolden:
    """The compiled tick kernel emits byte-stable Python source.

    The source is a pure function of network structure (names, shapes,
    rates -- never runtime state or ids), which is what makes the
    kernel auditable: you can read exactly the loop a network will run.
    """

    @pytest.fixture(scope="class")
    def source(self):
        from repro.sim.compiled import compiled_source

        return compiled_source(_golden_kernel_noc().sim)

    def test_source_matches_snapshot(self, source):
        with open(GOLDEN_KERNEL) as f:
            golden = f.read()
        assert source == golden, (
            "generated kernel source changed; if intentional, regenerate "
            "the snapshot with `make golden-kernel`"
        )

    def test_generation_is_deterministic(self, source):
        from repro.sim.compiled import compiled_source

        assert compiled_source(_golden_kernel_noc().sim) == source

    def test_lanes_module_is_the_whole_import_contract(self, source):
        # The generated text is per-network code only: every global it
        # uses beyond builtins and its own definitions comes from the
        # single star-import, and ``repro.sim.lanes.__all__`` names
        # exactly what generated text may use.  (``_PROF`` is injected
        # by compile_simulator, not imported.)
        import ast
        import builtins

        from repro.sim import lanes

        tree = ast.parse(source)
        imports = [
            n for n in ast.walk(tree)
            if isinstance(n, (ast.Import, ast.ImportFrom))
        ]
        assert [(n.module, n.names[0].name) for n in imports] == [
            ("repro.sim.lanes", "*")
        ]
        defined = {
            n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
        for n in ast.walk(tree):
            if isinstance(n, (ast.FunctionDef, ast.Lambda)):
                defined.update(a.arg for a in n.args.args)
            if isinstance(n, ast.FunctionDef):
                defined.add(n.name)
        used = {
            n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        free = used - defined - set(dir(builtins)) - {"_PROF"}
        assert free and free <= set(lanes.__all__), free - set(lanes.__all__)
        assert all(hasattr(lanes, name) for name in lanes.__all__)
        # The never-called reference transliteration is gone for good.
        assert not hasattr(lanes, "_switch_lane")
        assert "_switch_lane" not in source

    def test_snapshot_still_compiles_and_runs(self):
        # The golden text is not just stable -- it is the program the
        # simulator actually executes.
        noc = _golden_kernel_noc()
        program = noc.sim.compile()
        with open(GOLDEN_KERNEL) as f:
            assert program.source == f.read()
        noc.run(200)
        assert noc.sim.cycle == 200
