"""The import graph follows the layers (docs/ARCHITECTURE.md, "Layers").

A process loads only the layers it runs: the simulator stack loads no
farm, store or service, and the synthesis / DSE view loads no
simulator.  Each check imports an entry point in a fresh interpreter
and reads ``sys.modules``.  Package ``__init__`` s resolve their public
names on first use (``repro._lazy``); the compatibility half pins that
every public name, old import path and old pickle still resolves.
"""

import ast
import dataclasses
import importlib
import os
import pickle
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Entry points of the simulator stack, and what none of them may load.
SIM_ENTRY_POINTS = (
    "import repro.network.noc",
    "import repro.network.experiments",
    "import repro.sim.batch",
    "import repro.telemetry.profile",
    "from repro.faults import FaultInjector",
    "import repro.faults.campaign",
)
FARM_AND_SERVICE = (
    "repro.flow.runner", "repro.flow.pool", "repro.store", "repro.serve",
    "multiprocessing", "asyncio",
)

#: Entry points of the synthesis / DSE view, and what none may load.
SYNTH_ENTRY_POINTS = (
    "import repro.flow.dse",
    "import repro.synth.report",
    "import repro.compiler.spec",
    "import repro.compiler.instantiate",
    "import repro.serve.service",
)
SIMULATOR = ("repro.network.noc", "repro.core.ni", "repro.sim")

PACKAGES = ["repro"] + sorted(
    f"repro.{name}" for name in os.listdir(os.path.join(SRC, "repro"))
    if os.path.isfile(os.path.join(SRC, "repro", name, "__init__.py"))
)


def loaded_by(statement: str) -> set:
    """The modules a fresh interpreter holds after ``statement``."""
    code = f"import sys\n{statement}\nprint(' '.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    ).stdout
    return set(out.split())


def within(modules: set, layers) -> list:
    return sorted(
        m for m in modules
        if any(m == layer or m.startswith(layer + ".") for layer in layers)
    )


class TestLayering:
    @pytest.mark.parametrize("statement", SIM_ENTRY_POINTS)
    def test_the_simulator_stack_loads_no_farm_store_or_service(self, statement):
        assert within(loaded_by(statement), FARM_AND_SERVICE) == []

    @pytest.mark.parametrize("statement", SYNTH_ENTRY_POINTS)
    def test_the_synthesis_view_loads_no_simulator(self, statement):
        assert within(loaded_by(statement), SIMULATOR) == []

    def test_a_package_import_loads_no_submodule(self):
        statement = "; ".join(f"import {pkg}" for pkg in PACKAGES)
        assert sorted(m for m in loaded_by(statement) if m.startswith("repro")) == [
            "repro", "repro._lazy", *PACKAGES[1:],
        ]


class TestCompatibility:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_public_name_resolves(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert getattr(module, name) is not None, name
        assert set(module.__all__) <= set(dir(module))
        namespace = {}
        exec(f"from {package} import *", namespace)
        assert set(module.__all__) <= set(namespace)

    def test_an_unknown_name_is_an_attribute_error(self):
        import repro.network

        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            repro.network.nope
        with pytest.raises(ImportError):
            exec("from repro.network import nope", {})

    def test_a_declared_submodule_resolves_as_an_attribute(self):
        import repro.network

        assert repro.network.topology is importlib.import_module(
            "repro.network.topology")

    def test_old_paths_are_the_same_objects(self):
        from repro.core import config
        from repro.flow import pool, runner, session
        from repro.network import noc
        import repro.serve

        assert noc.NocBuildConfig is config.NocBuildConfig
        for name in ("RunManifest", "MapSession", "PointReport", "PointFailure",
                     "FAILURE_KINDS", "BACKOFF_JITTER"):
            assert getattr(runner, name) is getattr(session, name), name
        assert pool.MapSession is session.MapSession
        assert repro.serve.WorkStealingDispatcher is pool.WorkStealingDispatcher

    def test_a_load_point_pickled_under_the_old_manifest_path_unpickles(self):
        from repro.flow.session import RunManifest
        from repro.network.experiments import LoadPoint

        point = LoadPoint(
            offered_rate=0.1, accepted_rate=0.09, mean_latency=21.5,
            p95_latency=40.0, completed=12,
            manifest=RunManifest.local("ab" * 32, cached=False, seconds=0.5),
        )
        # Protocol 2 names a class as text, so the old module path can be
        # written in: what a store record from before the move holds.
        new = pickle.dumps(point, protocol=2)
        old = new.replace(b"crepro.flow.session\nRunManifest\n",
                          b"crepro.flow.runner\nRunManifest\n")
        assert old != new
        restored = pickle.loads(old)
        assert restored == point and restored.manifest == point.manifest
        assert type(restored.manifest) is RunManifest


def src_trees():
    """``(path under src/, parsed module)`` for every module of the package."""
    for dirpath, _, files in os.walk(os.path.join(SRC, "repro")):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, SRC).replace(os.sep, "/")
                with open(path, encoding="utf-8") as f:
                    yield rel, ast.parse(f.read(), filename=rel)


#: The modules that may derive a route: everything else reads one from
#: a ``repro.core.routing.RouteSet``.
ROUTE_DERIVERS = ("repro/core/routing.py", "repro/network/topology.py")


class TestOneRouteSet:
    def test_only_the_route_set_walks_paths_or_resolves_the_policy(self):
        offenders = [
            f"{rel}:{node.lineno} .{node.attr}"
            for rel, tree in src_trees() if rel not in ROUTE_DERIVERS
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("switch_path", "default_policy")
        ]
        assert offenders == []


#: The module that maps a NoC's settings to its component records:
#: everything else asks ``NocBuildConfig.ni_config()`` /
#: ``.switch_config(radix)``.
RECORD_BUILDER = "repro/core/config.py"


class TestOneConfig:
    def test_only_the_config_builds_component_records(self):
        offenders = [
            f"{rel}:{node.lineno} {node.func.id}("
            for rel, tree in src_trees() if rel != RECORD_BUILDER
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("NiConfig", "SwitchConfig")
        ]
        assert offenders == []

    def test_the_spec_names_no_config_field(self):
        """The spec's codec is derived from the config's fields, so a
        setting added to ``NocBuildConfig`` needs no edit there."""
        from repro.core.config import NocBuildConfig

        settings = {f.name for f in dataclasses.fields(NocBuildConfig)}
        (tree,) = [t for rel, t in src_trees() if rel == "repro/compiler/spec.py"]
        named = [
            (node.lineno, word) for node in ast.walk(tree)
            for word in (
                getattr(node, "id", None), getattr(node, "attr", None),
                getattr(node, "arg", None), getattr(node, "value", None),
            )
            if isinstance(word, str) and word in settings
        ]
        assert named == []


#: The one JSON decoder, and the modules whose documents cross a
#: boundary: the spec, the query and its answer, the store header.
CODEC = "repro/core/codec.py"
BOUNDARIES = ("repro/compiler/spec.py", "repro/serve/service.py",
              "repro/store/cas.py")


def _reads_a_field(node) -> bool:
    """``doc["name"]`` or ``doc.get("name", ...)`` anywhere in ``node``."""
    return any(
        (isinstance(sub, ast.Subscript) and isinstance(sub.slice, ast.Constant)
         and isinstance(sub.slice.value, str))
        or (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "get" and sub.args
            and isinstance(sub.args[0], ast.Constant))
        for sub in ast.walk(node)
    )


class TestOneCodec:
    def test_only_the_codec_reads_types_or_checks_them_by_hand(self):
        offenders = [
            f"{rel}:{node.lineno} {word}"
            for rel, tree in src_trees() if rel != CODEC
            for node in ast.walk(tree)
            for word in (getattr(node, "attr", None), getattr(node, "id", None),
                         getattr(node, "name", None))
            if word in ("get_type_hints", "_is_int", "_is_real")
        ]
        assert offenders == []

    def test_no_boundary_builds_a_record_field_by_field(self):
        """A record at a boundary comes out of ``codec.decode`` whole:
        no constructor call there reads its arguments out of a document
        by key, or takes them as ``**`` collected from one."""
        offenders = [
            f"{rel}:{node.lineno} {node.func.id}("
            for rel, tree in src_trees() if rel in BOUNDARIES
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id[:1].isupper()
            and any(kw.arg is None or _reads_a_field(kw.value)
                    for kw in node.keywords)
        ]
        assert offenders == []


#: The module that holds the buildability verdict, and the comparisons
#: against a header limit that are not a build refusal: the field's own
#: range, the per-packet safety check and the query service's input
#: bound.
VERDICT = "repro/core/routing.py"
HEADER_LIMITS = ("max_hops", "max_nodes", "max_radix")
NOT_A_REFUSAL = {
    "repro/core/config.py": "NocParameters.__post_init__",
    "repro/core/packet.py": "PacketHeader.validate",
    "repro/serve/service.py": "QuerySpec.__post_init__",
}


def _exempt_nodes(rel, tree) -> set:
    exempt = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if f"{cls.name}.{getattr(fn, 'name', '')}" == NOT_A_REFUSAL.get(rel):
                    exempt |= {id(node) for node in ast.walk(fn)}
    return exempt


class TestOneVerdict:
    def test_only_the_verdict_compares_against_a_header_limit(self):
        """``Noc``, ``compile`` and the estimate refuse the same NoCs
        because only ``repro.core.routing.violations`` (with its route
        set) holds a route, a port or an NI count against the header."""
        offenders = []
        for rel, tree in src_trees():
            if rel == VERDICT:
                continue
            exempt = _exempt_nodes(rel, tree)
            offenders += [
                f"{rel}:{node.lineno} .{operand.attr}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Compare) and id(node) not in exempt
                for operand in (node.left, *node.comparators)
                if isinstance(operand, ast.Attribute) and operand.attr in HEADER_LIMITS
            ]
        assert offenders == []


def _fails(point):
    raise ValueError(f"scripted failure: {point}")


class TestOneRunLog:
    def test_no_module_names_a_second_run_log(self):
        """A point's outcome is written once, as its ``point_end``
        event: no module keeps (or names) a ``runs.jsonl`` beside it."""
        offenders = []
        for dirpath, _, files in os.walk(os.path.join(SRC, "repro")):
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    with open(path, encoding="utf-8") as f:
                        offenders += [
                            f"{os.path.relpath(path, SRC)}:{n}"
                            for n, line in enumerate(f, 1) if "runs.jsonl" in line
                        ]
        assert offenders == []

    def test_a_failed_point_end_carries_the_repro_bundle(self, tmp_path):
        from repro.flow.keying import stable_repr
        from repro.flow.runner import ExperimentRunner
        from repro.telemetry.events import read_events

        path = str(tmp_path / "events.jsonl")
        ExperimentRunner(on_failure="record", events_path=path).map(_fails, ["x"])
        [end] = [r for r in read_events(path) if r["event"] == "point_end"]
        assert (end["status"], end["cached"], end["kind"]) == ("failed", False, "error")
        assert end["message"] == "ValueError: scripted failure: x"
        assert (end["point"], end["fn"]) == (stable_repr("x"), stable_repr(_fails))
