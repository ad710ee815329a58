"""The ``python -m repro`` parser: one subparser per verb.

Each verb's ``--help`` lists exactly the flags it reads, a flag that
belongs to another verb is a usage error, count flags are checked when
parsing, and the verb bodies that live beside their packages get every
flag under their own parameter names.  (What the verbs *do* is tested
in test_main_cli.py and test_regress.py.)
"""

import importlib
import inspect
import os
import re
import subprocess
import sys

import pytest

from repro.__main__ import build_parser, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RUN_OPTIONS = {"--jobs", "--cache"}

#: The flags each verb reads -- written out, not derived from the parser.
VERB_FLAGS = {
    "info": set(),
    "demo": set(),
    "mesh-case-study": set(),
    "figures": RUN_OPTIONS,
    "faults": RUN_OPTIONS | {"--replicas", "--smoke"},
    "report": {"--out", "--mesh", "--cycles", "--rate", "--window", "--check"},
    "top": {"--dir", "--once", "--interval", "--prom"},
    "bench-diff": {"--ledger", "--baseline"},
    "serve": {"--store", "--host", "--port", "--serve-workers",
              "--max-inflight", "--request-timeout"},
    "compile": {"--demo", "--output", "--tables", "--report", "--freq"},
}


def usage_error(capsys, argv):
    """Run ``argv``, require a usage error, return its stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


class TestHelp:
    @pytest.mark.parametrize("verb", sorted(VERB_FLAGS))
    def test_help_lists_exactly_the_verbs_flags(self, verb, capsys):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        listed = set(re.findall(r"^  (?:-\w(?: \S+)?, )?(--[\w-]+)", out, flags=re.M))
        assert listed == VERB_FLAGS[verb] | {"--help"}
        assert f"{verb}:" not in out  # no per-verb prefixes left

    def test_twenty_nine_verb_flag_pairs(self):
        assert sum(len(flags) for flags in VERB_FLAGS.values()) == 29

    def test_no_verb_is_info(self, capsys):
        assert main([]) == 0
        bare = capsys.readouterr().out
        assert main(["info"]) == 0
        assert bare == capsys.readouterr().out
        for verb in VERB_FLAGS:
            assert verb in bare


class TestForeignFlags:
    @pytest.mark.parametrize("argv", [
        ["serve", "--workers", "4"],
        ["figures", "--smoke"],
        ["top", "--store", "x"],
        ["bench-diff", "--jobs", "2"],
        ["info", "--jobs", "2"],
        # No verb checkpoints mid-run: re-running on --cache resumes.
        ["figures", "--checkpoint-every", "500"],
        ["figures", "--checkpoint-dir", "d"],
        ["figures", "--resume"],
        ["faults", "--checkpoint-every", "500"],
        ["faults", "--checkpoint-dir", "d"],
        ["faults", "--resume"],
        # Figures take no lane count: a committed figure is a function
        # of the code alone.
        ["figures", "--replicas", "4"],
    ])
    def test_another_verbs_flag_exits_2_naming_it(self, argv, capsys):
        assert argv[1] in usage_error(capsys, argv)


class TestCounts:
    @pytest.mark.parametrize("argv", [
        ["figures", "--jobs", "0"],
        ["figures", "--jobs", "-3"],
        ["faults", "--replicas", "0"],
        ["faults", "--jobs", "0"],
        ["faults", "--replicas", "-1"],
        ["report", "--window", "0"],
        ["report", "--cycles", "0"],
        ["serve", "--serve-workers", "0"],
        ["serve", "--max-inflight", "0"],
        # Values outside a flag's range are usage errors too.
        ["report", "--mesh", "0x2"],
        ["report", "--rate", "7"],
        ["report", "--rate", "-1"],
        ["serve", "--port", "99999"],
        ["serve", "--port", "-1"],
        ["serve", "--request-timeout", "-1"],
        ["compile", "--freq", "-5"],
        ["compile", "--freq", "0"],
        ["top", "--interval", "-1"],
        ["top", "--interval", "nan"],
        # Non-finite values are out of every range.
        ["compile", "--freq", "inf"],
        ["top", "--interval", "inf"],
        ["serve", "--request-timeout", "inf"],
        ["compile", "--freq=-inf"],
        ["top", "--interval=-inf"],
        ["serve", "--request-timeout=-inf"],
    ])
    def test_a_bad_count_is_a_usage_error_naming_the_flag(self, argv, capsys):
        err = usage_error(capsys, argv)
        if len(argv) == 2:  # "--flag=-inf": a bare "-inf" would read as a flag
            argv = [argv[0], *argv[1].split("=")]
        must = {"--mesh": "WxH with W, H >= 1", "--rate": "in [0, 1]",
                "--port": "in [0, 65535]", "--freq": "a number > 0",
                "--request-timeout": "a number >= 0",
                "--interval": "a number >= 0"}.get(argv[1], "a positive integer")
        assert f"argument {argv[1]}: must be {must}, got {argv[2]!r}" in err

    @pytest.mark.parametrize("argv, dest", [
        (["top", "--interval", "0"], "interval"),
        (["serve", "--request-timeout", "0"], "request_timeout"),
    ])
    def test_zero_seconds_are_accepted(self, argv, dest):
        assert getattr(build_parser().parse_args(argv), dest) == 0.0


def _record(monkeypatch, target):
    """Replace ``module:function`` with a recorder that checks the call
    binds to the real signature."""
    module, name = target.split(":")
    mod = importlib.import_module(module)
    real = getattr(mod, name)
    seen = {}

    def fake(*args, **kwargs):
        inspect.signature(real).bind(*args, **kwargs)
        seen.update(kwargs)
        return 0

    monkeypatch.setattr(mod, name, fake)
    return seen


class TestHandlers:
    @pytest.mark.parametrize("argv, target, expected", [
        (["report"], "repro.telemetry.noc:report_main",
         {"out": "telemetry-report", "mesh": (2, 2), "cycles": 2000,
          "rate": 0.1, "window": 100, "check": False}),
        (["faults", "--smoke"], "repro.faults.campaign:faults_main",
         {"smoke": True, "jobs": 1, "cache": None, "replicas": None}),
        (["top", "--dir", "d", "--once"], "repro.telemetry.top:top_main",
         {"run_dir": "d", "once": True, "interval": 1.0, "prom": None}),
        (["bench-diff"], "repro.telemetry.regress:bench_diff",
         {"ledger_path": "benchmarks/ledger/out/ledger.json",
          "baseline_path": "benchmarks/ledger/baseline.json"}),
        (["serve", "--serve-workers", "3", "--port", "0"],
         "repro.serve.http:serve_main",
         {"store": ".repro-store", "host": "127.0.0.1", "port": 0,
          "workers": 3, "max_inflight": 2, "request_timeout": 120.0}),
        (["report", "--mesh", "3x2", "--rate", "0.5"],
         "repro.telemetry.noc:report_main",
         {"out": "telemetry-report", "mesh": (3, 2), "cycles": 2000,
          "rate": 0.5, "window": 100, "check": False}),
        (["compile", "spec.json", "--tables"], "repro.compiler:compile_main",
         {"spec": "spec.json", "demo": False, "output": None, "tables": True,
          "report": False, "freq": 1000.0}),
        # The lower bounds: 0 disables the request deadline and repaints
        # without a pause; a frequency must be above 0.
        (["serve", "--request-timeout", "0"], "repro.serve.http:serve_main",
         {"store": ".repro-store", "host": "127.0.0.1", "port": 8787,
          "workers": 2, "max_inflight": 2, "request_timeout": 0.0}),
        (["top", "--interval", "0"], "repro.telemetry.top:top_main",
         {"run_dir": ".repro-cache", "once": False, "interval": 0.0, "prom": None}),
        (["compile", "--demo", "--freq", "0.5"], "repro.compiler:compile_main",
         {"spec": None, "demo": True, "output": None, "tables": False,
          "report": False, "freq": 0.5}),
    ])
    def test_body_beside_its_package_gets_every_flag(
        self, argv, target, expected, monkeypatch
    ):
        seen = _record(monkeypatch, target)
        assert main(argv) == 0
        assert seen == expected


class TestFiguresEnvironment:
    @pytest.fixture
    def benches(self, monkeypatch, tmp_path):
        """Two fake ``benchmarks/bench_*.py`` modules in an empty
        working directory: records the runner each ``main`` gets."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "benchmarks").mkdir()
        seen = []
        for name in ("bench_x1", "bench_x2"):
            (tmp_path / "benchmarks" / f"{name}.py").write_text("")
            module = type(sys)(f"benchmarks.{name}")
            module.main = seen.append
            monkeypatch.setitem(sys.modules, f"benchmarks.{name}", module)
        return seen

    def test_every_figure_gets_one_runner_built_from_the_flags(self, benches):
        environ = dict(os.environ)
        assert main(["figures", "--jobs", "3", "--cache", "c"]) == 0
        first, second = benches
        assert first is second
        assert first.jobs == 3 and first.store.root == "c"
        assert dict(os.environ) == environ

    def test_defaults_set_nothing(self, benches):
        assert main(["figures"]) == 0
        assert [(r.jobs, r.store) for r in benches] == [(1, None)] * 2

    def test_a_failing_figure_is_named_and_the_rest_still_run(
        self, benches, capsys
    ):
        def boom(runner):
            raise AssertionError("shape")

        sys.modules["benchmarks.bench_x1"].main = boom
        assert main(["figures"]) == 1
        assert len(benches) == 1  # bench_x2 ran after bench_x1 failed
        assert "1 failed: bench_x1" in capsys.readouterr().err


def test_parsing_loads_no_package():
    """``import repro.__main__`` (what every verb pays before its own
    imports) loads no repro subpackage, no pytest and no numpy."""
    code = (
        "import sys, repro.__main__; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('repro.', 'pytest', 'numpy'))))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    ).stdout
    assert out.strip() == "['repro.__main__']"


@pytest.mark.parametrize("verb", [["compile", "--demo"], ["info"]])
def test_a_closed_reader_ends_the_verb_quietly(verb):
    """``python -m repro compile --demo | head -1``: once the reader of
    stdout is gone the verb stops with status 141 (128 + SIGPIPE, what a
    shell reports for a writer SIGPIPE ended) and no traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "repro", *verb], stdout=write_end,
            stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.stderr == b""
    assert done.returncode == 141
