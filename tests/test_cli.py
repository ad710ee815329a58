"""The ``python -m repro`` parser: one subparser per verb.

Each verb's ``--help`` lists exactly the flags it reads, a flag that
belongs to another verb is a usage error, count flags are checked when
parsing, and the verb bodies that live beside their packages get every
flag under their own parameter names.  (What the verbs *do* is tested
in test_main_cli.py, test_regress.py and test_chaos.py.)
"""

import importlib
import inspect
import os
import re
import subprocess
import sys

import pytest

from repro.__main__ import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RUN_OPTIONS = {"--jobs", "--cache", "--replicas"}

#: The flags each verb reads -- written out, not derived from the parser.
VERB_FLAGS = {
    "info": set(),
    "demo": set(),
    "mesh-case-study": set(),
    "figures": RUN_OPTIONS,
    "faults": RUN_OPTIONS | {"--smoke"},
    "report": {"--out", "--mesh", "--cycles", "--rate", "--window", "--check"},
    "top": {"--dir", "--once", "--interval", "--prom"},
    "bench-diff": {"--ledger", "--baseline"},
    "serve": {"--store", "--host", "--port", "--serve-workers",
              "--max-inflight", "--request-timeout"},
    "chaos": {"--seed", "--points", "--workers", "--chaos-dir", "--keep"},
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

    def test_thirty_five_verb_flag_pairs(self):
        assert sum(len(flags) for flags in VERB_FLAGS.values()) == 35

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
    ])
    def test_another_verbs_flag_exits_2_naming_it(self, argv, capsys):
        assert argv[1] in usage_error(capsys, argv)


class TestCounts:
    @pytest.mark.parametrize("argv", [
        ["figures", "--jobs", "0"],
        ["figures", "--jobs", "-3"],
        ["figures", "--replicas", "0"],
        ["faults", "--replicas", "0"],
        ["faults", "--jobs", "0"],
        ["faults", "--replicas", "-1"],
        ["report", "--window", "0"],
        ["report", "--cycles", "0"],
        ["serve", "--serve-workers", "0"],
        ["serve", "--max-inflight", "0"],
        ["chaos", "--workers", "0"],
        ["chaos", "--points", "many"],
    ])
    def test_a_bad_count_is_a_usage_error_naming_the_flag(self, argv, capsys):
        err = usage_error(capsys, argv)
        assert f"argument {argv[1]}: must be a positive integer" in err


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
         {"out": "telemetry-report", "mesh": "2x2", "cycles": 2000,
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
        (["chaos", "--chaos-dir", "s"], "repro.chaos:chaos_main",
         {"out": "s", "seed": 7, "points": 12, "workers": 3, "keep": False}),
        (["compile", "spec.json", "--tables"], "repro.compiler:compile_main",
         {"spec": "spec.json", "demo": False, "output": None, "tables": True,
          "report": False, "freq": 1000.0}),
    ])
    def test_body_beside_its_package_gets_every_flag(
        self, argv, target, expected, monkeypatch
    ):
        seen = _record(monkeypatch, target)
        assert main(argv) == 0
        assert seen == expected


class TestFiguresEnvironment:
    @pytest.fixture
    def pytest_main(self, monkeypatch, tmp_path):
        """Stand-in for ``pytest.main``: records the REPRO_* environment
        it saw and what the benchmarks' readers make of it."""
        from repro.flow.runner import ExperimentRunner

        monkeypatch.chdir(tmp_path)  # from_env opens --cache as a store
        for key in [k for k in os.environ if k.startswith("REPRO_")]:
            monkeypatch.delenv(key)
        seen = {}

        def fake(args):
            seen["env"] = {k: v for k, v in os.environ.items()
                           if k.startswith("REPRO_")}
            seen["jobs"] = ExperimentRunner.from_env().jobs
            return 0

        monkeypatch.setattr(pytest, "main", fake)
        return seen

    def test_every_option_reaches_pytest_and_none_outlives_it(self, pytest_main):
        assert main(["figures", "--jobs", "3", "--cache", "c",
                     "--replicas", "4"]) == 0
        assert pytest_main["env"] == {
            "REPRO_JOBS": "3", "REPRO_CACHE": "c", "REPRO_REPLICAS": "4",
        }
        assert pytest_main["jobs"] == 3
        assert not [k for k in os.environ if k.startswith("REPRO_")]

    def test_defaults_set_nothing(self, pytest_main):
        assert main(["figures"]) == 0
        assert pytest_main["env"] == {}


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
