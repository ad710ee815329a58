"""The xpipesCompiler front end: ``python -m repro compile``."""

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
