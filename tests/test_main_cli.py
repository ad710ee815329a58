"""The top-level ``python -m repro`` command line."""

import pytest

from repro.__main__ import main


class TestTopLevelCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "xpipes Lite" in out
        assert "repro.compiler" in out

    def test_default_is_info(self, capsys):
        assert main([]) == 0
        assert "repro" in capsys.readouterr().out

    def test_demo_runs_a_network(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "200 transactions" in out
        assert "pJ/transaction" in out


class TestReportCommand:
    def test_report_writes_and_validates_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "rep"
        assert main([
            "report", "--out", str(out_dir), "--cycles", "500", "--check",
        ]) == 0
        out = capsys.readouterr().out
        assert "all artifacts valid" in out
        for name in ("metrics.json", "trace.json", "heatmap.txt", "heatmap.csv"):
            assert (out_dir / name).exists(), name

    def test_report_honours_mesh_and_window(self, tmp_path, capsys):
        out_dir = tmp_path / "rep"
        assert main([
            "report", "--out", str(out_dir), "--mesh", "3x2",
            "--cycles", "400", "--window", "50", "--check",
        ]) == 0
        heatmap = (out_dir / "heatmap.txt").read_text()
        assert "windows of 50 cycles" in heatmap
        assert "3x2 mesh" in capsys.readouterr().out

    def test_report_rejects_malformed_mesh(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--mesh", "banana"])
        assert exc.value.code == 2
        assert "--mesh" in capsys.readouterr().err


class TestFaultsCommand:
    def test_faults_smoke_recovers_and_catches_the_wedge(self, capsys):
        assert main(["faults", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "smoke-recovers" in out
        assert "smoke-wedged" in out
        assert "NO PROGRESS" in out
