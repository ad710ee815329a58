"""The deterministic chaos harness (docs/RESILIENCE.md).

Plan compilation is seeded and pure; the monkey's store faults must be
caught by the store's own verification; and the full drills --
``run_chaos`` clean-vs-chaotic digest identity and the ``run_poison``
quarantine -- are exactly what ``make chaos-smoke`` gates on.
"""

import os

import pytest

from repro.chaos import (
    ChaosMonkey,
    ChaosPlan,
    chaos_point,
    run_chaos,
    run_poison,
)
from repro.chaos.plan import ChaosAction
from repro.store import ResultStore


class TestChaosPlan:
    def test_same_seed_same_schedule(self):
        assert ChaosPlan(42).actions == ChaosPlan(42).actions

    def test_different_seeds_differ(self):
        assert ChaosPlan(1).actions != ChaosPlan(2).actions

    def test_counts_match_request(self):
        plan = ChaosPlan(9, kills=2, stalls=1, slows=0, corruptions=3,
                         event_truncations=1, horizon=12)
        assert plan.count("kill") == 2
        assert plan.count("stall") == 1
        assert plan.count("slow") == 0
        assert plan.count("corrupt_record") == 3
        assert plan.count("truncate_events") == 1

    def test_worker_faults_on_distinct_ordinals_after_first(self):
        plan = ChaosPlan(5, kills=3, stalls=3, slows=3, horizon=9)
        ordinals = [a.at for a in plan.actions
                    if a.kind in ("kill", "stall", "slow")]
        assert len(set(ordinals)) == len(ordinals) == 9
        assert min(ordinals) >= 2  # dispatch 1 always lands clean

    def test_overfull_horizon_rejected(self):
        with pytest.raises(ValueError, match="worker faults"):
            ChaosPlan(1, kills=5, stalls=5, slows=5, horizon=4)
        with pytest.raises(ValueError, match="store faults"):
            ChaosPlan(1, corruptions=9, horizon=4)

    def test_action_validation(self):
        with pytest.raises(ValueError, match="unknown chaos action"):
            ChaosAction("meteor", 3)
        with pytest.raises(ValueError, match="1-based"):
            ChaosAction("kill", 0)

    def test_render_lists_every_action(self):
        plan = ChaosPlan(3)
        text = plan.render()
        for action in plan.actions:
            assert f"@{action.at:>3}" in text
            assert action.kind in text


class TestMonkeyStoreFaults:
    def _monkey(self, **counts):
        base = dict(kills=0, stalls=0, slows=0, corruptions=0,
                    event_truncations=0)
        base.update(counts)
        return ChaosMonkey(ChaosPlan(11, horizon=4, **base))

    def test_corrupted_record_is_quarantined_on_read(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.chaos = self._monkey(corruptions=1)
        # The plan picks one of the first 4 puts; write 4 records.
        for k in range(4):
            store.put(f"{k:064x}", {"v": k})
        assert store.chaos.corruptions == 1
        fresh = ResultStore(tmp_path / "store")
        values = [fresh.get(f"{k:064x}") for k in range(4)]
        assert fresh.corrupt_records == 1
        assert sum(1 for hit, _ in values if hit) == 3

    def test_production_stores_have_no_hook(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.chaos is None
        store.put("a" * 64, 1)
        assert store.get("a" * 64) == (True, 1)


class TestChaosPoint:
    def test_deterministic(self):
        assert chaos_point(("pt-1", 50, 0.0)) == chaos_point(("pt-1", 50, 0.0))
        assert (chaos_point(("pt-1", 50, 0.0))
                != chaos_point(("pt-2", 50, 0.0)))


@pytest.mark.timeout_guard(240.0)
class TestHarnessDrills:
    def test_run_chaos_invariants_hold(self, tmp_path):
        report = run_chaos(
            str(tmp_path), seed=23, points=10, workers=3, delay=0.05
        )
        assert report.ok, report.render()
        assert report.clean_digest == report.chaos_digest
        assert report.delivered["kills"] >= 1
        assert report.delivered["stalls"] >= 1
        assert report.delivered["corruptions"] >= 1
        assert report.delivered["event_truncations"] >= 1
        assert set(report.delivered) == {
            "kills", "stalls", "slows", "corruptions", "event_truncations",
        }
        assert report.journal_points == 10
        assert report.orphans == []
        assert report.corrupt_quarantined >= 1
        assert report.recompute_digest == report.clean_digest
        assert "all invariants held" in report.render()

    def test_run_poison_quarantines_exactly_the_pill(self, tmp_path):
        report = run_poison(str(tmp_path))
        assert report.ok, report.render()
        assert len(report.poisoned_keys) == 1
        assert report.journal_points == 5
        assert report.orphans == []

    def test_too_few_points_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="points"):
            run_chaos(str(tmp_path), points=2)

    def test_cli_round_trip(self, tmp_path, capsys):
        from repro.__main__ import main

        scratch = str(tmp_path / "cli")
        os.makedirs(scratch)
        assert main([
            "chaos", "--seed", "3", "--points", "8", "--workers", "2",
            "--chaos-dir", scratch,
        ]) == 0
        out = capsys.readouterr().out
        assert "chaos harness: OK" in out
        assert "all invariants held" in out
