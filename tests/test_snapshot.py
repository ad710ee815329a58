"""Deterministic checkpoint/restore: differential and format tests.

The load-bearing guarantee (docs/CHECKPOINT.md): snapshot a simulator
at cycle N, restore into a structurally identical rebuild -- same
process or a fresh one -- run to cycle M, and every statistic matches a
run that was never interrupted.  These tests assert that digest
equality under both scheduling modes, with fault windows open across
the snapshot point, and across a process boundary, plus the integrity
checks of the on-disk format.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.faults.injector import FaultInjector, FaultWindow
from repro.network.experiments import TopologyNocBuilder, verify_checkpoint
from repro.network.topology import mesh
from repro.network.traffic import UniformRandomTraffic
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.snapshot import SNAPSHOT_VERSION, SimSnapshot, SnapshotError

BUILDER = TopologyNocBuilder(factory=mesh, args=(2, 2))

#: A burst window that is *open* at every snapshot point the tests use,
#: so restore must reproduce mid-fault link overrides exactly.
SPANNING_FAULT = FaultWindow("link.*", start=50, duration=600, error_rate=0.2)


def build_noc(kernel: str = "compiled", windows=(SPANNING_FAULT,)):
    noc = BUILDER()
    noc.sim.set_kernel(kernel)
    injector = FaultInjector(noc, list(windows)) if windows else None
    targets = list(noc.topology.targets)
    noc.populate(
        {
            ni: UniformRandomTraffic(targets, 0.1, seed=7 + 17 * i)
            for i, ni in enumerate(noc.topology.initiators)
        }
    )
    return noc, injector


class TestRoundTrip:
    @pytest.mark.parametrize(
        "kernel", ["fast", "interpreted", "compiled"],
        ids=["fast", "full", "compiled"],
    )
    def test_restore_then_run_is_digest_identical(self, kernel):
        reference, _ = build_noc(kernel)
        reference.run(400)
        want = reference.stats_digest()

        donor, _ = build_noc(kernel)
        donor.run(150)
        snap = donor.sim.snapshot()

        restored, _ = build_noc(kernel)
        assert restored.sim.restore(snap) == {}
        assert restored.sim.cycle == 150
        restored.run(250)
        assert restored.stats_digest() == want

    def test_snapshot_point_inside_fault_window(self):
        # SPANNING_FAULT is open from cycle 50 to 650; snapshot at 300.
        digest = verify_checkpoint(
            BUILDER,
            snapshot_at=300,
            cycles=900,
            rate=0.1,
            attach=lambda noc: FaultInjector(noc, [SPANNING_FAULT]),
        )
        assert len(digest) == 64

    def test_both_flow_control_modes(self):
        # ACK/NACK go-back-N is the default; credit mode is the other
        # flow-control personality the switches support.
        from repro.network.noc import NocBuildConfig

        for kwargs in ({}, {"config": NocBuildConfig(flow_control="credit")}):
            builder = TopologyNocBuilder(
                factory=mesh, args=(2, 2), **kwargs
            )
            digest = verify_checkpoint(
                builder, snapshot_at=200, cycles=700, rate=0.1
            )
            assert len(digest) == 64

    def test_extras_ride_along(self):
        noc, _ = build_noc()
        noc.run(80)
        snap = noc.sim.snapshot(extras={"warm": 13, "tag": "x"})
        fresh, _ = build_noc()
        assert fresh.sim.restore(snap) == {"warm": 13, "tag": "x"}

    def test_global_id_counters_restored(self):
        from repro.core.flit import next_packet_id
        from repro.core.ocp import next_txn_id

        noc, _ = build_noc()
        noc.run(120)
        snap = noc.sim.snapshot()
        # Burn ids after the snapshot: restore must rewind them so the
        # continued run allocates the same ids the uninterrupted run did.
        burned_txn = [next_txn_id() for _ in range(5)]
        burned_pkt = [next_packet_id() for _ in range(5)]
        fresh, _ = build_noc()
        fresh.sim.restore(snap)
        assert next_txn_id() == burned_txn[0]
        assert next_packet_id() == burned_pkt[0]

    def test_snapshot_at_cycle_zero_restores(self):
        noc, _ = build_noc()
        snap = noc.sim.snapshot()
        fresh, _ = build_noc()
        fresh.sim.restore(snap)
        assert fresh.sim.cycle == 0
        fresh.run(100)  # and it still runs


class TestKernelAgnostic:
    """Snapshots restore across scheduler modes (docs/CHECKPOINT.md):
    the capture records which kernel took it, restore keeps the target's
    mode, and continuing is digest-identical either way -- including the
    interpreted-source case, where the capture carries no scheduler
    state and the restore must conservatively re-arm a fast-path target.
    """

    @pytest.mark.parametrize("src,dst", [
        ("interpreted", "fast"),
        ("interpreted", "compiled"),
        ("fast", "interpreted"),
        ("fast", "compiled"),
        ("compiled", "interpreted"),
        ("compiled", "fast"),
    ])
    def test_cross_kernel_restore_with_open_fault_window(self, src, dst):
        # SPANNING_FAULT is open at the snapshot point, so the restored
        # instance resumes mid-fault under a different scheduler.
        digest = verify_checkpoint(
            BUILDER,
            snapshot_at=300,
            cycles=900,
            rate=0.1,
            attach=lambda noc: FaultInjector(noc, [SPANNING_FAULT]),
            kernel=src,
            restore_kernel=dst,
        )
        assert len(digest) == 64

    def test_snapshot_records_the_capturing_kernel(self, tmp_path):
        noc, _ = build_noc()
        noc.sim.set_kernel("compiled")
        noc.run(100)
        snap = noc.sim.snapshot()
        assert snap.kernel == "compiled"
        assert snap.fast_path is True  # legacy field, derived from kernel
        path = os.path.join(tmp_path, "k.ckpt")
        snap.save(path)
        assert SimSnapshot.load(path).kernel == "compiled"
        noc.sim.set_kernel("interpreted")
        assert noc.sim.snapshot().fast_path is False

    def test_restore_keeps_target_kernel(self):
        noc, _ = build_noc()
        noc.run(120)
        snap = noc.sim.snapshot()  # captured under the default kernel
        target, _ = build_noc()
        target.sim.set_kernel("compiled")
        target.sim.restore(snap)
        assert target.sim.kernel == "compiled"
        target2, _ = build_noc()
        target2.sim.set_kernel("interpreted")
        target2.sim.restore(snap)
        assert target2.sim.kernel == "interpreted"


class TestStructureValidation:
    def test_restoring_into_a_different_noc_raises(self):
        noc, _ = build_noc()
        noc.run(50)
        snap = noc.sim.snapshot()
        other = TopologyNocBuilder(factory=mesh, args=(3, 2))()
        with pytest.raises(SnapshotError) as exc:
            other.sim.restore(snap)
        # The diagnosis names what differs and how to fix it.
        assert "structure differs" in str(exc.value)
        assert "rebuild the simulator" in str(exc.value)

    def test_restoring_without_the_injector_raises(self):
        noc, _ = build_noc()
        noc.run(50)
        snap = noc.sim.snapshot()
        bare, _ = build_noc(windows=())
        with pytest.raises(SnapshotError, match="faults"):
            bare.sim.restore(snap)

    def test_version_skew_raises(self):
        noc, _ = build_noc()
        snap = noc.sim.snapshot()
        snap.version = SNAPSHOT_VERSION + 1
        fresh, _ = build_noc()
        with pytest.raises(SnapshotError, match="format v"):
            fresh.sim.restore(snap)


class TestFileFormat:
    def _snap(self):
        noc, _ = build_noc()
        noc.run(60)
        return noc.sim.snapshot()

    def test_save_load_round_trip(self, tmp_path):
        snap = self._snap()
        path = str(tmp_path / "ck.bin")
        snap.save(path)
        loaded = SimSnapshot.load(path)
        assert loaded == snap

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            SimSnapshot.load(str(tmp_path / "nope.bin"))

    def test_wrong_magic_raises(self, tmp_path):
        path = tmp_path / "ck.bin"
        path.write_bytes(b"NOTACKPT" + b"\0" * 64)
        with pytest.raises(SnapshotError, match="not a simulator snapshot"):
            SimSnapshot.load(str(path))

    def test_truncated_file_raises(self, tmp_path):
        snap = self._snap()
        path = str(tmp_path / "ck.bin")
        snap.save(path)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[: len(raw) // 2])
        with pytest.raises(SnapshotError):
            SimSnapshot.load(path)

    def test_corrupted_payload_raises(self, tmp_path):
        snap = self._snap()
        path = str(tmp_path / "ck.bin")
        snap.save(path)
        raw = bytearray(open(path, "rb").read())
        raw[-10] ^= 0xFF
        open(path, "wb").write(bytes(raw))
        with pytest.raises(SnapshotError, match="integrity"):
            SimSnapshot.load(path)

    def test_future_version_file_raises(self, tmp_path):
        snap = self._snap()
        path = str(tmp_path / "ck.bin")
        snap.save(path)
        raw = bytearray(open(path, "rb").read())
        raw[8:12] = (SNAPSHOT_VERSION + 9).to_bytes(4, "big")
        open(path, "wb").write(bytes(raw))
        with pytest.raises(SnapshotError, match="format v"):
            SimSnapshot.load(path)


_CROSS_PROCESS_SCRIPT = """
import sys
from tests.test_snapshot import build_noc
from repro.sim.snapshot import SimSnapshot

snap = SimSnapshot.load(sys.argv[1])
noc, _ = build_noc(kernel=snap.kernel)
noc.sim.restore(snap)
noc.run(int(sys.argv[2]))
print(noc.stats_digest())
"""


class TestCrossProcess:
    @pytest.mark.timeout_guard(180)
    def test_restore_in_fresh_process_matches(self, tmp_path):
        reference, _ = build_noc()
        reference.run(400)
        want = reference.stats_digest()

        donor, _ = build_noc()
        donor.run(150)
        path = str(tmp_path / "ck.bin")
        donor.sim.snapshot().save(path)

        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), root, env.get("PYTHONPATH"))
            if p
        )
        out = subprocess.run(
            [sys.executable, "-c", _CROSS_PROCESS_SCRIPT, path, "250"],
            capture_output=True, text=True, env=env, cwd=root, check=True,
        )
        assert out.stdout.strip() == want


class TestKernelValidation:
    def test_negative_cycle_count_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="non-negative"):
            sim.run(-5)

    def test_zero_cycles_is_a_no_op(self):
        sim = Simulator()
        sim.run(0)
        assert sim.cycle == 0
