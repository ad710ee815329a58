"""ResultStore: self-verifying records, quarantine, concurrency."""

import hashlib
import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.flow.runner import ExperimentRunner
from repro.store import (
    STORE_SCHEMA,
    ResultStore,
    StoreError,
    StoreRecord,
)

KEY_A = "a" * 64
KEY_B = "b" * 64
KEY_C = "c" * 64


def _square(x):
    """Module-level so worker processes can unpickle it."""
    return x * x


class TestRoundTrip:
    def test_put_then_get(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        record = store.put(KEY_A, {"latency": 12.5}, label="p0")
        assert record.key == KEY_A and record.size > 0
        hit, value = store.get(KEY_A)
        assert hit and value == {"latency": 12.5}
        assert store.hits == 1 and store.puts == 1

    def test_miss_is_counted(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        hit, value = store.get(KEY_A)
        assert not hit and value is None
        assert store.misses == 1

    def test_contains_and_len(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert KEY_A not in store and len(store) == 0
        store.put(KEY_A, 1)
        store.put(KEY_B, 2)
        assert KEY_A in store and KEY_C not in store
        assert len(store) == 2 and list(store.keys()) == [KEY_A, KEY_B]

    def test_identical_republish_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        first = store.put(KEY_A, [1, 2])
        again = store.put(KEY_A, [1, 2])
        assert again == first  # same header: the record was kept
        assert store.puts == 1 and store.conflicts == 0

    def test_divergent_republish_wins_and_counts_conflict(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(KEY_A, "old")
        store.put(KEY_A, "new")
        assert store.conflicts == 1
        assert store.get(KEY_A) == (True, "new")

    def test_record_header_without_payload(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(KEY_A, list(range(100)), label="sweep")
        record = store.record(KEY_A)
        assert isinstance(record, StoreRecord)
        assert record.label == "sweep"
        assert record.digest == hashlib.sha256(
            pickle.dumps(list(range(100)))
        ).hexdigest()
        assert store.hits == 0  # header peeks don't count as reads

    def test_reopening_sees_existing_records(self, tmp_path):
        ResultStore(tmp_path / "store").put(KEY_A, "persisted")
        store = ResultStore(tmp_path / "store")
        assert store.get(KEY_A) == (True, "persisted")


class TestKeysAndMarkers:
    @pytest.mark.parametrize(
        "bad", ["", "short", "Z" * 64, "a" * 63, "../" + "a" * 61, 7, None]
    )
    def test_rejects_non_sha256_keys(self, tmp_path, bad):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(StoreError, match="sha256"):
            store.put(bad, 1)

    @pytest.mark.parametrize(
        "bad",
        ["A" * 64, "a" * 63, "a" * 65, "a" * 64 + "\n", "g" * 64, b"a" * 64,
         "../" + "a" * 61],
    )
    def test_read_side_refuses_what_is_not_a_lowercase_digest(self, tmp_path, bad):
        store = ResultStore(tmp_path / "store")
        for call in (store.get, store.record, store.record_path, store.__contains__):
            with pytest.raises(StoreError, match="sha256"):
                call(bad)
        assert store.hits == store.misses == 0

    def test_accepts_a_real_digest(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = hashlib.sha256(b"a real digest").hexdigest()
        assert store.record_path(key).endswith(f"{key[:2]}/{key}.rec")
        assert store.get(key) == (False, None)
        store.put(key, 7)
        assert store.get(key) == (True, 7)

    def test_refuses_foreign_directory(self, tmp_path):
        (tmp_path / "store").mkdir()
        (tmp_path / "store" / "STORE.json").write_text('{"schema": "x/v9"}')
        with pytest.raises(StoreError, match=STORE_SCHEMA):
            ResultStore(tmp_path / "store")

    def test_schema_marker_written(self, tmp_path):
        ResultStore(tmp_path / "store")
        doc = json.loads((tmp_path / "store" / "STORE.json").read_text())
        assert doc == {"schema": STORE_SCHEMA}


class TestQuarantine:
    def _flip_payload_byte(self, store, key):
        path = store.record_path(key)
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        return path

    def test_corrupt_payload_quarantined_as_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(KEY_A, {"x": 1})
        path = self._flip_payload_byte(store, KEY_A)
        hit, value = store.get(KEY_A)
        assert not hit and value is None
        assert store.corrupt_records == 1
        assert not os.path.exists(path)
        assert os.path.exists(path[: -len(".rec")] + ".corrupt")

    def test_truncated_record_quarantined(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(KEY_A, list(range(1000)))
        path = store.record_path(KEY_A)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        assert store.get(KEY_A) == (False, None)
        assert store.corrupt_records == 1

    def test_bad_magic_quarantined(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(KEY_A, 1)
        open(store.record_path(KEY_A), "wb").write(b"not a record at all")
        assert store.get(KEY_A) == (False, None)
        assert store.corrupt_records == 1

    def test_republish_after_quarantine_serves_cleanly(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(KEY_A, "good")
        self._flip_payload_byte(store, KEY_A)
        assert store.get(KEY_A) == (False, None)
        store.put(KEY_A, "good")
        assert store.get(KEY_A) == (True, "good")
        corrupt = store.record_path(KEY_A)[: -len(".rec")] + ".corrupt"
        assert os.path.exists(corrupt)  # evidence survives the recovery


class TestManifestAndGc:
    def test_put_is_one_file_publish(self, tmp_path):
        """A publish is one record file -- the objects directory is the
        only index, nothing else in the root grows per put."""
        store = ResultStore(tmp_path / "store")
        store.put(KEY_A, 1)
        store.put(KEY_A, 2)  # conflict rewrite
        store.put(KEY_B, 3)
        assert sorted(os.listdir(store.root)) == ["STORE.json", "objects"]
        files = [
            name for _, _, names in os.walk(tmp_path / "store" / "objects")
            for name in names
        ]
        assert sorted(files) == [KEY_A + ".rec", KEY_B + ".rec"]

    def test_stale_manifest_from_an_older_store_is_ignored(self, tmp_path):
        """Stores written before the manifest was dropped still carry a
        ``manifest.jsonl`` (possibly torn, possibly naming evicted
        keys): it is neither read nor rewritten."""
        store = ResultStore(tmp_path / "store")
        store.put(KEY_A, 1)
        stale = tmp_path / "store" / "manifest.jsonl"
        junk = json.dumps({"key": KEY_C, "digest": "0" * 64}) + '\n{"key": "torn'
        stale.write_text(junk)

        reopened = ResultStore(tmp_path / "store")
        assert reopened.get(KEY_A) == (True, 1)
        assert list(reopened.keys()) == [KEY_A] and KEY_C not in reopened
        reopened.put(KEY_B, 2)
        assert reopened.gc(max_records=1) == [KEY_A]
        assert list(reopened.keys()) == [KEY_B]
        assert stale.read_text() == junk

    def test_gc_evicts_oldest_first(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for n, key in enumerate([KEY_A, KEY_B, KEY_C]):
            record = store.put(key, n)
            # Deterministic ordering without sleeping: rewrite created.
            path = store.record_path(key)
            blob = open(path, "rb").read()
            header = json.loads(blob[len(b"repro-store/v1\n"):].split(b"\n")[0])
            header["created"] = float(n)
            payload = blob.split(b"\n", 2)[2]
            open(path, "wb").write(
                b"repro-store/v1\n"
                + json.dumps(header, sort_keys=True).encode() + b"\n"
                + payload
            )
        evicted = store.gc(max_records=1)
        assert evicted == [KEY_A, KEY_B]
        assert list(store.keys()) == [KEY_C]
        assert store.get(KEY_C) == (True, 2)

    def test_gc_keep_pins_keys(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(KEY_A, 1)
        store.put(KEY_B, 2)
        evicted = store.gc(max_records=1, keep={KEY_A, KEY_B})
        assert evicted == [] and len(store) == 2

    def test_gc_removes_quarantined_files(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(KEY_A, 1)
        path = store.record_path(KEY_A)
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        store.get(KEY_A)  # quarantines
        store.gc()
        corrupt = path[: -len(".rec")] + ".corrupt"
        assert not os.path.exists(corrupt)

    def test_gc_rejects_negative_budgets(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(StoreError):
            store.gc(max_records=-1)
        with pytest.raises(StoreError):
            store.gc(max_bytes=-5)


class TestRunnerIntegration:
    def test_runner_round_trips_through_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = ExperimentRunner(store=store)
        assert runner.map(_square, [2, 3]) == [4, 9]
        assert runner.cache_misses == 2 and len(store) == 2

        second = ExperimentRunner(store=ResultStore(tmp_path / "store"))
        assert second.map(_square, [2, 3]) == [4, 9]
        assert second.cache_hits == 2 and second.cache_misses == 0

    def test_store_and_cache_dir_both_publish(self, tmp_path):
        """Both configured: the result lives only in ``store``;
        ``cache_dir`` hosts the journal and the event stream."""
        store = ResultStore(tmp_path / "store")
        runner = ExperimentRunner(
            store=store, cache_dir=str(tmp_path / "cache")
        )
        runner.map(_square, [5])
        assert runner.store is store and len(store) == 1
        assert sorted(os.listdir(tmp_path / "cache")) == [
            "events.jsonl", "runs.jsonl",
        ]
        assert not os.path.exists(tmp_path / "store" / "runs.jsonl")

    def test_run_directory_layout(self, tmp_path):
        """One record file per point, one ledger, one stream -- whether
        the run directory is a ``cache_dir`` or a bare store root."""
        layout = {"STORE.json", "objects", "runs.jsonl", "events.jsonl"}
        ExperimentRunner(cache_dir=str(tmp_path / "cache")).map(_square, [2, 3])
        assert set(os.listdir(tmp_path / "cache")) == layout
        store = ResultStore(tmp_path / "store")
        ExperimentRunner(store=store).map(_square, [2, 3])
        assert set(os.listdir(store.root)) == layout

    def test_report_names_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = ExperimentRunner(store=store)
        runner.map(_square, [1])
        assert str(store.root) in runner.render_report()


class TestConcurrency:
    def test_two_processes_same_key_last_write_wins(self, tmp_path):
        """Racing publishers settle on exactly one verified record whose
        digest equals one of the two written payloads -- never a torn
        mix of both."""
        root = str(tmp_path / "store")
        ResultStore(root)  # pre-create the marker
        ctx = multiprocessing.get_context()
        barrier = ctx.Barrier(2)
        procs = [
            ctx.Process(
                target=_race_put, args=(root, KEY_A, value, barrier)
            )
            for value in ("from-proc-one", "from-proc-two")
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(30)
            assert p.exitcode == 0
        store = ResultStore(root)
        hit, value = store.get(KEY_A)
        assert hit and value in ("from-proc-one", "from-proc-two")
        digests = {
            hashlib.sha256(pickle.dumps(v)).hexdigest()
            for v in ("from-proc-one", "from-proc-two")
        }
        assert store.record(KEY_A).digest in digests
        assert store.record(KEY_A).digest == hashlib.sha256(
            pickle.dumps(value)
        ).hexdigest()

    def test_kill_and_resume_dispatched_sweep(self, tmp_path):
        """SIGKILL a work-stealing sweep mid-run; a fresh dispatcher
        over the same store finishes it, serving the survivors as hits."""
        root = str(tmp_path / "store")
        script = tmp_path / "sweep.py"
        script.write_text(
            "import sys\n"
            "from repro.flow.runner import ExperimentRunner\n"
            "from repro.serve import WorkStealingDispatcher\n"
            "from repro.store import ResultStore\n"
            "from tests.test_store import _slow_square\n"
            f"store = ResultStore({root!r})\n"
            "runner = ExperimentRunner(store=store, jobs=2)\n"
            "disp = WorkStealingDispatcher(runner, workers=2)\n"
            "print('ready', flush=True)\n"
            "out = disp.map(_slow_square, list(range(6)), label='sweep')\n"
            "print('done', out, flush=True)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (
                os.path.join(os.getcwd(), "src"),
                os.getcwd(),
                env.get("PYTHONPATH", ""),
            ) if p
        )
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            assert proc.stdout.readline().strip() == "ready"
            deadline = time.monotonic() + 60
            store = ResultStore(root)
            while time.monotonic() < deadline and len(store) < 2:
                time.sleep(0.05)
            assert len(store) >= 2, "sweep produced nothing to kill over"
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(30)
        # The killed sweep's workers inherited its stdout: EOF arrives
        # only once every one of them has noticed and exited.
        drain = threading.Thread(target=proc.stdout.read, daemon=True)
        drain.start()
        drain.join(15)
        assert not drain.is_alive(), "orphaned workers outlived the sweep"

        survivors = len(ResultStore(root))
        runner = ExperimentRunner(store=ResultStore(root), jobs=2)
        from repro.serve import WorkStealingDispatcher

        disp = WorkStealingDispatcher(runner, workers=2)
        out = disp.map(_slow_square, list(range(6)), label="sweep")
        assert out == [x * x for x in range(6)]
        assert runner.cache_hits >= survivors >= 2
        assert runner.cache_hits + runner.cache_misses == 6


def _race_put(root, key, value, barrier):
    store = ResultStore(root)
    barrier.wait(timeout=30)
    store.put(key, value)


def _slow_square(x):
    time.sleep(0.15)
    return x * x
