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
from repro.store import cas
from repro.store import (
    STORE_SCHEMA,
    ResultStore,
    StoreError,
    StoreRecord,
)
from repro.telemetry.registry import MetricsRegistry
from tests.harness import flip_final_payload_byte

KEY_A = "a" * 64
KEY_B = "b" * 64
KEY_C = "c" * 64
KEY_D = "d" * 64


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


class TestGetMany:
    def test_a_batch_reads_as_its_per_key_gets(self, tmp_path):
        """In order, each key a hit, a miss, or a corrupt record read as
        a miss and dropped -- counted per key, metrics included."""
        metrics = MetricsRegistry()
        store = ResultStore(tmp_path / "store", metrics=metrics)
        for key, value in ((KEY_A, "a"), (KEY_B, "b"), (KEY_C, "c")):
            store.put(key, value)
        flip_final_payload_byte(store, KEY_C)
        assert store.get_many([KEY_A, KEY_D, KEY_C, KEY_B, KEY_A]) == [
            (True, "a"), (False, None), (False, None), (True, "b"), (True, "a"),
        ]
        assert (store.hits, store.misses, store.corrupt_records) == (3, 2, 1)
        assert [metrics.counter(f"store.{name}").value
                for name in ("hits", "misses", "corrupt_records")] == [3, 2, 1]
        assert KEY_C not in store and store.get_many([]) == []

    def test_one_catch_up_finds_another_writers_records(self, tmp_path):
        reader = ResultStore(tmp_path / "store")
        reader.put(KEY_A, "a")
        writer = ResultStore(tmp_path / "store")
        writer.put(KEY_B, "b")
        writer.put(KEY_C, "c")
        assert reader.get_many([KEY_A, KEY_B, KEY_D, KEY_C]) == [
            (True, "a"), (True, "b"), (False, None), (True, "c"),
        ]

    def test_a_batch_after_gc_reads_the_compacted_segment(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for key in (KEY_A, KEY_B, KEY_C):
            store.put(key, key[0])
        reader = ResultStore(tmp_path / "store")
        assert reader.get_many([KEY_A]) == [(True, "a")]
        assert store.gc(max_records=2) == [KEY_A]
        assert reader.get_many([KEY_B, KEY_A, KEY_C]) == [
            (True, "b"), (False, None), (True, "c"),
        ]


class TestLearnOnce:
    def _entries(self, store):
        return len(store._index)

    def test_a_put_indexes_its_record_once(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for i in range(10):
            store.put(hashlib.sha256(b"%d" % i).hexdigest(), i)
        assert self._entries(store) == 10 and len(store) == 10

    def test_a_worker_append_indexes_its_record_once(self, tmp_path):
        """A worker's append, reported to the handle through ``account``,
        is indexed once too."""
        store = ResultStore(tmp_path / "store")
        with ExperimentRunner(store=store, jobs=2) as runner:
            runner.map(_square, range(10))
        assert self._entries(store) == 10 and len(store) == 10

    def test_an_inline_publish_indexes_its_record_once(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        ExperimentRunner(store=store).map(_square, range(10))
        assert self._entries(store) == 10 and store.puts == 10


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
        assert store.record_path(key) is None
        assert store.get(key) == (False, None)
        store.put(key, 7)
        assert store.get(key) == (True, 7)
        segment = store.record_path(key)
        assert os.path.dirname(segment) == os.path.join(store.root, "segments")
        assert segment.endswith(".seg")

    def test_refuses_a_one_file_per_record_store(self, tmp_path):
        (tmp_path / "store").mkdir()
        (tmp_path / "store" / "STORE.json").write_text(
            '{"schema": "repro.store/v1"}\n')
        with pytest.raises(StoreError, match="repro.store/v1.*repro.store/v2"):
            ResultStore(tmp_path / "store")
        assert os.listdir(tmp_path / "store") == ["STORE.json"]

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
    def test_corrupt_payload_quarantined_as_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(KEY_A, {"x": 1})
        path = flip_final_payload_byte(store, KEY_A)
        size = os.path.getsize(path)
        hit, value = store.get(KEY_A)
        assert not hit and value is None
        assert store.corrupt_records == 1
        # Counted, dropped from the index; no *.corrupt file is written
        # and the damaged bytes stay in the segment until gc.
        assert KEY_A not in store and len(store) == 0
        assert os.path.getsize(path) == size
        assert [n for _, _, names in os.walk(store.root) for n in names
                if n.endswith(".corrupt")] == []

    def test_republish_through_a_handle_still_indexing_the_damage(self, tmp_path):
        """A forked worker's inherited index may still point at a record
        another handle found damaged: its publish checks the payload, not
        just the header, so it appends a clean record."""
        first = ResultStore(tmp_path / "store")
        second = ResultStore(tmp_path / "store")
        first.put(KEY_A, "good")
        assert second.get(KEY_A) == (True, "good")
        flip_final_payload_byte(first, KEY_A)
        assert first.get(KEY_A) == (False, None)
        second.put(KEY_A, "good")
        assert (second.puts, second.conflicts) == (1, 0)
        assert second.get(KEY_A) == (True, "good")
        assert ResultStore(tmp_path / "store").get(KEY_A) == (True, "good")

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
        damaged = store.locate(KEY_A)
        flip_final_payload_byte(store, KEY_A)
        assert store.get(KEY_A) == (False, None)
        store.put(KEY_A, "good")
        assert store.puts == 2 and store.conflicts == 0
        assert store.get(KEY_A) == (True, "good")
        # The evidence survives the recovery: the damaged record is
        # still in its segment, ahead of the republished one.
        path, offset, length = damaged
        assert store.locate(KEY_A)[:2] == (path, offset + length)
        with open(path, "rb") as fh:
            fh.seek(offset)
            blob = fh.read(length)
        assert blob.startswith(cas.MAGIC) and pickle.dumps("good") not in blob


class TestManifestAndGc:
    def test_put_is_one_append(self, tmp_path):
        """A publish is one append to the writer's segment -- the index
        lives in memory, nothing else in the root grows per put."""
        store = ResultStore(tmp_path / "store")
        store.put(KEY_A, 1)
        store.put(KEY_A, 2)  # conflict: a second record, appended
        store.put(KEY_B, 3)
        assert sorted(os.listdir(store.root)) == ["STORE.json", "segments"]
        (segment,) = os.listdir(tmp_path / "store" / "segments")
        path = os.path.join(store.root, "segments", segment)
        fd = os.open(path, os.O_RDONLY)
        try:
            found, end = cas._scan(fd, 0, os.path.getsize(path))
        finally:
            os.close(fd)
        assert [record.key for _, _, record in found] == [KEY_A, KEY_A, KEY_B]
        assert end == os.path.getsize(path)
        assert store.record_path(KEY_A) == store.record_path(KEY_B) == path

    def test_a_sweep_adds_no_file_per_point(self, tmp_path):
        """A 64-point ``jobs=2`` sweep into a fresh store leaves at most
        one segment per concurrent writer (``jobs`` workers plus the
        supervisor) beside the event stream, and a
        second sweep adds no file at all."""
        root = tmp_path / "store"
        store = ResultStore(root)

        def files():
            return sorted(
                os.path.relpath(os.path.join(d, n), root)
                for d, _, names in os.walk(root) for n in names
            )

        before = files()
        runner = ExperimentRunner(store=store, jobs=2)
        assert runner.map(_square, range(64)) == [x * x for x in range(64)]
        added = set(files()) - set(before) - {"events.jsonl"}
        assert 1 <= len(added) <= runner.jobs + 1, added
        assert len(store) == 64
        after_first = files()
        runner.map(_square, range(64, 128))
        assert files() == after_first
        assert len(ResultStore(root)) == 128

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

    def test_gc_evicts_oldest_first(self, tmp_path, monkeypatch):
        # Deterministic ordering without sleeping: a clock that reads n.
        clock = iter([0.0, 1.0, 2.0])
        monkeypatch.setattr(cas.time, "time", lambda: next(clock))
        store = ResultStore(tmp_path / "store")
        for n, key in enumerate([KEY_A, KEY_B, KEY_C]):
            assert store.put(key, n).created == float(n)
        monkeypatch.undo()
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

    def test_gc_drops_the_damaged_bytes(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(KEY_A, 1)
        store.put(KEY_B, 2)
        path = flip_final_payload_byte(store, KEY_A)
        store.get(KEY_A)  # counted, dropped from the index
        assert store.gc() == []
        assert not os.path.exists(path)
        (segment,) = os.listdir(os.path.join(store.root, "segments"))
        assert os.path.getsize(os.path.join(store.root, "segments", segment)) \
            == store.locate(KEY_B)[2]
        assert list(store.keys()) == [KEY_B]
        assert ResultStore(store.root).get(KEY_B) == (True, 2)

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

    def test_run_directory_layout(self, tmp_path):
        """The segments and one stream, all in the store's root."""
        layout = {"STORE.json", "segments", "events.jsonl"}
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
            "from repro.flow.pool import WorkStealingDispatcher\n"
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
        from repro.flow.pool import WorkStealingDispatcher

        disp = WorkStealingDispatcher(runner, workers=2)
        out = disp.map(_slow_square, list(range(6)), label="sweep")
        assert out == [x * x for x in range(6)]
        assert runner.cache_hits >= survivors >= 2
        assert runner.cache_hits + runner.cache_misses == 6


class TestThreads:
    def test_threads_share_one_handle(self, tmp_path):
        """A server's threads share one handle: puts, gets and catch-ups
        from more threads than cores, switching as often as the
        interpreter allows, lose no record and read no torn one."""
        store = ResultStore(tmp_path / "store")
        keys = [hashlib.sha256(f"thread-{i}".encode()).hexdigest()
                for i in range(96)]
        errors = []

        def work(part):
            try:
                for key in keys[part::4]:
                    store.put(key, {"key": key})
                    assert store.get(key) == (True, {"key": key})
                    assert len(store) >= 1
            except BaseException as exc:  # noqa: BLE001 -- reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert (store.puts, store.conflicts, store.corrupt_records) == (96, 0, 0)
        assert sorted(store.keys()) == sorted(keys)
        reader = ResultStore(store.root)
        assert [reader.get(k) for k in keys] == [(True, {"key": k}) for k in keys]
        assert reader.corrupt_records == 0


class TestGcUnderWriters:
    @pytest.mark.timeout_guard(120)
    def test_gc_loses_no_record_appended_while_it_runs(self, tmp_path):
        """Short-lived writer processes -- each adopts a segment, appends
        and exits, as sweep workers do -- run while gc compacts in a
        loop: every key a writer appended is still listed, or was
        returned by gc as evicted."""
        root = str(tmp_path / "store")
        store = ResultStore(root)
        for i in range(40):
            store.put(_numbered(i), i)  # something old to evict
        ctx = multiprocessing.get_context()
        done = ctx.Event()
        writers = ctx.Process(target=_writer_waves, args=(root, 8, 25, done))
        writers.start()
        evicted = []
        rounds = 0
        try:
            while not done.is_set() or rounds < 3:
                evicted += store.gc(max_records=30)
                rounds += 1
        finally:
            writers.join(60)
        assert writers.exitcode == 0
        evicted += store.gc(max_records=30)
        appended = {_numbered(1000 + i) for i in range(8 * 25)}
        assert appended <= set(store.keys()) | set(evicted)
        assert len(evicted) == len(set(evicted))
        reader = ResultStore(root)
        for key in set(reader.keys()) & appended:
            assert reader.get(key) == (True, int(key, 16) & 0xFFFF)
        assert reader.corrupt_records == 0


def _numbered(i):
    return f"{0xabc << 200 | i:064x}"


def _writer_waves(root, waves, per_wave, done):
    """``waves`` writer processes one after another, ``per_wave``
    records each, then set ``done``."""
    ctx = multiprocessing.get_context()
    for wave in range(waves):
        proc = ctx.Process(target=_write_some, args=(root, 1000 + wave * per_wave,
                                                     per_wave))
        proc.start()
        proc.join(30)
        if proc.exitcode != 0:
            os._exit(1)
    done.set()


def _write_some(root, first, count):
    store = ResultStore(root)
    for i in range(first, first + count):
        store.put(_numbered(i), i)


def _race_put(root, key, value, barrier):
    store = ResultStore(root)
    barrier.wait(timeout=30)
    store.put(key, value)


def _slow_square(x):
    time.sleep(0.15)
    return x * x
