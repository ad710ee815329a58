"""Property: the segment store answers like a dict, whatever happens to
its files.

A ``RuleBasedStateMachine`` drives one store root through two handles
-- the second one opened on demand, a writer of its own -- with puts,
gets, reopens, ``gc(max_records, keep)``, a flipped final payload byte
(``tests/harness.py::flip_final_payload_byte``) and a segment cut short
(a writer killed mid-write), next to a dict model.  After every step: ``keys()`` and
``len()`` agree with the model, and a ``get`` returns the model's value,
or, for a key whose record was damaged, a miss or a value published
under it before; a flipped record is a *counted* miss on the handle
that indexed it.  No exception escapes.

Values are a function of their key, as the runner's results are: the
one rule that publishes a different value puts the key's own value
back in the same step, so which copy of a record a handle serves is
never in question.
"""

import hashlib
import os
import tempfile

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.store import ResultStore, cas
from tests.harness import flip_final_payload_byte

KEYS = [hashlib.sha256(f"point-{i}".encode()).hexdigest() for i in range(6)]
VALUES = {key: {"i": i, "pad": "x" * (40 * i)} for i, key in enumerate(KEYS)}

keys = st.sampled_from(KEYS)
handles = st.integers(0, 1)


class SegmentStore(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tmp = tempfile.TemporaryDirectory()
        self.root = os.path.join(self.tmp.name, "store")
        self.stores = [ResultStore(self.root)]
        #: key -> created of the record the model expects.
        self.model = {}
        #: Keys whose record was damaged at some point: a handle may
        #: still index the damaged copy, an older record under the key
        #: (the last complete write wins), or none at all.
        self.damaged = set()
        #: key -> every value ever published under it.
        self.published = {}

    def handle(self, which):
        return self.stores[which % len(self.stores)]

    def segments(self):
        seg_dir = os.path.join(self.root, cas.SEGMENTS_DIRNAME)
        return [os.path.join(seg_dir, n) for n in sorted(os.listdir(seg_dir))
                if n.endswith(cas.SEGMENT_SUFFIX)]

    @rule(which=handles, key=keys)
    def put(self, which, key):
        store = self.handle(which)
        record = store.put(key, VALUES[key])
        self.published.setdefault(key, []).append(VALUES[key])
        self.model[key] = record.created
        assert store.get(key) == (True, VALUES[key])  # a republish heals

    @rule(which=handles, key=keys)
    def republish_a_different_value_and_back(self, which, key):
        """Two conflicting publishes through one handle: each wins on
        that handle at once, and the model's value is the last."""
        store = self.handle(which)
        for value in ({"other": key}, VALUES[key]):
            conflicts = store.conflicts
            hit, old = store.get(key)
            record = store.put(key, value)
            self.published.setdefault(key, []).append(value)
            assert store.conflicts == conflicts + (hit and old != value)
            assert store.get(key) == (True, value)
        self.model[key] = record.created

    @rule(which=handles, key=keys)
    def get(self, which, key):
        hit, value = self.handle(which).get(key)
        if hit and key in self.damaged:
            assert value in self.published[key]
        elif hit:
            assert key in self.model and value == VALUES[key]
        else:
            assert key not in self.model or key in self.damaged, key

    @rule(which=handles)
    def reopen(self, which):
        i = which % len(self.stores)
        self.stores[i].close()
        self.stores[i] = ResultStore(self.root)

    @rule()
    def open_a_second_writer(self):
        if len(self.stores) == 1:
            self.stores.append(ResultStore(self.root))

    @rule(key=keys)
    def flip_final_payload_byte(self, key):
        store = self.stores[0]
        if key not in self.model or key in self.damaged:
            return
        flip_final_payload_byte(store, key)
        self.damaged.add(key)
        corrupt = store.corrupt_records
        assert store.get(key) == (False, None)
        assert store.corrupt_records == corrupt + 1

    @rule(pick=st.integers(0, 7), cut=st.integers(1, 400))
    def cut_a_segment_tail(self, pick, cut):
        paths = self.segments()
        if not paths:
            return
        path = paths[pick % len(paths)]
        size = os.path.getsize(path)
        fd = os.open(path, os.O_RDONLY)
        try:
            records, _ = cas._scan(fd, 0, size)
        finally:
            os.close(fd)
        keep = max(0, size - cut)
        os.truncate(path, keep)
        self.damaged.update(record.key for offset, length, record in records
                            if offset + length > keep)

    @rule(max_records=st.integers(0, 6),
          keep=st.sets(keys, max_size=3))
    def gc(self, max_records, keep):
        evicted = self.stores[0].gc(max_records=max_records, keep=keep)
        assert not set(evicted) & keep
        assert set(evicted) <= set(self.model), evicted
        survivors = set(self.stores[0].keys())
        assert not set(evicted) & survivors
        assert len(survivors) <= max(max_records, len(survivors & keep))
        clean = [k for k in self.model if k not in self.damaged]
        for gone in set(evicted) - self.damaged:
            for kept in survivors - keep - self.damaged:
                assert self.model[gone] <= self.model[kept]  # oldest first
        for key in evicted:
            del self.model[key]
        assert set(clean) - set(evicted) <= survivors

    @invariant()
    def keys_and_len_match_the_model(self):
        clean = {k for k in self.model if k not in self.damaged}
        for store in self.stores:
            listed = list(store.keys())
            assert listed == sorted(listed)
            assert clean <= set(listed) <= set(self.model), (listed, self.model)
            assert len(store) == len(listed)

    def teardown(self):
        for store in self.stores:
            store.close()
        self.tmp.cleanup()


SegmentStore.TestCase.settings = settings(
    max_examples=200, stateful_step_count=30, deadline=None)
TestSegmentStore = pytest.mark.timeout_guard(240.0)(SegmentStore.TestCase)
