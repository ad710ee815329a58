"""The content-addressed store behind the DSE service.

One :class:`ResultStore` is a plain directory of **segment files**.
Each writing process appends whole records to a segment of its own,
and every :class:`ResultStore` keeps an index in memory, key ->
(segment, offset, length) -- a small Bitcask: append-only data files,
an in-memory keydir, and merge as gc:

.. code-block:: text

    store/
      STORE.json                 # schema stamp ("repro.store/v2")
      segments/<name>.seg        # records, appended back to back:
                                 #   MAGIC + header JSON line + pickle
                                 #   payload + 16-byte trailer

Keys are the :class:`~repro.flow.runner.ExperimentRunner` cache keys:
sha256 hexdigests over ``CACHE_VERSION || stable_repr(fn) |
stable_repr(point)`` (:mod:`repro.flow.keying`), so a record's identity
*is* the work it answers for, and any two runners address the same
records.

Every record is self-verifying: the header carries the sha256 and byte
size of the pickle payload, checked on every read.  A record that
fails any check (bad magic, torn header, short payload, digest
mismatch, unpicklable payload) is counted in ``corrupt_records``,
dropped from the index and reported as a miss, so a recomputed result
is appended cleanly; the damaged bytes stay in their segment until
:meth:`ResultStore.gc` compacts it.  A record whose *header* is
damaged cannot be found at all: an index built later skips it.

**A publish is one append, a hit is one** ``pread``.  A record is one
``os.write`` on an ``O_APPEND`` descriptor -- on disk when the call
returns, no fsync -- and its trailer (the record's length and a tag)
makes a segment's tail check clean in O(1).  A writer holds an
exclusive ``flock`` on its segment, so a segment has one writer, and
it adopts an unlocked segment whose tail checks clean before it
creates one: the segment count tracks concurrent writers, not
processes ever started.  A torn tail (a writer killed mid-write, a
cut file) is never appended after.  The lock is ``flock``, not a POSIX
record lock (``lockf``), because it belongs to the open file
description: a reader closing its own descriptor on a segment never
drops a writer's lock, and two handles in one process exclude each
other.  A forked child closes the writer descriptors it inherited
(``os.register_at_fork``), so it can never append to its parent's
segment.

**The index** is built at open from the headers alone, and caught up
on a miss by parsing only the bytes appended since the last scan (and
rebuilt when gc removed a segment).  :meth:`ResultStore.get_many` reads
a batch under one lock, checks each segment's liveness once and catches
up at most once, on its first miss; ``get`` is its one-key case.  A
record a handle is *told* of -- its own append, or a worker's reported
to :meth:`ResultStore.account` -- enters the index at once, and the
scan skips it.  Last write wins by ``(created, segment, offset)``, so
racing publishers settle on one record and a racing publish that would
*change* an existing record's digest is counted in ``conflicts``
(determinism violations are worth noticing).

A publish has two halves.  :func:`write_record` is the file half --
sha256, the existing-record check, the append -- and runs where the
value was computed: in the pool worker that ran the point
(:mod:`repro.flow.pool`), so workers append in parallel, each to its
own segment.  It returns the record's location, and
:meth:`ResultStore.account` is the other half -- the index entry,
``puts``, ``conflicts`` and the ``store.*`` metrics -- and runs in the
supervisor on what the worker reports.
:meth:`ResultStore.put` is both halves in one process.

:meth:`ResultStore.keys` lists the indexed keys,
:meth:`ResultStore.record` reads one header, and
:meth:`ResultStore.gc` evicts the oldest records to a count/byte
budget by compacting segments.  Any other file in the root (an older
store's publish log, the runner's ``events.jsonl``) is ignored.
"""

from __future__ import annotations

import fcntl
import functools
import hashlib
import json
import os
import pickle
import re
import struct
import tempfile
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.codec import decode, encode

STORE_SCHEMA = "repro.store/v2"

#: The record framing, byte for byte that of the one-file-per-record
#: layout, so every key's digest and size are unchanged.
MAGIC = b"repro-store/v1\n"

MARKER_BASENAME = "STORE.json"
SEGMENTS_DIRNAME = "segments"
SEGMENT_SUFFIX = ".seg"

#: After every record: the length of what precedes it, and a tag.
_TRAILER = struct.Struct(">Q8s")
_TAG = b"repro:r\n"
TRAILER_SIZE = _TRAILER.size

#: Bytes read at a record's offset when only its header is wanted, and
#: the longest header line a scan accepts.
_PROBE = 4096
_HEAD_MAX = 1 << 16

#: ``fullmatch`` only: ``$`` would let a trailing newline through.
_KEY = re.compile(r"[0-9a-f]{64}")

#: Where a record is: ``(segment file name, offset, length)``.
Location = Tuple[str, int, int]


class StoreError(ValueError):
    """Store misuse: bad keys, foreign directories, closed handles."""


class _Incomplete(Exception):
    """A record's bytes end before the record does (still being
    written, or torn)."""


@dataclass(frozen=True)
class StoreRecord:
    """Header of one stored result (everything but the payload)."""

    key: str
    digest: str  # sha256 hexdigest of the pickle payload
    size: int  # payload bytes
    created: float  # publish wall-clock time (time.time)
    label: str = ""


def _check_key(key: str) -> str:
    """Keys are sha256 hexdigests; anything else is refused."""
    if not isinstance(key, str) or _KEY.fullmatch(key) is None:
        raise StoreError(
            f"store keys are 64-char sha256 hexdigests "
            f"(ExperimentRunner cache keys), got {key!r}"
        )
    return key


#: What :func:`write_record` found: no record under the key (or a
#: damaged one), a record of identical bytes, or one of different bytes.
NEW, SAME, CONFLICT = "new", "same", "conflict"

#: Everything reading a record can raise on damaged bytes.
_DAMAGE = (StoreError, OSError, ValueError, KeyError, TypeError,
           pickle.PickleError, EOFError, AttributeError, ImportError,
           IndexError, struct.error)


# -- the index's packed locations --------------------------------------------
# One int per key: offset, then length (32 bits), then the segment's
# number in this handle (16 bits).
def _pack(seg: int, offset: int, length: int) -> int:
    return (((offset << 32) | length) << 16) | seg


def _unpack(loc: int) -> Tuple[int, int, int]:
    return loc & 0xFFFF, loc >> 48, (loc >> 16) & 0xFFFFFFFF


# -- record framing ------------------------------------------------------------
def _header(line: bytes) -> StoreRecord:
    record = decode(StoreRecord, json.loads(line.decode("utf-8")))
    if _KEY.fullmatch(record.key) is None or record.size < 0:
        raise StoreError(f"bad header {line[:80]!r}")
    return record


def _frame(record: StoreRecord, payload: bytes) -> bytes:
    """The bytes of one record, trailer included."""
    head = MAGIC + json.dumps(encode(record), sort_keys=True).encode("utf-8") + b"\n"
    body = len(head) + len(payload)
    return b"".join((head, payload, _TRAILER.pack(body, _TAG)))


def _decode(blob: bytes, key: Optional[str]) -> Tuple[StoreRecord, bytes]:
    """Header and payload of the whole record ``blob``; raises one of
    ``_DAMAGE`` when it is not one record (under ``key``, if given)."""
    if blob[: len(MAGIC)] != MAGIC:
        raise StoreError(f"bad magic {blob[: len(MAGIC)]!r}")
    nl = blob.index(b"\n", len(MAGIC))
    record = _header(blob[len(MAGIC):nl])
    if key is not None and record.key != key:
        raise StoreError(
            f"header names key {record.key[:12]}..., index says {key[:12]}..."
        )
    body = len(blob) - _TRAILER.size
    length, tag = _TRAILER.unpack_from(blob, body)
    if tag != _TAG or length != body:
        raise StoreError("bad trailer")
    payload = blob[nl + 1:body]
    if len(payload) != record.size:
        raise StoreError(
            f"payload is {len(payload)} bytes, header says {record.size}"
        )
    return record, payload


def _verify(payload: bytes, record: StoreRecord) -> None:
    if hashlib.sha256(payload).hexdigest() != record.digest:
        raise StoreError("payload sha256 does not match header")


def _parse_at(fd: int, pos: int, end: int) -> Tuple[int, StoreRecord]:
    """Length and header of the record at ``pos`` of a segment whose
    first ``end`` bytes are readable.  Raises :class:`_Incomplete`
    when the bytes end first, one of ``_DAMAGE`` when they are not a
    record."""
    head = os.pread(fd, min(_PROBE, end - pos), pos)
    if head[: len(MAGIC)] != MAGIC:
        if MAGIC.startswith(head):
            raise _Incomplete()
        raise StoreError("bad magic")
    nl = head.find(b"\n", len(MAGIC))
    if nl < 0 and len(head) < end - pos:
        head = os.pread(fd, min(_HEAD_MAX, end - pos), pos)
        nl = head.find(b"\n", len(MAGIC))
    if nl < 0:
        if len(head) == end - pos:
            raise _Incomplete()
        raise StoreError("header line too long")
    record = _header(head[len(MAGIC):nl])
    length = nl + 1 + record.size + _TRAILER.size
    if pos + length > end:
        raise _Incomplete()
    body = length - _TRAILER.size
    trailer = (head[body:length] if length <= len(head)
               else os.pread(fd, _TRAILER.size, pos + body))
    if _TRAILER.unpack(trailer) != (body, _TAG):
        raise StoreError("bad trailer")
    return length, record


def _next_magic(fd: int, pos: int, end: int) -> Optional[int]:
    """The first offset >= ``pos`` where MAGIC starts, or None."""
    while pos < end:
        window = os.pread(fd, min(_HEAD_MAX, end - pos), pos)
        at = window.find(MAGIC)
        if at >= 0:
            return pos + at
        if pos + len(window) >= end:
            return None
        pos += len(window) - len(MAGIC) + 1
    return None


def _scan(fd: int, pos: int, end: int) -> Tuple[List[Tuple[int, int, StoreRecord]], int]:
    """The complete records in bytes ``[pos, end)`` of a segment, read
    headers only, as ``(offset, length, header)``; and where to resume:
    ``end``, or the start of a record whose bytes end early.  Damaged
    bytes are skipped to the next MAGIC."""
    found: List[Tuple[int, int, StoreRecord]] = []
    while pos < end:
        try:
            length, record = _parse_at(fd, pos, end)
        except _Incomplete:
            break
        except _DAMAGE:
            resume = _next_magic(fd, pos + 1, end)
            if resume is None:
                break
            pos = resume
            continue
        found.append((pos, length, record))
        pos += length
    return found, pos


def _tail_is_clean(fd: int) -> bool:
    """O(1): the segment is empty or ends with a whole record."""
    size = os.fstat(fd).st_size
    if size == 0:
        return True
    if size < len(MAGIC) + _TRAILER.size:
        return False
    body, tag = _TRAILER.unpack(os.pread(fd, _TRAILER.size, size - _TRAILER.size))
    start = size - _TRAILER.size - body
    return tag == _TAG and start >= 0 and os.pread(fd, len(MAGIC), start) == MAGIC


def _locked(fd: int) -> bool:
    """Take an exclusive ``flock`` on ``fd`` without waiting: False
    when another open file description holds it, or when gc has
    unlinked the file."""
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        return False
    return os.fstat(fd).st_nlink > 0


def _open(path: str, flags: int) -> Optional[int]:
    try:
        return os.open(path, flags, 0o644)
    except (FileNotFoundError, FileExistsError):
        return None


def _segment_name() -> str:
    return f"{time.time_ns():016x}-{os.getpid()}{SEGMENT_SUFFIX}"


# -- handles per process ----------------------------------------------------------
#: The newest handle on each root in this process: the one
#: :func:`write_record` appends through.  A pool worker finds its
#: supervisor's handle here, index and all, inherited at fork.
_OPEN: "weakref.WeakValueDictionary[str, ResultStore]" = weakref.WeakValueDictionary()

#: Every handle in this process, for the fork hook and for gc.
_HANDLES: "weakref.WeakSet[ResultStore]" = weakref.WeakSet()


def _after_fork_in_child() -> None:
    """Close every inherited writer descriptor -- the parent's ``flock``
    then lives on its own descriptor alone, and the child takes a
    segment of its own when it writes -- and give every handle a fresh
    lock (another thread of the parent may have held one at fork)."""
    for store in list(_HANDLES):
        store._lock = threading.RLock()
        store._retire()


os.register_at_fork(after_in_child=_after_fork_in_child)


def _serialized(method):
    """Run ``method`` under its handle's lock: the threads of a server
    share one handle, and the index is mutable state."""
    @functools.wraps(method)
    def locked(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)
    return locked


#: Handles :func:`write_record` opened itself, when no handle on the
#: root was alive in this process; kept for the life of the process.
_OWN: Dict[str, "ResultStore"] = {}


def _store_at(root: str) -> "ResultStore":
    store = _OPEN.get(root)
    if store is None:
        store = _OWN[root] = ResultStore(root)
    return store


def write_record(
    root: str, key: str, payload: bytes, label: str = ""
) -> Tuple[StoreRecord, str, Location]:
    """The file half of a publish: make ``payload`` (a pickle) the
    record under ``key`` in the store rooted at ``root``, through this
    process's newest handle on it.  Returns the header, the outcome --
    :data:`NEW`, :data:`SAME` (an identical record was there and is
    kept, untouched) or :data:`CONFLICT` (a record of different bytes
    is superseded) -- and the record's location.  A damaged record
    under the key counts as absent.

    It counts nothing and calls no hook, so it runs in whichever
    process computed the value -- a pool worker, or the supervisor at
    ``jobs=1``; :meth:`ResultStore.account` is the other half.  The
    write is one append to this process's segment: a writer cut short
    leaves a torn tail that no index lists and no writer appends
    after."""
    return _store_at(root)._write(key, payload, label)


class ResultStore:
    """A shared, self-verifying result directory.  See the module
    docstring for the format; see docs/SERVICE.md for the service it
    backs.

    Counters (``hits`` / ``misses`` / ``puts`` / ``corrupt_records`` /
    ``conflicts``) accumulate per instance; an optional ``metrics``
    registry (:class:`repro.telemetry.registry.MetricsRegistry`)
    mirrors them as ``store.*`` counters for the ``/metrics``
    exposition.  A handle may be shared between threads.

    A handle that already indexed a key keeps serving that record
    until it next catches up -- on a miss, ``keys()`` or ``len()`` --
    so a record another writer supersedes is seen then.
    """

    def __init__(self, root: str, metrics: Optional[Any] = None) -> None:
        self.root = os.fspath(root)
        self.metrics = metrics
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.corrupt_records = 0
        self.conflicts = 0
        # The index: key -> packed location; per segment number, its
        # file name, read descriptor, parsed prefix and size at the
        # last scan.
        self._index: Dict[str, int] = {}
        self._names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._fds: List[int] = []
        self._scanned: List[int] = []
        self._seen: List[int] = []
        self._writer_fd = -1
        self._writer_name = ""
        self._writer_end = 0
        self._lock = threading.RLock()
        os.makedirs(self.root, exist_ok=True)
        marker = os.path.join(self.root, MARKER_BASENAME)
        if os.path.exists(marker):
            try:
                with open(marker, encoding="utf-8") as fh:
                    doc = json.load(fh)
            except ValueError:
                doc = None
            found = doc.get("schema") if isinstance(doc, dict) else None
            if found != STORE_SCHEMA:
                raise StoreError(
                    f"{marker}: schema {found!r} is not {STORE_SCHEMA!r}; "
                    f"this version reads only {STORE_SCHEMA!r} store directories"
                )
        else:
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump({"schema": STORE_SCHEMA}, fh)
                fh.write("\n")
            os.replace(tmp, marker)
        self._dir = os.path.join(self.root, SEGMENTS_DIRNAME)
        os.makedirs(self._dir, exist_ok=True)
        self._refresh()
        _OPEN[self.root] = self
        _HANDLES.add(self)

    @_serialized
    def close(self) -> None:
        """Close every descriptor (a writer's lock goes with its own)."""
        self._retire()
        self._reset()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    # -- accounting -------------------------------------------------------
    def _count(self, name: str, attr: str) -> None:
        setattr(self, attr, getattr(self, attr) + 1)
        if self.metrics is not None:
            self.metrics.counter(f"store.{name}").inc()

    # -- the index --------------------------------------------------------
    def _reset(self) -> None:
        for fd in self._fds:
            os.close(fd)
        self._index.clear()
        self._names.clear()
        self._ids.clear()
        self._fds.clear()
        self._scanned.clear()
        self._seen.clear()

    def _segment(self, name: str) -> Optional[int]:
        """The number of segment ``name`` in this handle, opening it on
        first sight; None when it is gone."""
        seg = self._ids.get(name)
        if seg is not None:
            return seg
        if len(self._names) > 0xFFFF:
            raise StoreError(f"{self.root}: more than 65536 segments")
        try:
            fd = os.open(os.path.join(self._dir, name), os.O_RDONLY)
        except FileNotFoundError:
            return None
        seg = self._ids[name] = len(self._names)
        self._names.append(name)
        self._fds.append(fd)
        self._scanned.append(0)
        self._seen.append(-1)
        return seg

    def _refresh(self) -> None:
        """Catch the index up with the directory: parse what was
        appended since the last scan, open new segments, and rebuild
        from scratch when gc removed one this handle knows."""
        try:
            names = {n for n in os.listdir(self._dir) if n.endswith(SEGMENT_SUFFIX)}
        except FileNotFoundError:
            names = set()
        if not names.issuperset(self._ids):
            self._reset()
        for name in sorted(names.difference(self._ids)):
            self._segment(name)
        for seg, fd in enumerate(self._fds):
            size = os.fstat(fd).st_size
            if size == self._seen[seg]:
                continue
            found, self._scanned[seg] = _scan(fd, min(self._scanned[seg], size), size)
            self._seen[seg] = size
            name = self._names[seg]
            for offset, length, record in found:
                self._enter(record.key, _pack(seg, offset, length),
                            (record.created, name, offset))

    def _enter(
        self, key: str, loc: int, rank: Optional[Tuple[float, str, int]] = None
    ) -> None:
        """Index ``key`` at ``loc`` unless the record already indexed
        for it ranks later by ``(created, segment, offset)``."""
        old = self._index.get(key)
        if old is not None and old != loc and self._rank(old) > (
                rank or self._rank(loc)):
            return
        self._index[key] = loc

    def _rank(self, loc: int) -> Tuple[float, str, int]:
        seg, offset, length = _unpack(loc)
        try:
            record, _ = _decode(os.pread(self._fds[seg], length, offset), None)
        except _DAMAGE:
            return (float("-inf"), "", -1)
        return (record.created, self._names[seg], offset)

    def _learn(self, key: str, location: Location) -> None:
        """Index a record some process reported appending -- weighed
        against the record already indexed for its key, if any -- and
        skip it in the next scan when it is where the scan would
        resume."""
        name, offset, length = location
        seg = self._segment(name)
        if seg is None:
            return
        self._enter(key, _pack(seg, offset, length))
        if self._scanned[seg] == offset:
            self._scanned[seg] = offset + length

    def _locate(self, keys: List[str]) -> Iterator[Optional[int]]:
        """The packed location of each of ``keys``, in order (None for
        a miss).  The index catches up at most once, on the first key it
        has no live location for: one it lacks, or one whose segment gc
        compacted away.  Each segment's liveness is checked once."""
        alive: Dict[int, bool] = {}
        caught_up = False
        for key in keys:
            _check_key(key)
            loc = self._index.get(key)
            if loc is not None:
                seg = loc & 0xFFFF
                live = alive.get(seg)
                if live is None:
                    live = alive[seg] = os.fstat(self._fds[seg]).st_nlink > 0
                if not live:
                    loc = None
            if loc is None and not caught_up:
                caught_up = True
                self._refresh()  # may renumber the segments
                alive.clear()
                loc = self._index.get(key)
            yield loc

    def _find(self, key: str) -> Optional[int]:
        """The packed location of ``key``: :meth:`_locate` of one key."""
        return next(self._locate([key]))

    def _read(self, key: str, loc: int) -> Tuple[StoreRecord, bytes]:
        seg, offset, length = _unpack(loc)
        return _decode(os.pread(self._fds[seg], length, offset), key)

    # -- write side -------------------------------------------------------
    def _retire(self) -> None:
        """Give up this handle's segment (closing drops the lock)."""
        if self._writer_fd >= 0:
            os.close(self._writer_fd)
        self._writer_fd, self._writer_name = -1, ""

    def _open_writer(self) -> None:
        """Adopt an unlocked segment whose tail checks clean, else
        create one."""
        self._retire()
        flags = os.O_RDWR | os.O_APPEND
        names = sorted(n for n in os.listdir(self._dir) if n.endswith(SEGMENT_SUFFIX))
        while True:
            if names:
                name = names.pop(0)
                fd = _open(os.path.join(self._dir, name), flags)
            else:
                name = _segment_name()
                fd = _open(os.path.join(self._dir, name),
                           flags | os.O_CREAT | os.O_EXCL)
            if fd is None:
                continue
            if _locked(fd) and _tail_is_clean(fd):
                break
            os.close(fd)
        self._writer_fd, self._writer_name = fd, name
        self._writer_end = os.fstat(fd).st_size

    def _append(self, frame: bytes) -> Tuple[str, int]:
        """Append one whole record with one ``os.write``; returns the
        segment and offset it landed at."""
        if (self._writer_fd < 0
                or os.fstat(self._writer_fd).st_size != self._writer_end):
            self._open_writer()  # none yet, or the segment changed under us
        try:
            written = os.write(self._writer_fd, frame)
        except BaseException:
            self._retire()
            raise
        offset = self._writer_end
        self._writer_end += written
        if written != len(frame):
            self._retire()  # a torn tail: never appended after
            raise OSError(f"short write: {written} of {len(frame)} bytes")
        return self._writer_name, offset

    def _existing(self, key: str) -> Optional[Tuple[StoreRecord, Location]]:
        """The record under ``key`` if one verifies; a damaged one is
        dropped from the index, uncounted."""
        loc = self._find(key)
        if loc is None:
            return None
        try:
            record, payload = self._read(key, loc)
            _verify(payload, record)
        except _DAMAGE:
            del self._index[key]
            return None
        seg, offset, length = _unpack(loc)
        return record, (self._names[seg], offset, length)

    @_serialized
    def _write(
        self, key: str, payload: bytes, label: str
    ) -> Tuple[StoreRecord, str, Location]:
        """:func:`write_record` through this handle."""
        digest = hashlib.sha256(payload).hexdigest()
        outcome = NEW
        existing = self._existing(key)
        if existing is not None:
            if existing[0].digest == digest:
                return existing[0], SAME, existing[1]
            outcome = CONFLICT
        record = StoreRecord(
            key=key, digest=digest, size=len(payload), created=time.time(),
            label=label,
        )
        frame = _frame(record, payload)
        name, offset = self._append(frame)
        location = (name, offset, len(frame))
        self._learn(key, location)
        return record, outcome, location

    def put(self, key: str, value: Any, label: str = "") -> StoreRecord:
        """Publish ``value`` under ``key``; returns the record header.
        Re-publishing an identical payload is an idempotent no-op (the
        existing record is kept); a *different* payload is appended,
        wins last-write style and bumps ``conflicts``.
        :func:`write_record` and :meth:`account` in one process."""
        return self.account(*self._write(key, pickle.dumps(value), label), key=key)

    @_serialized
    def account(
        self, record: StoreRecord, outcome: str, location: Location,
        key: Optional[str] = None,
    ) -> StoreRecord:
        """Index and count one :func:`write_record` outcome, wherever
        the record was written: its location enters this handle's
        index (under ``key``, the caller's own string, when given), then
        ``puts`` for a record that is new or superseded a different one,
        ``conflicts`` for the latter, nothing for a republish of
        identical bytes."""
        if location[0] != self._writer_name:  # else learned when appended
            self._learn(record.key if key is None else key, location)
        if outcome == SAME:
            return record
        if outcome == CONFLICT:
            self._count("conflicts", "conflicts")
        self._count("puts", "puts")
        return record

    # -- read side --------------------------------------------------------
    def _damaged(self, key: str) -> None:
        self._count("corrupt_records", "corrupt_records")
        del self._index[key]

    @_serialized
    def record(self, key: str) -> Optional[StoreRecord]:
        """The header under ``key``, or None.  Does not verify the
        payload and does not touch the hit/miss counters."""
        loc = self._find(key)
        if loc is None:
            return None
        try:
            return self._read(key, loc)[0]
        except _DAMAGE:
            self._damaged(key)
            return None

    def get(self, key: str) -> Tuple[bool, Any]:
        """``(True, value)`` when ``key`` holds a verified record,
        else ``(False, None)`` -- including when the record existed but
        failed verification and was dropped from the index.
        :meth:`get_many` of one key."""
        return self.get_many([key])[0]

    @_serialized
    def get_many(self, keys: List[str]) -> List[Tuple[bool, Any]]:
        """:meth:`get` of each of ``keys``, in order, under one lock:
        each segment's liveness is checked once, and the index catches
        up at most once, on the first miss, so a batch of hits lists no
        directory.  Every record is verified and counted as by
        :meth:`get`: a hit, a miss, or a corrupt record dropped from
        the index and read as a miss."""
        found: List[Tuple[bool, Any]] = []
        for key, loc in zip(keys, self._locate(keys)):
            if loc is not None:
                try:
                    record, payload = self._read(key, loc)
                    _verify(payload, record)
                    found.append((True, pickle.loads(payload)))
                    self._count("hits", "hits")
                    continue
                except _DAMAGE:
                    self._damaged(key)
            found.append((False, None))
            self._count("misses", "misses")
        return found

    @_serialized
    def locate(self, key: str) -> Optional[Location]:
        """Where the record under ``key`` is: ``(segment path, offset,
        length)``, trailer included; None without one."""
        loc = self._find(key)
        if loc is None:
            return None
        seg, offset, length = _unpack(loc)
        return os.path.join(self._dir, self._names[seg]), offset, length

    def record_path(self, key: str) -> Optional[str]:
        """The segment file holding the record under ``key`` (None
        without one)."""
        located = self.locate(key)
        return None if located is None else located[0]

    @_serialized
    def __contains__(self, key: str) -> bool:
        return self._find(key) is not None

    @_serialized
    def keys(self) -> Iterator[str]:
        """Every indexed key (payloads unverified), sorted."""
        self._refresh()
        return iter(sorted(self._index))

    @_serialized
    def __len__(self) -> int:
        self._refresh()
        return len(self._index)

    # -- garbage collection -----------------------------------------------
    def gc(
        self,
        max_records: Optional[int] = None,
        max_bytes: Optional[int] = None,
        keep: "frozenset[str] | set[str]" = frozenset(),
    ) -> List[str]:
        """Evict oldest-first until within the given budgets.

        ``max_records`` bounds the record count, ``max_bytes`` the total
        *payload* bytes; ``keep`` pins keys that must survive (the
        frontier of an active query, say).  Returns the evicted keys,
        oldest first.

        Eviction compacts segments: every segment no live writer holds
        is rewritten without its evicted, superseded, damaged and torn
        bytes (a new segment, then the old one unlinked).  Every handle
        on this root in this process gives up its segment first, and
        takes one again on its next append.  A record with a copy in a
        segment another process's writer holds is not evictable this
        time, like a pinned one; a record appended while gc runs lands
        in a held segment or a new one, and is kept.
        """
        if max_records is not None and max_records < 0:
            raise StoreError(f"max_records must be >= 0, got {max_records}")
        if max_bytes is not None and max_bytes < 0:
            raise StoreError(f"max_bytes must be >= 0, got {max_bytes}")
        for store in list(_HANDLES):  # one lock at a time: no lock order
            if store.root == self.root:
                with store._lock:
                    store._retire()
        with self._lock:
            return self._gc(max_records, max_bytes, keep)

    def _gc(
        self, max_records: Optional[int], max_bytes: Optional[int],
        keep: "frozenset[str] | set[str]",
    ) -> List[str]:
        held: Dict[str, int] = {}
        try:
            for name in sorted(os.listdir(self._dir)):
                if not name.endswith(SEGMENT_SUFFIX):
                    continue
                fd = _open(os.path.join(self._dir, name), os.O_RDONLY)
                if fd is None:
                    continue
                if _locked(fd):
                    held[name] = fd
                else:
                    os.close(fd)
            self._refresh()  # after locking: the held segments are final
            pinned = set(keep)
            for seg, fd in enumerate(self._fds):
                if self._names[seg] not in held:
                    found, _ = _scan(fd, 0, os.fstat(fd).st_size)
                    pinned.update(record.key for _, _, record in found)
            records = []
            for key, loc in list(self._index.items()):
                try:
                    record, _ = self._read(key, loc)
                except _DAMAGE:
                    del self._index[key]
                    continue
                records.append((record.created, key, record.size))
            records.sort()
            total = sum(size for _, _, size in records)
            count = len(records)
            evicted: List[str] = []
            for _, key, size in records:
                over_count = max_records is not None and count > max_records
                over_bytes = max_bytes is not None and total > max_bytes
                if not over_count and not over_bytes:
                    break
                if key in pinned:
                    continue
                del self._index[key]
                evicted.append(key)
                count -= 1
                total -= size
            live: Dict[int, List[Tuple[int, int, str]]] = {}
            for key, loc in self._index.items():
                seg, offset, length = _unpack(loc)
                live.setdefault(seg, []).append((offset, length, key))
            for name, fd in held.items():
                seg = self._ids.get(name)
                if seg is not None:
                    self._compact(name, fd, sorted(live.get(seg, ())))
        finally:
            for fd in held.values():
                os.close(fd)
        self._reset()
        self._refresh()
        return evicted

    def _compact(
        self, name: str, fd: int, live: List[Tuple[int, int, str]]
    ) -> None:
        """Rewrite segment ``name`` (locked as ``fd``) to its ``live``
        records ``(offset, length, key)``, verified, and unlink it."""
        if sum(length for _, length, _ in live) == os.fstat(fd).st_size:
            return  # nothing to drop
        tmp_fd, tmp = tempfile.mkstemp(dir=self._dir, suffix=".tmp")
        kept = 0
        try:
            with os.fdopen(tmp_fd, "wb") as out:
                for offset, length, key in live:
                    blob = os.pread(fd, length, offset)
                    try:
                        record, payload = _decode(blob, key)
                        _verify(payload, record)
                    except _DAMAGE:
                        self._count("corrupt_records", "corrupt_records")
                        continue
                    out.write(blob)
                    kept += 1
            if kept:
                os.replace(tmp, os.path.join(self._dir, _segment_name()))
            else:
                os.unlink(tmp)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        os.unlink(os.path.join(self._dir, name))

    # -- reporting --------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "corrupt_records": self.corrupt_records,
            "conflicts": self.conflicts,
        }

    def __repr__(self) -> str:
        return f"ResultStore({self.root!r})"
