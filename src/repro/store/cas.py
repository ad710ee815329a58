"""The content-addressed store behind the DSE service.

One :class:`ResultStore` is a plain directory -- shareable across
hosts over any filesystem -- holding one **record file** per cache
key; the objects directory is the only index:

.. code-block:: text

    store/
      STORE.json          # schema stamp ("repro.store/v1")
      objects/ab/abcd....rec  # MAGIC + header JSON line + pickle payload

Keys are the :class:`~repro.flow.runner.ExperimentRunner` cache keys:
sha256 hexdigests over ``CACHE_VERSION || stable_repr(fn) |
stable_repr(point)`` (:mod:`repro.flow.keying`), so a record's identity
*is* the work it answers for, and any two runners address the same
records.

Every record is self-verifying: the header carries the sha256 and byte
size of the pickle payload, checked on every read.  A record that
fails any check (bad magic, torn header, short payload, digest
mismatch, unpicklable payload) is **quarantined** by renaming it to
``*.corrupt`` and reported as a miss, so a recomputed result can be
published cleanly at the original path and the damaged evidence
survives for debugging.

Writes are atomic (``tempfile`` + ``os.replace`` in the objects
directory), so concurrent publishers racing on one key settle
last-write-wins with no reader ever seeing a torn record; a racing
publish that would *change* an existing record's digest is counted in
``conflicts`` (determinism violations are worth noticing).

A publish has two halves.  :func:`write_record` is the file half --
sha256, the existing-record check, the tempfile and the rename -- and
runs where the value was computed: in the pool worker that ran the
point (:mod:`repro.flow.pool`), so workers create records in parallel.
:meth:`ResultStore.account` is the other half -- ``puts``,
``conflicts``, the ``store.*`` metrics and the chaos hook -- and runs
in the supervisor on the header the worker reports.
:meth:`ResultStore.put` is both halves in one process.

:meth:`ResultStore.keys` lists the record files,
:meth:`ResultStore.record` reads one header, and
:meth:`ResultStore.gc` evicts the oldest records to a count/byte
budget.  Any other file in the root (an older store's publish log,
the runner's ``runs.jsonl``) is ignored.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

import hashlib

STORE_SCHEMA = "repro.store/v1"

MAGIC = b"repro-store/v1\n"

MARKER_BASENAME = "STORE.json"
OBJECTS_DIRNAME = "objects"
RECORD_SUFFIX = ".rec"

#: ``fullmatch`` only: ``$`` would let a trailing newline through.
_KEY = re.compile(r"[0-9a-f]{64}")


class StoreError(ValueError):
    """Store misuse: bad keys, foreign directories, closed handles."""


@dataclass(frozen=True)
class StoreRecord:
    """Header of one stored result (everything but the payload)."""

    key: str
    digest: str  # sha256 hexdigest of the pickle payload
    size: int  # payload bytes
    created: float  # publish wall-clock time (time.time)
    label: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "digest": self.digest,
            "size": self.size,
            "created": self.created,
            "label": self.label,
        }


def _check_key(key: str) -> str:
    """Keys are sha256 hexdigests; anything else is refused (a key is
    also a file name, so this doubles as path-traversal armour)."""
    if not isinstance(key, str) or _KEY.fullmatch(key) is None:
        raise StoreError(
            f"store keys are 64-char sha256 hexdigests "
            f"(ExperimentRunner cache keys), got {key!r}"
        )
    return key


#: What :func:`write_record` found: no record under the key (or a
#: damaged one), a record of identical bytes, or one of different bytes.
NEW, SAME, CONFLICT = "new", "same", "conflict"

#: Everything reading a record can raise on a damaged file.
_DAMAGE = (StoreError, OSError, ValueError, KeyError, TypeError,
           pickle.PickleError, EOFError, AttributeError, ImportError,
           IndexError)


def _record_path(root: str, key: str) -> str:
    _check_key(key)
    return os.path.join(root, OBJECTS_DIRNAME, key[:2], key + RECORD_SUFFIX)


def _read_header(fh: Any, key: str) -> StoreRecord:
    """The header of the record file open as ``fh`` (left positioned
    at the payload); raises one of ``_DAMAGE`` on any damage."""
    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        raise StoreError(f"bad magic {magic!r}")
    header = json.loads(fh.readline().decode("utf-8"))
    record = StoreRecord(
        key=str(header["key"]),
        digest=str(header["digest"]),
        size=int(header["size"]),
        created=float(header["created"]),
        label=str(header.get("label", "")),
    )
    if record.key != key:
        raise StoreError(
            f"header names key {record.key[:12]}..., file is {key[:12]}..."
        )
    return record


def _quarantine(path: str) -> None:
    """Rename a damaged record to ``*.corrupt`` (evidence for debugging;
    :meth:`ResultStore.gc` sweeps it)."""
    try:
        os.replace(path, path[: -len(RECORD_SUFFIX)] + ".corrupt")
    except OSError:
        pass


def write_record(
    root: str, key: str, payload: bytes, label: str = ""
) -> Tuple[StoreRecord, str]:
    """The file half of a publish: make ``payload`` (a pickle) the
    record under ``key`` in the store rooted at ``root``.  Returns the
    header and the outcome -- :data:`NEW`, :data:`SAME` (an identical
    record was there and is kept, untouched) or :data:`CONFLICT` (a
    record of different bytes was replaced).  A damaged record under
    the key is quarantined and counts as absent.

    It counts nothing and calls no hook, so it runs in whichever
    process computed the value -- a pool worker, or the supervisor at
    ``jobs=1``; :meth:`ResultStore.account` is the other half.  The
    write is a tempfile in the shard directory plus ``os.replace``: a
    reader never sees a torn record, and a writer cut short leaves at
    most a ``*.tmp`` file that no reader lists."""
    digest = hashlib.sha256(payload).hexdigest()
    path = _record_path(root, key)
    outcome = NEW
    try:
        with open(path, "rb") as fh:
            existing = _read_header(fh, key)
    except (FileNotFoundError, NotADirectoryError):
        pass
    except _DAMAGE:
        _quarantine(path)
    else:
        if existing.digest == digest:
            return existing, SAME
        outcome = CONFLICT
    record = StoreRecord(
        key=key, digest=digest, size=len(payload), created=time.time(),
        label=label,
    )
    shard = os.path.dirname(path)
    os.makedirs(shard, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=shard, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(json.dumps(record.as_dict(), sort_keys=True).encode("utf-8"))
            fh.write(b"\n")
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return record, outcome


class ResultStore:
    """A shared, self-verifying result directory.  See the module
    docstring for the format; see docs/SERVICE.md for the service it
    backs.

    Counters (``hits`` / ``misses`` / ``puts`` / ``corrupt_records`` /
    ``conflicts``) accumulate per instance; an optional ``metrics``
    registry (:class:`repro.telemetry.registry.MetricsRegistry`)
    mirrors them as ``store.*`` counters for the ``/metrics``
    exposition.
    """

    def __init__(self, root: str, metrics: Optional[Any] = None) -> None:
        self.root = os.fspath(root)
        self.metrics = metrics
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.corrupt_records = 0
        self.conflicts = 0
        #: Optional fault-injection hook (``repro.chaos.ChaosMonkey``):
        #: called as ``chaos.on_store_put(store, record)`` after every
        #: successful publish, so a seeded plan can corrupt the record
        #: it just wrote.  None in production.
        self.chaos: Optional[Any] = None
        self._objects = os.path.join(self.root, OBJECTS_DIRNAME)
        os.makedirs(self._objects, exist_ok=True)
        marker = os.path.join(self.root, MARKER_BASENAME)
        if os.path.exists(marker):
            try:
                with open(marker, encoding="utf-8") as fh:
                    doc = json.load(fh)
            except ValueError:
                doc = None
            if not isinstance(doc, dict) or doc.get("schema") != STORE_SCHEMA:
                raise StoreError(
                    f"{marker}: not a {STORE_SCHEMA!r} store directory"
                )
        else:
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump({"schema": STORE_SCHEMA}, fh)
                fh.write("\n")
            os.replace(tmp, marker)

    # -- accounting -------------------------------------------------------
    def _count(self, name: str, attr: str) -> None:
        setattr(self, attr, getattr(self, attr) + 1)
        if self.metrics is not None:
            self.metrics.counter(f"store.{name}").inc()

    # -- paths ------------------------------------------------------------
    def record_path(self, key: str) -> str:
        return _record_path(self.root, key)

    # -- write side -------------------------------------------------------
    def put(self, key: str, value: Any, label: str = "") -> StoreRecord:
        """Publish ``value`` under ``key`` atomically; returns the
        record header.  Re-publishing an identical payload is an
        idempotent no-op (the existing record is kept); a *different*
        payload wins the race last-write style and bumps
        ``conflicts``.  :func:`write_record` and :meth:`account` in one
        process."""
        return self.account(*write_record(self.root, key, pickle.dumps(value), label))

    def account(self, record: StoreRecord, outcome: str) -> StoreRecord:
        """Count one :func:`write_record` outcome, wherever the file was
        written: ``puts`` (and the chaos hook) for a record that is
        new or replaced a different one, ``conflicts`` for the latter,
        nothing for a republish of identical bytes."""
        if outcome == SAME:
            return record
        if outcome == CONFLICT:
            self._count("conflicts", "conflicts")
        self._count("puts", "puts")
        if self.chaos is not None:
            self.chaos.on_store_put(self, record)
        return record

    # -- read side --------------------------------------------------------
    def _read_record(
        self, key: str, with_payload: bool
    ) -> Tuple[Optional[StoreRecord], Optional[Any]]:
        """Parse (and verify) one record file; quarantine on damage."""
        path = self.record_path(key)
        try:
            with open(path, "rb") as fh:
                record = _read_header(fh, key)
                if not with_payload:
                    return record, None
                payload = fh.read()
                if len(payload) != record.size:
                    raise StoreError(
                        f"payload is {len(payload)} bytes, header says "
                        f"{record.size}"
                    )
                if hashlib.sha256(payload).hexdigest() != record.digest:
                    raise StoreError("payload sha256 does not match header")
                return record, pickle.loads(payload)
        except (FileNotFoundError, NotADirectoryError):
            return None, None
        except _DAMAGE:
            self._count("corrupt_records", "corrupt_records")
            _quarantine(path)
            return None, None

    def record(self, key: str) -> Optional[StoreRecord]:
        """The header under ``key``, or None.  Does not read (or
        verify) the payload and does not touch the hit/miss counters."""
        record, _ = self._read_record(key, with_payload=False)
        return record

    def get(self, key: str) -> Tuple[bool, Any]:
        """``(True, value)`` when ``key`` holds a verified record,
        else ``(False, None)`` -- including when the record existed but
        failed verification and was quarantined."""
        record, value = self._read_record(key, with_payload=True)
        if record is None:
            self._count("misses", "misses")
            return False, None
        self._count("hits", "hits")
        return True, value

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self.record_path(key))

    def keys(self) -> Iterator[str]:
        """Every key with a record file on disk (unverified), sorted."""
        found: List[str] = []
        if not os.path.isdir(self._objects):
            return iter(())
        for shard in sorted(os.listdir(self._objects)):
            shard_dir = os.path.join(self._objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(RECORD_SUFFIX):
                    found.append(name[: -len(RECORD_SUFFIX)])
        return iter(found)

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

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
        frontier of an active query, say).  Quarantined ``*.corrupt``
        files are always removed -- their evidence value expires once a
        clean record has been republished.  Returns the evicted
        keys, oldest first.
        """
        if max_records is not None and max_records < 0:
            raise StoreError(f"max_records must be >= 0, got {max_records}")
        if max_bytes is not None and max_bytes < 0:
            raise StoreError(f"max_bytes must be >= 0, got {max_bytes}")
        records: List[StoreRecord] = []
        for key in self.keys():
            record = self.record(key)
            if record is not None:
                records.append(record)
        records.sort(key=lambda r: (r.created, r.key))
        total = sum(r.size for r in records)
        count = len(records)
        evicted: List[str] = []
        for record in records:
            over_count = max_records is not None and count > max_records
            over_bytes = max_bytes is not None and total > max_bytes
            if not over_count and not over_bytes:
                break
            if record.key in keep:
                continue
            try:
                os.unlink(self.record_path(record.key))
            except OSError:
                continue
            evicted.append(record.key)
            count -= 1
            total -= record.size
        for shard in os.listdir(self._objects):
            shard_dir = os.path.join(self._objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in os.listdir(shard_dir):
                if name.endswith(".corrupt"):
                    try:
                        os.unlink(os.path.join(shard_dir, name))
                    except OSError:
                        pass
        return evicted

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
