"""Content-addressed result store: the one place results are memoized.

:class:`ExperimentRunner` publishes every computed point to its
``store`` -- and the design-space service (``python -m repro serve``,
docs/SERVICE.md) serves queries out of it: many runners and one HTTP
front end reading and writing the same directory, possibly over a
network filesystem, able to tell a torn record from a result and
to inventory what is in there.

See :mod:`repro.store.cas` for the
on-disk format (sha256-verified records appended to per-writer
segments, an in-memory index, garbage collection by compaction).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cas": ("STORE_SCHEMA", "ResultStore", "StoreError", "StoreRecord"),
})
