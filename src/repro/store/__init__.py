"""Content-addressed result store: the one place results are memoized.

:class:`ExperimentRunner` publishes every computed point here --
``cache_dir=D`` opens a store at ``D``, ``store=`` shares one -- and
the design-space service (``python -m repro serve``, docs/SERVICE.md)
serves queries out of it: many runners and one HTTP front end reading
and writing the same directory, possibly over a network filesystem,
able to tell a half-written file from a result and to inventory what
is in there.

See :mod:`repro.store.cas` for the
on-disk format (sha256-verified records, atomic publishes, garbage
collection).
"""

from repro.store.cas import (
    STORE_SCHEMA,
    ResultStore,
    StoreError,
    StoreRecord,
)

__all__ = [
    "STORE_SCHEMA",
    "ResultStore",
    "StoreError",
    "StoreRecord",
]
