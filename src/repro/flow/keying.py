"""Cache keys: the content-based name of ``fn(point)``.

A key is ``sha256("v{CACHE_VERSION}||stable_repr(fn)|stable_repr(point)")``
-- the identity of the *work*, so any runner, on any host, addresses
the same :class:`~repro.store.ResultStore` record.  :func:`stable_repr`
canonicalises dataclasses, enums, dicts/sets (sorted), callables (by
qualname) and objects exposing a ``cache_token()`` method.
Invalidation is by construction: change any argument -- or
:data:`CACHE_VERSION` -- and the key changes.  See
``docs/PERFORMANCE.md`` ("Cache keys") for the rules, for what is
rendered once per :func:`point_keys` call, and for what is deliberately
*not* hashed (code bodies).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Bumped when the library changes in ways that invalidate cached
#: results wholesale (e.g. measurement-semantics fixes).  v2: sweep
#: points now carry a :class:`~repro.flow.runner.RunManifest`, so
#: pre-manifest pickles must not be served.  v3: a point whose routes
#: the packet header cannot encode is infeasible
#: (:func:`repro.core.routing.violations`).
CACHE_VERSION = 3


class Rendered(str):
    """Text :func:`stable_repr` has already produced for some object.

    :func:`stable_repr` passes it through verbatim (a plain ``str`` is
    quoted), so a caller that knows an object by a cheaper name -- the
    query service knows its topologies by ``"mesh-2x2"`` -- can render
    it once and key any number of points without rebuilding it.
    """

    __slots__ = ()


#: ``id(obj) -> (obj, text)`` for the ``cache_token()`` objects one
#: rendering call has met.  Holding ``obj`` keeps its id from being
#: reused while the memo lives.
_Memo = Dict[int, Tuple[Any, str]]

#: The exact types :func:`stable_repr` renders as their ``repr``.
_SCALARS = frozenset({int, str, bool, bytes, float, type(None)})


def stable_repr(obj: Any, memo: Optional[_Memo] = None) -> str:
    """A deterministic, content-based representation for cache keys.

    Unlike ``repr``, never leaks memory addresses and orders unordered
    containers.  Objects may opt in with a ``cache_token()`` method
    returning any stable_repr-able value.  Unknown objects fall back to
    their class qualname (address masked) -- conservative, but two
    *different* unknown objects then collide, so sweep inputs should
    implement ``cache_token()`` (Topology and CoreGraph do).

    ``memo`` remembers the text of every ``cache_token()`` object by
    identity, so one that appears many times -- the core graph in every
    point of a sweep -- is rendered once.  Like ``copy.deepcopy``'s, it
    must not outlive the call it was made for: the objects are the
    caller's and mutable, and a later call must see their new content.

    The common shapes are dispatched on their exact type first -- a
    scalar, a plain tuple of scalars, a memoized object -- and yield the
    text the general rules below would; subclasses take those rules.
    """
    cls = type(obj)
    if cls is Rendered:
        return obj
    if cls in _SCALARS:
        return repr(obj)
    if cls is tuple:
        if memo is None:
            memo = {}
        inner = ", ".join([
            repr(x) if type(x) in _SCALARS else stable_repr(x, memo) for x in obj
        ])
        return f"({inner})"
    if memo:
        seen = memo.get(id(obj))
        if seen is not None:
            return seen[1]
    if isinstance(obj, (int, str, bytes, float)):
        return repr(obj)  # repr round-trips floats exactly
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__qualname__}.{obj.name}"
    if memo is None:
        memo = {}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ", ".join(
            f"{f.name}={stable_repr(getattr(obj, f.name), memo)}"
            for f in dataclasses.fields(obj)
        )
        return f"{type(obj).__qualname__}({fields})"
    if isinstance(obj, (list, tuple)):
        inner = ", ".join([stable_repr(x, memo) for x in obj])
        return f"[{inner}]" if isinstance(obj, list) else f"({inner})"
    if isinstance(obj, dict):
        items = sorted(
            (stable_repr(k, memo), stable_repr(v, memo)) for k, v in obj.items()
        )
        return "{" + ", ".join(f"{k}: {v}" for k, v in items) + "}"
    if isinstance(obj, (set, frozenset)):
        return "{" + ", ".join(sorted(stable_repr(x, memo) for x in obj)) + "}"
    if isinstance(obj, functools.partial):
        return (
            f"partial({stable_repr(obj.func, memo)}, "
            f"args={stable_repr(obj.args, memo)}, "
            f"kwargs={stable_repr(obj.keywords, memo)})"
        )
    token = getattr(obj, "cache_token", None)
    if callable(token):
        seen = memo.get(id(obj))
        if seen is None:
            seen = memo[id(obj)] = (obj, stable_repr(token(), memo))
        return seen[1]
    if callable(obj):
        mod = getattr(obj, "__module__", "?")
        qual = getattr(obj, "__qualname__", repr(type(obj).__qualname__))
        return f"callable({mod}.{qual})"
    # Last resort: type identity only.  Good enough for singletons,
    # wrong for value-carrying objects -- hence cache_token().
    return f"opaque({type(obj).__module__}.{type(obj).__qualname__})"


def point_keys(fn: Callable, points: Sequence[Any]) -> List[str]:
    """The cache keys of ``fn(p)`` for every ``p`` in ``points``: the
    sha256 hexdigests a :class:`~repro.store.ResultStore` files the
    results under.

    What the points share is done once: the ``version||fn|`` prefix is
    hashed once and copied per point, and every ``cache_token()``
    object is rendered once for the whole batch (one call-scoped
    :func:`stable_repr` memo).
    """
    memo: _Memo = {}
    # The empty second field is kept so every stored key stays valid.
    prefix = hashlib.sha256(
        f"v{CACHE_VERSION}||{stable_repr(fn, memo)}|".encode()
    )
    keys = []
    for point in points:
        digest = prefix.copy()
        digest.update(stable_repr(point, memo).encode())
        keys.append(digest.hexdigest())
    return keys


def point_key(fn: Callable, point: Any) -> str:
    """The cache key of ``fn(point)``: :func:`point_keys` of one point."""
    return point_keys(fn, (point,))[0]


def check_keyable_fn(fn: Callable) -> None:
    """Refuse functions whose :func:`stable_repr` is ambiguous.

    Callables hash by qualname only, so every lambda is ``<lambda>``
    and every instantiation of a closure keeps one qualname while
    capturing different cells -- semantically different functions would
    share a cache key, and a shared :class:`~repro.store.ResultStore`
    would then serve a wrong-function hit to another host.  The runner
    enforces this only when results are memoized (a ``store``
    configured): without one the keys are reporting labels, nothing is
    served by them.
    """
    probe = fn
    while isinstance(probe, functools.partial):
        probe = probe.func
    qualname = getattr(probe, "__qualname__", "")
    if getattr(probe, "__name__", None) == "<lambda>":
        raise ValueError(
            f"cannot cache results of lambda {qualname!r}: every "
            "lambda hashes to the same '<lambda>' identity, so "
            "cached results would be served across different "
            "functions.  Use a named module-level function (or "
            "functools.partial over one)."
        )
    if getattr(probe, "__closure__", None):
        raise ValueError(
            f"cannot cache results of closure {qualname!r}: captured "
            "cells do not enter the cache key, so two closures with "
            "the same qualname but different captured values would "
            "collide.  Pass captured values through the point or a "
            "functools.partial instead."
        )
