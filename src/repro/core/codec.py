"""One typed JSON codec for every document that crosses a boundary:
the spec ``compile`` reads, a query and its answer, a stored record's
header.  Each is a dataclass; :func:`encode` gives its JSON value and
:func:`decode` builds it back from the field types, planned once per
type.  ``bool`` / ``int`` / ``str`` match exactly, a ``float`` takes an
``int`` but no NaN or infinity, ``Tuple[X, ...]`` takes one lone ``X``,
``frozenset`` map keys are joined ``a|b``, and an :data:`INLINE` field
keeps its keys flat in its parent.  A misfit, unknown key or missing
field raises ``TypeError`` naming its path; bounds are each record's
own ``__post_init__``.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import operator
import types
import typing
from typing import Any, Callable, NoReturn

#: Field metadata of a record-typed field stored flat in its parent.
INLINE = {"inline": True}

_SCALARS = frozenset((bool, int, float, str, type(None)))


def encode(value: Any) -> Any:
    """The JSON value of ``value``."""
    cls = type(value)
    return value if cls in _SCALARS else _encoder(cls)(value)


def decode(tp: Any, value: Any) -> Any:
    """``value``, a parsed JSON document, as type ``tp``."""
    return _decoder(tp)(value, "")


def _fail(where: str, problem: str) -> NoReturn:
    raise TypeError(f"{where}: {problem}" if where else problem)


def _shape(kind: type, value: Any, where: str) -> Any:
    return value if type(value) is kind else _fail(
        where, f"expected a {'JSON object' if kind is dict else 'list'}, got {value!r}")


def _optional(tp: Any) -> Any:
    """``X`` when ``tp`` is ``Optional[X]``, else None."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        (inner,) = set(typing.get_args(tp)) - {type(None)}
        return inner


@functools.lru_cache(maxsize=None)
def _encoder(cls: type) -> Callable[[Any], Any]:
    if issubclass(cls, enum.Enum):
        return operator.attrgetter("value")
    if issubclass(cls, (list, tuple)):
        return lambda value: [encode(v) for v in value]
    if issubclass(cls, dict):
        return lambda value: {k if type(k) is str else "|".join(sorted(k)):
                              encode(v) for k, v in value.items()}
    hints = typing.get_type_hints(cls)
    steps = [(f.name, INLINE if f.metadata.get("inline") else
              hints[f.name] in _SCALARS or _optional(hints[f.name]) in _SCALARS)
             for f in dataclasses.fields(cls)]
    names = [name for name, _ in steps]
    if all(how is True for _, how in steps):  # every field a scalar
        return lambda value: {name: getattr(value, name) for name in names}

    def record(value: Any) -> dict:
        doc = {}
        for name, scalar in steps:
            field_value = getattr(value, name)
            if scalar is INLINE:
                doc.update(encode(field_value))
            else:
                doc[name] = field_value if scalar else encode(field_value)
        return doc

    return record


@functools.lru_cache(maxsize=None)
def _decoder(tp: Any) -> Callable[[Any, str], Any]:
    """``(value, where) -> value as tp``; ``where`` is the value's path."""
    origin, args, inner = typing.get_origin(tp), typing.get_args(tp), _optional(tp)
    if inner is not None:
        some = _decoder(inner)
        return lambda value, where: None if value is None else some(value, where)
    if tp in (bool, int, str):
        return lambda value, where: value if type(value) is tp else _fail(
            where, f"expected {tp.__name__}, got {value!r}")
    if tp is float:
        def real(value: Any, where: str) -> float:
            try:
                if type(value) in (int, float) and math.isfinite(value):
                    return float(value)
            except OverflowError:  # an int past the largest float
                pass
            _fail(where, f"expected a finite float, got {value!r}")
        return real
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        values = [m.value for m in tp]
        return lambda value, where: tp(value) if value in values else _fail(
            where, f"expected one of {values}, got {value!r}")
    if dataclasses.is_dataclass(tp):
        return _record(tp)
    if origin is dict:
        item, split = _decoder(args[1]), args[0] is not str
        return lambda value, where: {
            frozenset(k.split("|")) if split else k: item(v, f"{where}[{k}]")
            for k, v in _shape(dict, value, where).items()}
    items = [_decoder(a) for a in args if a is not ...]
    if origin is tuple and args[1:] == (...,):
        return lambda value, where: (
            tuple(items[0](v, f"{where}[{i}]") for i, v in enumerate(value))
            if type(value) is list else (items[0](value, where),))
    if origin is list:
        return lambda value, where: [
            items[0](v, f"{where}[{i}]")
            for i, v in enumerate(_shape(list, value, where))]
    if origin is not tuple:
        raise TypeError(f"no JSON codec for {tp!r}")

    def fixed(value: Any, where: str) -> tuple:
        if len(_shape(list, value, where)) != len(items):
            _fail(where, f"expected a list of {len(items)}, got {value!r}")
        return tuple(item(v, f"{where}[{i}]")
                     for i, (item, v) in enumerate(zip(items, value)))
    return fixed


def _record(cls: type) -> Callable[[Any, str], Any]:
    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.init]
    inline = next((f.name for f in fields if f.metadata.get("inline")), None)
    flat = inline and _decoder(hints[inline])
    decoders = {f.name: _decoder(hints[f.name]) for f in fields if f.name != inline}
    # A bool, int or str field's JSON value is its value: no call needed.
    exact = {name: hints[name] for name in decoders if hints[name] in (bool, int, str)}
    required = [f.name for f in fields if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING]

    def record(value: Any, where: str) -> Any:
        kwargs, rest = {}, {}
        for k, v in _shape(dict, value, where).items():
            if type(v) is exact.get(k):
                kwargs[k] = v
            elif k in decoders:
                kwargs[k] = decoders[k](v, f"{where}.{k}" if where else k)
            elif inline is None:
                _fail(where, f"unknown key {k!r}")
            else:
                rest[k] = v
        if inline is not None and (rest or inline in required):
            kwargs[inline] = flat(rest, where)
        for name in required if len(kwargs) < len(fields) else ():
            if name not in kwargs:
                _fail(where, f"missing field {name!r}")
        return cls(**kwargs)

    return record
