"""Cache keys: the call-scoped memo, ``Rendered`` pass-through, the
serve hit path's build-nothing keys, and the renderer's text against a
frozen copy of its general rules."""

import collections
import dataclasses
import enum
import functools
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

import repro.flow
import repro.flow.runner
from repro.flow import keying
from repro.flow.dse import _evaluate_design_point
from repro.flow.keying import (
    CACHE_VERSION,
    Rendered,
    point_key,
    point_keys,
    stable_repr,
)
from repro.serve.service import (
    _COUNT_FAMILIES,
    _GRID_FAMILIES,
    CORE_GRAPHS,
    QueryEngine,
    QuerySpec,
)
from repro.store import ResultStore
from tests.property.test_keying_props import Box, Colour, Token, _work


class TestOldHome:
    def test_runner_and_package_reexport_the_same_functions(self):
        for name in ("stable_repr", "point_key", "point_keys", "CACHE_VERSION"):
            assert getattr(repro.flow.runner, name) is getattr(keying, name)
        assert repro.flow.stable_repr is keying.stable_repr


class TestMemoIsCallScoped:
    def test_mutation_between_calls_changes_the_key(self):
        tok = Token(1)
        points = [(tok, 16), (tok, 32)]
        before = point_keys(_work, points)
        tok.value = 2
        after = point_keys(_work, points)
        assert set(before).isdisjoint(after)
        assert after == point_keys(_work, [(Token(2), 16), (Token(2), 32)])
        assert stable_repr([tok, tok]) == "[('Token', 2), ('Token', 2)]"

    def test_distinct_equal_instances_share_a_key(self):
        a, b = Token("x"), Token("x")
        assert point_key(_work, a) == point_key(_work, b)
        keys = point_keys(_work, [a, b, a])
        assert keys[0] == keys[1] == keys[2]
        assert point_key(_work, Token("y")) != keys[0]


class TestRendered:
    def test_rendered_is_verbatim_and_plain_str_is_quoted(self):
        text = stable_repr(Token(7))
        assert stable_repr((Rendered(text), 1)) == f"({text}, 1)"
        assert stable_repr((text, 1)) == f"({text!r}, 1)"
        # So a point naming an object by its rendering keys like the
        # object, and never like the string that spells it.
        assert point_key(_work, (Rendered(text), 1)) == point_key(_work, (Token(7), 1))
        assert point_key(_work, (text, 1)) != point_key(_work, (Token(7), 1))

    def test_rendered_passes_through_every_container(self):
        r = Rendered("<<X>>")
        assert stable_repr([r]) == "[<<X>>]"
        assert stable_repr({"k": r}) == "{'k': <<X>>}"
        assert stable_repr({r}) == "{<<X>>}"


_NAMES = (
    [f"{family}-3x3" for family in _GRID_FAMILIES]
    + [f"{family}-4" for family in _COUNT_FAMILIES]
)


class TestServeKeysBuildNothing:
    def test_names_cover_every_family(self):
        assert len(_NAMES) == len(_GRID_FAMILIES) + len(_COUNT_FAMILIES) == 8

    @pytest.mark.parametrize("core_graph", sorted(CORE_GRAPHS))
    def test_keys_are_the_per_combo_point_keys(self, tmp_path, core_graph):
        engine = QueryEngine(ResultStore(tmp_path / "store"), workers=1)
        spec = QuerySpec(
            core_graph=core_graph, topologies=tuple(_NAMES),
            flit_widths=(16, 64), buffer_depths=(2, 6),
            target_freq_mhz=812.5, seed=41, anneal_iterations=77,
        )
        combos = engine.combos(spec)
        assert len(combos) == len(_NAMES) * 4
        assert engine.keys(spec) == [
            point_key(_evaluate_design_point, c) for c in combos
        ]
        # ... and again from the warm name cache.
        assert engine.keys(spec) == point_keys(_evaluate_design_point, combos)


def reference_stable_repr(obj, memo=None):
    """``stable_repr`` as it was before the exact-type dispatch, frozen
    here as the oracle: every key ever stored was made by this text."""
    if type(obj) is Rendered:
        return obj
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return repr(obj)
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__qualname__}.{obj.name}"
    if memo is None:
        memo = {}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ", ".join(
            f"{f.name}={reference_stable_repr(getattr(obj, f.name), memo)}"
            for f in dataclasses.fields(obj)
        )
        return f"{type(obj).__qualname__}({fields})"
    if isinstance(obj, (list, tuple)):
        inner = ", ".join([reference_stable_repr(x, memo) for x in obj])
        return f"[{inner}]" if isinstance(obj, list) else f"({inner})"
    if isinstance(obj, dict):
        items = sorted(
            (reference_stable_repr(k, memo), reference_stable_repr(v, memo))
            for k, v in obj.items()
        )
        return "{" + ", ".join(f"{k}: {v}" for k, v in items) + "}"
    if isinstance(obj, (set, frozenset)):
        return "{" + ", ".join(
            sorted(reference_stable_repr(x, memo) for x in obj)) + "}"
    if isinstance(obj, functools.partial):
        return (
            f"partial({reference_stable_repr(obj.func, memo)}, "
            f"args={reference_stable_repr(obj.args, memo)}, "
            f"kwargs={reference_stable_repr(obj.keywords, memo)})"
        )
    token = getattr(obj, "cache_token", None)
    if callable(token):
        seen = memo.get(id(obj))
        if seen is None:
            seen = memo[id(obj)] = (obj, reference_stable_repr(token(), memo))
        return seen[1]
    if callable(obj):
        mod = getattr(obj, "__module__", "?")
        qual = getattr(obj, "__qualname__", repr(type(obj).__qualname__))
        return f"callable({mod}.{qual})"
    return f"opaque({type(obj).__module__}.{type(obj).__qualname__})"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Name(str):
    """A ``str`` subclass: not rendered by exact type."""


Pair = collections.namedtuple("Pair", "left right")

#: One ``cache_token()`` object that recurs within a value.
SHARED = Token(("shared", 3, (1.5, None)))

_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.binary(max_size=3), st.sampled_from(Level), st.sampled_from(Colour),
    st.text(max_size=4).map(Rendered), st.text(max_size=4).map(Name),
    st.just(SHARED),
)


def _nested(children):
    items = st.lists(children, max_size=4)
    return st.one_of(
        items, items.map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=3), st.integers(-3, 3)),
                        children, max_size=3),
        st.sets(st.one_of(st.integers(-5, 5), st.text(max_size=2)), max_size=3),
        st.frozensets(st.integers(-5, 5), max_size=3),
        st.tuples(children, children).map(lambda ab: Pair(*ab)),
        st.tuples(children, children).map(lambda ab: Box(*ab)),
        st.tuples(items, st.dictionaries(st.sampled_from("ab"), children,
                                         max_size=2)).map(
            lambda ak: functools.partial(_work, *ak[0], **ak[1])),
    )


_values = st.recursive(_scalars, _nested, max_leaves=16)


class TestTextIsTheReferenceText:
    @settings(max_examples=300, deadline=None)
    @given(_values)
    def test_one_value(self, value):
        assert stable_repr(value) == reference_stable_repr(value)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_values, max_size=5))
    def test_a_batch_of_keys_under_one_memo(self, points):
        points = points + [(SHARED, 16, 2.0, None, True)] * 2
        memo: dict = {}
        prefix = f"v{CACHE_VERSION}||{reference_stable_repr(_work, memo)}|"
        assert point_keys(_work, points) == [
            hashlib.sha256(
                (prefix + reference_stable_repr(p, memo)).encode()).hexdigest()
            for p in points
        ]

    def test_the_dse_point_shape(self):
        point = (SHARED, Rendered("<fabric>"), 32, 4, 1000.0, 8, 11, 600)
        assert stable_repr(point) == reference_stable_repr(point)
        assert stable_repr((Level.LOW, Name("x"), Pair(1, "y"), ())) == (
            reference_stable_repr((Level.LOW, Name("x"), Pair(1, "y"), ())))
