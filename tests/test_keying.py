"""Cache keys: the call-scoped memo, ``Rendered`` pass-through, and the
serve hit path's build-nothing keys."""

import pytest

import repro.flow
import repro.flow.runner
from repro.flow import keying
from repro.flow.dse import _evaluate_design_point
from repro.flow.keying import Rendered, point_key, point_keys, stable_repr
from repro.serve.service import (
    _COUNT_FAMILIES,
    _GRID_FAMILIES,
    CORE_GRAPHS,
    QueryEngine,
    QuerySpec,
)
from repro.store import ResultStore
from tests.property.test_keying_props import Token, _work


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
