"""``repro.core.codec``: the one JSON codec of the spec, the query, the
answer and the store header."""

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import pytest

from repro.core.codec import INLINE, decode, encode
from repro.core.config import ArbitrationPolicy, LinkConfig, NocBuildConfig
from repro.flow.dse import DesignPoint
from repro.store.cas import StoreRecord


@dataclass(frozen=True)
class Inner:
    width: int
    ratio: float = 0.5


@dataclass(frozen=True)
class Outer:
    name: str
    inner: Inner = field(default_factory=lambda: Inner(1), metadata=INLINE)
    many: Tuple[int, ...] = ()
    pair: Tuple[str, int] = ("a", 1)
    items: List[Inner] = field(default_factory=list)
    table: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    maybe: Optional[float] = None
    policy: ArbitrationPolicy = ArbitrationPolicy.ROUND_ROBIN


class TestRoundTrip:
    def test_every_shape_round_trips(self):
        value = Outer("x", Inner(3, 0.25), (1, 2), ("b", 2), [Inner(4)],
                      {"s": (0, 1)}, 2.5, ArbitrationPolicy.FIXED_PRIORITY)
        doc = json.loads(json.dumps(encode(value)))
        assert doc == {
            "name": "x", "width": 3, "ratio": 0.25, "many": [1, 2],
            "pair": ["b", 2], "items": [{"width": 4, "ratio": 0.5}],
            "table": {"s": [0, 1]}, "maybe": 2.5, "policy": "fixed",
        }
        assert decode(Outer, doc) == value

    def test_a_frozenset_keyed_map_joins_its_keys(self):
        config = NocBuildConfig(
            link_overrides={frozenset(("b", "a")): LinkConfig(stages=3)})
        doc = encode(config)
        assert doc["link_overrides"] == {
            "a|b": {"stages": 3, "error_rate": 0.0, "bit_errors": False}}
        assert decode(NocBuildConfig, json.loads(json.dumps(doc))) == config

    def test_a_design_point_encodes_as_its_fields(self):
        point = DesignPoint("mesh-2x2", 32, 4, 1.5, 0.25, 10.0, 900.0, True)
        assert encode(point) == dataclasses.asdict(point)

    def test_the_store_header_bytes_are_the_hand_written_ones(self):
        record = StoreRecord("ab" * 32, "cd" * 32, 12, 1.5, "fn")
        assert json.dumps(encode(record), sort_keys=True) == (
            '{"created": 1.5, "digest": "' + "cd" * 32 + '", "key": "'
            + "ab" * 32 + '", "label": "fn", "size": 12}')


class TestDecode:
    def test_a_variadic_tuple_takes_a_lone_item(self):
        assert decode(Outer, {"name": "x", "many": 7}).many == (7,)
        assert decode(Outer, {"name": "x", "many": [7, 8]}).many == (7, 8)

    @pytest.mark.parametrize("doc, message", [
        ({"name": 1}, "name: expected str, got 1"),
        ({"name": "x", "width": True}, "width: expected int, got True"),
        ({"name": "x", "ratio": "1"}, "ratio: expected a finite float, got '1'"),
        ({"name": "x", "ratio": math.nan}, "ratio: expected a finite float"),
        ({"name": "x", "maybe": math.inf}, "maybe: expected a finite float"),
        ({"name": "x", "ratio": 10 ** 400}, "ratio: expected a finite float"),
        ({"name": "x", "many": [1, "2"]}, "many[1]: expected int, got '2'"),
        ({"name": "x", "pair": ["a"]}, "pair: expected a list of 2"),
        ({"name": "x", "pair": "a"}, "pair: expected a list, got 'a'"),
        ({"name": "x", "items": {}}, "items: expected a list, got {}"),
        ({"name": "x", "items": [{}]}, "items[0]: missing field 'width'"),
        ({"name": "x", "items": [{"width": 1, "w": 2}]},
         "items[0]: unknown key 'w'"),
        ({"name": "x", "table": {"s": [0, 1.5]}},
         "table[s][1]: expected int, got 1.5"),
        ({"name": "x", "policy": "fancy"},
         "policy: expected one of ['fixed', 'round_robin'], got 'fancy'"),
        ({"name": "x", "bogus": 1}, "unknown key 'bogus'"),
        ({}, "missing field 'name'"),
        ([], "expected a JSON object, got []"),
    ])
    def test_a_misfit_is_named_by_its_path(self, doc, message):
        with pytest.raises(TypeError) as caught:
            decode(Outer, doc)
        assert str(caught.value).startswith(message)

    def test_an_int_is_a_float(self):
        maybe = decode(Outer, {"name": "x", "maybe": 1}).maybe
        assert maybe == 1.0 and type(maybe) is float

    def test_a_bound_is_the_records_own(self):
        with pytest.raises(ValueError, match="pipeline stage"):
            decode(LinkConfig, {"stages": 0})

    def test_the_type_plan_is_built_once(self, monkeypatch):
        @dataclass(frozen=True)
        class Fresh:
            size: int

        calls = []
        real = typing.get_type_hints
        monkeypatch.setattr(typing, "get_type_hints",
                            lambda tp: calls.append(tp) or real(tp))
        for _ in range(3):
            assert decode(Fresh, {"size": 1}) == Fresh(1)
            assert encode(Fresh(1)) == {"size": 1}
        assert calls == [Fresh, Fresh]  # one decode plan, one encode plan
