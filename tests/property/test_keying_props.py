"""Property: batch keying is per-point keying.

``point_keys`` renders every ``cache_token()`` object once per call and
hashes the shared prefix once; neither may change a key.  The reference
is the definition itself -- one sha256 over one ``v|salt|fn|point``
string -- over a copy of the points in which every occurrence of a
token is a *distinct* equal-valued instance, so no memo can ever hit.
"""

import dataclasses
import enum
import functools
import hashlib
from typing import Any

from hypothesis import given, settings, strategies as st

from repro.flow.keying import CACHE_VERSION, point_key, point_keys, stable_repr


class Token:
    """A mutable sweep input that opts into keying, counting its renders."""

    def __init__(self, value: Any) -> None:
        self.value = value
        self.renders = 0

    def cache_token(self) -> tuple:
        self.renders += 1
        return ("Token", self.value)


class Colour(enum.Enum):
    RED = 1
    BLUE = 2


@dataclasses.dataclass
class Box:
    left: Any
    right: Any


def _work(point, *args, **kwargs):
    return point


#: Value of token ``i``; the last one nests token 0, so a shared
#: instance also turns up *inside* another token's rendering.
TOKEN_VALUES = [(0, "graph"), (1, "fabric"), ("outer", ("tok", 0))]

_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.floats(allow_nan=False),
    st.text(max_size=4), st.sampled_from(Colour),
).map(lambda v: ("leaf", v))
_tokens = st.integers(0, len(TOKEN_VALUES) - 1).map(lambda i: ("tok", i))


def _containers(children):
    kids = st.lists(children, max_size=3)
    named = st.lists(children, max_size=2).map(lambda xs: list(zip("ba", xs)))
    return st.one_of(
        kids.map(lambda xs: ("list", xs)),
        kids.map(lambda xs: ("tuple", xs)),
        named.map(lambda kvs: ("dict", kvs)),
        st.lists(st.integers(-5, 5), max_size=3).map(lambda xs: ("set", xs)),
        st.tuples(children, children).map(lambda ab: ("box", *ab)),
        st.tuples(kids, named).map(lambda ak: ("partial", *ak)),
    )


_shapes = st.recursive(st.one_of(_leaves, _tokens), _containers, max_leaves=12)


def materialize(shape, token):
    """Build the object a shape describes; ``token(i)`` supplies token i."""
    kind = shape[0]
    if kind == "leaf":
        return shape[1]
    if kind == "tok":
        return token(shape[1])
    if kind == "list":
        return [materialize(s, token) for s in shape[1]]
    if kind == "tuple":
        return tuple(materialize(s, token) for s in shape[1])
    if kind == "dict":
        return {k: materialize(s, token) for k, s in shape[1]}
    if kind == "set":
        return set(shape[1])
    if kind == "box":
        return Box(materialize(shape[1], token), materialize(shape[2], token))
    assert kind == "partial"
    return functools.partial(
        _work,
        *[materialize(s, token) for s in shape[1]],
        **{k: materialize(s, token) for k, s in shape[2]},
    )


def fresh_token(i):
    """A new instance at every occurrence (nested ones included)."""
    value = TOKEN_VALUES[i]
    if i == 2:
        value = (value[0], fresh_token(0))
    return Token(value)


def shared_tokens():
    pool = [Token(TOKEN_VALUES[0]), Token(TOKEN_VALUES[1])]
    pool.append(Token(("outer", pool[0])))
    return pool


def definition(fn, point, salt):
    ident = f"v{CACHE_VERSION}|{salt}|{stable_repr(fn)}|{stable_repr(point)}"
    return hashlib.sha256(ident.encode()).hexdigest()


@settings(max_examples=150, deadline=None)
@given(
    shapes=st.lists(_shapes, min_size=1, max_size=5),
    fn_shape=st.one_of(st.just(None), _shapes),
    salt=st.sampled_from(["", "rev2", "a|b"]),
)
def test_batch_keys_equal_per_point_keys(shapes, fn_shape, salt):
    pool = shared_tokens()
    points = [materialize(s, pool.__getitem__) for s in shapes]
    fn = _work if fn_shape is None else functools.partial(
        _work, materialize(fn_shape, pool.__getitem__)
    )
    batch = point_keys(fn, points, salt)
    # Each shared instance was rendered at most once for the whole batch.
    assert all(t.renders <= 1 for t in pool)
    assert batch == [point_key(fn, p, salt) for p in points]

    unshared_fn = _work if fn_shape is None else functools.partial(
        _work, materialize(fn_shape, fresh_token)
    )
    assert batch == [
        definition(unshared_fn, materialize(s, fresh_token), salt) for s in shapes
    ]
