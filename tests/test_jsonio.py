import json
import math
from dataclasses import dataclass, field
from enum import Enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchtop.errors import SchemaViolation
from benchtop.jsonio import canonical_dumps, decode, encode, loads, quantize


def test_keys_sorted_and_compact():
    assert canonical_dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}'


def test_floats_fixed_six_decimals():
    assert canonical_dumps(0.5) == "0.500000"
    assert canonical_dumps([1.0, -0.25]) == "[1.000000,-0.250000]"


def test_bool_is_not_an_int():
    assert canonical_dumps(True) == "true"
    assert canonical_dumps({"flag": False, "n": 0}) == '{"flag":false,"n":0}'


def test_none_and_strings():
    assert canonical_dumps(None) == "null"
    assert canonical_dumps("a\"b") == '"a\\"b"'


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        canonical_dumps(float("nan"))
    with pytest.raises(ValueError):
        canonical_dumps([math.inf])


def test_unsupported_type_rejected():
    with pytest.raises(ValueError):
        canonical_dumps({"x": object()})


def test_quantize_six_decimals():
    assert quantize(0.1234564) == 0.123456
    assert quantize(0.1234565) == pytest.approx(0.123456, abs=1e-9)
    assert quantize(1.9999999) == 2.0


def test_quantize_negative_zero_normalized():
    q = quantize(-1e-9)
    assert q == 0.0
    assert math.copysign(1.0, q) == 1.0
    assert canonical_dumps(q) == "0.000000"


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).map(quantize),
    st.text(max_size=20),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=20,
)


@given(_values)
def test_canonical_form_is_a_fixed_point(value):
    """Parsing canonical output and re-emitting it changes nothing."""
    first = canonical_dumps(value)
    assert canonical_dumps(json.loads(first)) == first


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_quantize_idempotent(x):
    assert quantize(quantize(x)) == quantize(x)


class Tone(str, Enum):
    PLAIN = "plain"
    QUOTED = 'say "hi" \\ now'
    CONTROL = "tab\there\nbell\x07nul\x00del\x7f"
    WIDE = "caf\u00e9 \u676f\u5b50 \U0001f37d"


# Floats are left out: canonical floats have six decimals, json.dumps' do not.
_float_free = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(10**30), max_value=10**30),
        st.text(),
        st.sampled_from(Tone),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
        st.dictionaries(st.sampled_from(Tone), inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300)
@given(_float_free)
def test_canonical_dumps_writes_what_json_dumps_writes(value):
    expected = json.dumps(value, sort_keys=True, separators=(",", ":"))
    assert canonical_dumps(value) == expected


@pytest.mark.parametrize(
    "value",
    [True, False, 0, 1, [True, 1, False, 0], {"1": True, "0": 0}, Tone.QUOTED,
     {Tone.WIDE: Tone.CONTROL}, "\ud800 lone surrogate", ""],
)
def test_canonical_dumps_on_edge_values(value):
    expected = json.dumps(value, sort_keys=True, separators=(",", ":"))
    assert canonical_dumps(value) == expected


# ---- the dataclass codec ----------------------------------------------------


class Color(str, Enum):
    RED = "red"
    BLUE = "blue"


@dataclass(frozen=True)
class Leaf:
    name: str
    weight: float


@dataclass(frozen=True)
class Tree:
    count: int
    ratio: float
    flag: bool
    color: Color
    note: str | None
    point: tuple[float, float, float]
    leaves: tuple[Leaf, ...]
    best: Leaf | None
    cache: dict = field(init=False, default_factory=dict, compare=False)


def _tree_raw(**over) -> dict:
    raw = {
        "count": 3,
        "ratio": 0.5,
        "flag": True,
        "color": "red",
        "note": None,
        "point": [0.1, -0.2, 1],
        "leaves": [{"name": "a", "weight": 1.25}, {"name": "b", "weight": 2}],
        "best": {"name": "a", "weight": 1.25},
    }
    raw.update(over)
    return raw


def test_decode_builds_every_supported_type():
    tree = decode(Tree, _tree_raw())
    assert tree == Tree(
        count=3,
        ratio=0.5,
        flag=True,
        color=Color.RED,
        note=None,
        point=(0.1, -0.2, 1.0),
        leaves=(Leaf("a", 1.25), Leaf("b", 2.0)),
        best=Leaf("a", 1.25),
    )
    assert type(tree.point[2]) is float


def test_encode_decode_round_trip_is_canonical():
    tree = decode(Tree, _tree_raw(note="hi", best=None))
    text = canonical_dumps(encode(tree))
    assert "cache" not in text
    assert loads(Tree, text) == tree
    assert canonical_dumps(encode(loads(Tree, text))) == text


def test_floats_are_quantized_both_ways():
    assert decode(Leaf, {"name": "x", "weight": 0.1234567}).weight == 0.123457
    assert encode(Leaf("x", 0.1234567)) == {"name": "x", "weight": 0.123457}
    assert encode(Leaf("x", -1e-9))["weight"] == 0.0


@pytest.mark.parametrize(
    "over,path,message",
    [
        ({"count": True}, "$.count", "expected integer"),
        ({"count": 1.7}, "$.count", "expected integer"),
        ({"count": "3"}, "$.count", "expected integer"),
        ({"ratio": False}, "$.ratio", "expected number"),
        ({"ratio": "0.5"}, "$.ratio", "expected number"),
        ({"ratio": math.nan}, "$.ratio", "expected finite number"),
        ({"flag": "false"}, "$.flag", "expected boolean"),
        ({"flag": 0}, "$.flag", "expected boolean"),
        ({"color": "green"}, "$.color", "expected one of ['blue', 'red']"),
        ({"color": ["red"]}, "$.color", "expected one of ['blue', 'red']"),
        ({"note": 3}, "$.note", "expected string"),
        ({"point": [0, 0]}, "$.point", "expected array of 3 items"),
        ({"point": [0, 0, True]}, "$.point[2]", "expected number"),
        ({"leaves": {"name": "a"}}, "$.leaves", "expected array"),
        (
            {"leaves": [{"name": "a", "weight": 1}, {"name": 7, "weight": 1}]},
            "$.leaves[1].name",
            "expected string",
        ),
        ({"leaves": [{"name": "a"}]}, "$.leaves[0]", "missing field 'weight'"),
        (
            {"best": {"name": "a", "weight": 1, "extra": 0}},
            "$.best",
            "unknown field 'extra'",
        ),
        ({"best": "a"}, "$.best", "expected object"),
        ({"cache": {}}, "$", "unknown field 'cache'"),
    ],
)
def test_decode_rejects_bad_values_at_their_path(over, path, message):
    with pytest.raises(SchemaViolation) as err:
        decode(Tree, _tree_raw(**over))
    assert err.value.path == path
    assert str(err.value) == f"{path}: {message}"


def test_missing_field_is_reported_at_its_holder():
    raw = _tree_raw()
    del raw["flag"]
    with pytest.raises(SchemaViolation) as err:
        decode(Tree, raw, path="$.trees[4]")
    assert err.value.path == "$.trees[4]"
    assert "missing field 'flag'" in str(err.value)


def test_loads_rejects_text_that_is_not_json():
    with pytest.raises(SchemaViolation) as err:
        loads(Leaf, '{"name": "a",', path="$[2]")
    assert err.value.path == "$[2]"
    assert "invalid JSON" in str(err.value)


def test_unsupported_hint_is_a_type_error():
    @dataclass(frozen=True)
    class Bag:
        items: dict

    with pytest.raises(TypeError):
        decode(Bag, {"items": {}})
