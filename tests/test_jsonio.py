import dataclasses
import json
import math
from dataclasses import dataclass, field
from enum import Enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchtop.campaign import EnvVariant, InstructionKind, SourceMix
from benchtop.errors import SchemaViolation
from benchtop.jsonio import (
    decode,
    dumps,
    loads,
    parse_json,
    quantize,
)
from benchtop.paraphrase import Candidate, InstructionSet
from benchtop.runner import EpisodeResult
from benchtop.scene import (
    CameraPose,
    EnvSetupOp,
    LightingSpec,
    ObjectAddOp,
    Pose,
    Provenance,
    SceneConfig,
)


def test_keys_sorted_and_compact():
    assert dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}'


def test_floats_fixed_six_decimals():
    assert dumps(0.5) == "0.500000"
    assert dumps([1.0, -0.25]) == "[1.000000,-0.250000]"


def test_bool_is_not_an_int():
    assert dumps(True) == "true"
    assert dumps({"flag": False, "n": 0}) == '{"flag":false,"n":0}'


def test_none_and_strings():
    assert dumps(None) == "null"
    assert dumps("a\"b") == '"a\\"b"'


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        dumps(float("nan"))
    with pytest.raises(ValueError):
        dumps([math.inf])
    with pytest.raises(ValueError):
        dumps(math.inf)


def test_parse_json_takes_text_or_its_utf8_bytes():
    text = '{"a": [1, -0.5, "\u00e9", null]}'
    assert parse_json(text) == parse_json(text.encode("utf-8")) == {
        "a": [1, -0.5, "\u00e9", None]
    }


@pytest.mark.parametrize(
    "data",
    ["NaN", "[Infinity]", '{"a": -Infinity}', b'"caf\xe9"', b"\xff{}",
     "[" * 100000, "{} {}"],
    ids=["nan", "infinity", "minus_infinity", "latin_1", "0xff", "nested_too_deeply",
         "extra_data"],
)
def test_parse_json_reads_strict_json_only(data):
    with pytest.raises(ValueError):
        parse_json(data)


def test_unsupported_type_rejected():
    for value in [{"x": object()}, {1: "a"}, b"bytes", [1 + 2j]]:
        with pytest.raises(TypeError):
            dumps(value)


def test_quantize_six_decimals():
    assert quantize(0.1234564) == 0.123456
    assert quantize(0.1234565) == pytest.approx(0.123456, abs=1e-9)
    assert quantize(1.9999999) == 2.0


def test_quantize_negative_zero_normalized():
    q = quantize(-1e-9)
    assert q == 0.0
    assert math.copysign(1.0, q) == 1.0
    assert dumps(q) == "0.000000"


@pytest.mark.parametrize(
    "value, text",
    [(-0.0, "0.000000"), ([-1e-9], "[0.000000]"), ({"a": -4e-7}, '{"a":0.000000}')],
    ids=["negative_zero", "tiny_negative", "in_an_object"],
)
def test_plain_floats_are_quantized(value, text):
    assert dumps(value) == text


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
    first = dumps(value)
    assert dumps(json.loads(first)) == first


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
    assert dumps(value) == expected


@pytest.mark.parametrize(
    "value",
    [True, False, 0, 1, [True, 1, False, 0], {"1": True, "0": 0}, Tone.QUOTED,
     {Tone.WIDE: Tone.CONTROL}, "\ud800 lone surrogate", ""],
)
def test_canonical_dumps_on_edge_values(value):
    expected = json.dumps(value, sort_keys=True, separators=(",", ":"))
    assert dumps(value) == expected


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
    text = dumps(tree)
    assert "cache" not in text
    assert loads(Tree, text) == tree
    assert dumps(loads(Tree, text)) == text


def test_floats_are_quantized_both_ways():
    assert decode(Leaf, {"name": "x", "weight": 0.1234567}).weight == 0.123457
    assert dumps(Leaf("x", 0.1234567)) == '{"name":"x","weight":0.123457}'
    assert dumps(Leaf("x", -1e-9)) == '{"name":"x","weight":0.000000}'


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


# ---- the writer against a reference -----------------------------------------


def _reference(value):
    """The plain JSON value of a codec value, built field by field with
    ``dataclasses``; ``dumps`` of it is the canonical text."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: _reference(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.init
        }
    if type(value) is tuple:
        return [_reference(item) for item in value]
    if isinstance(value, Enum):
        return value.value
    if type(value) is float:
        return quantize(value)
    return value


_floats = st.one_of(
    st.sampled_from([-0.0, 4e-7, -4e-7, 5e-7, -5e-7, 1e15, -1e15]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_texts = st.one_of(st.text(max_size=12), st.sampled_from(["café", "杯子 🍽", ""]))
_triples = st.tuples(_floats, _floats, _floats)
_scenes = st.builds(
    SceneConfig,
    scene_id=_texts,
    adds=st.lists(
        st.builds(
            ObjectAddOp,
            model_id=_texts,
            pose=st.builds(Pose, position_m=_triples, yaw_rad=_floats),
        ),
        max_size=3,
    ).map(tuple),
    env=st.builds(
        EnvSetupOp,
        lighting=st.builds(LightingSpec, intensity=_floats),
        camera=st.builds(CameraPose, position_m=_triples, look_at_m=_triples),
    ),
    seed=st.integers(),
    provenance=st.sampled_from(Provenance),
)
_instruction_sets = st.builds(
    InstructionSet,
    original=_texts,
    candidates=st.lists(
        st.builds(Candidate, text=_texts, similarity=_floats, valid=st.booleans()),
        max_size=3,
    ).map(tuple),
    k_requested=st.integers(),
    threshold=_floats,
)
_results = st.builds(
    EpisodeResult,
    scene_index=st.integers(),
    instruction=_texts,
    instruction_kind=st.sampled_from(InstructionKind),
    success=st.booleans(),
    steps_used=st.integers(),
    object_count=st.integers(),
    source_mix=st.sampled_from(SourceMix),
    env_variant=st.sampled_from(EnvVariant),
    policy_id=_texts,
    trial_seed=st.integers(),
    error=st.none() | _texts,
)


@settings(max_examples=200)
@given(st.one_of(_scenes, _instruction_sets, _results))
def test_dumps_writes_the_canonical_text_of_the_reference(value):
    text = dumps(value)
    assert text == dumps(_reference(value))
    # the written floats are quantized, so a value read back is quantized too
    quantized = decode(type(value), _reference(value))
    assert loads(type(value), text) == quantized
    assert dumps(quantized) == text
    assert loads(type(quantized), dumps(quantized)) == quantized
