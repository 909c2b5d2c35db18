"""Canonical JSON and the one codec every artifact goes through.

``dumps`` is the program's one JSON writer: artifacts, error lines, fixture
keys and files, provider request bodies and wire messages all go through it.
Canonical form: sorted keys, compact separators, floats quantized with
``quantize`` and written with exactly six decimals. Strings are escaped as
``json.dumps`` escapes them by default (ASCII only), so apart from the
floats the output is what ``json.dumps(v, sort_keys=True, separators=(",",
":"))`` writes. Two serializations of equal values are byte-identical,
which is what the determinism contracts (byte-identical manifests, results,
reports) rest on.

The codec maps frozen dataclasses to canonical JSON text and back:

- Field names are the JSON keys and field type hints are the schema. Only
  fields taken by ``__init__`` are part of it.
- Supported hints: ``int``, ``float``, ``bool``, ``str``, str-valued
  ``Enum`` classes (stored as their value), ``X | None``, fixed
  ``tuple[A, B, C]`` and ``tuple[X, ...]`` (both stored as arrays), and
  nested dataclasses (stored as objects).
- Type checks are exact: a bool is not an int, an int is not a str. A float
  field also takes an int. Non-finite numbers are rejected.
- Floats are quantized on both ``dumps`` and ``decode``, so
  ``loads(type(x), dumps(x)) == x`` and writing is idempotent.
- ``decode`` raises ``SchemaViolation`` carrying a JSON path: for a missing
  or unknown field, the path of the object that holds it (``$.adds[0].pose``);
  for a bad value, the path of the value (``$.trials[3].trial_seed``).

``parse_json`` is the program's one JSON reader. It takes text or UTF-8
bytes only; ``NaN`` and ``Infinity`` are not JSON, and neither is a document
nested past the recursion limit. All of these raise ``ValueError``.

One (writer, decoder) pair per type is built on first use and cached, so
type hints are read, and a class's keys sorted and quoted, once per class.
A writer returns the canonical text of an instance directly: each object
and array is joined from the texts of its own items, with no intermediate
dict or list of every piece. Plain dicts, lists, tuples and ``None`` are
written by a small table keyed by exact type; their items go back through
``dumps``.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import types
import typing
from collections.abc import Callable
from enum import Enum
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from .errors import NoJsonFound, SchemaViolation


def quantize(value: float) -> float:
    """Round to 6 decimals and normalize -0.0 to 0.0."""
    q = round(float(value), 6)
    return 0.0 if q == 0 else q


def _not_json(constant: str):
    raise ValueError(f"{constant} is not JSON")


# ``json.loads`` with a keyword argument would build a new decoder on each call
_DECODER = json.JSONDecoder(parse_constant=_not_json)


def parse_json(data: str | bytes) -> Any:
    """The JSON value that is the whole of ``data``; ValueError if it is not one."""
    try:
        return _DECODER.decode(data if type(data) is str else data.decode("utf-8"))
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def first_json(
    text: str, opener: str, accept: Callable[[Any], bool], what: str
) -> Any:
    """Return the first JSON value in ``text`` that ``accept`` takes.

    Candidates start at each ``opener`` character ("[" or "{"), in order;
    chatter around the value and values that do not parse are skipped.
    Raises NoJsonFound naming ``what`` when no candidate is accepted.
    """
    idx = text.find(opener)
    while idx != -1:
        try:
            value, _ = _DECODER.raw_decode(text, idx)
        except (ValueError, RecursionError):
            pass
        else:
            if accept(value):
                return value
        idx = text.find(opener, idx + 1)
    raise NoJsonFound(f"no JSON {what} in reply")


# ---- the codec --------------------------------------------------------------


def dumps(obj: Any) -> str:
    """The canonical JSON text of ``obj``: a plain JSON value (a dict with
    string keys, a list or tuple, ``None`` or a scalar), a str-valued Enum
    member, or an instance of a dataclass the codec supports.

    Raises ``TypeError`` for a value of any other type, and ``ValueError``
    for a non-finite float.
    """
    tp = type(obj)
    return (_PLAIN.get(tp) or _codec(tp)[0])(obj)


# Plain containers, by exact type: a subclass of dict, list or tuple goes to
# the codec, which rejects it. ``_quote`` takes any str, so a str-valued Enum
# member is a key too, written as its string; another key is a TypeError.
def _write_dict(value: dict) -> str:
    items = [_quote(key) + ":" + dumps(value[key]) for key in sorted(value)]
    return "{" + ",".join(items) + "}"


def _write_list(value: list | tuple) -> str:
    return "[" + ",".join([dumps(item) for item in value]) + "]"


_PLAIN = {
    dict: _write_dict,
    list: _write_list,
    tuple: _write_list,
    type(None): lambda value: "null",
}

# ``bench/selftest.py`` imports the writer under its earlier name.
canonical_dumps = dumps


def decode(cls: type, raw: Any, path: str = "$") -> Any:
    """Build a ``cls`` from parsed JSON, checking it against the field hints."""
    try:
        return _codec(cls)[1](raw)
    except _Invalid as exc:
        raise SchemaViolation(exc.message, path + exc.where) from None


def loads(cls: type, text: str | bytes, path: str = "$") -> Any:
    """``decode`` of a JSON text or its UTF-8 bytes; data that ``parse_json``
    does not read is a SchemaViolation at ``path``."""
    try:
        raw = parse_json(text)
    except ValueError as exc:
        raise SchemaViolation(f"invalid JSON: {exc}", path) from None
    return decode(cls, raw, path)


class _Invalid(Exception):
    """A decode failure; ``where`` grows from the failing value outward."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message
        self.where = ""

    def within(self, step: str) -> "_Invalid":
        self.where = step + self.where
        return self


_Writer = Callable[[Any], str]
_Decoder = Callable[[Any], Any]


@functools.lru_cache(maxsize=None)
def _codec(tp: Any) -> tuple[_Writer, _Decoder]:
    """The (writer, decoder) pair for one type hint, built once."""
    if dataclasses.is_dataclass(tp):
        return _dataclass_codec(tp)
    if tp in _SCALARS:
        return _SCALARS[tp]
    if isinstance(tp, type) and issubclass(tp, Enum):
        return _enum_codec(tp)
    args = typing.get_args(tp)
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        if len(args) == 2 and args[1] is type(None):
            write, dec = _codec(args[0])
            return (
                lambda value: "null" if value is None else write(value),
                lambda raw: None if raw is None else dec(raw),
            )
    elif typing.get_origin(tp) is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            # zip() stops at the end of the array; the repeat never runs out
            write, dec = _codec(args[0])
            return _array_codec(itertools.repeat(write), itertools.repeat(dec), None)
        pairs = [_codec(a) for a in args]
        return _array_codec(
            [write for write, _ in pairs], [dec for _, dec in pairs], len(pairs)
        )
    raise TypeError(f"the codec does not support the type hint {tp!r}")


def _exact(tp: type, expected: str, write: _Writer) -> tuple[_Writer, _Decoder]:
    def decode_exact(raw):
        if type(raw) is not tp:
            raise _Invalid(expected)
        return raw

    return write, decode_exact


def _write_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"non-finite float not serializable: {value!r}")
    return f"{quantize(value):.6f}"


def _decode_float(raw: Any) -> float:
    if type(raw) is float:
        if not math.isfinite(raw):
            raise _Invalid("expected finite number")
    elif type(raw) is not int:
        raise _Invalid("expected number")
    try:
        return quantize(raw)
    except OverflowError:  # an integer beyond the float range
        raise _Invalid("expected finite number") from None


_SCALARS = {
    int: _exact(int, "expected integer", int.__repr__),
    bool: _exact(bool, "expected boolean", lambda value: "true" if value else "false"),
    str: _exact(str, "expected string", _quote),
    float: (_write_float, _decode_float),
}


def _dataclass_codec(cls: type) -> tuple[_Writer, _Decoder]:
    hints = typing.get_type_hints(cls)
    fields = [
        (f.name, *_codec(hints[f.name])) for f in dataclasses.fields(cls) if f.init
    ]
    names = {name for name, _, _ in fields}
    # in key order, each key quoted once with the brace or comma before it
    keyed = [
        (("," if i else "{") + _quote(name) + ":", name, write)
        for i, (name, write, _) in enumerate(sorted(fields, key=lambda f: f[0]))
    ]
    close = "}" if keyed else "{}"

    def write_object(obj):
        parts = [key + write(getattr(obj, name)) for key, name, write in keyed]
        parts.append(close)  # "".join(parts) + close would copy the text again
        return "".join(parts)

    def decode_object(raw):
        if type(raw) is not dict:
            raise _Invalid("expected object")
        if raw.keys() != names:
            missing = sorted(names - raw.keys())
            if missing:
                raise _Invalid(f"missing field {missing[0]!r}")
            raise _Invalid(f"unknown field {sorted(raw.keys() - names)[0]!r}")
        kwargs = {}
        for name, _, dec in fields:
            try:
                kwargs[name] = dec(raw[name])
            except _Invalid as exc:
                raise exc.within("." + name)
        return cls(**kwargs)

    return write_object, decode_object


def _enum_codec(cls: type) -> tuple[_Writer, _Decoder]:
    members = {m.value: m for m in cls}
    texts = {m: _quote(m.value) for m in cls}
    expected = f"expected one of {sorted(members)}"

    def decode_member(raw):
        member = members.get(raw) if type(raw) is str else None
        if member is None:
            raise _Invalid(expected)
        return member

    return texts.__getitem__, decode_member


def _array_codec(writes, decs, size: int | None) -> tuple[_Writer, _Decoder]:
    """Arrays of ``size`` items (any number when None), one converter each."""
    expected = "expected array" if size is None else f"expected array of {size} items"

    def write_array(value):
        return "[" + ",".join([write(item) for write, item in zip(writes, value)]) + "]"

    def decode_array(raw):
        if type(raw) is not list or (size is not None and len(raw) != size):
            raise _Invalid(expected)
        out = []
        for i, (dec, item) in enumerate(zip(decs, raw)):
            try:
                out.append(dec(item))
            except _Invalid as exc:
                raise exc.within(f"[{i}]")
        return tuple(out)

    return write_array, decode_array
