"""The error contract as a property: one mutation of any input the program
reads ends in a result or in a typed error, never in a traceback.

Through the CLI, a command exits 0 with nothing on stderr, or writes one JSON
line on stderr whose code is that of a class in ``errors.py`` (or
``io_error``) and exits with that class's exit code; it then writes no
output file. A mutated input file is never a command-line error, so it never
exits 2. LLM replies and policy wire replies with the same mutations give a
value or a ``BenchtopError``.
"""

import contextlib
import copy
import io
import inspect
import json
import os
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from conftest import ScriptedChatProvider
from hypothesis import given, settings
from hypothesis import strategies as st

from benchtop import errors
from benchtop.cli import main
from benchtop.errors import BenchtopError
from benchtop.generation import ask_environment, generate_scene, parse_description
from benchtop.paraphrase import generate_paraphrases, validate_candidates
from benchtop.runner import _decode_act

GOLDEN = Path(__file__).parent / "golden"
CATALOG_TEXT = (
    resources.files("benchtop.data").joinpath("default_catalog.json").read_text()
)

EXIT_CODES = {
    cls.code: cls.exit_code
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, BenchtopError)
}
EXIT_CODES["io_error"] = 1

FUZZ = settings(derandomize=True, deadline=None, database=None)

# what a mutation puts in place of a value: the values the contract names,
# and one of each JSON type for a type swap
SPECIALS = (int("9" * 400), -0.0, 1e308, [])
SWAPS = ("x", 1, 0.5, True, None, {"k": 1})
_NAN = "\x00nan\x00"  # dumped as a string, then replaced by the NaN token


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, (*path, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, (*path, i))


def _get(root, path):
    for key in path:
        root = root[key]
    return root


def _dump(doc, lines: bool) -> bytes:
    if lines:
        text = "".join(json.dumps(line) + "\n" for line in doc)
    else:
        text = json.dumps(doc)
    return text.replace(json.dumps(_NAN), "NaN").encode("utf-8")


def mutate(data, doc, lines: bool = False) -> bytes:
    """The bytes of ``doc`` (a JSON document, or the values of a JSON-lines
    file when ``lines``) after one mutation drawn from ``data``."""
    kind = data.draw(st.sampled_from(
        ["drop", "add", "swap", "special", "nan", "0xff", "truncate"]
    ))
    if kind in ("0xff", "truncate"):
        raw = _dump(doc, lines)
        i = data.draw(st.integers(0, len(raw) - 1))
        return raw[:i] + b"\xff" + raw[i:] if kind == "0xff" else raw[:i]
    doc = copy.deepcopy(doc)
    paths = [p for p in _paths(doc) if p or not lines]  # lines stay an array
    if kind == "add":  # a key to an object, or an item to an array
        node = _get(doc, data.draw(st.sampled_from(
            [p for p in paths if isinstance(_get(doc, p), (dict, list))]
        )))
        if isinstance(node, dict):
            node["extra"] = 1
        else:
            node.append(1)
        return _dump(doc, lines)
    path = data.draw(st.sampled_from([p for p in paths if p or kind != "drop"]))
    if kind == "swap":
        old = type(_get(doc, path))
        value = data.draw(st.sampled_from([v for v in SWAPS if type(v) is not old]))
    elif kind == "special":
        value = data.draw(st.sampled_from(SPECIALS))
    else:
        value = _NAN
    if not path:
        return _dump(value, lines)
    parent = _get(doc, path[:-1])
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return _dump(doc, lines)


def mutate_text(data, text: str) -> str:
    """``text`` with a token put in at one place, or cut short."""
    i = data.draw(st.integers(0, len(text)))
    token = data.draw(st.sampled_from(
        [None, "9" * 400, "-0.0", "1e308", "NaN", "[]", "\udcff"]
    ))
    return text[:i] if token is None else text[:i] + token + text[i:]


def check_cli(argv, *, input_file: bool) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--out", out])
        err = err.getvalue()
        if code == 0:
            assert err == ""
            return
        assert err.count("\n") == 1 and err.endswith("\n"), err
        line = json.loads(err)
        assert EXIT_CODES.get(line["code"]) == code, line
        assert not (input_file and code == 2), line
        assert not os.path.exists(out), line


FILE_TARGETS = {
    "manifest": (
        GOLDEN / "put_on.manifest.json", False,
        ["run", "--manifest", "{}", "--policy", "builtin:oracle", "--max-steps", "5"],
    ),
    "results": (
        GOLDEN / "put_on.random.results.jsonl", True, ["report", "--results", "{}"],
    ),
    "catalog_plan": (
        None, False,
        ["plan", "--task", "put_on", "--n", "2", "--k", "2", "--catalog", "{}"],
    ),
    "catalog_gen_scene": (
        None, False,
        ["gen-scene", "--desc", "2 objects, one is an apple", "--catalog", "{}"],
    ),
}


def _load(source, lines):
    text = CATALOG_TEXT if source is None else source.read_text()
    if lines:
        return [json.loads(line) for line in text.splitlines()]
    return json.loads(text)


@pytest.mark.parametrize("name", sorted(FILE_TARGETS))
@settings(FUZZ, max_examples=90)
@given(data=st.data())
def test_a_mutated_input_file_ends_in_a_typed_error(name, data):
    source, lines, argv = FILE_TARGETS[name]
    raw = mutate(data, _load(source, lines), lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(raw)
        check_cli([arg.replace("{}", path) for arg in argv], input_file=True)


TEXT_TARGETS = {
    "description": (
        "3 objects, one is an apple, one is a sponge, lighting 1.5, "
        "camera at (0.6, 0.0, 0.9)",
        lambda text: ["gen-scene", "--desc", text],
    ),
    "instruction": (
        "put the apple on the plate",
        lambda text: ["paraphrase", "--instruction", text, "--k", "2"],
    ),
}


@pytest.mark.parametrize("name", sorted(TEXT_TARGETS))
@settings(FUZZ, max_examples=40)
@given(data=st.data())
def test_a_mutated_argument_ends_in_a_typed_error(name, data):
    text, argv = TEXT_TARGETS[name]
    check_cli(argv(mutate_text(data, text)), input_file=False)


OBJECTS_REPLY = [
    {"model_id": "apple", "pose": {"position_m": [0.1, 0.1, 0.04], "yaw_rad": 0.5}},
    {"model_id": "sponge", "pose": None},
]
ENV_REPLY = {
    "lighting": {"intensity": 0.5},
    "camera": {"position_m": [0.6, 0.0, 0.9], "look_at_m": [0.0, 0.0, 0.0]},
}
PARAPHRASE_REPLY = ["please pick up the apple", "pick up the apple now"]


def _reply(data, doc) -> str:
    """A mutated reply as the chat content a provider could return."""
    return mutate(data, doc).decode("utf-8", errors="surrogateescape")


@pytest.mark.parametrize("asked", ["objects", "env"])
@settings(FUZZ, max_examples=60)
@given(data=st.data())
def test_a_mutated_scene_reply_gives_a_scene_or_a_typed_error(catalog, asked, data):
    description = parse_description("2 objects, one is an apple")
    with contextlib.suppress(BenchtopError):
        if asked == "objects":
            provider = ScriptedChatProvider(replies=[_reply(data, OBJECTS_REPLY)] * 3)
            generate_scene(description, provider, catalog, 0)
        else:
            provider = ScriptedChatProvider(replies=[_reply(data, ENV_REPLY)] * 3)
            ask_environment(description, provider)


@settings(FUZZ, max_examples=60)
@given(data=st.data())
def test_a_mutated_paraphrase_reply_gives_a_set_or_a_typed_error(data):
    original = "pick up the apple"
    provider = ScriptedChatProvider(replies=[_reply(data, PARAPHRASE_REPLY)] * 3)
    with contextlib.suppress(BenchtopError):
        validate_candidates(original, generate_paraphrases(original, 2, provider), 2)


ACT_REPLY = {"type": "act", "delta_position": [0.0, 0.0, -0.05], "gripper": "HOLD"}


@settings(FUZZ, max_examples=100)
@given(data=st.data())
def test_a_mutated_wire_reply_gives_an_action_or_a_typed_error(data):
    # the clients decode reply bytes as UTF-8 with replacement
    line = mutate(data, ACT_REPLY).decode("utf-8", errors="replace") + "\n"
    with contextlib.suppress(BenchtopError):
        _decode_act(line)
