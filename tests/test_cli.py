"""Malformed artifacts end in one JSON error line, never a traceback."""

import json
from pathlib import Path

import pytest

from benchtop.cli import main

GOLDEN = Path(__file__).parent / "golden"

_DROP = object()


def _edit(doc, keys, value):
    for key in keys[:-1]:
        doc = doc[key]
    if value is _DROP:
        del doc[keys[-1]]
    else:
        doc[keys[-1]] = value


def _expect_error(capsys, argv, code) -> str:
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1, err
    line = json.loads(lines[0])
    assert line["code"] == code
    return line["message"]


def _expect_schema_violation(capsys, argv, path):
    assert _expect_error(capsys, argv, "schema_violation").startswith(f"{path}: ")


@pytest.mark.parametrize(
    "keys,value,path",
    [
        (("spec", "factors", "lighting_mutation"), "false",
         "$.spec.factors.lighting_mutation"),
        (("trials", 0, "trial_seed"), 1.7, "$.trials[0].trial_seed"),
        (("spec", "n_scenes"), "3", "$.spec.n_scenes"),
        (("spec", "budget"), 5, "$.spec"),
        (("instruction_sets", 0, "threshold"), _DROP, "$.instruction_sets[0]"),
        (("spec", "threshold"), 7.5, "$.spec"),
        (("spec", "factors", "object_count_range"), [5, 1], "$.spec"),
        (("spec", "factors", "lighting_mutation"), True, "$.spec"),
        (("spec", "factors", "camera_mutation"), False,
         "$.scene_meta[0].env_variant"),
    ],
    ids=[
        "string_bool", "float_seed", "string_count", "unknown_key", "no_threshold",
        "threshold_above_one", "count_range_reversed", "both_mutations",
        "env_variant_mismatch",
    ],
)
def test_run_rejects_malformed_manifest(tmp_path, capsys, keys, value, path):
    raw = json.loads((GOLDEN / "put_on.manifest.json").read_text())
    _edit(raw, keys, value)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(raw))
    argv = ["run", "--manifest", str(manifest), "--policy", "builtin:oracle"]
    _expect_schema_violation(capsys, argv + ["--out", str(tmp_path / "r")], path)


@pytest.mark.parametrize(
    "keys,value,path",
    [
        ((0, "success"), "false", "$[0].success"),
        ((1, "steps_used"), _DROP, "$[1]"),
        ((2,), "success: true", "$[2]"),
    ],
    ids=["string_bool", "missing_field", "not_json"],
)
def test_report_rejects_malformed_results(tmp_path, capsys, keys, value, path):
    text = (GOLDEN / "put_on.random.results.jsonl").read_text()
    rows = [json.loads(line) for line in text.splitlines()]
    _edit(rows, keys, value)
    results = tmp_path / "results.jsonl"
    results.write_text(
        "".join((r if isinstance(r, str) else json.dumps(r)) + "\n" for r in rows)
    )
    _expect_schema_violation(capsys, ["report", "--results", str(results)], path)


_MISSING = "<missing>"


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--results", _MISSING],
        ["run", "--manifest", _MISSING, "--policy", "builtin:oracle"],
        ["run", "--manifest", str(GOLDEN / "put_on.manifest.json"),
         "--catalog", _MISSING, "--policy", "builtin:oracle"],
        ["run", "--manifest", str(GOLDEN / "put_on.manifest.json"),
         "--policy", f"subprocess:{_MISSING}"],
    ],
    ids=["report_results", "run_manifest", "run_catalog", "run_policy_command"],
)
def test_missing_input_file_is_an_io_error(tmp_path, capsys, argv):
    missing = str(tmp_path / "missing.json")
    argv = [arg.replace(_MISSING, missing) for arg in argv]
    assert missing in _expect_error(capsys, argv, "io_error")
