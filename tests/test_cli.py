"""Malformed artifacts end in one JSON error line, never a traceback."""

import json
import shlex
import sys
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


def _expect_error(capsys, argv, code, exit_code=1) -> str:
    assert main(argv) == exit_code
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


_CONFORM = "subprocess:" + shlex.join(
    [sys.executable, str(Path(__file__).parent / "stub_policies.py"), "conform"]
)


@pytest.mark.parametrize(
    "policy, flags",
    [
        ("builtin:oracle", ["--max-steps", "0"]),
        ("builtin:oracle", ["--max-steps", "-1"]),
        (_CONFORM, ["--act-timeout", "inf"]),
        (_CONFORM, ["--act-timeout", "nan"]),
        (_CONFORM, ["--act-timeout", "0"]),
        (_CONFORM, ["--act-timeout", "-1"]),
    ],
    ids=["steps_0", "steps_minus_1", "timeout_inf", "timeout_nan", "timeout_0",
         "timeout_minus_1"],
)
def test_run_rejects_a_bad_limit(tmp_path, capsys, policy, flags):
    out = tmp_path / "results.jsonl"
    argv = ["run", "--manifest", str(GOLDEN / "put_on.manifest.json"),
            "--policy", policy, "--out", str(out), *flags]
    message = _expect_error(capsys, argv, "usage", exit_code=2)
    assert flags[0][2:].replace("-", "_") in message
    assert not out.exists()


def _rising_results(path: Path) -> None:
    """One object: 0 of 2 trials succeed; two objects: 2 of 2."""
    rows = [json.loads(line) for line in
            (GOLDEN / "put_on.random.results.jsonl").read_text().splitlines()[:4]]
    for i, row in enumerate(rows):
        row.update(object_count=1 + i // 2, success=i >= 2)
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


@pytest.mark.parametrize(
    "slack, code", [("0", 1), ("nan", 2), ("inf", 2), ("-1", 2)]
)
def test_trend_check_fails_a_rising_trend_and_rejects_a_bad_slack(
    tmp_path, capsys, slack, code
):
    results = tmp_path / "results.jsonl"
    _rising_results(results)
    argv = ["report", "--results", str(results), "--check-trend", "--slack", slack,
            "--out", str(tmp_path / "report.csv")]
    _expect_error(capsys, argv, "trend" if code == 1 else "usage", exit_code=code)


def test_trend_check_on_an_unordered_factor_writes_no_report(tmp_path, capsys):
    report = tmp_path / "report.csv"
    argv = ["report", "--results", str(GOLDEN / "put_on.random.results.jsonl"),
            "--check-trend", "--group-by", "instruction_kind", "--out", str(report)]
    assert "ordered factor" in _expect_error(capsys, argv, "usage", exit_code=2)
    assert not report.exists()


def _chat_reply(text):
    return {"choices": [{"message": {"role": "assistant", "content": text}}]}


_OBJECTS = '[{"model_id": "apple", "pose": null}, {"model_id": "sponge", "pose": null}]'
_NULL_ENV = '{"lighting": null, "camera": null}'
_DESC = "2 objects, one is an apple"


@pytest.mark.parametrize(
    "argv, status, exit_code",
    [
        (["gen-scene", "--desc", _DESC], 200, 0),
        (["gen-scene", "--desc", _DESC], 400, 1),
        (["gen-scene", "--desc", "2 objects, one is a unicorn"], 200, 1),
        (["paraphrase", "--instruction", "pick up the apple", "--k", "2"], 400, 1),
        (["plan", "--task", "pick_up", "--n", "1", "--k", "1"], 400, 1),
    ],
    ids=["gen-scene", "gen-scene-http-error", "gen-scene-unresolvable",
         "paraphrase-http-error", "plan-http-error"],
)
def test_each_provider_command_closes_its_provider(
    stub_server, monkeypatch, tmp_path, capsys, argv, status, exit_code
):
    from benchtop import providers

    replies = [_OBJECTS, _NULL_ENV]
    url, _ = stub_server(
        lambda path, payload, call: (status, _chat_reply(replies[call - 1])),
        protocol="HTTP/1.1",
    )
    closed = []
    original = providers.HttpTransport.close

    def close(self):
        closed.append(self)
        original(self)

    monkeypatch.setattr(providers.HttpTransport, "close", close)
    out = str(tmp_path / "out.json")
    assert main(argv + ["--provider-url", url, "--out", out]) == exit_code
    assert len(closed) == 1
    if exit_code:
        assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--threshold", "1.5"], "threshold"),
        (["--threshold", "nan"], "threshold"),
        (["--threshold", "0"], "threshold"),
        (["--k", "-1"], "k"),
    ],
    ids=["threshold_above_one", "threshold_nan", "threshold_0", "k_minus_1"],
)
def test_paraphrase_checks_its_flags_before_any_request(
    stub_server, tmp_path, capsys, flags, name
):
    url, state = stub_server(lambda path, payload, call: (200, _chat_reply("[]")))
    fixtures = tmp_path / "fixtures"
    out = tmp_path / "out.json"
    argv = ["paraphrase", "--instruction", "pick up the apple", "--k", "3",
            "--provider-url", url, "--provider-mode", "record",
            "--fixtures-dir", str(fixtures), "--out", str(out), *flags]
    assert _expect_error(capsys, argv, "usage", exit_code=2).startswith(name)
    assert state["count"] == 0
    assert not fixtures.exists() and not out.exists()
