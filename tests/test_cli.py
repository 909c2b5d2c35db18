"""Malformed artifacts end in one JSON error line, never a traceback."""

import hashlib
import json
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

from benchtop import providers
from benchtop.campaign import EPOCH_TIMESTAMP, load_manifest
from benchtop.cli import main
from benchtop.jsonio import dumps

GOLDEN = Path(__file__).parent / "golden"

_DROP = object()
_HUGE = "9" * 400  # an integer beyond the float range


def _default_catalog_doc() -> dict:
    return json.loads(
        resources.files("benchtop.data").joinpath("default_catalog.json").read_text()
    )


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
        (("scene_meta", 0, "target_b_index"), None, "$.scene_meta[0].target_b_index"),
        (("scenes", 0, "adds", 0, "pose", "yaw_rad"), int(_HUGE),
         "$.scenes[0].adds[0].pose.yaw_rad"),
        (("scene_meta", 0, "source_mix"), "seen_only", "$.scene_meta[0].source_mix"),
        (("scene_meta", 1, "basic_instruction"), "pick up the moon",
         "$.scene_meta[1].basic_instruction"),
        (("trials", 0, "instruction_kind"), "paraphrased",
         "$.trials[0].instruction_kind"),
        (("instruction_sets", 0, "candidates", 0, "similarity"), 0.1,
         "$.instruction_sets[0].candidates[0].similarity"),
        (("instruction_sets", 0, "candidates", 1, "similarity"), 0.99,
         "$.instruction_sets[0].candidates[1].similarity"),
        (("trials", 2, "trial_seed"), 7, "$.trials[2].trial_seed"),
        (("shortfalls",), [{"scene_index": 0, "missing": 1}], "$.shortfalls"),
    ],
    ids=[
        "string_bool", "float_seed", "string_count", "unknown_key", "no_threshold",
        "threshold_above_one", "count_range_reversed", "both_mutations",
        "env_variant_mismatch", "target_b_missing", "yaw_beyond_float_range",
        "source_mix_flipped", "basic_instruction_false",
        "basic_trial_marked_paraphrased", "candidate_valid_below_threshold",
        "candidate_similarity_raised", "trial_seed_changed", "shortfall_invented",
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
        ((2,), "[" * 100000, "$[2]"),
    ],
    ids=["string_bool", "missing_field", "not_json", "nested_too_deeply"],
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


_BAD = "<not utf-8>"


@pytest.mark.parametrize(
    "argv, source, line, code, path",
    [
        (["run", "--manifest", _BAD, "--policy", "builtin:oracle"],
         GOLDEN / "put_on.manifest.json", 0, "schema_violation", "$"),
        (["report", "--results", _BAD],
         GOLDEN / "put_on.random.results.jsonl", 2, "schema_violation", "$[2]"),
        (["plan", "--task", "put_on", "--n", "2", "--k", "2", "--catalog", _BAD],
         None, 0, "malformed_catalog", "$"),
        (["gen-scene", "--desc", "2 objects", "--catalog", _BAD],
         None, 0, "malformed_catalog", "$"),
        (["run", "--manifest", str(GOLDEN / "put_on.manifest.json"),
          "--catalog", _BAD, "--policy", "builtin:oracle"],
         None, 0, "malformed_catalog", "$"),
    ],
    ids=["run_manifest", "report_results", "plan_catalog", "gen_scene_catalog",
         "run_catalog"],
)
def test_an_input_file_that_is_not_utf8_is_malformed(
    tmp_path, capsys, argv, source, line, code, path
):
    """A 0xff byte in a string of line ``line`` is invalid JSON at the path
    of the document that holds it."""
    if source is None:
        lines = [json.dumps(_default_catalog_doc()).encode()]
    else:
        lines = source.read_bytes().splitlines(True)
    lines[line] = lines[line].replace(b'"', b'"\xff', 1)
    bad = tmp_path / "input"
    bad.write_bytes(b"".join(lines))
    out = tmp_path / "out"
    argv = [arg.replace(_BAD, str(bad)) for arg in argv] + ["--out", str(out)]
    message = _expect_error(capsys, argv, code)
    assert message.startswith(f"{path}: invalid JSON: 'utf-8' codec can't decode")
    assert not out.exists()


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
        (["--instruction", "!!!"], "instruction"),
    ],
    ids=["threshold_above_one", "threshold_nan", "threshold_0", "k_minus_1",
         "instruction_without_words"],
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


_RUN_GOLDEN = ["run", "--manifest", str(GOLDEN / "put_on.manifest.json")]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["plan", "--task", "pick_up", "--n", "1", "--k", "1",
          "--provider-url", "ftp://x"], "not an http:// or https:// URL: 'ftp://x"),
        (["plan", "--task", "pick_up", "--n", "1", "--k", "1",
          "--provider-url", "http://[::1"],
         "cannot parse the URL 'http://[::1/v1/chat/completions': Invalid IPv6 URL"),
        (["plan", "--task", "pick_up", "--n", "1", "--k", "1",
          "--provider-url", "http://h:99999"],
         "cannot parse the URL 'http://h:99999/v1/chat/completions': Port out of"),
        (["plan", "--task", "pick_up", "--n", "1", "--k", "1",
          "--provider-url", "http://a b/"], "URL can't contain control characters"),
        (["plan", "--task", "pick_up", "--n", "1", "--k", "1",
          "--provider-url", "http://%E2%82%AC:pw@h/"],
         "credentials in a URL must be Latin-1"),
        (["paraphrase", "--instruction", "pick up the apple", "--k", "2",
          "--provider-url", "http://127.0.0.1:9/a b"],
         "the URL 'http://127.0.0.1:9/a b/v1/chat/completions' holds a space"),
        (["paraphrase", "--instruction", "pick up the apple", "--k", "2",
          "--threshold", "1.5"], "threshold must be in (0, 1], got 1.5"),
        ([*_RUN_GOLDEN, "--policy", "subprocess: "], "policy command is empty"),
        ([*_RUN_GOLDEN, "--policy", 'subprocess:"x'],
         "bad policy command '\"x': No closing quotation"),
        ([*_RUN_GOLDEN, "--policy", "http:http://127.0.0.1:9/a b"],
         "the URL 'http://127.0.0.1:9/a b' holds a space or a control character"),
    ],
    ids=["plan_ftp_provider_url", "plan_ipv6_provider_url",
         "plan_provider_port_out_of_range", "plan_provider_host_with_a_space",
         "plan_provider_user_not_latin_1", "paraphrase_provider_path_with_a_space",
         "paraphrase_offline_threshold", "run_empty_policy_command",
         "run_unclosed_policy_quote", "run_policy_path_with_a_space"],
)
def test_a_usage_error_writes_nothing(monkeypatch, tmp_path, capsys, argv, message):
    def popen(*args, **kwargs):
        raise AssertionError("a process was started")

    def post(*args, **kwargs):
        raise AssertionError("a request was sent")

    monkeypatch.setattr(subprocess, "Popen", popen)
    monkeypatch.setattr(providers.HttpTransport, "post", post)
    out = tmp_path / "out.json"
    argv = [*argv, "--out", str(out)]
    assert _expect_error(capsys, argv, "usage", exit_code=2).startswith(message)
    assert not out.exists()


def test_a_proxy_url_that_does_not_parse_is_a_usage_error(
    closed_proxy, monkeypatch, tmp_path, capsys
):
    monkeypatch.setenv("HTTP_PROXY", "http://p:99999")  # in place of the closed one
    out = tmp_path / "results.jsonl"
    argv = [*_RUN_GOLDEN, "--policy", "http:http://127.0.0.1:9/", "--out", str(out)]
    message = _expect_error(capsys, argv, "usage", exit_code=2)
    assert message.startswith("cannot parse the URL 'http://p:99999': Port out of")
    assert not out.exists()


_REPLY = b'{"choices":[{"message":{"content":"[]"}}],"usage":{"cost":%s}}'


@pytest.mark.parametrize(
    "mode, cost, message",
    [
        ("live", b"NaN", "non-JSON response"),
        ("record", b"NaN", "non-JSON response"),
        ("live", b"1e999", "cannot record the reply"),
        ("record", b"1e999", "cannot record the reply"),
    ],
    ids=["nan_live", "nan_record", "infinite_live", "infinite_record"],
)
def test_a_reply_that_cannot_be_read_or_recorded_is_a_malformed_response(
    stub_server, tmp_path, capsys, mode, cost, message
):
    # the number is outside the content, so only the reader or the recorder sees it
    url, state = stub_server(lambda path, payload, call: (200, _REPLY % cost))
    fixtures = tmp_path / "fixtures"
    out = tmp_path / "out.json"
    argv = ["paraphrase", "--instruction", "pick up the apple", "--k", "2",
            "--provider-url", url, "--provider-mode", mode,
            "--fixtures-dir", str(fixtures), "--out", str(out)]
    assert message in _expect_error(capsys, argv, "malformed_response")
    assert state["count"] == 1
    assert not fixtures.exists() and not out.exists()


@pytest.mark.parametrize(
    "desc, requests, intensity",
    [(_DESC, 2, 0.3), (_DESC + ", with lighting 0.5", 1, 0.5)],
    ids=["asked", "described"],
)
def test_gen_scene_asks_for_an_environment_the_description_leaves_open(
    stub_server, tmp_path, desc, requests, intensity
):
    replies = [_OBJECTS, '{"lighting": {"intensity": 0.3}, "camera": null}']
    url, state = stub_server(
        lambda path, payload, call: (200, _chat_reply(replies[call - 1]))
    )
    out = tmp_path / "scene.json"
    assert main(["gen-scene", "--desc", desc, "--provider-url", url,
                 "--out", str(out)]) == 0
    assert state["count"] == requests
    systems = [json.loads(body)["messages"][0]["content"] for body in state["bodies"]]
    asked = [s.startswith("You configure tabletop scene environments") for s in systems]
    assert asked == [False, True][:requests]
    assert json.loads(out.read_text())["env"]["lighting"] == {"intensity": intensity}


def _plan_reply(path, payload, call):
    """Objects naming exactly the described ones, or four template rewrites."""
    user = payload["messages"][-1]["content"]
    if payload["messages"][0]["content"].startswith("You rewrite"):
        form = user.rpartition("Instruction: ")[2]
        rewrites = [f"please {form}", f"{form} now", f"kindly {form}", f"{form} gently"]
        return 200, _chat_reply(json.dumps(rewrites))
    description = user.split("Scene description: ")[1].split("\n")[0]
    named = re.findall(r"one is ([^,]+)", description)
    return 200, _chat_reply(json.dumps([{"model_id": m, "pose": None} for m in named]))


def test_a_recorded_provider_plan_replays_without_a_request(stub_server, tmp_path):
    url, state = stub_server(_plan_reply, protocol="HTTP/1.1")
    n = 3
    fixtures = tmp_path / "fixtures"
    recorded, replayed = tmp_path / "recorded.json", tmp_path / "replayed.json"
    argv = ["plan", "--task", "put_on", "--n", str(n), "--k", "5",
            "--object-count-range", "2", "2", "--provider-url", url,
            "--fixtures-dir", str(fixtures)]
    assert main([*argv, "--provider-mode", "record", "--out", str(recorded)]) == 0
    assert state["count"] == n + 1
    assert len(list(fixtures.iterdir())) == n + 1
    assert main([*argv, "--provider-mode", "replay", "--out", str(replayed)]) == 0
    assert state["count"] == n + 1
    # record stamps the time it planned at, and replay pins the epoch
    manifest = load_manifest(recorded)
    assert len(manifest.trials) == n * 5
    expected = replace(manifest, created_at=EPOCH_TIMESTAMP).dumps() + "\n"
    assert replayed.read_text(encoding="utf-8") == expected


@pytest.mark.parametrize(
    "text",
    ['{"key":"x"}', "[1]", "not json"],
    ids=["no_response_body", "not_an_object", "not_json"],
)
def test_a_malformed_replay_fixture_is_a_malformed_response(tmp_path, capsys, text):
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    argv = ["gen-scene", "--desc", _DESC, "--provider-url", "http://127.0.0.1:9",
            "--provider-mode", "replay", "--fixtures-dir", str(fixtures)]
    key = _expect_error(capsys, argv, "missing_fixture").rpartition(" ")[2]
    fixture = fixtures / f"{key}.json"
    fixture.write_text(text)
    assert str(fixture) in _expect_error(capsys, argv, "malformed_response")


def test_plan_fails_a_scene_whose_target_name_resolves_to_another_model(
    tmp_path, capsys
):
    doc = _default_catalog_doc()
    apple = next(m for m in doc["models"] if m["id"] == "apple")
    doc["models"].append(dict(apple, id="zz_apple"))  # "apple" resolves to apple
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(doc))
    out = tmp_path / "manifest.json"
    argv = ["plan", "--task", "pick_up", "--n", "10", "--k", "1", "--seed", "3",
            "--catalog", str(catalog), "--out", str(out)]
    message = _expect_error(capsys, argv, "partial_plan_failure")
    assert message.startswith("planning failed at scene 8: 'apple' does not ")
    assert not out.exists()


def test_gen_scene_rejects_a_catalog_number_beyond_the_float_range(tmp_path, capsys):
    doc = _default_catalog_doc()
    doc["models"][1]["dimensions_m"][0] = int(_HUGE)
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(doc))
    argv = ["gen-scene", "--desc", "2 objects", "--catalog", str(catalog)]
    message = _expect_error(capsys, argv, "malformed_catalog")
    assert message == "$.models[1].dimensions_m[0]: expected finite number"


@pytest.mark.parametrize(
    "clause", [f"camera at (0, 0, {_HUGE})", f"lighting {_HUGE}"],
    ids=["camera", "lighting"],
)
def test_gen_scene_rejects_a_description_number_beyond_the_float_range(
    capsys, clause
):
    argv = ["gen-scene", "--desc", f"2 objects, {clause}"]
    message = _expect_error(capsys, argv, "description_parse_error", exit_code=2)
    assert "beyond the float range" in message


def test_gen_scene_rejects_an_out_of_range_description_lighting(capsys):
    argv = ["gen-scene", "--desc", "1 object with lighting 5"]
    message = _expect_error(capsys, argv, "description_parse_error", exit_code=2)
    assert message == "lighting 5.0 outside [0.25, 2.0]"


# sha256 of ``--help`` at 80 columns, as argparse of Python 3.11 lays it out.
HELP_SHA256 = {
    "": "3298ca359b2ff0ed5ce93a1e4a5a88f390013b9df4391a9f3583c98d7380e75b",
    "gen-scene": "56e60a47b81682ce0baac6f4d744ba659fe565fb449be92887c6da00c4ea1aa4",
    "paraphrase": "0d49c0c467b65bbe1429f64874bbf7c370f8d28d987db6cb9f28266d0c82f030",
    "plan": "e4e5f299a9dda08afb7f4569865c9015c76c3d89212efd9b2ec28419f8ddeb3e",
    "run": "efaf77afe3ee576b1bd81a6385635c6afd236e009e1fc4308df3cac11b1866e4",
    "report": "94244b00fa4838a19679898a66465a857ba4c0fffbac13f24bd7a9c104764228",
}


@pytest.mark.parametrize("command", list(HELP_SHA256), ids=lambda c: c or "top")
def test_help_text_is_pinned(monkeypatch, capsys, command):
    if sys.version_info[:2] != (3, 11):
        pytest.skip("other Python versions lay argparse help out differently")
    monkeypatch.setenv("COLUMNS", "80")
    assert main([command, "--help"] if command else ["--help"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == HELP_SHA256[command]


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus' (choose from "
                    "'gen-scene', 'paraphrase', 'plan', 'run', 'report')"),
        (["plan", "--task", "x"], "argument --task: invalid choice: 'x' (choose "
                                  "from 'pick_up', 'move_near', 'put_on', 'put_in')"),
    ],
    ids=["no_command", "unknown_command", "bad_choice"],
)
def test_command_line_errors_keep_their_lines(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == dumps({"code": "usage", "message": message}) + "\n"
