"""Campaign execution: one bad trial or policy process fails only itself.

Wire policies are the stdio stubs in ``stub_policies.py`` and an HTTP policy
served by the ``stub_server`` fixture. Results must not depend on the
parallelism level.
"""

import shlex
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
from stub_policies import OBSERVE_FIELDS

from benchtop import runner
from benchtop.campaign import load_manifest
from benchtop.runner import BUILTIN_POLICIES, parse_policy_endpoint, run_campaign

HERE = Path(__file__).parent
HOLD_REPLY = {"type": "act", "delta_position": [0.01, 0.0, 0.0], "gripper": "HOLD"}


def stub(mode: str) -> str:
    command = [sys.executable, str(HERE / "stub_policies.py"), mode]
    return "subprocess:" + shlex.join(command)


def run(manifest, catalog, policy, **kwargs):
    return run_campaign(manifest, catalog, parse_policy_endpoint(policy), **kwargs)


def without_policy_id(results):
    return [replace(r, policy_id="") for r in results]


@pytest.fixture(scope="module")
def manifest():
    return load_manifest(HERE / "golden" / "put_on.manifest.json")


@pytest.fixture(scope="module")
def short(manifest):
    return replace(manifest, trials=manifest.trials[:3])


@pytest.fixture
def started(monkeypatch):
    """Records each subprocess policy client the runner starts."""
    clients = []

    class Counted(runner.SubprocessPolicyClient):
        def __init__(self, *args):
            super().__init__(*args)
            clients.append(self)

    monkeypatch.setattr(runner, "SubprocessPolicyClient", Counted)
    return clients


FAILURES = {
    "garbage": "PolicyProtocolError: policy sent non-JSON line: "
    "'%%% this is not json\\n'",
    "extra_field": "PolicyProtocolError: policy reply has wrong fields: "
    "['debug', 'delta_position', 'gripper', 'type']",
    "quit": "PolicyProtocolError: policy process closed its stdout",
    "sleep": "PolicyTimeout: policy did not reply within 0.3s",
    # bytes that are not UTF-8 are replaced, as an HTTP reply's would be
    "bad_utf8": "PolicyProtocolError: policy sent non-JSON line: "
    "'\ufffd\ufffd{\"type\":\"act\",\"delta_position\":[0.0,0.0,0.0],"
    "\"gripper\":\"HOLD\"}\\n'",
}


@pytest.mark.parametrize("mode", sorted(FAILURES))
def test_wire_failure_fails_its_trial_and_the_next_gets_a_new_client(
    catalog, short, started, capfd, mode
):
    timeout = 0.3 if mode == "sleep" else 5.0
    results = run(short, catalog, stub(mode), act_timeout_s=timeout)
    assert [r.trial_seed for r in results] == [t.trial_seed for t in short.trials]
    assert [r.error for r in results] == [FAILURES[mode]] * len(short.trials)
    assert not any(r.success for r in results)
    assert len(started) == len(short.trials)
    assert capfd.readouterr().err == ""


def test_reply_written_in_two_parts_is_read_as_one(catalog, short):
    split = run(short, catalog, stub("split"), max_steps=10)
    conform = run(short, catalog, stub("conform"), max_steps=10)
    assert all(r.error is None for r in split)
    assert without_policy_id(split) == without_policy_id(conform)


@pytest.mark.parametrize(
    "policy",
    [f"builtin:{name}" for name in BUILTIN_POLICIES] + [stub("conform")],
    ids=list(BUILTIN_POLICIES) + ["conform"],
)
def test_results_identical_at_every_parallelism(catalog, manifest, policy):
    runs = [
        run(manifest, catalog, policy, parallelism=p, max_steps=60)
        for p in (1, 2, 4)
    ]
    assert runs[0] == runs[1] == runs[2]
    assert [r.trial_seed for r in runs[0]] == [t.trial_seed for t in manifest.trials]
    assert all(r.error is None for r in runs[0])


def test_http_policy_runs_like_the_same_stdio_policy(catalog, short, stub_server):
    def respond(path, payload, call):
        if payload["type"] == "observe" and set(payload) != OBSERVE_FIELDS:
            return 200, {"type": "error"}
        return 200, HOLD_REPLY

    url, state = stub_server(respond)
    http = run(short, catalog, f"http:{url}", max_steps=20)
    wire = run(short, catalog, stub("conform"), max_steps=20)
    assert all(r.error is None for r in http)
    assert without_policy_id(http) == without_policy_id(wire)
    # one reset and one observe per step
    assert state["count"] == sum(1 + r.steps_used for r in http)


def test_http_body_that_is_not_json_is_a_protocol_error(catalog, short, stub_server):
    url, _ = stub_server(lambda path, payload, call: (200, b"not json"))
    results = run(short, catalog, f"http:{url}")
    assert [r.error for r in results] == [
        "PolicyProtocolError: policy sent non-JSON line: 'not json'"
    ] * len(short.trials)


def test_trial_exception_stops_the_campaign_and_propagates(
    catalog, manifest, monkeypatch
):
    original = runner.OraclePolicy.reset
    first = manifest.trials[0].trial_seed
    resets = []

    def reset(self, ctx):
        resets.append(ctx.trial_seed)
        if ctx.trial_seed == first:
            raise RuntimeError("policy bug")
        time.sleep(0.05)
        original(self, ctx)

    monkeypatch.setattr(runner.OraclePolicy, "reset", reset)
    with pytest.raises(RuntimeError, match="policy bug"):
        run(manifest, catalog, "builtin:oracle", parallelism=2)
    assert len(resets) < len(manifest.trials)
