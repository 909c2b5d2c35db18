"""Campaign execution: one bad trial or policy process fails only itself.

Wire policies are the stdio stubs in ``stub_policies.py`` and an HTTP policy
served by the ``stub_server`` fixture. Results must not depend on the
parallelism level.
"""

import shlex
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from stub_policies import OBSERVE_FIELDS
from test_wire import reference

from benchtop import runner, sim
from benchtop.campaign import CampaignSpec, Factors, load_manifest, plan_campaign
from benchtop.errors import PolicyProtocolError
from benchtop.runner import (
    BUILTIN_POLICIES,
    EpisodeResult,
    HttpPolicyClient,
    parse_policy_endpoint,
    run_campaign,
)
from benchtop.sim import DEFAULT_MAX_STEPS, GripperCommand, Observation, Task, TaskGoal

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


@pytest.fixture(scope="module")
def wide(catalog):
    """``plan --task put_on --n 15 --k 5 --object-count-range 1 2``."""
    spec = CampaignSpec(
        task=Task.PUT_ON, n_scenes=15, k_instructions=5,
        factors=Factors(object_count_range=(1, 2)),
    )
    return plan_campaign(spec, catalog)


def _context(manifest, catalog, trial):
    meta = manifest.scene_meta[trial.scene_index]
    return runner.ResetContext(
        task=manifest.spec.task,
        target_a_index=meta.target_a_index,
        target_b_index=meta.target_b_index,
        basic_instruction=meta.basic_instruction,
        instruction=trial.instruction_text,
        trial_seed=trial.trial_seed,
        object_heights=tuple(
            catalog.get(op.model_id).height_m
            for op in manifest.scenes[trial.scene_index].adds
        ),
    )


def _record_clients(monkeypatch, name):
    """Records each client of the class ``runner.<name>`` the runner starts."""
    clients = []

    class Counted(getattr(runner, name)):
        def __init__(self, *args):
            super().__init__(*args)
            clients.append(self)

    monkeypatch.setattr(runner, name, Counted)
    return clients


@pytest.fixture
def started(monkeypatch):
    """Records each subprocess policy client the runner starts."""
    return _record_clients(monkeypatch, "SubprocessPolicyClient")


FAILURES = {
    "garbage": "PolicyProtocolError: policy sent non-JSON line: "
    "'%%% this is not json\\n'",
    "extra_field": "PolicyProtocolError: policy reply has wrong fields: "
    "['debug', 'delta_position', 'gripper', 'type']",
    "nan": "PolicyProtocolError: policy sent non-JSON line: "
    "'{\"type\":\"act\",\"delta_position\":[NaN,0.0,-0.05],\"gripper\":\"HOLD\"}\\n'",
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


@pytest.mark.parametrize(
    "delta, message",
    [
        ("[NaN,0.0,0.0]", "policy sent non-JSON line"),
        ("[0.0,-Infinity,0.0]", "policy sent non-JSON line"),
        ("[0.0,0.0,Infinity]", "policy sent non-JSON line"),
        ("[1e999,0.0,0.0]", "delta_position must be finite"),
        ("[0.0,-1" + "0" * 400 + ",0.0]", "delta_position must be finite"),
    ],
    ids=["nan", "minus_infinity", "infinity", "overflow", "huge_integer"],
)
def test_non_finite_delta_is_a_protocol_error(delta, message):
    line = f'{{"type":"act","delta_position":{delta},"gripper":"HOLD"}}\n'
    with pytest.raises(PolicyProtocolError, match=message):
        runner._decode_act(line)


REJECTED_REPLIES = {
    "nan": b'{"type":"act","delta_position":[NaN,0.0,0.0],"gripper":"HOLD"}',
    "infinity": b'{"type":"act","delta_position":[0.0,Infinity,0.0],"gripper":"HOLD"}',
    "minus_infinity": b'{"type":"act","delta_position":[0,0,-Infinity],"gripper":"HOLD"}',
    "bom": b'\xef\xbb\xbf{"type":"act","delta_position":[0,0,0],"gripper":"HOLD"}',
}


@pytest.mark.parametrize("mode", sorted(REJECTED_REPLIES))
def test_reply_that_is_not_json_fails_its_trial(catalog, short, stub_server, mode):
    url, _ = stub_server(lambda path, payload, call: (200, REJECTED_REPLIES[mode]))
    results = run(short, catalog, f"http:{url}")
    line = REJECTED_REPLIES[mode].decode("utf-8")  # a BOM decodes to "\ufeff"
    assert [r.error for r in results] == [
        f"PolicyProtocolError: policy sent non-JSON line: {line!r}"
    ] * len(short.trials)


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


@pytest.mark.usefixtures("closed_proxy")
def test_http_policy_reads_proxy_settings_once(stub_server, monkeypatch):
    url, state = stub_server(lambda path, payload, call: (200, HOLD_REPLY))
    proxied = HttpPolicyClient(url, 5.0)
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    direct = HttpPolicyClient(url, 5.0)
    monkeypatch.delenv("NO_PROXY")
    obs = Observation("pick up the cup", None, None, 0)
    with pytest.raises(PolicyProtocolError, match="cannot reach policy"):
        proxied.act(obs)
    assert state["count"] == 0
    assert direct.act(obs).gripper is GripperCommand.HOLD
    assert state["count"] == 1


@pytest.fixture
def http_started(monkeypatch):
    """Records each HTTP policy client the runner starts."""
    return _record_clients(monkeypatch, "HttpPolicyClient")


@pytest.mark.parametrize(
    "failing, status, sleep_s, error",
    [
        ("reset", 503, 0.0, "PolicyProtocolError: policy replied HTTP 503"),
        ("observe", 500, 0.0, "PolicyProtocolError: policy replied HTTP 500"),
        ("observe", 404, 0.0, "PolicyProtocolError: policy replied HTTP 404"),
        ("observe", 301, 0.0, "PolicyProtocolError: policy replied HTTP 301"),
        ("reset", 200, 0.5, "PolicyTimeout: policy reset timed out"),
        ("observe", 200, 0.5, "PolicyTimeout: policy did not reply within 0.15s"),
    ],
    ids=["reset_503", "act_500", "act_404", "act_301", "reset_slow", "act_slow"],
)
def test_http_failure_fails_its_trial_and_the_next_gets_a_new_client(
    catalog, short, http_started, stub_server, failing, status, sleep_s, error
):
    def respond(path, payload, call):
        if payload["type"] != failing:
            return 200, HOLD_REPLY
        time.sleep(sleep_s)
        return status, {"error": "boom"} if status != 200 else HOLD_REPLY

    url, _ = stub_server(respond)
    results = run(short, catalog, f"http:{url}", act_timeout_s=0.15)
    assert [r.error for r in results] == [error] * len(short.trials)
    assert not any(r.success for r in results)
    assert len(http_started) == len(short.trials)


def test_http_policy_messages_and_kept_alive_connection(
    catalog, manifest, short, stub_server
):
    url, state = stub_server(lambda path, payload, call: (200, HOLD_REPLY),
                             protocol="HTTP/1.1")
    client = HttpPolicyClient(url, 5.0)
    raster = bytes(range(24))
    observations = [
        Observation('put the "café" cup on the plate \u2014 now', None, raster, 0),
        Observation('put the "café" cup on the plate \u2014 now', None, raster, 1),
        Observation("pick up the cup", None, None, 7),
    ]
    try:
        client.reset(_context(manifest, catalog, manifest.trials[0]))
        for obs in observations:
            assert client.act(obs).gripper is GripperCommand.HOLD
    finally:
        client.close()
    assert state["bodies"] == [b'{"type": "reset"}'] + [
        reference(obs).encode("utf-8") for obs in observations
    ]
    assert state["connections"] == 1
    # a campaign's worker keeps its client, and so its connection, across trials
    results = run(short, catalog, f"http:{url}", max_steps=20)
    assert all(r.error is None for r in results)
    assert state["connections"] == 2


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
    # the oracle plays one episode per scene
    assert len(resets) < len(manifest.scenes)


def _poses(state):
    return [o.pose for o in state.objects]


def test_conform_campaign_renders_and_checks_only_after_a_change(
    catalog, manifest, monkeypatch
):
    counts = Counter()

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(sim, "render_raster")
    counted(runner, "check_success")
    original_step = runner.step

    def step(state, action):
        new = original_step(state, action)
        moved = _poses(new) != _poses(state)
        counts["steps"] += 1
        counts["moved"] += moved
        counts["changed"] += moved or new.gripper.attached != state.gripper.attached
        return new

    monkeypatch.setattr(runner, "step", step)
    results = run(manifest, catalog, stub("conform"), max_steps=50)
    trials = len(manifest.trials)
    assert all(r.error is None for r in results)
    assert counts["steps"] == 50 * trials
    assert counts["render_raster"] <= trials + counts["moved"]
    assert counts["check_success"] <= trials + counts["changed"]


@pytest.mark.parametrize(
    "name, privileged",
    [("oracle", True), ("oracle", False), ("random_target", True),
     ("instruction_brittle", True)],
)
def test_reused_observation_equals_a_fresh_one(catalog, manifest, name, privileged):
    """A replica world checks every observation the episode loop passes on.

    The builtin policy inside acts on the replica's fresh privileged
    observation, so an unprivileged episode moves objects too.
    """
    task = manifest.spec.task
    checked = Counter()

    class Checked:
        def __init__(self):
            self.privileged = privileged

        def reset(self, ctx):
            policy_class, arg = runner.builtin_episode(name, ctx)
            self.inner = policy_class(arg)
            self.inner.reset(ctx)
            self.state = sim.init_world(config, catalog)

        def act(self, obs):
            fresh = sim.observe(
                self.state, config.env, obs.instruction, privileged=True, render=True
            )
            assert obs.step_count == fresh.step_count
            assert obs.object_snapshots == (
                fresh.object_snapshots if privileged else None
            )
            assert obs.raster == fresh.raster
            action = self.inner.act(fresh)
            moved = sim.step(self.state, action)
            checked["moved"] += _poses(moved) != _poses(self.state)
            self.state = moved
            return action

    for trial in manifest.trials:
        meta = manifest.scene_meta[trial.scene_index]
        config = manifest.scenes[trial.scene_index]
        ctx = _context(manifest, catalog, trial)
        goal = TaskGoal(task, meta.target_a_index, meta.target_b_index)
        start = sim.init_world(config, catalog)
        runner.run_episode(start, config.env, Checked(), ctx, goal, 80, True)
    assert checked["moved"] > 0


def _played_alone(manifest, catalog, name):
    """Every trial of ``manifest`` played on its own, with nothing shared."""
    results = []
    for trial in manifest.trials:
        meta = manifest.scene_meta[trial.scene_index]
        config = manifest.scenes[trial.scene_index]
        goal = TaskGoal(manifest.spec.task, meta.target_a_index, meta.target_b_index)
        ctx = _context(manifest, catalog, trial)
        policy_class, arg = runner.builtin_episode(name, ctx)
        success, steps, error = runner.run_episode(
            sim.init_world(config, catalog), config.env, policy_class(arg), ctx,
            goal, DEFAULT_MAX_STEPS, False,
        )
        results.append(EpisodeResult(
            scene_index=trial.scene_index,
            instruction=trial.instruction_text,
            instruction_kind=trial.instruction_kind,
            success=success,
            steps_used=steps,
            object_count=meta.object_count,
            source_mix=meta.source_mix,
            env_variant=meta.env_variant,
            policy_id=name,
            trial_seed=trial.trial_seed,
            error=error,
        ))
    return results


@pytest.mark.parametrize("name", BUILTIN_POLICIES)
@pytest.mark.parametrize("fixture", ["manifest", "wide"])
def test_shared_episodes_equal_every_trial_played_alone(
    catalog, request, fixture, name
):
    manifest = request.getfixturevalue(fixture)
    expected = _played_alone(manifest, catalog, name)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # workers interleave far more often
    try:
        for parallelism in (1, 2, 4):
            got = run(manifest, catalog, f"builtin:{name}", parallelism=parallelism)
            assert got == expected, parallelism
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("parallelism", [1, 4])
@pytest.mark.parametrize(
    "policy, episodes",
    [("builtin:oracle", 4), ("builtin:random", 12), ("builtin:random_target", 7),
     ("builtin:instruction_brittle", 12), (stub("conform"), 12)],
    ids=["oracle", "random", "random_target", "instruction_brittle", "conform"],
)
def test_each_distinct_episode_is_played_once(
    catalog, manifest, monkeypatch, policy, episodes, parallelism
):
    """Four scenes of three trials: the oracle plays one episode per scene,
    and a seeded or wire policy one per trial. ``random_target`` plays one
    per distinct target in a scene (seven), and ``instruction_brittle`` the
    oracle on each scene's one basic instruction plus one seeded episode
    per paraphrase (4 + 8)."""
    played = []
    original = runner.run_episode

    def counted(start, env, policy, ctx, *args):
        played.append(ctx.trial_seed)
        return original(start, env, policy, ctx, *args)

    monkeypatch.setattr(runner, "run_episode", counted)
    results = run(manifest, catalog, policy, parallelism=parallelism, max_steps=20)
    assert len(played) == episodes
    assert len(set(played)) == episodes
    assert len(results) == len(manifest.trials)
