"""Campaign execution: episodes, policies, and the policy wire protocol.

Policies come in three kinds:

- ``builtin:<name>`` runs in-process. Available names: ``oracle`` (solves
  the task from the object poses it observes), ``random`` (uniform action
  noise), ``random_target`` (oracle mechanics aimed at a uniformly chosen
  object), and ``instruction_brittle`` (oracle on the exact planned
  instruction, random noise on anything else, e.g. paraphrases).
- ``subprocess:<command>`` talks newline-delimited JSON over the child's
  stdin/stdout. The command is split as a POSIX shell splits it when the
  endpoint is parsed, so an unclosed quote or an empty command fails before
  any trial. Replies are read on the stepping thread, which waits on the
  pipe with ``select`` until the act deadline, so this kind needs POSIX pipes.
- ``http:<url>`` POSTs the same messages to an HTTP endpoint. Each worker
  builds its own client, whose ``providers.HttpTransport`` keeps one
  connection alive.

Wire messages are fixed-shape. Each step the runner sends
``{"type": "observe", "instruction": ..., "raster_base64": ..., "step": ...}``,
where ``step`` counts the client's observe messages since its last reset
from 0, and expects ``{"type": "act", "delta_position": [x, y, z], "gripper":
"OPEN"|"CLOSE"|"HOLD"}`` back, with exactly those fields. ``raster_base64``
is the base64 of the raster's 4,096 bytes, 64 x 64 pixels in row-major
order, and is empty when the observation has no raster. The runner writes
each message as canonical JSON (``jsonio.dumps``: sorted keys, no spaces).
Before each episode it sends the bytes ``{"type":"reset"}``, over a pipe
and over HTTP alike; a subprocess sends no reply to it, and over HTTP it
gets a reply like any message, whose status must be 2xx. A stdio reply is
one line of at most ``MAX_REPLY_BYTES`` (64 KiB) before its newline, and
the whole line must arrive within the act timeout.
An HTTP reply body has the same cap, and the exchange must end within the
act timeout too, though its status line and headers are bounded only per
read.
Replies that are late, malformed, mis-shaped or too long fail that trial
with an error annotation; the campaign itself keeps going, and the external
policy is respawned before the next episode on its worker.

Every policy, builtin or wire client, offers ``reset(goal)``, which takes
the scene's ``TaskGoal``, and ``act(obs)``, and one episode loop drives them
all. ``act`` returns a ``sim`` action, the plain pair ``((dx, dy, dz),
gripper)``. The oracle and the wire clients build theirs with
``make_action``, which clamps each delta to the step limit; ``RandomPolicy``
draws its deltas within the limit and writes the pair itself. The loop
carries the world as three plain values (objects tuple, gripper position,
attachment) and builds an observation only at the start and after a step
that moved an object; otherwise the last one is passed on. An observation
carries the world's own objects tuple, which the oracle reads and a wire
client never sends. ``run_campaign`` builds each scene's start objects once,
and the scene's trials share them (objects tuples are immutable).

Trials become jobs. The four builtins are two behaviours: ``OraclePolicy``
(scripted mechanics aimed at one object) and ``RandomPolicy`` (noise from
one seed). ``builtin_episode(name, trial, meta)`` maps a builtin name, a
trial and its scene's metadata to the class and argument it plays; the
episode is deterministic in the scene and that pair, so the pair is also the
job key and cannot disagree with what is played. Trials of one scene with
equal pairs form one job, so the oracle plays each scene once however many
instructions the scene has. Wire trials never share: an external policy
reads the instruction, the factor a campaign varies, so each wire trial is
its own job. A job is played by its first trial in manifest order, and every
trial of the job gets that outcome with its own instruction, kind and seed.

``run_campaign`` starts up to ``parallelism`` worker threads. Each takes
the next job from a shared iterator, so no two workers play the same
episode, and results are assembled in manifest order after every worker has
ended. A worker owns at most one wire client, which it closes after a
failed job and when it exits. An exception raised by a job empties the
iterator, so no worker takes another job, and the first such exception is
raised again once the workers have ended. Each builtin job builds its
policy fresh from its key, so results are identical regardless of the
parallelism level. ``subprocess`` is imported when the first
``subprocess:`` client starts.
"""

from __future__ import annotations

import base64
import math
import os
import random
import select
import shlex
import threading
import time
from dataclasses import dataclass
from enum import Enum

from .campaign import (
    CampaignManifest,
    EnvVariant,
    InstructionKind,
    SceneMeta,
    SourceMix,
    Trial,
)
from .catalog import Catalog
from .errors import MalformedResponse, PolicyProtocolError, PolicyTimeout, UsageError
from .jsonio import dumps, loads, parse_json
from .providers import HttpTransport
from .scene import EnvSetupOp
from .sim import (
    ACTION_DELTA_LIMIT,
    DEFAULT_MAX_STEPS,
    GRIPPER_HOME,
    PICK_HEIGHT,
    Action,
    GripperCommand,
    Observation,
    Task,
    TaskGoal,
    WorldObject,
    check_success,
    init_world,
    make_action,
    observe,
    step,
)

BUILTIN_POLICIES = ("oracle", "random", "random_target", "instruction_brittle")

DEFAULT_ACT_TIMEOUT_S = 10.0
MAX_REPLY_BYTES = 65536  # an act reply is under 100 bytes

_CARRY_MARGIN = 0.02
_DROP_CLEARANCE = 0.05
_NEAR_OFFSET = 0.06
_MIN_CARRY_Z = 0.15


class PolicyKind(str, Enum):
    BUILTIN = "builtin"
    SUBPROCESS = "subprocess"
    HTTP = "http"


@dataclass(frozen=True)
class PolicyEndpoint:
    policy_kind: PolicyKind
    address: str | tuple[str, ...]  # a builtin's name, a URL or a command's argv
    policy_id: str


def parse_policy_endpoint(text: str) -> PolicyEndpoint:
    if ":" not in text:
        raise UsageError(
            f"policy endpoint must look like kind:address, got {text!r}"
        )
    kind_raw, address = text.split(":", 1)
    try:
        kind = PolicyKind(kind_raw)
    except ValueError:
        raise UsageError(
            f"unknown policy kind {kind_raw!r}; expected one of "
            f"{[k.value for k in PolicyKind]}"
        ) from None
    if not address:
        raise UsageError("policy endpoint address is empty")
    if kind is PolicyKind.BUILTIN:
        if address not in BUILTIN_POLICIES:
            raise UsageError(
                f"unknown builtin policy {address!r}; expected one of "
                f"{list(BUILTIN_POLICIES)}"
            )
        return PolicyEndpoint(policy_kind=kind, address=address, policy_id=address)
    if kind is PolicyKind.SUBPROCESS:
        try:
            address = tuple(shlex.split(address))
        except ValueError as exc:  # an unclosed quote or a trailing escape
            raise UsageError(f"bad policy command {address!r}: {exc}") from None
        if not address:
            raise UsageError("policy command is empty")
    return PolicyEndpoint(policy_kind=kind, address=address, policy_id=text)


@dataclass(frozen=True)
class EpisodeResult:
    scene_index: int
    instruction: str
    instruction_kind: InstructionKind
    success: bool
    steps_used: int
    object_count: int
    source_mix: SourceMix
    env_variant: EnvVariant
    policy_id: str
    trial_seed: int
    error: str | None = None


def load_results(path) -> list[EpisodeResult]:
    """Read a results file, one EpisodeResult per nonblank line.

    The file is read as an array of lines, each decoded on its own, so a bad
    line ``i`` (counted from 0) is reported at the JSON path ``$[i]``.
    """
    with open(path, "rb") as fh:
        lines = enumerate(fh.read().splitlines())
    return [loads(EpisodeResult, line, f"$[{i}]") for i, line in lines if line.strip()]


# ---- builtin policies -----------------------------------------------------


class OraclePolicy:
    """Scripted pick-and-place aimed at object ``target``, from the object
    poses and heights each observation carries.

    Tracks its own commanded gripper position from the home pose; every
    point it steers to is interior to the workspace, so dead reckoning
    matches the simulator exactly.
    """

    def __init__(self, target: int) -> None:
        self.target = target

    def reset(self, goal: TaskGoal) -> None:
        self.goal = goal
        self.pos = GRIPPER_HOME
        self.stage = "approach"

    def _step_toward(
        self, point: tuple[float, float, float]
    ) -> tuple[tuple[float, float, float], bool]:
        lim = ACTION_DELTA_LIMIT
        dx = max(-lim, min(lim, point[0] - self.pos[0]))
        dy = max(-lim, min(lim, point[1] - self.pos[1]))
        dz = max(-lim, min(lim, point[2] - self.pos[2]))
        arrived = (
            abs(point[0] - self.pos[0]) <= lim
            and abs(point[1] - self.pos[1]) <= lim
            and abs(point[2] - self.pos[2]) <= lim
        )
        self.pos = (self.pos[0] + dx, self.pos[1] + dy, self.pos[2] + dz)
        return (dx, dy, dz), arrived

    def _carry_point(self, objects) -> tuple[float, float, float]:
        goal = self.goal
        half_a = objects[self.target].height_m / 2.0
        if goal.task is Task.PICK_UP:
            return (self.pos[0], self.pos[1], PICK_HEIGHT + half_a + _CARRY_MARGIN)
        b = objects[goal.target_b_index]
        bx, by = b.pose.position_m[0], b.pose.position_m[1]
        if goal.task is Task.MOVE_NEAR:
            norm = math.sqrt(bx * bx + by * by)
            if norm > 1e-9:
                x = bx * (1.0 - _NEAR_OFFSET / norm)
                y = by * (1.0 - _NEAR_OFFSET / norm)
            else:
                x, y = _NEAR_OFFSET, 0.0
            return (x, y, max(half_a + _CARRY_MARGIN, _MIN_CARRY_Z))
        return (bx, by, b.top + half_a + _DROP_CLEARANCE)

    def act(self, obs: Observation) -> Action:
        objects = obs.objects
        if self.stage == "approach":
            delta, arrived = self._step_toward(objects[self.target].pose.position_m)
            if arrived:
                self.stage = "carry"
                return make_action(*delta, GripperCommand.CLOSE)
            return make_action(*delta, GripperCommand.HOLD)
        if self.stage == "carry":
            delta, arrived = self._step_toward(self._carry_point(objects))
            if arrived:
                self.stage = "done"
                if self.goal.task is Task.PICK_UP:
                    return make_action(*delta, GripperCommand.HOLD)
                return make_action(*delta, GripperCommand.OPEN)
            return make_action(*delta, GripperCommand.HOLD)
        return make_action(0.0, 0.0, 0.0, GripperCommand.HOLD)


_GRIPPER_CHOICES = (GripperCommand.OPEN, GripperCommand.CLOSE, GripperCommand.HOLD)


class RandomPolicy:
    """Uniform action noise drawn from ``seed``: each action is three
    deltas, then a gripper command."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def reset(self, goal: TaskGoal) -> None:
        self._rng = random.Random(self.seed)

    def act(self, obs: Observation) -> Action:
        # ``rng.uniform(-lim, lim)`` written out as its documented formula,
        # and ``rng.choice`` of three as the draw it makes: the same
        # operations, so the same draws, without a call each.
        rng, lim = self._rng, ACTION_DELTA_LIMIT
        span, draw = 2 * lim, rng.random
        delta = (-lim + span * draw(), -lim + span * draw(), -lim + span * draw())
        r = rng.getrandbits(2)
        while r == 3:
            r = rng.getrandbits(2)
        return delta, _GRIPPER_CHOICES[r]


def builtin_episode(name: str, trial: Trial, meta: SceneMeta) -> tuple[type, int]:
    """What builtin policy ``name`` plays on ``trial`` of the scene described
    by ``meta``: a class and the one argument it is built with.

    Beyond the scene, an episode reads only that pair, so the pair is also
    the episode's job key.
    """
    seed = trial.trial_seed
    if name == "random":
        return RandomPolicy, seed
    if name == "random_target":
        return OraclePolicy, random.Random(seed).randrange(meta.object_count)
    paraphrased = trial.instruction_kind is InstructionKind.PARAPHRASED
    if name == "instruction_brittle" and paraphrased:
        return RandomPolicy, seed
    return OraclePolicy, meta.target_a_index


# ---- wire clients ---------------------------------------------------------


_RESET = '{"type":"reset"}'  # dumps({"type": "reset"})


class _ObserveEncoder:
    """Writes observe messages as ``dumps(payload)`` would, byte for byte;
    with no float in the payload, that is also what ``json.dumps(payload,
    sort_keys=True, separators=(",", ":"))`` writes.

    The step number counts the messages encoded since the last ``reset``,
    from 0. Everything before it depends only on the instruction and the
    raster, so that prefix is kept for the last (instruction, raster object)
    pair and reused while the episode loop passes the same raster. Each wire
    client owns one encoder.
    """

    def __init__(self) -> None:
        self._instruction: str | None = None
        self._raster = None
        self._prefix = ""
        self._step = 0

    def reset(self) -> None:
        self._step = 0

    def encode(self, obs: Observation) -> str:
        raster = obs.raster
        if raster is not self._raster or obs.instruction != self._instruction:
            data = base64.b64encode(raster or b"").decode("ascii")
            self._prefix = (
                '{"instruction":' + dumps(obs.instruction)
                + ',"raster_base64":"' + data
                + '","step":'
            )
            self._instruction, self._raster = obs.instruction, raster
        step = self._step
        self._step = step + 1
        return f'{self._prefix}{step},"type":"observe"}}'


def _decode_act(line: str) -> Action:
    """The action in one reply line; anything off-protocol is an error.

    ``NaN``, ``Infinity`` and a leading byte-order mark are not JSON, and a
    number too large for a float is not a finite delta, so all fail the reply.
    """
    try:
        raw = parse_json(line)
    except ValueError as exc:
        raise PolicyProtocolError(f"policy sent non-JSON line: {line[:80]!r}") from exc
    if not isinstance(raw, dict):
        raise PolicyProtocolError("policy reply is not a JSON object")
    if set(raw.keys()) != {"type", "delta_position", "gripper"}:
        raise PolicyProtocolError(
            f"policy reply has wrong fields: {sorted(raw.keys())}"
        )
    if raw["type"] != "act":
        raise PolicyProtocolError(f"policy reply type is {raw['type']!r}, not 'act'")
    delta = raw["delta_position"]
    if (
        not isinstance(delta, list)
        or len(delta) != 3
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in delta)
    ):
        raise PolicyProtocolError("delta_position must be a list of 3 numbers")
    try:
        dx, dy, dz = (float(v) for v in delta)
    except OverflowError:  # an integer beyond the float range
        dx = dy = dz = math.inf
    if not all(map(math.isfinite, (dx, dy, dz))):
        raise PolicyProtocolError("delta_position must be finite")
    try:
        gripper = GripperCommand(raw["gripper"])
    except (ValueError, TypeError):
        raise PolicyProtocolError(
            f"gripper must be OPEN, CLOSE, or HOLD, got {raw['gripper']!r}"
        ) from None
    return make_action(dx, dy, dz, gripper)


class SubprocessPolicyClient:
    """One external policy process speaking NDJSON over stdio.

    Replies are read on the calling thread: ``select`` waits on the child's
    stdout until the act deadline and ``os.read`` takes whatever has
    arrived, so a reply may come in any number of pieces. Bytes that are not
    UTF-8 are replaced, as ``HttpPolicyClient`` decodes its replies, so such
    a reply fails as a protocol error. This needs POSIX pipes.
    """

    def __init__(self, argv: tuple[str, ...], act_timeout_s: float) -> None:
        import subprocess

        self.act_timeout_s = act_timeout_s
        self._proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        self._stdout_fd = self._proc.stdout.fileno()
        self._pending = b""
        self._encoder = _ObserveEncoder()

    def _send(self, text: str) -> None:
        try:
            self._proc.stdin.write(text.encode("utf-8") + b"\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise PolicyProtocolError("policy process closed its stdin") from exc

    def _read_line(self) -> str:
        """The next reply line, with its newline, read before the deadline."""
        deadline = time.monotonic() + self.act_timeout_s
        while True:
            line, newline, rest = self._pending.partition(b"\n")
            if len(line) > MAX_REPLY_BYTES:
                raise PolicyProtocolError(
                    f"policy reply is longer than {MAX_REPLY_BYTES} bytes"
                )
            if newline:
                self._pending = rest
                return (line + newline).decode("utf-8", errors="replace")
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select(
                [self._stdout_fd], [], [], remaining
            )[0]:
                raise PolicyTimeout(
                    f"policy did not reply within {self.act_timeout_s}s"
                )
            chunk = os.read(self._stdout_fd, 65536)
            if not chunk:
                raise PolicyProtocolError("policy process closed its stdout")
            self._pending += chunk

    def reset(self, goal: TaskGoal) -> None:
        self._encoder.reset()
        self._send(_RESET)

    def act(self, obs: Observation) -> Action:
        self._send(self._encoder.encode(obs))
        return _decode_act(self._read_line())

    def close(self) -> None:
        import subprocess

        proc = self._proc
        try:
            proc.stdin.close()
        except OSError:
            pass
        try:
            proc.terminate()
            proc.wait(timeout=2)
        except (OSError, subprocess.TimeoutExpired):
            try:
                proc.kill()
            except OSError:
                pass
        proc.stdout.close()


class HttpPolicyClient:
    """A policy behind an HTTP endpoint: each message is one POST.

    A reply that is not 2xx fails the trial as a protocol error; redirects
    are not followed.
    """

    def __init__(self, url: str, act_timeout_s: float) -> None:
        self.url = url
        self.act_timeout_s = act_timeout_s
        self._transport = HttpTransport(url, act_timeout_s, MAX_REPLY_BYTES)
        self._encoder = _ObserveEncoder()

    def _post(self, body: bytes, timeout_message: str) -> bytes:
        try:
            status, data = self._transport.post(body)
        except TimeoutError:
            raise PolicyTimeout(timeout_message) from None
        except MalformedResponse:
            raise PolicyProtocolError(
                f"policy reply is longer than {MAX_REPLY_BYTES} bytes"
            ) from None
        except OSError as exc:
            raise PolicyProtocolError(f"cannot reach policy at {self.url}") from exc
        if not 200 <= status < 300:
            raise PolicyProtocolError(f"policy replied HTTP {status}")
        return data

    def reset(self, goal: TaskGoal) -> None:
        self._encoder.reset()
        self._post(_RESET.encode("ascii"), "policy reset timed out")

    def act(self, obs: Observation) -> Action:
        data = self._post(
            self._encoder.encode(obs).encode("utf-8"),
            f"policy did not reply within {self.act_timeout_s}s",
        )
        return _decode_act(data.decode("utf-8", errors="replace"))

    def close(self) -> None:
        self._transport.close()


# ---- episode and campaign execution ---------------------------------------


def run_episode(
    start: tuple[WorldObject, ...], env: EnvSetupOp, policy, instruction: str,
    goal: TaskGoal, max_steps: int, render: bool,
) -> tuple[bool, int, str | None]:
    """Play one episode of ``instruction`` from the objects ``start``, with
    the gripper at home holding nothing, in a scene set up as ``env``.

    A policy timeout or protocol error fails only this episode.

    Work is redone only when the world has changed. A new observation, with
    its raster, is built only at the start and after ``step`` returned a new
    objects tuple; otherwise the last one, whose ``objects`` is that same
    tuple, is passed on. Success is rechecked only when the objects or the
    attachment changed, the only inputs ``check_success`` reads. ``step``,
    ``observe`` and ``check_success`` are looked up on each call, so a
    wrapper set on this module sees every call; ``policy.act`` is looked up
    once, after ``reset``.
    """
    objects, position, attached, steps = start, GRIPPER_HOME, None, 0
    try:
        policy.reset(goal)
        if check_success(objects, attached, goal):
            return True, 0, None
        obs = observe(objects, env, instruction, render=render)
        act = policy.act
        while steps < max_steps:
            if objects is not obs.objects:
                obs = observe(objects, env, instruction, render=render)
            objects, position, held = step(objects, position, attached, act(obs))
            steps += 1
            if objects is not obs.objects or held != attached:
                attached = held
                if check_success(objects, attached, goal):
                    return True, steps, None
        return False, steps, None
    except (PolicyTimeout, PolicyProtocolError) as exc:
        return False, steps, f"{type(exc).__name__}: {exc}"


def run_campaign(
    manifest: CampaignManifest,
    catalog: Catalog,
    endpoint: PolicyEndpoint,
    *,
    parallelism: int = 1,
    max_steps: int = DEFAULT_MAX_STEPS,
    act_timeout_s: float = DEFAULT_ACT_TIMEOUT_S,
) -> list[EpisodeResult]:
    """Execute every trial in the manifest, in manifest order.

    Each scene's start world is built once, before any trial runs, and every
    trial of the scene starts from it. A builtin trial's job key is its scene
    index and ``builtin_episode(name, trial, meta)``; trials with equal keys
    form one job, played once by the first of them in manifest order with the
    policy ``cls(arg)`` that the key names. Every wire trial is its own job.
    """
    if parallelism < 1:
        raise UsageError(f"parallelism must be >= 1, got {parallelism}")
    if max_steps < 1:
        raise UsageError(f"max_steps must be >= 1, got {max_steps}")
    if not 0.0 < act_timeout_s <= threading.TIMEOUT_MAX:
        raise UsageError(
            f"act_timeout_s must be in (0, {threading.TIMEOUT_MAX}] seconds, "
            f"got {act_timeout_s}"
        )
    manifest.validate(catalog)
    task = manifest.spec.task
    trials = manifest.trials
    metas = manifest.scene_meta
    starts = [init_world(scene, catalog) for scene in manifest.scenes]
    goals = [
        TaskGoal(task, meta.target_a_index, meta.target_b_index) for meta in metas
    ]
    render = endpoint.policy_kind is not PolicyKind.BUILTIN
    if endpoint.policy_kind is PolicyKind.BUILTIN:
        keys = [
            (t.scene_index, builtin_episode(endpoint.address, t, metas[t.scene_index]))
            for t in trials
        ]
    else:
        keys = range(len(trials))  # an external policy reads the instruction
    player: dict = {}  # job key -> index of the trial that plays it
    for j, key in enumerate(keys):
        player.setdefault(key, j)
    outcomes: list[tuple[bool, int, str | None] | None] = [None] * len(trials)
    jobs = iter(player.values())
    lock = threading.Lock()
    errors: list[BaseException] = []

    def stop() -> None:
        nonlocal jobs
        with lock:
            jobs = iter(())  # no more jobs after a failure or an interrupt

    def play() -> None:
        client = None
        try:
            while True:
                with lock:
                    j = next(jobs, None)
                if j is None:
                    return
                if endpoint.policy_kind is PolicyKind.BUILTIN:
                    policy_class, arg = keys[j][1]
                    policy = policy_class(arg)
                else:
                    if client is None:
                        client_class = (
                            SubprocessPolicyClient
                            if endpoint.policy_kind is PolicyKind.SUBPROCESS
                            else HttpPolicyClient
                        )
                        client = client_class(endpoint.address, act_timeout_s)
                    policy = client
                trial = trials[j]
                s = trial.scene_index
                outcome = outcomes[j] = run_episode(
                    starts[s], manifest.scenes[s].env, policy,
                    trial.instruction_text, goals[s], max_steps, render,
                )
                if client is not None and outcome[2] is not None:
                    client.close()
                    client = None
        finally:
            if client is not None:
                client.close()

    def worker() -> None:
        try:
            play()
        except BaseException as exc:
            errors.append(exc)
            stop()

    threads = [
        threading.Thread(target=worker) for _ in range(min(parallelism, len(player)))
    ]
    for thread in threads:
        thread.start()
    try:
        for thread in threads:
            thread.join()
    finally:
        stop()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    results = []
    for trial, key in zip(trials, keys):
        meta = metas[trial.scene_index]
        success, steps, error = outcomes[player[key]]
        results.append(EpisodeResult(
            scene_index=trial.scene_index,
            instruction=trial.instruction_text,
            instruction_kind=trial.instruction_kind,
            success=success,
            steps_used=steps,
            object_count=meta.object_count,
            source_mix=meta.source_mix,
            env_variant=meta.env_variant,
            policy_id=endpoint.policy_id,
            trial_seed=trial.trial_seed,
            error=error,
        ))
    return results
