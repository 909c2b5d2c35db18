"""Campaign execution: episodes, policies, and the policy wire protocol.

Policies come in three kinds:

- ``builtin:<name>`` runs in-process. Available names: ``oracle`` (solves
  the task from privileged object poses), ``random`` (uniform action
  noise), ``random_target`` (oracle mechanics aimed at a uniformly chosen
  object), and ``instruction_brittle`` (oracle on the exact planned
  instruction, random noise on anything else, e.g. paraphrases).
- ``subprocess:<command>`` talks newline-delimited JSON over the child's
  stdin/stdout. Replies are read on the stepping thread, which waits on the
  pipe with ``select`` until the act deadline, so this kind needs POSIX
  pipes.
- ``http:<url>`` POSTs the same messages to an HTTP endpoint, over the
  kept-alive connections of ``providers.HttpTransport``.

Wire messages are fixed-shape. Each step the runner sends
``{"type": "observe", "instruction": ..., "raster_base64": ..., "step": ...}``
and expects ``{"type": "act", "delta_position": [x, y, z], "gripper":
"OPEN"|"CLOSE"|"HOLD"}`` back, with exactly those fields. ``raster_base64``
is the base64 of the raster's 4,096 bytes, 64 x 64 pixels in row-major
order, and is empty when the observation has no raster. Before each
episode the runner sends ``{"type": "reset"}``; a subprocess sends no reply
to it, and over HTTP it gets a reply like any message, whose status must
be 2xx. Replies that are late, malformed, or mis-shaped fail that trial
with an error annotation; the campaign itself keeps going, and the external
policy is respawned before the next episode on its worker.

Every policy, builtin or wire client, offers ``privileged``, ``reset(ctx)``
and ``act(obs)``, and one episode loop drives them all. ``run_campaign``
builds each scene's start world once, and the scene's trials share it
(world states are immutable).

Trials become jobs. The four builtins are two behaviours: ``OraclePolicy``
(scripted mechanics aimed at one object) and ``RandomPolicy`` (noise from
one seed). ``builtin_episode(name, ctx)`` maps a builtin name and a trial to
the class and argument it plays; the episode is deterministic in the scene
and that pair, so the pair is also the job key and cannot disagree with
what is played. Trials of one scene with equal pairs form one job, so the
oracle plays each scene once however many instructions the scene has. Wire
trials never share: an external policy reads the instruction, the factor a
campaign varies, so each wire trial is its own job. A job is played by its
first trial in manifest order, and every trial of the job gets that outcome
with its own instruction, kind and seed.

``run_campaign`` starts ``parallelism`` workers on a thread pool. Each
takes the next job from a shared iterator, so no two workers play the same
episode, and results are assembled in manifest order afterwards. A worker
owns at most one wire client, which it closes after a failed job and when
it exits. An exception raised by a job stops the workers from taking more
jobs and propagates. Each builtin job builds its policy fresh from its key,
so results are identical regardless of the parallelism level.
"""

from __future__ import annotations

import base64
import http.client
import json
import math
import os
import random
import select
import shlex
import subprocess
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from enum import Enum

from .campaign import CampaignManifest, EnvVariant, InstructionKind, SourceMix
from .catalog import Catalog
from .errors import PolicyProtocolError, PolicyTimeout, UsageError
from .jsonio import loads
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
    WorldState,
    check_success,
    init_world,
    observe,
    step,
)

BUILTIN_POLICIES = ("oracle", "random", "random_target", "instruction_brittle")

DEFAULT_ACT_TIMEOUT_S = 10.0

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
    kind: PolicyKind
    address: str
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
        return PolicyEndpoint(kind=kind, address=address, policy_id=address)
    return PolicyEndpoint(kind=kind, address=address, policy_id=text)


@dataclass(frozen=True)
class ResetContext:
    task: Task
    target_a_index: int
    target_b_index: int | None
    basic_instruction: str
    instruction: str
    trial_seed: int
    object_heights: tuple[float, ...]


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

    The file is read as an array of lines, so a bad line ``i`` (counted from
    0) is reported at the JSON path ``$[i]``.
    """
    with open(path, encoding="utf-8") as fh:
        return [
            loads(EpisodeResult, line, f"$[{i}]")
            for i, line in enumerate(fh)
            if line.strip()
        ]


# ---- builtin policies -----------------------------------------------------


class OraclePolicy:
    """Scripted pick-and-place aimed at object ``target``, from privileged
    object poses.

    Tracks its own commanded gripper position from the home pose; every
    point it steers to is interior to the workspace, so dead reckoning
    matches the simulator exactly.
    """

    privileged = True

    def __init__(self, target: int) -> None:
        self.target = target

    def reset(self, ctx: ResetContext) -> None:
        self.ctx = ctx
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

    def _carry_point(self, snaps) -> tuple[float, float, float]:
        ctx = self.ctx
        half_a = ctx.object_heights[self.target] / 2.0
        if ctx.task is Task.PICK_UP:
            return (self.pos[0], self.pos[1], PICK_HEIGHT + half_a + _CARRY_MARGIN)
        assert ctx.target_b_index is not None
        b = snaps[ctx.target_b_index].pose.position_m
        if ctx.task is Task.MOVE_NEAR:
            bx, by = b[0], b[1]
            norm = math.sqrt(bx * bx + by * by)
            if norm > 1e-9:
                x = bx * (1.0 - _NEAR_OFFSET / norm)
                y = by * (1.0 - _NEAR_OFFSET / norm)
            else:
                x, y = _NEAR_OFFSET, 0.0
            return (x, y, max(half_a + _CARRY_MARGIN, _MIN_CARRY_Z))
        top_b = b[2] + ctx.object_heights[ctx.target_b_index] / 2.0
        return (b[0], b[1], top_b + half_a + _DROP_CLEARANCE)

    def act(self, obs: Observation) -> Action:
        snaps = obs.object_snapshots
        if self.stage == "approach":
            delta, arrived = self._step_toward(snaps[self.target].pose.position_m)
            if arrived:
                self.stage = "carry"
                return Action.make(*delta, GripperCommand.CLOSE)
            return Action.make(*delta, GripperCommand.HOLD)
        if self.stage == "carry":
            delta, arrived = self._step_toward(self._carry_point(snaps))
            if arrived:
                self.stage = "done"
                if self.ctx.task is Task.PICK_UP:
                    return Action.make(*delta, GripperCommand.HOLD)
                return Action.make(*delta, GripperCommand.OPEN)
            return Action.make(*delta, GripperCommand.HOLD)
        return Action.make(0.0, 0.0, 0.0, GripperCommand.HOLD)


_GRIPPER_CHOICES = (GripperCommand.OPEN, GripperCommand.CLOSE, GripperCommand.HOLD)


class RandomPolicy:
    """Uniform action noise drawn from ``seed``: each action is three
    deltas, then a gripper command."""

    privileged = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def reset(self, ctx: ResetContext) -> None:
        self._rng = random.Random(self.seed)

    def act(self, obs: Observation) -> Action:
        rng, lim = self._rng, ACTION_DELTA_LIMIT
        return Action.make(
            rng.uniform(-lim, lim),
            rng.uniform(-lim, lim),
            rng.uniform(-lim, lim),
            rng.choice(_GRIPPER_CHOICES),
        )


def builtin_episode(name: str, ctx: ResetContext) -> tuple[type, int]:
    """What builtin policy ``name`` plays on ``ctx``: a class and the one
    argument it is built with.

    Beyond the scene, an episode reads only that pair, so the pair is also
    the episode's job key.
    """
    if name == "random":
        return RandomPolicy, ctx.trial_seed
    if name == "random_target":
        count = len(ctx.object_heights)
        return OraclePolicy, random.Random(ctx.trial_seed).randrange(count)
    if name == "instruction_brittle" and ctx.instruction != ctx.basic_instruction:
        return RandomPolicy, ctx.trial_seed
    return OraclePolicy, ctx.target_a_index


# ---- wire clients ---------------------------------------------------------


class _ObserveEncoder:
    """Writes observe messages as ``json.dumps(payload, sort_keys=True,
    separators=(",", ":"))`` would, byte for byte.

    Everything before the step number depends only on the instruction and
    the raster, so that prefix is kept for the last (instruction, raster
    object) pair and reused while the episode loop passes the same raster.
    Each wire client owns one encoder.
    """

    def __init__(self) -> None:
        self._instruction: str | None = None
        self._raster = None
        self._prefix = ""

    def encode(self, obs: Observation) -> str:
        raster = obs.raster
        if raster is not self._raster or obs.instruction != self._instruction:
            data = base64.b64encode(raster or b"").decode("ascii")
            self._prefix = (
                '{"instruction":' + json.dumps(obs.instruction)
                + ',"raster_base64":"' + data
                + '","step":'
            )
            self._instruction, self._raster = obs.instruction, raster
        return f'{self._prefix}{obs.step_count},"type":"observe"}}'


def _not_json(constant: str):
    raise ValueError(f"{constant} is not JSON")


# ``json.loads`` with a keyword argument builds a new decoder on every call.
_REPLY_DECODER = json.JSONDecoder(parse_constant=_not_json)


def _decode_act(line: str) -> Action:
    """The action in one reply line; anything off-protocol is an error.

    ``NaN``, ``Infinity`` and a leading byte-order mark are not JSON, and a
    number too large for a float is not a finite delta, so all fail the reply.
    """
    try:
        raw = _REPLY_DECODER.decode(line)
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
    return Action.make(dx, dy, dz, gripper)


class SubprocessPolicyClient:
    """One external policy process speaking NDJSON over stdio.

    Replies are read on the calling thread: ``select`` waits on the child's
    stdout until the act deadline and ``os.read`` takes whatever has
    arrived, so a reply may come in any number of pieces. Bytes that are not
    UTF-8 are replaced, as ``HttpPolicyClient`` decodes its replies, so such
    a reply fails as a protocol error. This needs POSIX pipes.
    """

    privileged = False

    def __init__(self, command: str, act_timeout_s: float) -> None:
        self.act_timeout_s = act_timeout_s
        self._proc = subprocess.Popen(
            shlex.split(command),
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
        while b"\n" not in self._pending:
            remaining = max(0.0, deadline - time.monotonic())
            if not select.select([self._stdout_fd], [], [], remaining)[0]:
                raise PolicyTimeout(
                    f"policy did not reply within {self.act_timeout_s}s"
                )
            chunk = os.read(self._stdout_fd, 65536)
            if not chunk:
                raise PolicyProtocolError("policy process closed its stdout")
            self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        return (line + b"\n").decode("utf-8", errors="replace")

    def reset(self, ctx: ResetContext) -> None:
        self._send('{"type":"reset"}')

    def act(self, obs: Observation) -> Action:
        self._send(self._encoder.encode(obs))
        return _decode_act(self._read_line())

    def close(self) -> None:
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

    privileged = False

    def __init__(self, url: str, act_timeout_s: float) -> None:
        self.url = url
        self.act_timeout_s = act_timeout_s
        self._transport = HttpTransport(url, act_timeout_s)
        self._encoder = _ObserveEncoder()

    def _post(self, body: bytes, timeout_message: str) -> bytes:
        try:
            status, data = self._transport.post(self.url, body)
        except TimeoutError:
            raise PolicyTimeout(timeout_message) from None
        except (OSError, http.client.HTTPException) as exc:
            raise PolicyProtocolError(f"cannot reach policy at {self.url}") from exc
        if not 200 <= status < 300:
            raise PolicyProtocolError(f"policy replied HTTP {status}")
        return data

    def reset(self, ctx: ResetContext) -> None:
        self._post(b'{"type": "reset"}', "policy reset timed out")

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
    start: WorldState, env: EnvSetupOp, policy, ctx: ResetContext,
    goal: TaskGoal, max_steps: int, render: bool,
) -> tuple[bool, int, str | None]:
    """Play one episode from ``start``, in a scene set up as ``env``.

    A policy timeout or protocol error fails only this episode.

    Work is redone only when the world has changed. A new observation
    (snapshots and raster) is built only when ``step`` returned a new
    objects tuple; otherwise the last one is passed on with the current step
    count. Success is rechecked only when the objects or the attachment
    changed, the only inputs ``check_success`` reads.
    """
    state = start
    try:
        policy.reset(ctx)
        if check_success(state, goal):
            return True, 0, None
        seen = obs = None
        checked_objects, checked_attached = state.objects, state.gripper.attached
        while state.step_count < max_steps:
            if state.objects is not seen:
                seen = state.objects
                obs = observe(
                    state, env, ctx.instruction,
                    privileged=policy.privileged, render=render,
                )
            else:
                obs = Observation(
                    obs.instruction, obs.object_snapshots, obs.raster,
                    state.step_count,
                )
            state = step(state, policy.act(obs))
            attached = state.gripper.attached
            if state.objects is not checked_objects or attached != checked_attached:
                checked_objects, checked_attached = state.objects, attached
                if check_success(state, goal):
                    return True, state.step_count, None
        return False, state.step_count, None
    except (PolicyTimeout, PolicyProtocolError) as exc:
        return False, state.step_count, f"{type(exc).__name__}: {exc}"


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
    index and ``builtin_episode(name, ctx)``; trials with equal keys form one
    job, played once by the first of them in manifest order with the policy
    ``cls(arg)`` that the key names. Every wire trial is its own job.
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
    starts = [init_world(scene, catalog) for scene in manifest.scenes]
    heights = [tuple(o.height_m for o in start.objects) for start in starts]
    goals = [
        TaskGoal(task, meta.target_a_index, meta.target_b_index)
        for meta in manifest.scene_meta
    ]
    contexts = []
    for trial in trials:
        meta = manifest.scene_meta[trial.scene_index]
        contexts.append(ResetContext(
            task=task,
            target_a_index=meta.target_a_index,
            target_b_index=meta.target_b_index,
            basic_instruction=meta.basic_instruction,
            instruction=trial.instruction_text,
            trial_seed=trial.trial_seed,
            object_heights=heights[trial.scene_index],
        ))
    render = endpoint.kind is not PolicyKind.BUILTIN
    if endpoint.kind is PolicyKind.BUILTIN:
        keys = [
            (trial.scene_index, builtin_episode(endpoint.address, ctx))
            for trial, ctx in zip(trials, contexts)
        ]
    else:
        keys = range(len(trials))  # an external policy reads the instruction
    player: dict = {}  # job key -> index of the trial that plays it
    for j, key in enumerate(keys):
        player.setdefault(key, j)
    outcomes: list[tuple[bool, int, str | None] | None] = [None] * len(trials)
    jobs = iter(player.values())
    lock = threading.Lock()

    def worker() -> None:
        client = None
        try:
            while True:
                with lock:
                    j = next(jobs, None)
                if j is None:
                    return
                if endpoint.kind is PolicyKind.BUILTIN:
                    policy_class, arg = keys[j][1]
                    policy = policy_class(arg)
                else:
                    if client is None:
                        client_class = (
                            SubprocessPolicyClient
                            if endpoint.kind is PolicyKind.SUBPROCESS
                            else HttpPolicyClient
                        )
                        client = client_class(endpoint.address, act_timeout_s)
                    policy = client
                s = trials[j].scene_index
                outcome = outcomes[j] = run_episode(
                    starts[s], manifest.scenes[s].env, policy, contexts[j],
                    goals[s], max_steps, render,
                )
                if client is not None and outcome[2] is not None:
                    client.close()
                    client = None
        finally:
            if client is not None:
                client.close()

    workers = min(parallelism, len(player))
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        futures = [pool.submit(worker) for _ in range(workers)]
        try:
            for future in as_completed(futures):
                future.result()
        finally:
            with lock:
                jobs = iter(())  # no more jobs after a failure or an interrupt
    results = []
    for trial, key in zip(trials, keys):
        meta = manifest.scene_meta[trial.scene_index]
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
