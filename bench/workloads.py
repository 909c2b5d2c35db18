"""The benchmark's workloads: which campaign specs each one plans, runs and
reports, and how each of its rounds drives ``benchtop.cli.main``.

A round is one plan -> run -> report pass over every spec of a workload. One
operation is one CLI command on one spec. A spec whose plan fails is neither
run nor reported, so every round attempts the same operations.

Seeds. ``grid-oracle`` always plans at master seed 0 and ignores ``--seed``:
its put_in specs are the known planner fault (PlacementExhausted at scene 8
and, with unseen objects, scene 38), and at most other master seeds another
subset of the 24 specs fails, which would make the failed share differ
between seeds. The other workloads plan at master seed
``--seed`` with one or two objects per scene. Two footprints leave room on
the table, and no plan failed over master seeds 0-299 of 100 scenes each
for pick_up, move_near and put_on.

The wire workload plans one instruction per scene (``--k 1``), so every
seed gives the same six trials, three for each of its two policy clients.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import sys
import time
from dataclasses import dataclass

MAX_STEPS = 200
WIRE_DELAY_MS = 1.0
CHAT_LATENCY_S = 0.002
SEEDED_OBJECT_RANGE = ("--object-count-range", "1", "2")


@dataclass(frozen=True)
class Spec:
    """One campaign spec: its plan arguments and the policies run on it."""

    name: str
    plan_args: tuple[str, ...]
    policies: tuple[str, ...]
    parallelism: int
    group_by: str


@dataclass(frozen=True)
class Workload:
    name: str
    specs: tuple[Spec, ...]
    uses_chat_stub: bool = False


def _grid(scale: float) -> tuple[Spec, ...]:
    n = str(max(1, round(100 * scale)))
    specs = []
    for task in ("pick_up", "move_near", "put_on", "put_in"):
        for variant, flags in (
            ("default", ()),
            ("lighting", ("--lighting-mutation",)),
            ("camera", ("--camera-mutation",)),
        ):
            for source, src_flags in (("all", ()), ("unseen", ("--source", "unseen"))):
                specs.append(
                    Spec(
                        name=f"{task}-{variant}-{source}",
                        plan_args=("--task", task, "--n", n, "--k", "5",
                                   "--seed", "0", *flags, *src_flags),
                        policies=("builtin:oracle",),
                        parallelism=1,
                        group_by="object_count",
                    )
                )
    return tuple(specs)


def _seeded(task: str, n: int, k: int, seed: int) -> tuple[str, ...]:
    return ("--task", task, "--n", str(n), "--k", str(k), "--seed", str(seed),
            *SEEDED_OBJECT_RANGE)


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    """The workload ``name`` for benchmark seed ``seed``.

    ``scale`` shrinks the scene counts for the self-test; the benchmark
    itself always runs at scale 1.
    """
    def n(full: int) -> int:
        return max(1, round(full * scale))

    if name == "grid-oracle":
        return Workload(name, _grid(scale))
    if name == "campaign-builtin":
        policies = ("builtin:random", "builtin:random_target",
                    "builtin:instruction_brittle")
        return Workload(name, tuple(
            Spec(task, _seeded(task, n(15), 5, seed), policies, 1, "instruction_kind")
            for task in ("pick_up", "move_near", "put_on")
        ))
    if name == "campaign-wire":
        stub = os.path.join("bench", "policy_stub.py")
        policy = f"subprocess:{shlex.quote(sys.executable)} {stub} {WIRE_DELAY_MS:g}"
        return Workload(name, (
            Spec("put_on", _seeded("put_on", n(6), 1, seed), (policy,), 2,
                 "object_count"),
        ))
    if name == "plan-provider":
        return Workload(name, tuple(
            Spec(task, _seeded(task, n(25), 5, seed), ("builtin:oracle",), 1,
                 "source_mix")
            for task in ("pick_up", "put_on")
        ), uses_chat_stub=True)
    raise KeyError(name)


WORKLOADS = ("grid-oracle", "campaign-builtin", "campaign-wire", "plan-provider")


@dataclass
class Op:
    """One CLI command as run in a round."""

    spec: str
    command: str
    argv: list
    exit_code: int = 0
    stderr: str = ""
    seconds: float = 0.0
    cpu_s: float = 0.0
    output: str = ""


@dataclass
class Round:
    ops: list
    seconds: float
    trials: int
    probes: list

    @property
    def cpu_s(self) -> float:
        return sum(op.cpu_s for op in self.ops)

    @property
    def failed(self) -> list:
        return [op for op in self.ops if op.exit_code != 0]


def _call(main, op: Op) -> None:
    err = io.StringIO()
    c0, t0 = time.process_time(), time.perf_counter()
    with contextlib.redirect_stderr(err):
        op.exit_code = main(op.argv)
    op.seconds = time.perf_counter() - t0
    op.cpu_s = time.process_time() - c0
    op.stderr = err.getvalue()


def run_round(main, workload: Workload, workdir: str, provider_url=None,
              on_op=None, probe=None) -> Round:
    """Plan, run and report every spec of ``workload`` once, in ``workdir``.

    ``provider_url`` is the chat endpoint of a ``uses_chat_stub`` workload.
    ``on_op`` wraps each command (the traced run uses it to open a span).
    ``probe``, if given, is timed before the first command and after each
    one, outside their timing, and its results kept in ``Round.probes``.
    """
    ops = []
    probes = [] if probe is None else [probe()]

    def call(op):
        _traced_call(main, op, on_op)
        if probe is not None:
            probes.append(probe())

    for spec in workload.specs:
        manifest = os.path.join(workdir, f"{spec.name}.manifest.json")
        plan_argv = ["plan", *spec.plan_args, "--out", manifest]
        if workload.uses_chat_stub:
            plan_argv += ["--provider-url", provider_url]
        plan = Op(spec.name, "plan", plan_argv, output=manifest)
        ops.append(plan)
        call(plan)
        if plan.exit_code != 0:
            continue
        for i, policy in enumerate(spec.policies):
            results = os.path.join(workdir, f"{spec.name}.{i}.results.jsonl")
            report = os.path.join(workdir, f"{spec.name}.{i}.report.csv")
            run = Op(spec.name, "run", [
                "run", "--manifest", manifest, "--policy", policy,
                "--parallelism", str(spec.parallelism),
                "--max-steps", str(MAX_STEPS), "--out", results,
            ], output=results)
            ops.append(run)
            call(run)
            rep = Op(spec.name, "report", [
                "report", "--results", results, "--group-by", spec.group_by,
                "--out", report,
            ], output=report)
            ops.append(rep)
            call(rep)
    seconds = sum(op.seconds for op in ops)
    trials = 0
    for op in ops:
        if op.command == "run" and op.exit_code == 0:
            with open(op.output, "rb") as fh:
                trials += fh.read().count(b"\n")
    return Round(ops=ops, seconds=seconds, trials=trials, probes=probes)


def _traced_call(main, op: Op, on_op) -> None:
    if on_op is None:
        _call(main, op)
    else:
        with on_op(op):
            _call(main, op)


def error_code(op: Op) -> str | None:
    """The ``code`` of the JSON error line a failed command printed."""
    for line in op.stderr.splitlines():
        try:
            return json.loads(line)["code"]
        except (ValueError, KeyError, TypeError):
            continue
    return None
