#!/usr/bin/env python3
"""Self-test of the benchmark's checks and stubs.

Usage, from the root of a checkout:

    python3 bench/selftest.py

It runs one round of every workload at a tenth of its size and requires its
checks to pass. Then it corrupts copies of those outputs (a flipped
``success``, a dropped result line, a moved object pose, a changed report
cell, a failed plan outside the known put_in fault) and requires the
check meant for each one to reject it. Last, it feeds the policy
stub a malformed message and checks the chat stub's replies.
"""

from __future__ import annotations

import base64
import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import urllib.request

import checks
import run
import workloads
from chat_stub import ChatStub

run.import_program()
from benchtop.jsonio import canonical_dumps  # noqa: E402

SCALE = 0.1


def one_round(name: str, workdir: str):
    workload = workloads.build(name, seed=3, scale=SCALE)
    cli_main = run.import_program()
    if workload.uses_chat_stub:
        with ChatStub(0.0) as stub:
            rnd = workloads.run_round(cli_main, workload, workdir, stub.url)
    else:
        rnd = workloads.run_round(cli_main, workload, workdir)
    return workload, rnd


def copied(rnd, src: str, dst: str):
    """``rnd`` with its outputs copied from ``src`` into ``dst``."""
    shutil.copytree(src, dst)
    clone = copy.deepcopy(rnd)
    for op in clone.ops:
        op.output = op.output.replace(src, dst)
        op.argv = [a.replace(src, dst) for a in op.argv]
    return clone


def first_output(rnd, command: str) -> str:
    return next(op.output for op in rnd.ops if op.command == command and op.exit_code == 0)


def flip_success(rnd) -> None:
    path = first_output(rnd, "run")
    lines = open(path, encoding="utf-8").read().splitlines()
    row = json.loads(lines[0])
    row["success"] = not row["success"]
    lines[0] = canonical_dumps(row)
    open(path, "w", encoding="utf-8").write("\n".join(lines) + "\n")


def drop_result(rnd) -> None:
    path = first_output(rnd, "run")
    lines = open(path, encoding="utf-8").read().splitlines()
    open(path, "w", encoding="utf-8").write("\n".join(lines[1:]) + "\n")


def move_object(rnd) -> None:
    """Move the second object of a scene onto the first one."""
    for op in rnd.ops:
        if op.command != "plan" or op.exit_code != 0:
            continue
        manifest = json.load(open(op.output, encoding="utf-8"))
        for scene in manifest["scenes"]:
            if len(scene["adds"]) >= 2:
                first = scene["adds"][0]["pose"]["position_m"]
                scene["adds"][1]["pose"]["position_m"][:2] = first[:2]
                # canonical form, so that only the placement check can object
                with open(op.output, "w", encoding="utf-8") as fh:
                    fh.write(canonical_dumps(manifest) + "\n")
                return
    raise AssertionError("no scene with two objects to corrupt")


def change_cell(rnd) -> None:
    path = first_output(rnd, "report")
    rows = open(path, encoding="utf-8").read().splitlines()
    cells = rows[1].split(",")
    cells[1] = f"{float(cells[1]) + 12.5:.1f}"
    rows[1] = ",".join(cells)
    open(path, "w", encoding="utf-8").write("\n".join(rows) + "\n")


def fail_plan(rnd) -> None:
    """Make the first plan look stopped by PlacementExhausted."""
    op = next(op for op in rnd.ops if op.command == "plan")
    rnd.ops[:] = [o for o in rnd.ops if o.spec != op.spec or o is op]
    op.exit_code = 1
    op.stderr = canonical_dumps({
        "code": "partial_plan_failure",
        "message": f"PlacementExhausted: {checks.PLACEMENT_MESSAGE} for bowl",
    }) + "\n"


# each corruption, and a phrase that the check meant to catch it reports
CORRUPTIONS = {
    "flipped success": (flip_success, ": report "),
    "dropped result line": (drop_result, " results for "),
    "moved object pose": (move_object, " apart"),
    "changed report cell": (change_cell, ": report "),
    "failed plan outside put_in": (fail_plan, " plan exited 1"),
}


def check_policy_stub() -> list:
    stub = os.path.join(run.BENCH, "policy_stub.py")
    raster = base64.b64encode(bytes(64 * 64)).decode("ascii")
    good = {"type": "observe", "instruction": "x", "raster_base64": raster, "step": 0}
    messages = [
        {"type": "reset"}, good, dict(good, step=1),
        dict(good, step=3),  # skips a step
        {"type": "reset"}, dict(good, debug=1),  # extra field
        {"type": "reset"}, dict(good, raster_base64=raster[:-8]),  # short raster
    ]
    text = "".join(json.dumps(m) + "\n" for m in messages)
    out = subprocess.run([sys.executable, stub, "0"], input=text, text=True,
                         capture_output=True, timeout=30).stdout.splitlines()
    kinds = [json.loads(line)["type"] for line in out]
    expected = ["act", "act", "error", "error", "error"]
    return [] if kinds == expected else [f"policy stub replied {kinds}, not {expected}"]


def check_chat_stub() -> list:
    problems = []
    user = ("Available objects:\n- apple\n- blue plate\n- sponge\n- orange\n\n"
            "Scene description: 3 objects, one is apple\n"
            "Respond with a JSON array of exactly 3 add operations.")
    payload = {"model": "m", "messages": [
        {"role": "system", "content": "You configure tabletop manipulation scenes."},
        {"role": "user", "content": user}]}
    with ChatStub(0.0) as stub:
        replies = []
        for _ in range(2):
            req = urllib.request.Request(
                stub.url + "/v1/chat/completions", data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(req, timeout=10) as resp:
                replies.append(json.load(resp)["choices"][0]["message"]["content"])
        if replies[0] != replies[1]:
            problems.append("chat stub replies differ for the same request")
        names = [op["model_id"] for op in json.loads(replies[0])]
        if len(names) != 3 or names[0] != "apple" or len(set(names)) != 3:
            problems.append(f"chat stub named {names}")
        if stub.requests != 2 or stub.max_in_flight != 1:
            problems.append(f"chat stub counted {stub.requests}, {stub.max_in_flight}")
    return problems


def main() -> int:
    catalog = checks.load_catalog(run.ROOT)
    os.makedirs(run.OUT, exist_ok=True)
    failures = []
    base = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        for name in workloads.WORKLOADS:
            workdir = os.path.join(base, name)
            os.makedirs(workdir)
            workload, rnd = one_round(name, workdir)
            problems = checks.check_round(workload, rnd, catalog, workloads.MAX_STEPS)
            print(f"{name}: {len(rnd.ops)} operations, {rnd.trials} trials, "
                  f"{len(problems)} problems")
            failures += [f"{name}: {p}" for p in problems]
            for label, (corrupt, phrase) in CORRUPTIONS.items():
                if label == "moved object pose" and name != "grid-oracle":
                    continue
                clone = copied(rnd, workdir, os.path.join(base, f"{name}-{label}"))
                corrupt(clone)
                found = checks.check_round(workload, clone, catalog, workloads.MAX_STEPS)
                meant = [p for p in found if phrase in p]
                print(f"  {label}: rejected with {len(found)} problems"
                      + (f", e.g. {meant[0]}" if meant else ""))
                if not meant:
                    failures.append(f"{name}: {label} was not rejected by its check")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    for label, problems in (("policy stub", check_policy_stub()),
                            ("chat stub", check_chat_stub())):
        print(f"{label}: {'ok' if not problems else problems}")
        failures += problems
    for failure in failures:
        print(f"FAILED: {failure}")
    print("selftest passed" if not failures else "selftest failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
