"""Output checks for the benchmark's workloads.

Each check recomputes what it needs from the files a round wrote and from
the catalog's JSON, not from the program's own functions, and none compares
against a stored copy of earlier output. The one exception is the manifest
round trip, which is a property of the program's codec: a manifest read
back by ``benchtop`` and written again must be byte-identical.

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import Counter, defaultdict

from workloads import error_code

TABLE_HALF_X = 0.3
TABLE_HALF_Y = 0.2
MARGIN = 0.01
TOL = 1e-6
PLACEMENT_MESSAGE = "no collision-free pose"

BASIC_TEMPLATES = {
    "pick_up": ("pick up the ", None),
    "move_near": ("move the ", " near the "),
    "put_on": ("put the ", " on the "),
    "put_in": ("put the ", " inside the "),
}


def load_catalog(root: str) -> dict:
    path = os.path.join(root, "src", "benchtop", "data", "default_catalog.json")
    with open(path, encoding="utf-8") as fh:
        return {m["id"]: m for m in json.load(fh)["models"]}


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_results(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def footprint(model: dict, pose: dict) -> tuple[float, float, float, float]:
    """XY bounding box of a placed model: (x0, x1, y0, y1)."""
    dx, dy, _ = model["dimensions_m"]
    yaw = pose["yaw_rad"]
    if model["shape"] == "box":
        c, s = abs(math.cos(yaw)), abs(math.sin(yaw))
        hx, hy = (dx * c + dy * s) / 2.0, (dx * s + dy * c) / 2.0
    else:
        hx, hy = dx / 2.0, dy / 2.0
    x, y, _ = pose["position_m"]
    return (x - hx, x + hx, y - hy, y + hy)


def check_placement(manifest: dict, catalog: dict) -> list:
    """Objects rest on the table, inside it, at least 1 cm apart."""
    problems = []
    for i, scene in enumerate(manifest["scenes"]):
        boxes = []
        for j, add in enumerate(scene["adds"]):
            model = catalog[add["model_id"]]
            z = add["pose"]["position_m"][2]
            if abs(z - model["dimensions_m"][2] / 2.0) > TOL:
                problems.append(f"scene {i} object {j}: z {z} is not half its height")
            box = footprint(model, add["pose"])
            if (box[0] < -TABLE_HALF_X - TOL or box[1] > TABLE_HALF_X + TOL
                    or box[2] < -TABLE_HALF_Y - TOL or box[3] > TABLE_HALF_Y + TOL):
                problems.append(f"scene {i} object {j}: footprint leaves the table")
            for k, other in enumerate(boxes):
                gap = max(other[0] - box[1], box[0] - other[1],
                          other[2] - box[3], box[2] - other[3])
                if gap < MARGIN - TOL:
                    problems.append(
                        f"scene {i}: objects {k} and {j} are {gap:.4f} m apart")
            boxes.append(box)
    return problems


def check_trials_per_scene(manifest: dict) -> list:
    """Each scene has one trial more than it has valid paraphrases."""
    per_scene = Counter(t["scene_index"] for t in manifest["trials"])
    problems = []
    for i, iset in enumerate(manifest["instruction_sets"]):
        valid = sum(1 for c in iset["candidates"] if c["valid"])
        if per_scene[i] != valid + 1:
            problems.append(
                f"scene {i}: {per_scene[i]} trials for {valid} valid paraphrases")
    if len(manifest["instruction_sets"]) != len(manifest["scenes"]):
        problems.append("not one instruction set per scene")
    return problems


def check_results_match_manifest(manifest: dict, results: list) -> list:
    """One result per manifest trial, in manifest order, same seed and text."""
    trials = manifest["trials"]
    if len(results) != len(trials):
        return [f"{len(results)} results for {len(trials)} trials"]
    problems = []
    for j, (trial, result) in enumerate(zip(trials, results)):
        if (result["trial_seed"] != trial["trial_seed"]
                or result["instruction"] != trial["instruction_text"]
                or result["scene_index"] != trial["scene_index"]):
            problems.append(f"result {j} does not match manifest trial {j}")
    return problems


def check_steps(results: list, max_steps: int) -> list:
    """No errors; every unsuccessful trial used exactly ``max_steps``."""
    problems = []
    for j, r in enumerate(results):
        if r["error"] is not None:
            problems.append(f"result {j} has error {r['error']!r}")
        if not r["success"] and r["steps_used"] != max_steps:
            problems.append(f"result {j} failed after {r['steps_used']} steps")
        if not 0 <= r["steps_used"] <= max_steps:
            problems.append(f"result {j} used {r['steps_used']} steps")
    return problems


def check_all_succeed(results: list, what: str) -> list:
    bad = [j for j, r in enumerate(results) if not r["success"]]
    return [f"{what}: results {bad[:5]} did not succeed"] if bad else []


def check_none_succeed(results: list) -> list:
    bad = [j for j, r in enumerate(results) if r["success"]]
    return [f"results {bad[:5]} succeeded without a grasp"] if bad else []


def check_brittle(results: list) -> list:
    """instruction_brittle solves every trial given the basic instruction."""
    basic = [r for r in results if r["instruction_kind"] == "basic"]
    return check_all_succeed(basic, "instruction_brittle on basic instructions")


def _level(result: dict, group_by: str) -> str:
    return str(result[group_by])


def check_report(report_path: str, results: list, group_by: str) -> list:
    """Report rates equal success counts recomputed from the results."""
    counts = defaultdict(lambda: defaultdict(lambda: [0, 0]))
    for r in results:
        cell = counts[r["policy_id"]][_level(r, group_by)]
        cell[0] += 1 if r["success"] else 0
        cell[1] += 1
    if not os.path.exists(report_path):
        return ["no report was written"]
    with open(report_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return ["report is empty"]
    header, body = rows[0], rows[1:]
    levels = header[1:-1]
    problems = []
    if header[0] != "policy_id" or header[-1] != "avg":
        problems.append(f"report header is {header}")
    if sorted(r[0] for r in body) != sorted(counts):
        problems.append("report policies differ from the results")
    present = {lv for per in counts.values() for lv in per}
    if set(levels) != present:
        problems.append(f"report levels {levels} differ from {sorted(present)}")
    for row in body:
        per = counts.get(row[0], {})
        rates = []
        for level, cell in zip(levels, row[1:-1]):
            if level not in per:
                if cell != "":
                    problems.append(f"{row[0]} {level}: {cell} for no trials")
                continue
            rate = 100.0 * per[level][0] / per[level][1]
            rates.append(rate)
            if not _close(cell, rate):
                problems.append(f"{row[0]} {level}: report {cell}, results {rate:.3f}")
        if rates and not _close(row[-1], sum(rates) / len(rates)):
            problems.append(f"{row[0]} avg: report {row[-1]}")
    return problems


def _close(cell: str, rate: float) -> bool:
    try:
        return abs(float(cell) - rate) <= 0.05 + 1e-9
    except ValueError:
        return False


def named_objects(task: str, basic: str) -> list:
    """The object names a basic instruction mentions, by its template."""
    head, mid = BASIC_TEMPLATES[task]
    if not basic.startswith(head):
        return []
    rest = basic[len(head):]
    if mid is None:
        return [rest]
    a, sep, b = rest.partition(mid)
    return [a, b] if sep else []


def check_llm_scenes(manifest: dict, catalog: dict) -> list:
    """Scenes came from the provider and hold the objects they are about."""
    by_name = {m["display_name"]: m["id"] for m in catalog.values()}
    task = manifest["spec"]["task"]
    problems = []
    for i, (scene, meta) in enumerate(zip(manifest["scenes"], manifest["scene_meta"])):
        if scene["provenance"] != "llm":
            problems.append(f"scene {i} has provenance {scene['provenance']}")
        ids = [add["model_id"] for add in scene["adds"]]
        names = named_objects(task, meta["basic_instruction"])
        if not names:
            problems.append(f"scene {i}: cannot read {meta['basic_instruction']!r}")
        for name in names:
            if by_name.get(name) not in ids:
                problems.append(f"scene {i} lacks {name!r}")
    return problems


def check_manifest_round_trip(path: str) -> list:
    from benchtop.campaign import load_manifest

    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if load_manifest(path).dumps() + "\n" != text:
        return [f"{os.path.basename(path)} changes when read and written again"]
    return []


def check_failed_op(workload, op) -> list:
    """The only failure allowed is a grid-oracle put_in plan stopped by
    PlacementExhausted, the known sampler fault; any other failed command
    is a problem. A put_in plan that succeeds is checked like any other."""
    if (workload.name == "grid-oracle" and op.spec.startswith("put_in-")
            and op.command == "plan" and op.exit_code == 1
            and error_code(op) == "partial_plan_failure"
            and PLACEMENT_MESSAGE in op.stderr):
        return []
    return [f"{op.spec} {op.command} exited {op.exit_code}: {op.stderr.strip()[:200]}"]


def check_round(workload, rnd, catalog: dict, max_steps: int) -> list:
    """Every check of ``workload`` on the outputs of round ``rnd``."""
    problems = []
    manifests = {}
    for op in rnd.ops:
        if op.exit_code != 0:
            problems += check_failed_op(workload, op)
            continue
        if op.command == "plan":
            manifests[op.spec] = (op.output, read_json(op.output))
    specs = {s.name: s for s in workload.specs}
    for op in rnd.ops:
        if op.exit_code != 0 or op.command != "run":
            continue
        path, manifest = manifests[op.spec]
        results = read_results(op.output)
        policy = op.argv[op.argv.index("--policy") + 1]
        report = op.output.replace(".results.jsonl", ".report.csv")
        label = policy if policy.startswith("builtin:") else policy.split(":", 1)[0]
        where = f"{op.spec} {label}: "
        found = check_results_match_manifest(manifest, results)
        found += check_steps(results, max_steps)
        found += check_report(report, results, specs[op.spec].group_by)
        if workload.name == "grid-oracle":
            found += check_placement(manifest, catalog)
            found += check_trials_per_scene(manifest)
            found += check_all_succeed(results, "oracle")
            found += check_manifest_round_trip(path)
        elif workload.name == "campaign-builtin":
            if policy == "builtin:instruction_brittle":
                found += check_brittle(results)
        elif workload.name == "campaign-wire":
            found += check_none_succeed(results)
        elif workload.name == "plan-provider":
            found += check_llm_scenes(manifest, catalog)
            found += check_all_succeed(results, "oracle")
        problems += [where + p for p in found]
    return problems
