"""The in-process random and mixed policies, byte for byte.

``golden/builtin.sha256`` holds, for pick_up, move_near and put_on at ``--n
15 --k 5 --object-count-range 1 2`` and master seeds 0 and 1, the sha256 of
the results ``run`` writes for ``builtin:random``, ``builtin:random_target``
and ``builtin:instruction_brittle``, as ``<sha256>  <spec>.<policy>.results.jsonl``.
Random episodes play all 200 steps, and about one in 75 of them grasps an
object, so the file pins long random trajectories through every grasp and
release path that uniform noise reaches.
"""

import hashlib
import itertools
from pathlib import Path

from benchtop.cli import main

HASHES = Path(__file__).parent / "golden" / "builtin.sha256"

TASKS = ("pick_up", "move_near", "put_on")
SEEDS = (0, 1)
POLICIES = ("random", "random_target", "instruction_brittle")


def builtin_hashes(workdir: Path) -> str:
    lines = []
    for task, seed in itertools.product(TASKS, SEEDS):
        name = f"{task}-seed{seed}"
        manifest = workdir / f"{name}.manifest.json"
        plan = ["plan", "--task", task, "--n", "15", "--k", "5", "--seed", str(seed),
                "--object-count-range", "1", "2", "--out", str(manifest)]
        assert main(plan) == 0
        for policy in POLICIES:
            out = workdir / f"{name}.{policy}.results.jsonl"
            run = ["run", "--manifest", str(manifest), "--policy", f"builtin:{policy}"]
            assert main(run + ["--out", str(out)]) == 0
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            lines.append(f"{digest}  {out.name}\n")
    return "".join(lines)


def test_builtin_policies_reproduce_recorded_hashes(tmp_path):
    assert builtin_hashes(tmp_path) == HASHES.read_text(encoding="utf-8")
