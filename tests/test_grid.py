"""The factor grid, byte for byte, and the oracle solving all of it.

``golden/grid.sha256`` holds, for each of the 24 specs of the factor grid
(4 tasks x {default, lighting, camera} x {all, unseen}) at ``--n 20 --k 5
--seed 1``, the sha256 of the manifest ``plan`` writes and of the results
``run --policy builtin:oracle`` writes, as ``<sha256>  <spec>.<artifact>``.
Every task and every paraphrase template appears, so the file pins scene
synthesis, paraphrase similarities and episodes across the whole grid.
"""

import hashlib
import itertools
import json
from pathlib import Path

from benchtop.cli import main

HASHES = Path(__file__).parent / "golden" / "grid.sha256"

TASKS = ("pick_up", "move_near", "put_on", "put_in")
VARIANTS = (
    ("default", []),
    ("lighting", ["--lighting-mutation"]),
    ("camera", ["--camera-mutation"]),
)
SOURCES = (("all", []), ("unseen", ["--source", "unseen"]))


def grid_hashes(workdir: Path) -> tuple[str, list[dict]]:
    """Plan and run every grid spec; the hash lines and every result line."""
    lines, results = [], []
    for task, (variant, env_flags), (source, src_flags) in itertools.product(
        TASKS, VARIANTS, SOURCES
    ):
        name = f"{task}-{variant}-{source}"
        manifest = workdir / f"{name}.manifest.json"
        out = workdir / f"{name}.oracle.results.jsonl"
        plan = ["plan", "--task", task, "--n", "20", "--k", "5", "--seed", "1"]
        assert main(plan + env_flags + src_flags + ["--out", str(manifest)]) == 0
        run = ["run", "--manifest", str(manifest), "--policy", "builtin:oracle"]
        assert main(run + ["--out", str(out)]) == 0
        for path in (manifest, out):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{digest}  {path.name}\n")
        results.extend(json.loads(line) for line in out.read_text().splitlines())
    return "".join(lines), results


def test_grid_reproduces_recorded_hashes_and_oracle_solves_it(tmp_path):
    hashes, results = grid_hashes(tmp_path)
    assert hashes == HASHES.read_text(encoding="utf-8")
    assert len(results) == 24 * 20 * 5
    unsolved = [r for r in results if not r["success"] or r["error"] is not None]
    assert unsolved == []
