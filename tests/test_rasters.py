"""The rasters a rendering episode observes, byte for byte.

``golden/put_on.rasters.sha256`` holds, for each trial of the golden
manifest in manifest order, one sha256 over the rasters observed at every
step of the trial's ``oracle`` episode and then of its ``random_target``
episode, both played with rendering on, as ``<sha256>  <trial_seed>``. Both
policies grasp, carry and release objects, so the rasters cover moved and
attached objects, which ``put_on.wire.sha256`` (a policy that only holds)
does not. Regenerate with ``python tests/test_rasters.py`` only for a
deliberate change to the renderer.
"""

import hashlib
from pathlib import Path

from benchtop import runner, sim
from benchtop.campaign import load_manifest
from benchtop.catalog import load_default_catalog

HERE = Path(__file__).parent
MANIFEST = HERE / "golden" / "put_on.manifest.json"
HASHES = HERE / "golden" / "put_on.rasters.sha256"


class _Recorder:
    """A builtin policy that feeds every raster it observes into a hash."""

    def __init__(self, inner, digest) -> None:
        self.inner = inner
        self.privileged = inner.privileged
        self.digest = digest

    def reset(self, ctx) -> None:
        self.inner.reset(ctx)

    def act(self, obs):
        self.digest.update(obs.raster)
        return self.inner.act(obs)


def raster_hashes() -> str:
    catalog = load_default_catalog()
    manifest = load_manifest(MANIFEST)
    task = manifest.spec.task
    lines = []
    for trial in manifest.trials:
        scene = manifest.scenes[trial.scene_index]
        meta = manifest.scene_meta[trial.scene_index]
        start = sim.init_world(scene, catalog)
        ctx = runner.ResetContext(
            task=task,
            target_a_index=meta.target_a_index,
            target_b_index=meta.target_b_index,
            basic_instruction=meta.basic_instruction,
            instruction=trial.instruction_text,
            trial_seed=trial.trial_seed,
            object_heights=tuple(o.height_m for o in start.objects),
        )
        goal = sim.TaskGoal(task, meta.target_a_index, meta.target_b_index)
        digest = hashlib.sha256()
        for name in ("oracle", "random_target"):
            policy_class, arg = runner.builtin_episode(name, ctx)
            policy = _Recorder(policy_class(arg), digest)
            _, _, error = runner.run_episode(
                start, scene.env, policy, ctx, goal, sim.DEFAULT_MAX_STEPS,
                render=True,
            )
            assert error is None
        lines.append(f"{digest.hexdigest()}  {trial.trial_seed}\n")
    return "".join(lines)


def test_rendered_rasters_reproduce_recorded_hashes():
    assert raster_hashes() == HASHES.read_text(encoding="utf-8")


if __name__ == "__main__":
    HASHES.write_text(raster_hashes(), encoding="utf-8")
