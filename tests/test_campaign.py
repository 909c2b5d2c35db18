"""Campaign planning: environment mutations, trial seeds, factor labels and
manifest consistency checks."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchtop import campaign
from benchtop.campaign import (
    CAMERA_ANGLE_MAX_DEG,
    CAMERA_OFFSET_MAX_M,
    LIGHTING_DELTA_MAX,
    CampaignSpec,
    Factors,
    InstructionKind,
    SourceMix,
    mutate_camera,
    mutate_lighting,
    plan_campaign,
)
from benchtop.catalog import Source
from benchtop.errors import SchemaViolation
from benchtop.jsonio import quantize
from benchtop.scene import (
    LIGHTING_MAX,
    LIGHTING_MIN,
    CameraPose,
    EnvSetupOp,
    LightingSpec,
    ObjectAddOp,
    Pose,
    default_env,
)
from benchtop.seeds import splitmix64
from benchtop.sim import Task

seeds = st.integers(0, 2**64 - 1)


def _is_quantized(value: float) -> bool:
    return quantize(value) == value


@settings(max_examples=200)
@given(seeds, st.floats(LIGHTING_MIN, LIGHTING_MAX))
def test_lighting_shift_stays_within_half_and_the_valid_range(seed, intensity):
    env = EnvSetupOp(lighting=LightingSpec(intensity=quantize(intensity)))
    mutated = mutate_lighting(env, random.Random(seed))
    new = mutated.lighting.intensity
    assert abs(new - env.lighting.intensity) <= LIGHTING_DELTA_MAX
    assert LIGHTING_MIN <= new <= LIGHTING_MAX
    assert _is_quantized(new)
    assert mutated.camera == env.camera


def _angle_deg(u, v) -> float:
    dot = sum(a * b for a, b in zip(u, v))
    cos = dot / (math.hypot(*u) * math.hypot(*v))
    return math.degrees(math.acos(max(-1.0, min(1.0, cos))))


def _view(camera: CameraPose):
    return [t - p for t, p in zip(camera.look_at_m, camera.position_m)]


@settings(max_examples=200)
@given(seeds)
def test_camera_moves_under_5_cm_and_turns_under_5_degrees(seed):
    env = default_env()
    mutated = mutate_camera(env, random.Random(seed))
    old, new = env.camera, mutated.camera
    assert math.dist(old.position_m, new.position_m) <= CAMERA_OFFSET_MAX_M
    assert _angle_deg(_view(old), _view(new)) <= CAMERA_ANGLE_MAX_DEG
    assert all(map(_is_quantized, new.position_m + new.look_at_m))
    assert mutated.lighting == env.lighting


def test_colliding_trial_seeds_are_rehashed_until_unique(catalog, monkeypatch):
    monkeypatch.setattr(campaign, "trial_seed", lambda master, scene, j: 7)
    spec = CampaignSpec(task=Task.PICK_UP, n_scenes=2, k_instructions=3)
    manifest = plan_campaign(spec, catalog)
    expected, seed = [], 7
    for _ in manifest.trials:
        expected.append(seed)
        seed = splitmix64(seed)
    assert len(manifest.trials) == 6
    assert [t.trial_seed for t in manifest.trials] == expected


def _mix(manifest, catalog):
    return [
        SourceMix.SEEN_ONLY
        if all(catalog.get(op.model_id).source is Source.SEEN_SET for op in scene.adds)
        else SourceMix.CONTAINS_UNSEEN
        for scene in manifest.scenes
    ]


@pytest.mark.parametrize(
    "source_filter, expected",
    [
        (None, None),
        (Source.SEEN_SET.value, SourceMix.SEEN_ONLY),
        (Source.UNSEEN_SET.value, SourceMix.CONTAINS_UNSEEN),
    ],
)
def test_source_mix_says_whether_a_scene_holds_an_unseen_object(
    catalog, source_filter, expected
):
    spec = CampaignSpec(
        task=Task.PICK_UP, n_scenes=30, k_instructions=1,
        factors=Factors(object_count_range=(1, 2), source_filter=source_filter),
        master_seed=3,
    )
    manifest = plan_campaign(spec, catalog)
    mixes = [meta.source_mix for meta in manifest.scene_meta]
    assert mixes == _mix(manifest, catalog)
    if expected is None:
        assert set(mixes) == set(SourceMix)
    else:
        assert set(mixes) == {expected}


# ---- CampaignManifest.validate ----------------------------------------------


@pytest.fixture(scope="module")
def planned(catalog):
    spec = CampaignSpec(
        task=Task.PUT_ON, n_scenes=3, k_instructions=3,
        factors=Factors(object_count_range=(2, 3)), master_seed=1,
    )
    manifest = plan_campaign(spec, catalog)
    manifest.validate(catalog)
    return manifest


def _with_scene(manifest, i, **changes):
    scenes = list(manifest.scenes)
    scenes[i] = replace(scenes[i], **changes)
    return replace(manifest, scenes=tuple(scenes))


def _with_meta(manifest, i, **changes):
    metas = list(manifest.scene_meta)
    metas[i] = replace(metas[i], **changes)
    return replace(manifest, scene_meta=tuple(metas))


def _with_trial(manifest, j, **changes):
    trials = list(manifest.trials)
    trials[j] = replace(trials[j], **changes)
    return replace(manifest, trials=tuple(trials))


def _with_iset(manifest, i, **changes):
    isets = list(manifest.instruction_sets)
    isets[i] = replace(isets[i], **changes)
    return replace(manifest, instruction_sets=tuple(isets))


def _dissimilar_valid(manifest):
    first, *rest = manifest.instruction_sets[0].candidates
    low = replace(first, similarity=0.1)
    assert low.valid
    return _with_iset(manifest, 0, candidates=(low, *rest))


def _overlapping(manifest):
    adds = manifest.scenes[1].adds
    on_top = ObjectAddOp(model_id=adds[1].model_id, pose=adds[0].pose)
    return _with_scene(manifest, 1, adds=(adds[0], on_top) + adds[2:])


def _mix_flipped(manifest):
    seen = manifest.scene_meta[0].source_mix is SourceMix.SEEN_ONLY
    mix = SourceMix.CONTAINS_UNSEEN if seen else SourceMix.SEEN_ONLY
    return _with_meta(manifest, 0, source_mix=mix)


def _far_away(manifest):
    adds = manifest.scenes[0].adds
    far = ObjectAddOp(model_id=adds[0].model_id, pose=Pose(position_m=(5.0, 0.0, 0.1)))
    return _with_scene(manifest, 0, adds=(far,) + adds[1:])


BROKEN = {
    "scene_missing": (
        lambda m: replace(m, scenes=m.scenes[:-1]), "expected 3 scenes", "$"),
    "meta_missing": (
        lambda m: replace(m, scene_meta=m.scene_meta[:-1]), "expected 3 scenes", "$"),
    "instruction_set_missing": (
        lambda m: replace(m, instruction_sets=m.instruction_sets[:-1]),
        "expected 3 instruction sets", "$"),
    "objects_overlap": (_overlapping, "scene 1 is invalid", "$.scenes[1]"),
    "object_off_the_table": (_far_away, "scene 0 is invalid", "$.scenes[0]"),
    "duplicate_trial_seed": (
        lambda m: _with_trial(m, 1, trial_seed=m.trials[0].trial_seed),
        "trial seeds are not globally unique", "$"),
    "trial_scene_out_of_range": (
        lambda m: _with_trial(m, 2, scene_index=3), "trial 2 references scene 3", "$"),
    "object_count_mismatch": (
        lambda m: _with_meta(m, 2, object_count=m.scene_meta[2].object_count + 1),
        "scene 2 metadata says", "$"),
    "target_a_out_of_range": (
        lambda m: _with_meta(m, 0, target_a_index=m.scene_meta[0].object_count),
        "scene 0 target_a_index out of range", "$"),
    "target_b_out_of_range": (
        lambda m: _with_meta(m, 1, target_b_index=-1),
        "scene 1 target_b_index out of range", "$"),
    "target_b_missing": (
        lambda m: _with_meta(m, 1, target_b_index=None),
        "must name an object other than", "$.scene_meta[1].target_b_index"),
    "target_b_equals_a": (
        lambda m: _with_meta(m, 2, target_b_index=m.scene_meta[2].target_a_index),
        "must name an object other than", "$.scene_meta[2].target_b_index"),
    "source_mix_flipped": (
        _mix_flipped, "scene 0 is", "$.scene_meta[0].source_mix"),
    "basic_instruction_false": (
        lambda m: _with_meta(m, 1, basic_instruction="pick up the moon"),
        "scene 1's targets give", "$.scene_meta[1].basic_instruction"),
    "basic_trial_marked_paraphrased": (
        lambda m: _with_trial(m, 0, instruction_kind=InstructionKind.PARAPHRASED),
        "trial 0 is basic", "$.trials[0].instruction_kind"),
    "trial_text_not_planned": (
        lambda m: _with_trial(m, 1, instruction_text="pick up the moon"),
        "trial 1 is not scene 0's next planned", "$.trials[1].instruction_text"),
    "instruction_set_original_false": (
        lambda m: _with_iset(m, 1, original="pick up the moon"),
        "scene 1's basic instruction is", "$.instruction_sets[1].original"),
    "instruction_set_threshold_false": (
        lambda m: _with_iset(m, 0, threshold=0.05),
        "the spec's threshold is 0.8", "$.instruction_sets[0].threshold"),
    "instruction_set_k_requested_false": (
        lambda m: _with_iset(m, 2, k_requested=5),
        "the spec asks for 2 paraphrases", "$.instruction_sets[2].k_requested"),
    "candidate_valid_below_threshold": (
        _dissimilar_valid, "similarity 0.1 against threshold 0.8",
        "$.instruction_sets[0].candidates[0].valid"),
    "trials_out_of_order": (
        lambda m: replace(m, trials=(m.trials[1], m.trials[0]) + m.trials[2:]),
        "trial 0 is not scene 0's next planned", "$.trials[0].instruction_text"),
}


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_validate_rejects_an_inconsistent_manifest(catalog, planned, name):
    breaks, message, path = BROKEN[name]
    with pytest.raises(SchemaViolation) as info:
        breaks(planned).validate(catalog)
    assert message in str(info.value)
    assert info.value.path == path


def test_validate_skips_instruction_sets_without_paraphrases(catalog, planned):
    spec = replace(planned.spec, factors=replace(planned.spec.factors,
                                                 use_paraphrases=False))
    basic = tuple(
        t for t in planned.trials if t.instruction_kind is InstructionKind.BASIC
    )
    replace(planned, spec=spec, instruction_sets=(), trials=basic).validate(catalog)
