"""Campaign planning: environment mutations, trial seeds, factor labels,
manifest consistency checks, and what a provider plan asks."""

import json
import math
import random
from dataclasses import replace

import pytest
from conftest import ScriptedChatProvider
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from benchtop import campaign
from benchtop.campaign import (
    CAMERA_ANGLE_MAX_DEG,
    CAMERA_OFFSET_MAX_M,
    LIGHTING_DELTA_MAX,
    CampaignManifest,
    CampaignSpec,
    EnvVariant,
    Factors,
    InstructionKind,
    Shortfall,
    SourceMix,
    mutate_camera,
    mutate_lighting,
    plan_campaign,
    synthesize_description,
)
from benchtop.catalog import Source
from benchtop.errors import PartialPlanFailure, SchemaViolation
from benchtop.generation import build_env_prompt, parse_description
from benchtop.jsonio import loads, quantize
from benchtop.scene import (
    LIGHTING_MAX,
    LIGHTING_MIN,
    CameraPose,
    EnvSetupOp,
    LightingSpec,
    ObjectAddOp,
    Pose,
)
from benchtop.seeds import scene_seed, splitmix64
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
    env = EnvSetupOp()
    mutated = mutate_camera(env, random.Random(seed))
    old, new = env.camera, mutated.camera
    assert math.dist(old.position_m, new.position_m) <= CAMERA_OFFSET_MAX_M
    assert _angle_deg(_view(old), _view(new)) <= CAMERA_ANGLE_MAX_DEG
    assert all(map(_is_quantized, new.position_m + new.look_at_m))
    assert mutated.lighting == env.lighting


def test_an_env_variant_changes_only_the_scene_env(catalog):
    def plan(**mutation):
        factors = Factors(object_count_range=(1, 3), **mutation)
        spec = CampaignSpec(task=Task.PUT_ON, n_scenes=4, k_instructions=1,
                            factors=factors, master_seed=5)
        return plan_campaign(spec, catalog)

    default = plan()
    for mutated in plan(lighting_mutation=True), plan(camera_mutation=True):
        for scene, base in zip(mutated.scenes, default.scenes):
            assert scene.env != base.env
            assert replace(scene, env=base.env) == base


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


def _with_candidate(manifest, **changes):
    first, *rest = manifest.instruction_sets[0].candidates
    assert first.valid
    return _with_iset(manifest, 0, candidates=(replace(first, **changes), *rest))


def _moon_paraphrase(manifest):
    """Scene 0's first paraphrase swapped for an unrelated text that claims
    a passing similarity and is played as a paraphrased trial."""
    assert manifest.trials[1].instruction_kind is InstructionKind.PARAPHRASED
    swapped = _with_candidate(manifest, text="fly to the moon", similarity=0.99)
    return _with_trial(swapped, 1, instruction_text="fly to the moon")


def _overlapping(manifest):
    adds = manifest.scenes[1].adds
    x, y, _ = adds[1].pose.position_m
    z = adds[0].pose.position_m[2]
    moved = replace(adds[0], pose=replace(adds[0].pose, position_m=(x, y, z)))
    return _with_scene(manifest, 1, adds=(moved,) + adds[1:])


def _without_paraphrases(manifest):
    factors = replace(manifest.spec.factors, use_paraphrases=False)
    basic = tuple(
        t for t in manifest.trials if t.instruction_kind is InstructionKind.BASIC
    )
    return replace(manifest, spec=replace(manifest.spec, factors=factors), trials=basic)


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
    "objects_overlap": (
        _overlapping, "object 1: footprint closer than the placement margin",
        "$.scenes[1]"),
    "object_off_the_table": (_far_away, "scene 0 is invalid", "$.scenes[0]"),
    "duplicate_trial_seed": (
        lambda m: _with_trial(m, 1, trial_seed=m.trials[0].trial_seed),
        "stored 11905098178490585645, derived 8724077290919528554",
        "$.trials[1].trial_seed"),
    "trial_seed_changed": (
        lambda m: _with_trial(m, 4, trial_seed=m.trials[4].trial_seed + 1),
        "derived ", "$.trials[4].trial_seed"),
    "trial_scene_out_of_range": (
        lambda m: _with_trial(m, 2, scene_index=3), "stored 3, derived 0",
        "$.trials[2].scene_index"),
    "trials_skip_a_planned_trial": (
        lambda m: replace(m, trials=m.trials[:1] + m.trials[3:]),
        "stored 1, derived 0", "$.trials[1].scene_index"),
    "object_count_mismatch": (
        lambda m: _with_meta(m, 2, object_count=m.scene_meta[2].object_count + 1),
        "stored 3, derived 2", "$.scene_meta[2].object_count"),
    "target_a_out_of_range": (
        lambda m: _with_meta(m, 0, target_a_index=m.scene_meta[0].object_count),
        "scene 0 target_a_index out of range", "$.scene_meta[0].target_a_index"),
    "target_b_out_of_range": (
        lambda m: _with_meta(m, 1, target_b_index=-1),
        "scene 1 target_b_index out of range", "$.scene_meta[1].target_b_index"),
    "target_b_missing": (
        lambda m: _with_meta(m, 1, target_b_index=None),
        "must name an object other than", "$.scene_meta[1].target_b_index"),
    "target_b_equals_a": (
        lambda m: _with_meta(m, 2, target_b_index=m.scene_meta[2].target_a_index),
        "must name an object other than", "$.scene_meta[2].target_b_index"),
    "source_mix_flipped": (
        _mix_flipped, 'stored "seen_only", derived "contains_unseen"',
        "$.scene_meta[0].source_mix"),
    "basic_instruction_false": (
        lambda m: _with_meta(m, 1, basic_instruction="pick up the moon"),
        'stored "pick up the moon", derived "put the redbull can on the dinner plate"',
        "$.scene_meta[1].basic_instruction"),
    "basic_trial_marked_paraphrased": (
        lambda m: _with_trial(m, 0, instruction_kind=InstructionKind.PARAPHRASED),
        'stored "paraphrased", derived "basic"', "$.trials[0].instruction_kind"),
    "trial_text_not_planned": (
        lambda m: _with_trial(m, 1, instruction_text="pick up the moon"),
        'stored "pick up the moon", derived "please put the toy airplane',
        "$.trials[1].instruction_text"),
    "instruction_set_original_false": (
        lambda m: _with_iset(m, 1, original="pick up the moon"),
        'stored "pick up the moon", derived "put the redbull can',
        "$.instruction_sets[1].original"),
    "instruction_set_threshold_false": (
        lambda m: _with_iset(m, 0, threshold=0.05),
        "stored 0.050000, derived 0.800000", "$.instruction_sets[0].threshold"),
    "instruction_set_k_requested_false": (
        lambda m: _with_iset(m, 2, k_requested=5),
        "stored 5, derived 2", "$.instruction_sets[2].k_requested"),
    "instruction_sets_without_paraphrases": (
        _without_paraphrases, "stored an array of 3, derived one of 0",
        "$.instruction_sets"),
    "candidate_valid_below_threshold": (
        lambda m: _with_candidate(m, similarity=0.1),
        "stored 0.100000, derived 0.953463",
        "$.instruction_sets[0].candidates[0].similarity"),
    "candidate_similarity_raised": (
        lambda m: _with_candidate(m, similarity=0.99),
        "stored 0.990000, derived 0.953463",
        "$.instruction_sets[0].candidates[0].similarity"),
    "paraphrase_swapped_for_an_unrelated_text": (
        _moon_paraphrase, "stored 0.990000, derived 0.",
        "$.instruction_sets[0].candidates[0].similarity"),
    "shortfall_invented": (
        lambda m: replace(m, shortfalls=(Shortfall(scene_index=1, missing=1),)),
        "stored an array of 1, derived one of 0", "$.shortfalls"),
    "trials_out_of_order": (
        lambda m: replace(m, trials=(m.trials[1], m.trials[0]) + m.trials[2:]),
        'stored "please put the toy airplane on the green cube", derived "put the',
        "$.trials[0].instruction_text"),
}


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_validate_rejects_an_inconsistent_manifest(catalog, planned, name):
    breaks, message, path = BROKEN[name]
    with pytest.raises(SchemaViolation) as info:
        breaks(planned).validate(catalog)
    assert message in str(info.value)
    assert info.value.path == path


def test_validate_skips_instruction_sets_without_paraphrases(catalog, planned):
    replace(_without_paraphrases(planned), instruction_sets=()).validate(catalog)


@settings(max_examples=100, deadline=None)
@given(
    task=st.sampled_from(Task),
    seed=st.integers(0, 2**32),
    n=st.integers(1, 6),
    k=st.integers(0, 6),
    use_paraphrases=st.booleans(),
    variant=st.sampled_from(EnvVariant),
    source_filter=st.sampled_from([None, *(s.value for s in Source)]),
    counts=st.sampled_from([(1, 1), (1, 2), (2, 2)]),
)
def test_every_plan_passes_validate_before_and_after_a_round_trip(
    catalog, task, seed, n, k, use_paraphrases, variant, source_filter, counts
):
    factors = Factors(
        object_count_range=counts,
        source_filter=source_filter,
        lighting_mutation=variant is EnvVariant.LIGHTING_MUTATED,
        camera_mutation=variant is EnvVariant.CAMERA_MUTATED,
        use_paraphrases=use_paraphrases,
    )
    spec = CampaignSpec(
        task=task, n_scenes=n, k_instructions=k, factors=factors, master_seed=seed
    )
    try:
        manifest = plan_campaign(spec, catalog)
    except PartialPlanFailure:
        reject()
    manifest.validate(catalog)
    loads(CampaignManifest, manifest.dumps()).validate(catalog)


# ---- provider plans -------------------------------------------------------

TEMPLATES = [
    "please put the {a} on the {b}",
    "put the {a} on the {b} now",
    "kindly put the {a} on the {b}",
    "put the {a} on the {b} carefully",
]
DIM_ENV = '{"lighting": {"intensity": 0.3}, "camera": null}'


def _provider_spec(n: int, k: int) -> CampaignSpec:
    """A put_on spec whose scenes hold only their two targets."""
    return CampaignSpec(
        task=Task.PUT_ON, n_scenes=n, k_instructions=k,
        factors=Factors(object_count_range=(2, 2)),
    )


def _object_replies(spec: CampaignSpec, catalog) -> list[str]:
    """Each scene's object reply, naming the targets its description names."""
    replies = []
    for i in range(spec.n_scenes):
        rng = random.Random(scene_seed(spec.master_seed, i))
        _, a, b = synthesize_description(spec.task, spec.factors, catalog, rng)
        replies.append(json.dumps([{"model_id": m.id, "pose": None} for m in (a, b)]))
    return replies


def _names(manifest, i, catalog) -> tuple[str, str]:
    scene, meta = manifest.scenes[i], manifest.scene_meta[i]
    return tuple(
        catalog.get(scene.adds[j].model_id).display_name
        for j in (meta.target_a_index, meta.target_b_index)
    )


def test_a_provider_plan_makes_one_template_call_and_one_call_per_scene(catalog):
    spec = _provider_spec(n=4, k=5)
    provider = ScriptedChatProvider(
        replies=[json.dumps(TEMPLATES), *_object_replies(spec, catalog), DIM_ENV]
    )
    manifest = plan_campaign(spec, catalog, chat_provider=provider)
    assert len(provider.calls) == spec.n_scenes + 1
    # the dim light is never asked for, so every scene keeps the default
    assert provider.replies == [DIM_ENV]
    env_system = build_env_prompt(parse_description("1 object")).system
    assert all(call.system != env_system for call in provider.calls)
    assert all(scene.env == EnvSetupOp() for scene in manifest.scenes)
    # the templates are asked for first, then filled in each scene
    assert "Instruction: put the {a} on the {b}" in provider.calls[0].user
    for i, iset in enumerate(manifest.instruction_sets):
        a, b = _names(manifest, i, catalog)
        assert iset.original == f"put the {a} on the {b}"
        texts = [t.replace("{a}", a).replace("{b}", b) for t in TEMPLATES]
        assert iset.valid_texts == tuple(texts)
    assert manifest.shortfalls == ()
    manifest.validate(catalog)


@pytest.mark.parametrize(
    "template",
    [
        "put the {a} on it",
        "put the {a} on the {b} beside the {a}",
        "put the {b} on the {a}",
        "put the {a} on the {b} {a.__class__}",
        "do not put the {a} on the {b}",
    ],
    ids=["dropped_slot", "repeated_slot", "swapped_slots", "extra_brace", "not"],
)
def test_a_template_that_breaks_a_slot_rule_is_a_shortfall(catalog, template):
    spec = _provider_spec(n=1, k=2)
    # the first ask and both of its re-prompts get the same broken template
    provider = ScriptedChatProvider(
        replies=[json.dumps([template])] * 3 + _object_replies(spec, catalog)
    )
    manifest = plan_campaign(spec, catalog, chat_provider=provider)
    assert manifest.instruction_sets[0].candidates == ()
    assert manifest.shortfalls == (Shortfall(scene_index=0, missing=1),)
    assert [t.instruction_kind for t in manifest.trials] == [InstructionKind.BASIC]
    manifest.validate(catalog)


def test_a_failed_template_request_is_a_partial_plan_failure(catalog):
    provider = ScriptedChatProvider(replies=[])
    with pytest.raises(PartialPlanFailure) as info:
        plan_campaign(_provider_spec(n=2, k=3), catalog, chat_provider=provider)
    assert str(info.value).startswith("planning failed at the paraphrase templates:")
    assert len(provider.calls) == 1
