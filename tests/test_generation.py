import pytest

from benchtop.catalog import Catalog, load_default_catalog
from benchtop.errors import (
    CountMismatch,
    DescriptionParseError,
    EmptyFilteredSet,
    NoJsonFound,
    SchemaViolation,
    UnknownModel,
    UnresolvableMention,
    ValidationFailed,
)
from benchtop.generation import (
    build_env_prompt,
    build_object_prompt,
    fallback_generate,
    generate_scene,
    parse_description,
    parse_llm_env,
    parse_llm_ops,
)
from benchtop.providers import ScriptedChatProvider
from benchtop.jsonio import canonical_dumps, encode
from benchtop.scene import Provenance, default_env, validate_config


# ---- description grammar --------------------------------------------------


def test_numeric_and_word_counts():
    assert parse_description("3 objects").object_count == 3
    assert parse_description("three objects please").object_count == 3
    assert parse_description("One object").object_count == 1


def test_mentions_with_article_and_of_which():
    d = parse_description("three objects, one of which is a plastic bottle")
    assert d.object_count == 3
    assert [s.mention for s in d.object_specs] == ["plastic bottle"]


def test_multiple_mentions_in_order():
    d = parse_description("4 objects, one is an apple, one is the red mug")
    assert [s.mention for s in d.object_specs] == ["apple", "red mug"]


def test_lighting_and_camera_clauses():
    d = parse_description(
        "2 objects with lighting 0.5 and camera at (0.1, -0.4, 0.7)"
    )
    assert d.lighting.intensity == 0.5
    assert d.camera.position_m == (0.1, -0.4, 0.7)


def test_count_is_required():
    with pytest.raises(DescriptionParseError):
        parse_description("a lovely table with an apple")
    with pytest.raises(DescriptionParseError):
        parse_description("   ")


def test_more_mentions_than_count_rejected():
    with pytest.raises(DescriptionParseError):
        parse_description("1 object, one is an apple, one is an orange")


# ---- prompts --------------------------------------------------------------


def test_object_prompt_lists_every_model_once(catalog):
    d = parse_description("2 objects, one is an apple")
    bundle = build_object_prompt(d, catalog)
    for model in catalog.models:
        assert bundle.user.count(f"- {model.display_name}\n") >= 1
    # one line per model plus the description block
    lines = [l for l in bundle.user.splitlines() if l.startswith("- ")]
    assert len(lines) == len(catalog.models)
    assert d.raw_text in bundle.user
    assert "exactly 2" in bundle.user
    assert len(bundle.few_shot) >= 2


def test_env_prompt_carries_description():
    d = parse_description("2 objects with lighting 1.2")
    bundle = build_env_prompt(d)
    assert d.raw_text in bundle.user
    assert len(bundle.few_shot) >= 2


# ---- reply parsing --------------------------------------------------------


def test_parse_ops_with_surrounding_chatter(catalog):
    reply = (
        "Sure thing!\n"
        '[{"model_id": "apple", "pose": null},'
        ' {"model_id": "sponge", "pose": null}]\n'
        "Anything else?"
    )
    ops = parse_llm_ops(reply, catalog, 2)
    assert [op.model_id for op in ops] == ["apple", "sponge"]
    assert all(op.pose is None for op in ops)


def test_parse_ops_resolves_display_names(catalog):
    reply = '[{"model_id": "coke can", "pose": null}]'
    assert parse_llm_ops(reply, catalog, 1)[0].model_id == "coke_can"


def test_parse_ops_no_json(catalog):
    with pytest.raises(NoJsonFound):
        parse_llm_ops("I would put an apple somewhere", catalog, 1)


def test_parse_ops_schema_violation(catalog):
    with pytest.raises(SchemaViolation):
        parse_llm_ops('[{"pose": null}]', catalog, 1)
    with pytest.raises(SchemaViolation):
        parse_llm_ops('[{"model_id": "apple", "pose": {"yaw_rad": 0}}]', catalog, 1)


def test_parse_ops_unknown_model(catalog):
    with pytest.raises(UnknownModel):
        parse_llm_ops('[{"model_id": "antigravity unit", "pose": null}]', catalog, 1)


def test_parse_ops_count_mismatch(catalog):
    with pytest.raises(CountMismatch):
        parse_llm_ops('[{"model_id": "apple", "pose": null}]', catalog, 2)


def test_parse_env_defaults_on_nulls():
    env = parse_llm_env('{"lighting": null, "camera": null}')
    assert env.lighting.intensity == 1.0
    env = parse_llm_env('{"lighting": {"intensity": 0.75}, "camera": null}')
    assert env.lighting.intensity == 0.75


def test_parse_env_bad_shape():
    with pytest.raises(SchemaViolation):
        parse_llm_env('{"lighting": {"brightness": 1}, "camera": null}')


# ---- provider-backed generation ------------------------------------------


def _ops_reply(*model_ids):
    inner = ",".join(f'{{"model_id": "{m}", "pose": null}}' for m in model_ids)
    return f"[{inner}]"


NULL_ENV = '{"lighting": null, "camera": null}'


def test_generate_scene_happy_path(catalog):
    provider = ScriptedChatProvider(replies=[_ops_reply("apple", "sponge"), NULL_ENV])
    cfg = generate_scene("2 objects, one is an apple", provider, catalog, seed=11)
    assert cfg.provenance is Provenance.LLM
    assert validate_config(cfg, catalog) == []
    assert {op.model_id for op in cfg.adds} == {"apple", "sponge"}
    assert len(provider.calls) == 2


def _rejection(parse, reply) -> str:
    """The text a retry appends after ``reply`` fails ``parse``."""
    errors = (NoJsonFound, SchemaViolation, UnknownModel, CountMismatch)
    with pytest.raises(errors) as err:
        parse(reply)
    return f"\n\nYour previous reply was rejected: {err.value}. Try again."


def test_generate_scene_reprompts_on_garbage(catalog):
    unknown = _ops_reply("antigravity unit")
    provider = ScriptedChatProvider(
        replies=["no json here", unknown, _ops_reply("apple"), NULL_ENV]
    )
    cfg = generate_scene("1 object, one is an apple", provider, catalog, seed=2)
    assert validate_config(cfg, catalog) == []
    # each retry appends the last failure to the first prompt
    first, second, third, env = provider.calls
    parse = lambda reply: parse_llm_ops(reply, catalog, 1)
    assert second.user == first.user + _rejection(parse, "no json here")
    assert third.user == first.user + _rejection(parse, unknown)
    assert first.system == second.system == third.system != env.system
    assert first.few_shot == second.few_shot == third.few_shot


def test_generate_scene_gives_up_after_three(catalog):
    provider = ScriptedChatProvider(replies=["bad", "worse", "nope", NULL_ENV])
    with pytest.raises(ValidationFailed, match="^provider never produced usable ops"):
        generate_scene("1 object, one is an apple", provider, catalog, seed=2)
    # no environment call follows
    assert len(provider.calls) == 3
    assert len({call.system for call in provider.calls}) == 1
    assert provider.replies == [NULL_ENV]


def test_three_garbage_env_replies_keep_the_default_env(catalog):
    bad_shape = '{"lighting": {"brightness": 1}, "camera": null}'
    provider = ScriptedChatProvider(
        replies=[_ops_reply("apple"), "no env", bad_shape, "still none", NULL_ENV]
    )
    cfg = generate_scene("1 object, one is an apple", provider, catalog, seed=2)
    assert cfg.env == default_env()
    assert validate_config(cfg, catalog) == []
    objects, first, second, third = provider.calls
    assert second.user == first.user + _rejection(parse_llm_env, "no env")
    assert third.user == first.user + _rejection(parse_llm_env, bad_shape)
    assert first.system == second.system == third.system != objects.system
    assert provider.replies == [NULL_ENV]


def test_generate_scene_requires_mentions_present(catalog):
    provider = ScriptedChatProvider(replies=[_ops_reply("sponge"), NULL_ENV])
    with pytest.raises(ValidationFailed):
        generate_scene("1 object, one is an apple", provider, catalog, seed=2)


def test_generate_scene_keeps_explicit_valid_pose(catalog):
    reply = (
        '[{"model_id": "apple", "pose": {"position_m": [0.1, 0.05, 0.0375],'
        ' "yaw_rad": 0.25}}]'
    )
    provider = ScriptedChatProvider(replies=[reply, NULL_ENV])
    cfg = generate_scene("1 object, one is an apple", provider, catalog, seed=2)
    assert cfg.adds[0].pose.position_m == (0.1, 0.05, 0.0375)
    assert cfg.adds[0].pose.yaw_rad == 0.25
    assert validate_config(cfg, catalog) == []


def test_generate_scene_repairs_bad_poses(catalog):
    # both objects stacked at the same spot: overlap must be repaired away
    stacked = (
        '[{"model_id": "apple", "pose": {"position_m": [0.0, 0.0, 0.0375], "yaw_rad": 0}},'
        ' {"model_id": "orange", "pose": {"position_m": [0.0, 0.0, 0.0375], "yaw_rad": 0}}]'
    )
    provider = ScriptedChatProvider(replies=[stacked, NULL_ENV])
    cfg = generate_scene(
        "2 objects, one is an apple, one is an orange", provider, catalog, seed=5
    )
    assert validate_config(cfg, catalog) == []


def test_generate_scene_skips_env_prompt_when_described(catalog):
    provider = ScriptedChatProvider(replies=[_ops_reply("apple")])
    cfg = generate_scene(
        "1 object, one is an apple, with lighting 0.5", provider, catalog, seed=3
    )
    assert cfg.env.lighting.intensity == 0.5
    assert len(provider.calls) == 1


def test_generate_scene_many_seeds_all_valid(catalog):
    """Mini sweep; the acceptance suite runs the full-scale version."""
    for seed in range(25):
        provider = ScriptedChatProvider(
            replies=[_ops_reply("apple", "wire_basket", "carrot"), NULL_ENV]
        )
        cfg = generate_scene(
            "3 objects, one is an apple", provider, catalog, seed=seed
        )
        assert validate_config(cfg, catalog) == []


# ---- offline fallback -----------------------------------------------------


def test_fallback_resolves_aliased_mention(catalog):
    cfg = fallback_generate(
        "three objects, one of which is a plastic bottle", catalog, seed=7
    )
    assert cfg.provenance is Provenance.FALLBACK
    assert cfg.adds[0].model_id == "blue_plastic_bottle"
    assert len(cfg.adds) == 3
    assert validate_config(cfg, catalog) == []


def test_fallback_mentions_come_first(catalog):
    cfg = fallback_generate(
        "4 objects, one is a red mug, one is a sponge", catalog, seed=1
    )
    assert cfg.adds[0].model_id == "red_mug"
    assert cfg.adds[1].model_id == "sponge"


def test_fallback_is_deterministic(catalog):
    a = fallback_generate("3 objects, one is an apple", catalog, seed=99)
    b = fallback_generate("3 objects, one is an apple", catalog, seed=99)
    assert canonical_dumps(encode(a)) == canonical_dumps(encode(b))
    c = fallback_generate("3 objects, one is an apple", catalog, seed=100)
    assert canonical_dumps(encode(c)) != canonical_dumps(encode(a))


def test_fallback_env_from_description(catalog):
    cfg = fallback_generate(
        "2 objects with lighting 0.5 and camera at (0.0, -0.4, 0.8)",
        catalog,
        seed=4,
    )
    assert cfg.env.lighting.intensity == 0.5
    assert cfg.env.camera.position_m == (0.0, -0.4, 0.8)


@pytest.mark.parametrize("path", ["fallback", "provider"])
def test_fallback_unresolvable_mention(catalog, path):
    provider = ScriptedChatProvider(replies=[_ops_reply("apple", "sponge"), NULL_ENV])
    description = "2 objects, one is a quantum flux"
    with pytest.raises(UnresolvableMention):
        if path == "fallback":
            fallback_generate(description, catalog, seed=0)
        else:
            generate_scene(description, provider, catalog, seed=0)
    assert provider.calls == []


def test_fallback_all_models_mentioned_is_an_error(catalog):
    pair = Catalog(models=(catalog.get("apple"), catalog.get("sponge")), version="1")
    with pytest.raises(EmptyFilteredSet):
        fallback_generate("2 objects, one is an apple, one is a sponge", pair, seed=0)


def test_fallback_no_duplicate_models(catalog):
    cfg = fallback_generate("5 objects, one is an apple", catalog, seed=21)
    ids = [op.model_id for op in cfg.adds]
    assert len(set(ids)) == len(ids)
