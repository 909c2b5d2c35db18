"""Natural-language scene descriptions compiled to scene configs.

Two compilation paths produce the same artifact:

- ``generate_scene`` asks a chat provider for the object list (and
  optionally the environment) and parses the JSON out of the reply, asking
  at most three times with the last parse error appended, then fills any
  missing poses by collision-free sampling and repairs residual validator
  violations before giving up.
- ``fallback_generate`` is fully offline: a small grammar pulls the object
  count, named objects, lighting, and camera out of the description, named
  objects are resolved against the catalog, and the rest of the scene is
  drawn from the remaining models with the seeded RNG.

Both attach provenance so downstream reports can split results on it.
"""

from __future__ import annotations

import contextlib
import random
import re
from dataclasses import replace

from .catalog import Catalog, ObjectModel
from .errors import (
    CountMismatch,
    DescriptionParseError,
    EmptyFilteredSet,
    NoJsonFound,
    SchemaViolation,
    UnknownModel,
    UnresolvableMention,
    ValidationFailed,
)
from .jsonio import decode, first_json, quantize
from .providers import ChatRequest
from .scene import (
    CameraPose,
    EnvSetupOp,
    LightingSpec,
    ObjectAddOp,
    ObjectSpec,
    Pose,
    Provenance,
    SceneConfig,
    SceneDescription,
    default_env,
    sample_pose,
    validate_config,
)
from .seeds import description_seed

MAX_PROMPT_ATTEMPTS = 3

_WORD_COUNTS = {
    "one": 1, "two": 2, "three": 3, "four": 4, "five": 5,
    "six": 6, "seven": 7, "eight": 8, "nine": 9, "ten": 10,
}

_COUNT_RE = re.compile(
    r"\b(\d+|one|two|three|four|five|six|seven|eight|nine|ten)\s+objects?\b",
    re.IGNORECASE,
)
_MENTION_RE = re.compile(
    r"\bone(?:\s+of\s+which)?\s+is\s+(?:an?\s+|the\s+)?([^,.;]+)",
    re.IGNORECASE,
)
_LIGHTING_RE = re.compile(
    r"\blighting(?:\s+intensity)?\s+(?:of\s+|at\s+|=\s*)?(\d+(?:\.\d+)?)",
    re.IGNORECASE,
)
_CAMERA_RE = re.compile(
    r"\bcamera\s+at\s*\(\s*(-?\d+(?:\.\d+)?)\s*,\s*(-?\d+(?:\.\d+)?)\s*,"
    r"\s*(-?\d+(?:\.\d+)?)\s*\)",
    re.IGNORECASE,
)


def parse_description(text: str) -> SceneDescription:
    """Parse a scene description into its structured form.

    Requires an object count ("<n> objects"); named objects, lighting, and
    camera clauses are optional.
    """
    stripped = text.strip()
    if not stripped:
        raise DescriptionParseError("empty scene description")
    count_match = _COUNT_RE.search(stripped)
    if count_match is None:
        raise DescriptionParseError(
            "description must state an object count, e.g. 'three objects'"
        )
    raw_count = count_match.group(1).lower()
    count = int(raw_count) if raw_count.isdigit() else _WORD_COUNTS[raw_count]
    if count < 1:
        raise DescriptionParseError(f"object count must be >= 1, got {count}")

    specs = []
    for match in _MENTION_RE.finditer(stripped):
        mention = " ".join(match.group(1).split()).strip()
        if mention:
            specs.append(ObjectSpec(mention=mention, pose=None))
    if len(specs) > count:
        raise DescriptionParseError(
            f"description names {len(specs)} objects but states a count of {count}"
        )

    lighting = None
    lm = _LIGHTING_RE.search(stripped)
    if lm is not None:
        lighting = LightingSpec(intensity=quantize(float(lm.group(1))))

    camera = None
    cm = _CAMERA_RE.search(stripped)
    if cm is not None:
        camera = CameraPose(
            position_m=(
                quantize(float(cm.group(1))),
                quantize(float(cm.group(2))),
                quantize(float(cm.group(3))),
            ),
            look_at_m=(0.0, 0.0, 0.0),
        )

    return SceneDescription(
        object_count=count,
        object_specs=tuple(specs),
        lighting=lighting,
        camera=camera,
        raw_text=stripped,
    )


# ---- prompting ------------------------------------------------------------


_OBJECT_SYSTEM = (
    "You configure tabletop manipulation scenes. Given a scene description, "
    "reply with a JSON array of object add operations and nothing else. Each "
    "element is {\"model_id\": \"<id from the object list>\", \"pose\": "
    "{\"position_m\": [x, y, z], \"yaw_rad\": r} or null}. Use null poses "
    "unless the description pins a position. Only use listed model ids."
)

_OBJECT_FEW_SHOT: tuple[tuple[str, str], ...] = (
    (
        "Scene description: 2 objects, one is an apple.\nRespond with a JSON "
        "array of exactly 2 add operations.",
        '[{"model_id": "apple", "pose": null}, '
        '{"model_id": "sponge", "pose": null}]',
    ),
    (
        "Scene description: 1 object.\nRespond with a JSON array of exactly "
        "1 add operation.",
        '[{"model_id": "orange", "pose": null}]',
    ),
)

_ENV_SYSTEM = (
    "You configure tabletop scene environments. Reply with a single JSON "
    "object {\"lighting\": {\"intensity\": f} or null, \"camera\": "
    "{\"position_m\": [x, y, z], \"look_at_m\": [x, y, z]} or null} and "
    "nothing else. Use null for anything the description leaves unspecified."
)

_ENV_FEW_SHOT: tuple[tuple[str, str], ...] = (
    (
        "Scene description: 1 object with lighting 0.5.",
        '{"lighting": {"intensity": 0.5}, "camera": null}',
    ),
    (
        "Scene description: 2 objects.",
        '{"lighting": null, "camera": null}',
    ),
)


def build_object_prompt(description: SceneDescription, catalog: Catalog) -> ChatRequest:
    lines = [f"- {model.display_name}" for model in catalog.models]
    user = (
        "Available objects:\n"
        + "\n".join(lines)
        + "\n\nScene description: "
        + description.raw_text
        + f"\nRespond with a JSON array of exactly {description.object_count} "
        "add operations."
    )
    return ChatRequest(system=_OBJECT_SYSTEM, few_shot=_OBJECT_FEW_SHOT, user=user)


def build_env_prompt(description: SceneDescription) -> ChatRequest:
    return ChatRequest(
        system=_ENV_SYSTEM,
        few_shot=_ENV_FEW_SHOT,
        user="Scene description: " + description.raw_text,
    )


_OPS_ERRORS = (NoJsonFound, SchemaViolation, UnknownModel, CountMismatch)
_ENV_ERRORS = (NoJsonFound, SchemaViolation)


def _ask(provider, request: ChatRequest, parse, retry_on):
    """``parse`` of the first reply it accepts in ``MAX_PROMPT_ATTEMPTS``
    chat calls, each retry appending the last rejection to ``request.user``;
    raises the last call's rejection."""
    asked = request
    for _ in range(MAX_PROMPT_ATTEMPTS - 1):
        try:
            return parse(provider.chat(asked))
        except retry_on as exc:
            rejection = f"\n\nYour previous reply was rejected: {exc}. Try again."
            asked = replace(request, user=request.user + rejection)
    return parse(provider.chat(asked))


def parse_llm_ops(
    text: str, catalog: Catalog, expected_count: int
) -> list[ObjectAddOp]:
    """Extract and validate add operations from an LLM reply."""
    raw = first_json(text, "[", lambda value: isinstance(value, list), "array")
    ops: list[ObjectAddOp] = []
    for i, item in enumerate(raw):
        path = f"$[{i}]"
        if not isinstance(item, dict):
            raise SchemaViolation("expected an object", path=path)
        if "model_id" not in item:
            raise SchemaViolation("missing key 'model_id'", path=path)
        model_id = item["model_id"]
        if not isinstance(model_id, str) or not model_id:
            raise SchemaViolation("'model_id' must be a non-empty string", path=path)
        model = catalog.get(model_id) if model_id in catalog else None
        if model is None:
            model = catalog.resolve(model_id)
        if model is None:
            raise UnknownModel(f"unknown model id or name: {model_id!r}")
        pose = None
        raw_pose = item.get("pose")
        if raw_pose is not None:
            pose = decode(Pose, raw_pose, f"{path}.pose")
        ops.append(ObjectAddOp(model_id=model.id, pose=pose))
    if len(ops) != expected_count:
        raise CountMismatch(
            f"expected {expected_count} add operations, got {len(ops)}"
        )
    return ops


def parse_llm_env(text: str) -> EnvSetupOp:
    raw = first_json(text, "{", lambda value: isinstance(value, dict), "object")
    base = default_env()
    lighting = decode(LightingSpec | None, raw.get("lighting"), "$.lighting")
    camera = decode(CameraPose | None, raw.get("camera"), "$.camera")
    return EnvSetupOp(
        lighting=lighting or base.lighting, camera=camera or base.camera
    )


# ---- mention resolution ---------------------------------------------------


def resolve_mentions(
    description: SceneDescription, catalog: Catalog
) -> list[ObjectModel]:
    resolved = []
    for spec in description.object_specs:
        model = catalog.resolve(spec.mention)
        if model is None:
            raise UnresolvableMention(
                f"no catalog object matches mention {spec.mention!r}"
            )
        resolved.append(model)
    return resolved


def _env_from_description(description: SceneDescription) -> EnvSetupOp:
    base = default_env()
    lighting = description.lighting or base.lighting
    camera = description.camera or base.camera
    return EnvSetupOp(lighting=lighting, camera=camera)


# ---- generation -----------------------------------------------------------


def _fill_poses(
    ops: list[ObjectAddOp], catalog: Catalog, rng: random.Random
) -> list[ObjectAddOp]:
    placed: list[ObjectAddOp] = []
    for op in ops:
        model = catalog.get(op.model_id)
        assert model is not None
        pose = op.pose if op.pose is not None else sample_pose(rng, placed, model, catalog)
        placed.append(ObjectAddOp(model_id=op.model_id, pose=pose))
    return placed


def fallback_generate(
    description: SceneDescription | str,
    catalog: Catalog,
    seed: int,
    scene_id: str | None = None,
) -> SceneConfig:
    """Compile a description to a valid scene without any provider."""
    if isinstance(description, str):
        description = parse_description(description)
    rng = random.Random(description_seed(seed))
    mentioned = resolve_mentions(description, catalog)
    ops = [ObjectAddOp(model_id=m.id, pose=None) for m in mentioned]
    mentioned_ids = {m.id for m in mentioned}
    pool = [m for m in catalog.models if m.id not in mentioned_ids]
    if not pool:
        raise EmptyFilteredSet("the described objects take up the whole catalog")
    for _ in range(description.object_count - len(ops)):
        if not pool:
            pool = list(catalog.models)
        model = pool.pop(rng.randrange(len(pool)))
        ops.append(ObjectAddOp(model_id=model.id, pose=None))
    filled = _fill_poses(ops, catalog, rng)
    config = SceneConfig(
        scene_id=scene_id or f"scene-{seed & 0xFFFFFFFF:08x}",
        adds=tuple(filled),
        env=_env_from_description(description),
        seed=seed,
        provenance=Provenance.FALLBACK,
    )
    violations = validate_config(config, catalog)
    if violations:
        raise ValidationFailed(
            "fallback generation produced an invalid scene: "
            + "; ".join(str(v) for v in violations[:3])
        )
    return config


def generate_scene(
    description: SceneDescription | str,
    provider,
    catalog: Catalog,
    seed: int,
    scene_id: str | None = None,
) -> SceneConfig:
    """Compile a description to a valid scene via a chat provider.

    A mention the catalog cannot resolve raises ``UnresolvableMention``
    before any chat call, as in ``fallback_generate``. The provider is asked
    for the objects and then, unless the description sets the lighting or
    the camera, for the environment. Each ask makes at most 3 chat calls,
    and each retry appends the previous reply's parse error to the prompt.
    Objects that never parse raise ValidationFailed; an environment that
    never parses leaves the default one. After pose filling, any objects
    whose LLM-specified poses fail validation are re-sampled once before
    raising ValidationFailed.
    """
    if isinstance(description, str):
        description = parse_description(description)
    mentioned_ids = {m.id for m in resolve_mentions(description, catalog)}
    rng = random.Random(description_seed(seed))
    try:
        ops = _ask(
            provider,
            build_object_prompt(description, catalog),
            lambda reply: parse_llm_ops(reply, catalog, description.object_count),
            _OPS_ERRORS,
        )
    except _OPS_ERRORS as exc:
        raise ValidationFailed(f"provider never produced usable ops: {exc}") from exc

    present = {op.model_id for op in ops}
    missing = mentioned_ids - present
    if missing:
        raise ValidationFailed(
            f"provider scene omits described objects: {sorted(missing)}"
        )

    env = _env_from_description(description)
    if description.lighting is None and description.camera is None:
        with contextlib.suppress(*_ENV_ERRORS):
            env = _ask(
                provider, build_env_prompt(description), parse_llm_env, _ENV_ERRORS
            )

    filled = _fill_poses(ops, catalog, rng)
    config = SceneConfig(
        scene_id=scene_id or f"scene-{seed & 0xFFFFFFFF:08x}",
        adds=tuple(filled),
        env=env,
        seed=seed,
        provenance=Provenance.LLM,
    )
    violations = validate_config(config, catalog)
    if violations:
        config = _repair(config, violations, catalog, rng)
    return config


def _repair(
    config: SceneConfig,
    violations: list,
    catalog: Catalog,
    rng: random.Random,
) -> SceneConfig:
    """One repair pass: re-sample offending poses, reset a broken env."""
    bad_indices = set()
    bad_env = False
    for v in violations:
        if v.kind in ("bad_yaw", "out_of_range", "overlap"):
            bad_indices.update(i for i in v.subject if isinstance(i, int))
        elif v.kind in ("bad_lighting", "bad_camera"):
            bad_env = True
        else:
            raise ValidationFailed(f"unrepairable scene: {v}")
    adds = list(config.adds)
    placed = [op for i, op in enumerate(adds) if i not in bad_indices]
    for i in sorted(bad_indices):
        model = catalog.get(adds[i].model_id)
        pose = sample_pose(rng, placed, model, catalog)
        adds[i] = ObjectAddOp(model_id=adds[i].model_id, pose=pose)
        placed.append(adds[i])
    env = default_env() if bad_env else config.env
    repaired = replace(config, adds=tuple(adds), env=env)
    remaining = validate_config(repaired, catalog)
    if remaining:
        raise ValidationFailed(
            "scene repair failed: " + "; ".join(str(v) for v in remaining[:3])
        )
    return repaired
