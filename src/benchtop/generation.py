"""Natural-language scene descriptions compiled to scene configs.

Two compilation paths produce the same artifact:

- ``generate_scene`` asks a chat provider for the object list and parses
  the JSON out of the reply, asking at most three times with the last
  rejection appended, then keeps each given pose that fits and samples the
  others. The environment comes from the description alone.
  ``ask_environment`` asks the provider for it in the same way; only
  ``gen-scene`` calls it, and only when the description names neither
  lighting nor camera. A campaign never does, because its lighting and
  camera are factors.
- ``fallback_generate`` is fully offline: a small grammar pulls the object
  count, named objects, lighting, and camera out of the description, named
  objects are resolved against the catalog, and the rest of the scene is
  drawn from the remaining models with the seeded RNG.

Both emit only what ``scene.placement_problem`` and ``scene.env_problem``
accept, so every scene they compile passes ``validate_config``. Both
attach provenance so downstream reports can split results on it.
"""

from __future__ import annotations

import contextlib
import math
import random
import re
from dataclasses import replace

from .catalog import Catalog, ObjectModel
from .errors import (
    CountMismatch,
    DescriptionParseError,
    NoJsonFound,
    PlacementExhausted,
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
    Pose,
    Provenance,
    SceneConfig,
    SceneDescription,
    env_problem,
    footprint,
    placement_capacity,
    placement_problem,
    sample_pose,
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


def _finite(text: str) -> float:
    value = float(text)
    if math.isinf(value):  # more digits than a float can hold
        raise DescriptionParseError(f"number beyond the float range: {text[:12]}...")
    return quantize(value)


def parse_description(text: str) -> SceneDescription:
    """Parse a scene description into its structured form.

    Requires an object count ("<n> objects"); named objects, lighting, and
    camera clauses are optional, and a lighting or camera that
    ``env_problem`` rejects is a ``DescriptionParseError``.
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

    mentions = []
    for match in _MENTION_RE.finditer(stripped):
        mention = " ".join(match.group(1).split()).strip()
        if mention:
            mentions.append(mention)
    if len(mentions) > count:
        raise DescriptionParseError(
            f"description names {len(mentions)} objects but states a count of {count}"
        )

    lighting = None
    lm = _LIGHTING_RE.search(stripped)
    if lm is not None:
        lighting = LightingSpec(intensity=_finite(lm.group(1)))

    camera = None
    cm = _CAMERA_RE.search(stripped)
    if cm is not None:
        camera = CameraPose(
            position_m=tuple(_finite(g) for g in cm.groups()),
            look_at_m=(0.0, 0.0, 0.0),
        )

    description = SceneDescription(
        object_count=count,
        mentions=tuple(mentions),
        lighting=lighting,
        camera=camera,
        raw_text=stripped,
    )
    problem = env_problem(_env_from_description(description))
    if problem is not None:
        raise DescriptionParseError(problem)
    return description


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
        if not isinstance(model_id, str) or not model_id.strip():
            raise SchemaViolation("'model_id' must be a nonblank string", path=path)
        model = catalog.get(model_id) or catalog.resolve(model_id)
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
    """The environment in an LLM reply; one that ``env_problem`` rejects is
    a ``SchemaViolation``."""
    raw = first_json(text, "{", lambda value: isinstance(value, dict), "object")
    base = EnvSetupOp()
    lighting = decode(LightingSpec | None, raw.get("lighting"), "$.lighting")
    camera = decode(CameraPose | None, raw.get("camera"), "$.camera")
    env = EnvSetupOp(lighting=lighting or base.lighting, camera=camera or base.camera)
    problem = env_problem(env)
    if problem is not None:
        raise SchemaViolation(problem)
    return env


# ---- mention resolution ---------------------------------------------------


def resolve_mentions(
    description: SceneDescription, catalog: Catalog
) -> list[ObjectModel]:
    """The models ``description`` names; both compilers call it first, and it
    raises when one is unknown or the count cannot fit on the table."""
    resolved = []
    for mention in description.mentions:
        model = catalog.resolve(mention)
        if model is None:
            raise UnresolvableMention(
                f"no catalog object matches mention {mention!r}"
            )
        resolved.append(model)
    capacity = placement_capacity(catalog)
    if description.object_count > capacity:
        raise PlacementExhausted(
            f"{description.object_count} objects cannot fit on the table; "
            f"at most {capacity} could"
        )
    return resolved


def _env_from_description(description: SceneDescription) -> EnvSetupOp:
    base = EnvSetupOp()
    lighting = description.lighting or base.lighting
    camera = description.camera or base.camera
    return EnvSetupOp(lighting=lighting, camera=camera)


# ---- generation -----------------------------------------------------------


def _fill_poses(
    ops: list[ObjectAddOp], catalog: Catalog, rng: random.Random
) -> list[ObjectAddOp]:
    """Place ``ops`` in order: a given pose is kept when it fits beside the
    objects placed before it, and any other pose is sampled there."""
    placed: list[ObjectAddOp] = []
    taken = []
    for op in ops:
        model = catalog.get(op.model_id)
        pose = op.pose
        if pose is None or placement_problem(model, pose, taken) is not None:
            pose = sample_pose(rng, taken, model)
        placed.append(ObjectAddOp(model_id=op.model_id, pose=pose))
        taken.append(footprint(model, pose))
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
    for _ in range(description.object_count - len(ops)):
        if not pool:
            pool = list(catalog.models)
        model = pool.pop(rng.randrange(len(pool)))
        ops.append(ObjectAddOp(model_id=model.id, pose=None))
    return SceneConfig(
        scene_id=scene_id or f"scene-{seed & 0xFFFFFFFF:08x}",
        adds=tuple(_fill_poses(ops, catalog, rng)),
        env=_env_from_description(description),
        seed=seed,
        provenance=Provenance.FALLBACK,
    )


def generate_scene(
    description: SceneDescription | str,
    provider,
    catalog: Catalog,
    seed: int,
    scene_id: str | None = None,
) -> SceneConfig:
    """Compile a description to a valid scene via a chat provider.

    An unresolvable mention or a count past the table's capacity raises
    before any chat call, as in ``fallback_generate``. The provider is asked
    only for the objects, in at most 3 chat calls, each retry appending the
    previous reply's rejection to the prompt; objects that never parse
    raise ValidationFailed. The environment is the description's, as in
    ``fallback_generate``. Poses are placed in op order: an LLM pose that
    fits beside the objects before it is kept, and any other is sampled in
    its place.
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

    return SceneConfig(
        scene_id=scene_id or f"scene-{seed & 0xFFFFFFFF:08x}",
        adds=tuple(_fill_poses(ops, catalog, rng)),
        env=_env_from_description(description),
        seed=seed,
        provenance=Provenance.LLM,
    )


def ask_environment(description: SceneDescription, provider) -> EnvSetupOp:
    """The environment a chat provider reads in ``description``.

    At most 3 chat calls, each retry appending the previous reply's
    rejection to the prompt. A reply that never parses, or is out of range
    three times, gives the default environment. ``gen-scene`` calls this
    after ``generate_scene`` when the description names neither lighting
    nor camera; ``plan_campaign`` never does.
    """
    with contextlib.suppress(*_ENV_ERRORS):
        return _ask(provider, build_env_prompt(description), parse_llm_env, _ENV_ERRORS)
    return EnvSetupOp()
