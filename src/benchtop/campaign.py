"""Campaign planning: n scenes x k instructions, ahead of execution.

A campaign pins everything an execution run needs into a single manifest:
scene configs (synthesized from task-appropriate descriptions), the basic
instruction per scene, validated paraphrases, per-trial seeds, and the
factor settings the report will later group by. Planning is deterministic
given the master seed, so two plans of the same spec are byte-identical,
and the manifest can be shipped to other machines for execution.

Environment mutations are applied after scene generation with a 0.999
safety factor so the stated bounds (lighting shift within +-0.5, camera
rotation within 5 degrees, camera displacement within 5 cm) still hold
after coordinates are quantized to six decimals.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum

from . import __version__
from .catalog import Catalog, ObjectModel, Source
from .errors import (
    BenchtopError,
    EmptyFilteredSet,
    MissingSecondObject,
    PartialPlanFailure,
    SchemaViolation,
    UsageError,
)
from .generation import fallback_generate, generate_scene, parse_description
from .jsonio import canonical_dumps, encode, loads, quantize
from .paraphrase import (
    DEFAULT_SIMILARITY_THRESHOLD,
    InstructionSet,
    builtin_paraphrases,
    generate_paraphrases,
    validate_candidates,
)
from .scene import (
    LIGHTING_MAX,
    LIGHTING_MIN,
    EnvSetupOp,
    LightingSpec,
    CameraPose,
    SceneConfig,
    validate_config,
    with_env,
)
from .seeds import env_seed, scene_seed, splitmix64, trial_seed
from .sim import CONTAINER_FLOOR_OFFSET, Task

EPOCH_TIMESTAMP = "1970-01-01T00:00:00Z"

MIN_OBJECT_COUNT = 1
MAX_OBJECT_COUNT = 5

LIGHTING_DELTA_MAX = 0.5
CAMERA_ANGLE_MAX_DEG = 5.0
CAMERA_OFFSET_MAX_M = 0.05
_MUTATION_SAFETY = 0.999


class SourceMix(str, Enum):
    SEEN_ONLY = "seen_only"
    CONTAINS_UNSEEN = "contains_unseen"


class EnvVariant(str, Enum):
    DEFAULT = "default"
    LIGHTING_MUTATED = "lighting_mutated"
    CAMERA_MUTATED = "camera_mutated"


class InstructionKind(str, Enum):
    BASIC = "basic"
    PARAPHRASED = "paraphrased"


@dataclass(frozen=True)
class Factors:
    object_count_range: tuple[int, int] = (MIN_OBJECT_COUNT, MAX_OBJECT_COUNT)
    source_filter: str | None = None
    lighting_mutation: bool = False
    camera_mutation: bool = False
    use_paraphrases: bool = True


@dataclass(frozen=True)
class CampaignSpec:
    task: Task
    n_scenes: int
    k_instructions: int
    factors: Factors = field(default_factory=Factors)
    master_seed: int = 0
    threshold: float = DEFAULT_SIMILARITY_THRESHOLD

    def validate(self) -> None:
        lo, hi = self.factors.object_count_range
        if self.n_scenes < 1:
            raise UsageError(f"n_scenes must be >= 1, got {self.n_scenes}")
        if self.k_instructions < 0:
            raise UsageError(
                f"k_instructions must be non-negative, got {self.k_instructions}"
            )
        if not (MIN_OBJECT_COUNT <= lo <= hi <= MAX_OBJECT_COUNT):
            raise UsageError(
                f"object_count_range must satisfy {MIN_OBJECT_COUNT} <= lo <= hi "
                f"<= {MAX_OBJECT_COUNT}, got {lo}..{hi}"
            )
        if self.factors.lighting_mutation and self.factors.camera_mutation:
            raise UsageError(
                "lighting_mutation and camera_mutation cannot both be enabled"
            )
        if self.factors.source_filter is not None:
            try:
                Source(self.factors.source_filter)
            except ValueError:
                raise UsageError(
                    f"unknown source_filter {self.factors.source_filter!r}"
                ) from None
        if not 0.0 < self.threshold <= 1.0:
            raise UsageError(f"threshold must be in (0, 1], got {self.threshold}")

    @property
    def env_variant(self) -> EnvVariant:
        if self.factors.lighting_mutation:
            return EnvVariant.LIGHTING_MUTATED
        if self.factors.camera_mutation:
            return EnvVariant.CAMERA_MUTATED
        return EnvVariant.DEFAULT


@dataclass(frozen=True)
class Trial:
    scene_index: int
    instruction_text: str
    instruction_kind: InstructionKind
    trial_seed: int


@dataclass(frozen=True)
class SceneMeta:
    object_count: int
    source_mix: SourceMix
    env_variant: EnvVariant
    target_a_index: int
    target_b_index: int | None
    basic_instruction: str


@dataclass(frozen=True)
class Shortfall:
    scene_index: int
    missing: int


INSTRUCTION_TEMPLATES = {
    Task.PICK_UP: "pick up the {a}",
    Task.MOVE_NEAR: "move the {a} near the {b}",
    Task.PUT_ON: "put the {a} on the {b}",
    Task.PUT_IN: "put the {a} inside the {b}",
}


def original_instruction(task: Task, a_name: str, b_name: str | None = None) -> str:
    template = INSTRUCTION_TEMPLATES[task]
    if "{b}" in template:
        if b_name is None:
            raise MissingSecondObject(
                f"task {task.value} needs a second object"
            )
        return template.format(a=a_name, b=b_name)
    return template.format(a=a_name)


# ---- environment mutation -------------------------------------------------


def mutate_lighting(env: EnvSetupOp, rng: random.Random) -> EnvSetupOp:
    delta = rng.uniform(-LIGHTING_DELTA_MAX, LIGHTING_DELTA_MAX) * _MUTATION_SAFETY
    raw = env.lighting.intensity + delta
    raw = LIGHTING_MIN if raw < LIGHTING_MIN else LIGHTING_MAX if raw > LIGHTING_MAX else raw
    return EnvSetupOp(
        lighting=LightingSpec(intensity=quantize(raw)), camera=env.camera
    )


def _unit_sphere(rng: random.Random) -> tuple[float, float, float]:
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    r = math.sqrt(max(0.0, 1.0 - z * z))
    return (r * math.cos(phi), r * math.sin(phi), z)


def mutate_camera(env: EnvSetupOp, rng: random.Random) -> EnvSetupOp:
    cam = env.camera
    vx = cam.look_at_m[0] - cam.position_m[0]
    vy = cam.look_at_m[1] - cam.position_m[1]
    vz = cam.look_at_m[2] - cam.position_m[2]
    vnorm = math.sqrt(vx * vx + vy * vy + vz * vz)
    ux, uy, uz = vx / vnorm, vy / vnorm, vz / vnorm

    # position offset, capped below 5 cm
    ox, oy, oz = _unit_sphere(rng)
    dist = rng.uniform(0.0, CAMERA_OFFSET_MAX_M) * _MUTATION_SAFETY
    position = (
        quantize(cam.position_m[0] + dist * ox),
        quantize(cam.position_m[1] + dist * oy),
        quantize(cam.position_m[2] + dist * oz),
    )

    # rotation axis perpendicular to the view direction
    while True:
        cx, cy, cz = _unit_sphere(rng)
        dot = cx * ux + cy * uy + cz * uz
        ax, ay, az = cx - dot * ux, cy - dot * uy, cz - dot * uz
        anorm = math.sqrt(ax * ax + ay * ay + az * az)
        if anorm > 1e-6:
            ax, ay, az = ax / anorm, ay / anorm, az / anorm
            break

    angle = math.radians(
        rng.uniform(-CAMERA_ANGLE_MAX_DEG, CAMERA_ANGLE_MAX_DEG) * _MUTATION_SAFETY
    )
    cos_t = math.cos(angle)
    sin_t = math.sin(angle)
    k_dot_v = ax * vx + ay * vy + az * vz
    crx = ay * vz - az * vy
    cry = az * vx - ax * vz
    crz = ax * vy - ay * vx
    rx = vx * cos_t + crx * sin_t + ax * k_dot_v * (1.0 - cos_t)
    ry = vy * cos_t + cry * sin_t + ay * k_dot_v * (1.0 - cos_t)
    rz = vz * cos_t + crz * sin_t + az * k_dot_v * (1.0 - cos_t)
    look_at = (
        quantize(position[0] + rx),
        quantize(position[1] + ry),
        quantize(position[2] + rz),
    )
    return EnvSetupOp(
        lighting=env.lighting,
        camera=CameraPose(position_m=position, look_at_m=look_at),
    )


def mutate_env(env: EnvSetupOp, variant: EnvVariant, rng: random.Random) -> EnvSetupOp:
    if variant is EnvVariant.LIGHTING_MUTATED:
        return mutate_lighting(env, rng)
    if variant is EnvVariant.CAMERA_MUTATED:
        return mutate_camera(env, rng)
    return env


# ---- scene synthesis ------------------------------------------------------


def _choice(rng: random.Random, pool: list[ObjectModel], what: str) -> ObjectModel:
    if not pool:
        raise EmptyFilteredSet(f"no eligible {what} in the catalog")
    return pool[rng.randrange(len(pool))]


def _pick_targets(
    task: Task, catalog: Catalog, rng: random.Random
) -> tuple[ObjectModel, ObjectModel | None]:
    graspable = [m for m in catalog.models if m.graspable]
    if task is Task.PICK_UP:
        return _choice(rng, graspable, "graspable object"), None
    if task is Task.MOVE_NEAR:
        a = _choice(rng, graspable, "graspable object")
        b = _choice(rng, [m for m in catalog.models if m.id != a.id], "second object")
        return a, b
    if task is Task.PUT_ON:
        b = _choice(
            rng, [m for m in catalog.models if m.support_surface], "support surface"
        )
        a = _choice(rng, [m for m in graspable if m.id != b.id], "graspable object")
        return a, b
    # PUT_IN: the held object must fit inside the container
    b = _choice(rng, [m for m in catalog.models if m.container], "container")
    fits = [
        m
        for m in graspable
        if m.id != b.id
        and CONTAINER_FLOOR_OFFSET + m.dimensions_m[2] / 2.0 <= b.dimensions_m[2]
    ]
    a = _choice(rng, fits, f"object fitting inside {b.id}")
    return a, b


def synthesize_description(
    task: Task, factors: Factors, catalog: Catalog, rng: random.Random
) -> tuple[str, ObjectModel, ObjectModel | None]:
    lo, hi = factors.object_count_range
    if task is Task.PICK_UP:
        count = rng.randint(lo, hi)
    else:
        count = rng.randint(max(lo, 2), max(hi, 2))
    a, b = _pick_targets(task, catalog, rng)
    text = f"{count} objects, one is {a.display_name}"
    if b is not None:
        text += f", one is {b.display_name}"
    return text, a, b


# ---- manifest -------------------------------------------------------------


@dataclass(frozen=True)
class CampaignManifest:
    spec: CampaignSpec
    scenes: tuple[SceneConfig, ...]
    instruction_sets: tuple[InstructionSet, ...]
    scene_meta: tuple[SceneMeta, ...]
    trials: tuple[Trial, ...]
    shortfalls: tuple[Shortfall, ...]
    created_at: str
    tool_version: str


    def dumps(self) -> str:
        return canonical_dumps(encode(self))

    def validate(self, catalog: Catalog) -> None:
        """Check internal consistency; raises SchemaViolation on breakage."""
        try:
            self.spec.validate()
        except UsageError as exc:
            raise SchemaViolation(str(exc), path="$.spec") from None
        n = self.spec.n_scenes
        if not (len(self.scenes) == len(self.scene_meta) == n):
            raise SchemaViolation(
                f"expected {n} scenes with metadata, got {len(self.scenes)} "
                f"and {len(self.scene_meta)}"
            )
        if self.spec.factors.use_paraphrases and self.spec.k_instructions > 1:
            if len(self.instruction_sets) != n:
                raise SchemaViolation(
                    f"expected {n} instruction sets, got {len(self.instruction_sets)}"
                )
        for i, scene in enumerate(self.scenes):
            bad = validate_config(scene, catalog)
            if bad:
                raise SchemaViolation(
                    f"scene {i} is invalid: {bad[0]}", path=f"$.scenes[{i}]"
                )
        seeds = [t.trial_seed for t in self.trials]
        if len(set(seeds)) != len(seeds):
            raise SchemaViolation("trial seeds are not globally unique")
        for j, trial in enumerate(self.trials):
            if not 0 <= trial.scene_index < n:
                raise SchemaViolation(
                    f"trial {j} references scene {trial.scene_index}"
                )
        variant = self.spec.env_variant
        for i, meta in enumerate(self.scene_meta):
            if meta.env_variant is not variant:
                raise SchemaViolation(
                    f"scene {i} is {meta.env_variant.value}, the spec asks for "
                    f"{variant.value}",
                    path=f"$.scene_meta[{i}].env_variant",
                )
            count = len(self.scenes[i].adds)
            if meta.object_count != count:
                raise SchemaViolation(
                    f"scene {i} metadata says {meta.object_count} objects, "
                    f"config has {count}"
                )
            if not 0 <= meta.target_a_index < count:
                raise SchemaViolation(f"scene {i} target_a_index out of range")
            if meta.target_b_index is not None and not (
                0 <= meta.target_b_index < count
            ):
                raise SchemaViolation(f"scene {i} target_b_index out of range")


def load_manifest(path) -> CampaignManifest:
    with open(path, encoding="utf-8") as fh:
        return loads(CampaignManifest, fh.read())


# ---- planning -------------------------------------------------------------


def plan_campaign(
    spec: CampaignSpec,
    catalog: Catalog,
    *,
    chat_provider=None,
    created_at: str | None = None,
) -> CampaignManifest:
    """Plan every scene and trial of a campaign.

    With no chat provider the offline compilation path is used throughout:
    seeded scene synthesis plus template paraphrases. Failures while
    planning an individual scene surface as PartialPlanFailure carrying the
    scene index; nothing is silently dropped.
    """
    spec.validate()
    pool = catalog
    if spec.factors.source_filter is not None:
        pool = catalog.filtered(Source(spec.factors.source_filter))

    scenes: list[SceneConfig] = []
    metas: list[SceneMeta] = []
    instruction_sets: list[InstructionSet] = []
    trials: list[Trial] = []
    shortfalls: list[Shortfall] = []
    used_seeds: set[int] = set()
    variant = spec.env_variant

    for i in range(spec.n_scenes):
        try:
            synth_rng = random.Random(scene_seed(spec.master_seed, i))
            text, a_model, b_model = synthesize_description(
                spec.task, spec.factors, pool, synth_rng
            )
            description = parse_description(text)
            seed_i = scene_seed(spec.master_seed, i)
            scene_id = f"scene-{i:04d}"
            if chat_provider is None:
                scene = fallback_generate(description, pool, seed_i, scene_id)
            else:
                scene = generate_scene(
                    description, chat_provider, pool, seed_i, scene_id
                )
            if variant is not EnvVariant.DEFAULT:
                env_rng = random.Random(env_seed(spec.master_seed, i))
                scene = with_env(scene, mutate_env(scene.env, variant, env_rng))

            a_index = next(
                j for j, op in enumerate(scene.adds) if op.model_id == a_model.id
            )
            b_index = None
            if b_model is not None:
                b_index = next(
                    j
                    for j, op in enumerate(scene.adds)
                    if op.model_id == b_model.id and j != a_index
                )
            basic = original_instruction(
                spec.task,
                a_model.display_name,
                None if b_model is None else b_model.display_name,
            )
            mix = (
                SourceMix.SEEN_ONLY
                if all(
                    catalog.get(op.model_id).source is Source.SEEN_SET
                    for op in scene.adds
                )
                else SourceMix.CONTAINS_UNSEEN
            )
            metas.append(
                SceneMeta(
                    object_count=len(scene.adds),
                    source_mix=mix,
                    env_variant=variant,
                    target_a_index=a_index,
                    target_b_index=b_index,
                    basic_instruction=basic,
                )
            )
            scenes.append(scene)

            texts: list[tuple[str, InstructionKind]] = []
            if spec.k_instructions >= 1:
                texts.append((basic, InstructionKind.BASIC))
            if spec.factors.use_paraphrases and spec.k_instructions > 1:
                want = spec.k_instructions - 1
                if chat_provider is None:
                    candidates = builtin_paraphrases(basic, want)
                else:
                    candidates = generate_paraphrases(basic, want, chat_provider)
                iset = validate_candidates(basic, candidates, want, spec.threshold)
                instruction_sets.append(iset)
                valid = iset.valid_texts
                texts.extend((t, InstructionKind.PARAPHRASED) for t in valid)
                if len(valid) < want:
                    shortfalls.append(
                        Shortfall(scene_index=i, missing=want - len(valid))
                    )
            for j, (instruction, kind) in enumerate(texts):
                ts = trial_seed(spec.master_seed, i, j)
                while ts in used_seeds:
                    ts = splitmix64(ts)
                used_seeds.add(ts)
                trials.append(
                    Trial(
                        scene_index=i,
                        instruction_text=instruction,
                        instruction_kind=kind,
                        trial_seed=ts,
                    )
                )
        except PartialPlanFailure:
            raise
        except BenchtopError as exc:
            raise PartialPlanFailure(
                f"planning failed at scene {i}: {exc}", scene_index=i
            ) from exc

    return CampaignManifest(
        spec=spec,
        scenes=tuple(scenes),
        instruction_sets=tuple(instruction_sets),
        scene_meta=tuple(metas),
        trials=tuple(trials),
        shortfalls=tuple(shortfalls),
        created_at=created_at if created_at is not None else EPOCH_TIMESTAMP,
        tool_version=__version__,
    )
