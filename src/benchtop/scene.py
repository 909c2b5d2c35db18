"""Scene value types, collision-free pose sampling, and validation.

Geometry conventions:

- The workspace is a 0.6 m x 0.4 m table surface centered at the origin, with
  the surface at z = 0. A pose's position is the object's center, so a freshly
  placed object has z equal to half its height.
- Footprints are XY axis-aligned bounding boxes. A box footprint accounts for
  yaw; cylinders and spheres are yaw-invariant.
- Two placements are valid when their footprints are disjoint with at least a
  1 cm margin.

All types are immutable value objects, and every float stored in them is
quantized to 6 decimals so canonical serialization round-trips exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from enum import Enum

from .catalog import Catalog, ObjectModel, Shape
from .errors import PlacementExhausted, UnknownModel
from .jsonio import quantize

TABLE_HALF_X = 0.3
TABLE_HALF_Y = 0.2
TABLE_HEIGHT = 0.0
PLACEMENT_MARGIN = 0.01
MAX_PLACEMENT_ATTEMPTS = 1000

LIGHTING_MIN = 0.25
LIGHTING_MAX = 2.0
DEFAULT_LIGHTING_INTENSITY = 1.0
DEFAULT_CAMERA_POSITION = (0.0, -0.5, 0.6)
DEFAULT_CAMERA_LOOK_AT = (0.0, 0.0, 0.0)

# yaw lives in [-pi, pi); these are the tightest 6-decimal values inside it
_YAW_LO = -3.141592
_YAW_HI = 3.141592

_EPS = 1e-9
REST_TOL = 1e-6


class Provenance(str, Enum):
    LLM = "llm"
    FALLBACK = "fallback"
    MANUAL = "manual"


@dataclass(frozen=True)
class Pose:
    position_m: tuple[float, float, float]
    yaw_rad: float = 0.0


@dataclass(frozen=True)
class LightingSpec:
    intensity: float = DEFAULT_LIGHTING_INTENSITY


@dataclass(frozen=True)
class CameraPose:
    position_m: tuple[float, float, float] = DEFAULT_CAMERA_POSITION
    look_at_m: tuple[float, float, float] = DEFAULT_CAMERA_LOOK_AT


@dataclass(frozen=True)
class EnvSetupOp:
    lighting: LightingSpec = LightingSpec()
    camera: CameraPose = CameraPose()


@dataclass(frozen=True)
class ObjectAddOp:
    model_id: str
    pose: Pose


@dataclass(frozen=True)
class SceneConfig:
    scene_id: str
    adds: tuple[ObjectAddOp, ...]
    env: EnvSetupOp
    seed: int
    provenance: Provenance


@dataclass(frozen=True)
class SceneDescription:
    object_count: int
    mentions: tuple[str, ...] = ()
    lighting: LightingSpec | None = None
    camera: CameraPose | None = None
    raw_text: str = ""


def default_env() -> EnvSetupOp:
    return EnvSetupOp()


# ---- geometry --------------------------------------------------------------


def footprint_half_extents(
    shape: Shape, dimensions_m: tuple[float, float, float], yaw_rad: float
) -> tuple[float, float]:
    hx, hy = dimensions_m[0] / 2.0, dimensions_m[1] / 2.0
    if shape is Shape.BOX:
        c, s = abs(math.cos(yaw_rad)), abs(math.sin(yaw_rad))
        return (hx * c + hy * s, hx * s + hy * c)
    return (hx, hy)


def footprint_aabb(
    pose: Pose, fx: float, fy: float
) -> tuple[float, float, float, float]:
    x, y = pose.position_m[0], pose.position_m[1]
    return (x - fx, x + fx, y - fy, y + fy)


def aabbs_disjoint(
    a: tuple[float, float, float, float],
    b: tuple[float, float, float, float],
    margin: float = PLACEMENT_MARGIN,
) -> bool:
    return (
        b[0] - a[1] >= margin - _EPS
        or a[0] - b[1] >= margin - _EPS
        or b[2] - a[3] >= margin - _EPS
        or a[2] - b[3] >= margin - _EPS
    )


def _within_table(aabb: tuple[float, float, float, float]) -> bool:
    return (
        aabb[0] >= -TABLE_HALF_X - _EPS
        and aabb[1] <= TABLE_HALF_X + _EPS
        and aabb[2] >= -TABLE_HALF_Y - _EPS
        and aabb[3] <= TABLE_HALF_Y + _EPS
    )


def _placed_aabbs(
    placed: list[ObjectAddOp] | tuple[ObjectAddOp, ...], catalog: Catalog
) -> list[tuple[float, float, float, float]]:
    out = []
    for op in placed:
        model = catalog.get(op.model_id)
        if model is None:
            raise UnknownModel(f"unknown model id: {op.model_id!r}")
        fx, fy = footprint_half_extents(
            model.shape, model.dimensions_m, op.pose.yaw_rad
        )
        out.append(footprint_aabb(op.pose, fx, fy))
    return out


def sample_pose(
    rng: random.Random,
    placed: list[ObjectAddOp] | tuple[ObjectAddOp, ...],
    model: ObjectModel,
    catalog: Catalog,
) -> Pose:
    """Rejection-sample a collision-free, on-table pose for ``model``.

    Candidates are quantized before the checks run, so an accepted pose
    satisfies exactly the predicates validate_config re-checks later.
    """
    taken = _placed_aabbs(placed, catalog)
    z = quantize(model.dimensions_m[2] / 2.0)
    for _ in range(MAX_PLACEMENT_ATTEMPTS):
        yaw = min(max(quantize(rng.uniform(-math.pi, math.pi)), _YAW_LO), _YAW_HI)
        fx, fy = footprint_half_extents(model.shape, model.dimensions_m, yaw)
        lo_x, hi_x = -TABLE_HALF_X + fx, TABLE_HALF_X - fx
        lo_y, hi_y = -TABLE_HALF_Y + fy, TABLE_HALF_Y - fy
        if lo_x > hi_x or lo_y > hi_y:
            continue
        x = quantize(rng.uniform(lo_x, hi_x))
        y = quantize(rng.uniform(lo_y, hi_y))
        pose = Pose(position_m=(x, y, z), yaw_rad=yaw)
        aabb = footprint_aabb(pose, fx, fy)
        if not _within_table(aabb):
            continue
        if all(aabbs_disjoint(aabb, other) for other in taken):
            return pose
    raise PlacementExhausted(
        f"no collision-free pose for {model.id!r} after "
        f"{MAX_PLACEMENT_ATTEMPTS} attempts"
    )


def placement_capacity(catalog: Catalog) -> int:
    """An upper bound on how many of ``catalog``'s objects fit on the table.

    Footprints grown by half the margin (less ``_EPS``) on every side are
    disjoint and lie within the table grown by as much (plus ``_EPS``). A
    footprint's box is never smaller than the unrotated one.
    """
    gap = PLACEMENT_MARGIN - _EPS
    smallest = min(
        (m.dimensions_m[0] + gap) * (m.dimensions_m[1] + gap) for m in catalog.models
    )
    room = (2 * TABLE_HALF_X + 2 * _EPS + gap) * (2 * TABLE_HALF_Y + 2 * _EPS + gap)
    return math.floor(room / smallest)


# ---- validation ------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str
    subject: tuple
    message: str

    def __str__(self) -> str:
        return f"{self.kind}{self.subject}: {self.message}"


def validate_config(config: SceneConfig, catalog: Catalog) -> list[Violation]:
    """Check every structural invariant; returns an empty list when valid."""
    violations: list[Violation] = []
    if not config.adds:
        violations.append(
            Violation("empty_scene", (), "a scene needs at least one object")
        )
    footprints: list[tuple[float, float, float, float] | None] = []
    for i, op in enumerate(config.adds):
        model = catalog.get(op.model_id)
        if model is None:
            violations.append(
                Violation("unknown_model", (i,), f"unknown model {op.model_id!r}")
            )
            footprints.append(None)
            continue
        yaw = op.pose.yaw_rad
        if not (-math.pi - _EPS <= yaw < math.pi):
            violations.append(
                Violation("bad_yaw", (i,), f"yaw {yaw} outside [-pi, pi)")
            )
        fx, fy = footprint_half_extents(model.shape, model.dimensions_m, yaw)
        aabb = footprint_aabb(op.pose, fx, fy)
        footprints.append(aabb)
        if not _within_table(aabb):
            violations.append(
                Violation(
                    "out_of_range",
                    (i,),
                    "footprint extends beyond the placement range",
                )
            )
        rest_z = model.dimensions_m[2] / 2.0
        if abs(op.pose.position_m[2] - rest_z) > REST_TOL:
            violations.append(
                Violation(
                    "out_of_range",
                    (i,),
                    f"z {op.pose.position_m[2]} is not the resting height {rest_z}",
                )
            )
    for i in range(len(config.adds)):
        for j in range(i + 1, len(config.adds)):
            a, b = footprints[i], footprints[j]
            if a is None or b is None:
                continue
            if not aabbs_disjoint(a, b):
                violations.append(
                    Violation(
                        "overlap",
                        (i, j),
                        "footprints closer than the placement margin",
                    )
                )
    intensity = config.env.lighting.intensity
    if not (LIGHTING_MIN - _EPS <= intensity <= LIGHTING_MAX + _EPS):
        violations.append(
            Violation(
                "bad_lighting",
                (),
                f"intensity {intensity} outside [{LIGHTING_MIN}, {LIGHTING_MAX}]",
            )
        )
    cam = config.env.camera
    if cam.position_m == cam.look_at_m:
        violations.append(
            Violation("bad_camera", (), "camera position equals look_at")
        )
    if cam.position_m[2] <= TABLE_HEIGHT:
        violations.append(
            Violation("bad_camera", (), "camera must sit above the table plane")
        )
    return violations


def with_env(config: SceneConfig, env: EnvSetupOp) -> SceneConfig:
    return replace(config, env=env)
