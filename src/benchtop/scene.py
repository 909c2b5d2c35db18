"""Scene value types, collision-free pose sampling, and validation.

Geometry conventions:

- The workspace is a 0.6 m x 0.4 m table surface centered at the origin, with
  the surface at z = 0. A pose's position is the object's center, so a freshly
  placed object has z equal to half its height.
- Footprints are XY axis-aligned bounding boxes. A box footprint accounts for
  yaw; cylinders and spheres are yaw-invariant.
- Two placements are valid when their footprints are disjoint with at least a
  1 cm margin.

Each invariant has one predicate: ``placement_problem`` for an object's
pose beside those placed before it, and ``env_problem`` for the lighting
and camera. The sampler, the scene compilers and ``validate_config`` all
decide by them.

All types are immutable value objects, and every float stored in them is
quantized to 6 decimals so canonical serialization round-trips exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum

from .catalog import Catalog, ObjectModel, Shape
from .errors import PlacementExhausted
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


# ---- geometry --------------------------------------------------------------


def footprint_half_extents(
    shape: Shape, dimensions_m: tuple[float, float, float], yaw_rad: float
) -> tuple[float, float]:
    hx, hy = dimensions_m[0] / 2.0, dimensions_m[1] / 2.0
    if shape is Shape.BOX:
        c, s = abs(math.cos(yaw_rad)), abs(math.sin(yaw_rad))
        return (hx * c + hy * s, hx * s + hy * c)
    return (hx, hy)


def footprint(model: ObjectModel, pose: Pose) -> tuple[float, float, float, float]:
    """``model``'s footprint box at ``pose``: (x_lo, x_hi, y_lo, y_hi)."""
    fx, fy = footprint_half_extents(model.shape, model.dimensions_m, pose.yaw_rad)
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


def placement_problem(
    model: ObjectModel, pose: Pose, taken: list[tuple[float, float, float, float]]
) -> str | None:
    """Why ``model`` cannot rest at ``pose`` beside the footprints ``taken``,
    or None when it can.

    This is the one placement rule: ``sample_pose`` accepts a candidate by
    it, ``generation`` keeps a given pose by it, and ``validate_config``
    checks each object of a scene by it against the objects before it.
    """
    yaw = pose.yaw_rad
    if not (-math.pi - _EPS <= yaw < math.pi):
        return f"yaw {yaw} outside [-pi, pi)"
    rest_z = model.dimensions_m[2] / 2.0
    if abs(pose.position_m[2] - rest_z) > REST_TOL:
        return f"z {pose.position_m[2]} is not the resting height {rest_z}"
    box = footprint(model, pose)
    if not (
        box[0] >= -TABLE_HALF_X - _EPS
        and box[1] <= TABLE_HALF_X + _EPS
        and box[2] >= -TABLE_HALF_Y - _EPS
        and box[3] <= TABLE_HALF_Y + _EPS
    ):
        return "footprint extends beyond the placement range"
    if not all(aabbs_disjoint(box, other) for other in taken):
        return "footprint closer than the placement margin to an earlier object"
    return None


def env_problem(env: EnvSetupOp) -> str | None:
    """Why ``env`` cannot light and film the table, or None when it can."""
    intensity = env.lighting.intensity
    if not (LIGHTING_MIN - _EPS <= intensity <= LIGHTING_MAX + _EPS):
        return f"lighting {intensity} outside [{LIGHTING_MIN}, {LIGHTING_MAX}]"
    camera = env.camera
    if camera.position_m == camera.look_at_m:
        return "camera position equals look_at"
    if camera.position_m[2] <= TABLE_HEIGHT:
        return "camera must sit above the table plane"
    return None


def sample_pose(
    rng: random.Random,
    taken: list[tuple[float, float, float, float]],
    model: ObjectModel,
) -> Pose:
    """Rejection-sample a pose for ``model`` beside the footprints ``taken``.

    Each candidate is quantized and then accepted by ``placement_problem``,
    so the pose returned is valid exactly as it is stored.
    """
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
        if placement_problem(model, pose, taken) is None:
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


def validate_config(config: SceneConfig, catalog: Catalog) -> list[str]:
    """What is wrong with ``config``, one message per object or env; an
    empty list when it is valid."""
    problems = [] if config.adds else ["a scene needs at least one object"]
    taken = []
    for i, op in enumerate(config.adds):
        model = catalog.get(op.model_id)
        if model is None:
            problems.append(f"object {i}: unknown model {op.model_id!r}")
            continue
        problem = placement_problem(model, op.pose, taken)
        if problem is not None:
            problems.append(f"object {i}: {problem}")
        taken.append(footprint(model, op.pose))
    problem = env_problem(config.env)
    if problem is not None:
        problems.append(problem)
    return problems
