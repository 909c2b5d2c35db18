"""Deterministic kinematic tabletop simulator.

The world is a set of rigid objects on a 0.6 m x 0.4 m table plus a point
gripper, carried as three values: the objects tuple, the gripper position
and the index of the attached object (``None`` when the gripper holds
nothing). A world starts as ``init_world``'s objects with the gripper at
``GRIPPER_HOME`` holding nothing. Stepping is pure: ``step(objects,
position, attached, action)`` returns the next three values and never
consults a random source, so identical configs and action sequences
reproduce identical trajectories bit for bit.

An action is a plain pair ``((dx, dy, dz), gripper)``: the gripper's
displacement and a ``GripperCommand``. ``make_action`` builds one with every
delta clamped to +-``ACTION_DELTA_LIMIT``. ``step`` does not clamp the
deltas again, so a caller that writes the pair itself keeps each delta
within the limit.

Mechanics, in full:

- Per-axis motion is bounded to +-0.05 m per step by the action, and the
  gripper is confined to the workspace box. While holding an object the
  gripper's lower z bound rises to the object's half-height so the load can
  never dip below the table surface.
- CLOSE grasps the nearest graspable object whose center lies within the
  2 cm grasp radius, provided the gripper is at or above the object's
  half-height (grasps come from at/above the center, never from below).
  Ties break toward the smallest object index. The attached object's center
  then tracks the gripper exactly.
- OPEN releases the attachment; the object settles with its base on the
  highest eligible surface directly below its center: a support object's
  top, a container object's interior floor, or the table. Candidates whose
  landing height sits above the falling object's base are ignored, as are
  objects that are neither supports nor containers (the simulator is
  kinematic; there is no contact response).

Observations carry the instruction, the world's own immutable objects tuple,
and an optional 64 x 64 grayscale raster rendered orthographically from the
camera pose; they carry no step count. Pixel intensity is the product of a
depth shade and the lighting intensity, clamped at 255, so rescaling the
lighting rescales every non-background pixel multiplicatively.

Two contracts let callers reuse what they derived from a world:

- Identity: the objects tuple ``step`` returns is its ``objects`` argument
  itself exactly when no object's pose changed. Everything ``observe``,
  ``render_raster`` and ``check_success`` read about the objects is in that
  tuple, so a caller may keep their results while the tuple stays the same.
- Immutable rasters: ``render_raster`` returns ``bytes``, 64 x 64 pixels in
  row-major order, so one raster can be shared by many observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .catalog import Catalog
from .scene import (
    _EPS,
    REST_TOL,
    TABLE_HEIGHT,
    EnvSetupOp,
    Pose,
    SceneConfig,
    footprint_half_extents,
)

GRIPPER_HOME = (0.0, 0.0, 0.3)
WORKSPACE_HALF_X = 0.35
WORKSPACE_HALF_Y = 0.25
WORKSPACE_Z_MAX = 0.5

ACTION_DELTA_LIMIT = 0.05
GRASP_RADIUS = 0.02
PICK_HEIGHT = 0.10
NEAR_DISTANCE = 0.10
CONTAINER_FLOOR_OFFSET = 0.005
DEFAULT_MAX_STEPS = 200

RASTER_WIDTH = 64
RASTER_HEIGHT = 64
VIEW_HALF_WIDTH = 0.45


class Task(str, Enum):
    PICK_UP = "pick_up"
    MOVE_NEAR = "move_near"
    PUT_ON = "put_on"
    PUT_IN = "put_in"


class GripperCommand(str, Enum):
    OPEN = "OPEN"
    CLOSE = "CLOSE"
    HOLD = "HOLD"


Action = tuple[tuple[float, float, float], GripperCommand]


def make_action(
    dx: float, dy: float, dz: float, gripper: GripperCommand
) -> Action:
    """The action ``((dx, dy, dz), gripper)``, each delta clamped to
    +-``ACTION_DELTA_LIMIT``."""
    lim = ACTION_DELTA_LIMIT
    return (
        (
            -lim if dx < -lim else lim if dx > lim else dx,
            -lim if dy < -lim else lim if dy > lim else dy,
            -lim if dz < -lim else lim if dz > lim else dz,
        ),
        gripper,
    )


@dataclass(frozen=True, slots=True)
class WorldObject:
    model_id: str
    pose: Pose
    height_m: float
    fx: float
    fy: float
    graspable: bool
    container: bool
    support_surface: bool

    @property
    def base(self) -> float:
        return self.pose.position_m[2] - self.height_m / 2.0

    @property
    def top(self) -> float:
        return self.pose.position_m[2] + self.height_m / 2.0


@dataclass(frozen=True, slots=True)
class Observation:
    instruction: str
    objects: tuple[WorldObject, ...]
    raster: bytes | None


@dataclass(frozen=True)
class TaskGoal:
    task: Task
    target_a_index: int
    target_b_index: int | None = None


def init_world(config: SceneConfig, catalog: Catalog) -> tuple[WorldObject, ...]:
    """The start objects of ``config``, which must pass ``validate_config``.

    The config is not checked again here: ``CampaignManifest.validate``
    checks every scene, with its JSON path, before a run builds its worlds.
    """
    objects = []
    for op in config.adds:
        model = catalog.get(op.model_id)
        fx, fy = footprint_half_extents(
            model.shape, model.dimensions_m, op.pose.yaw_rad
        )
        objects.append(
            WorldObject(
                model_id=model.id,
                pose=op.pose,
                height_m=model.dimensions_m[2],
                fx=fx,
                fy=fy,
                graspable=model.graspable,
                container=model.container,
                support_surface=model.support_surface,
            )
        )
    return tuple(objects)


def _contains_xy(obj: WorldObject, x: float, y: float) -> bool:
    ox, oy = obj.pose.position_m[0], obj.pose.position_m[1]
    return abs(x - ox) <= obj.fx + _EPS and abs(y - oy) <= obj.fy + _EPS


def _placed(
    objects: tuple[WorldObject, ...],
    index: int,
    position: tuple[float, float, float],
) -> tuple[WorldObject, ...]:
    """``objects`` with object ``index`` centered at ``position``.

    Returns ``objects`` itself when the object is already there.
    """
    obj = objects[index]
    if obj.pose.position_m == position:
        return objects
    out = list(objects)
    out[index] = WorldObject(
        obj.model_id, Pose(position_m=position, yaw_rad=obj.pose.yaw_rad),
        obj.height_m, obj.fx, obj.fy, obj.graspable, obj.container,
        obj.support_surface,
    )
    return tuple(out)


def _nearest_graspable(
    objects: tuple[WorldObject, ...], pos: tuple[float, float, float]
) -> int | None:
    best: tuple[float, int] | None = None
    reach = 2 * GRASP_RADIUS  # past this on x or y, out of reach by far
    for i, obj in enumerate(objects):
        if not obj.graspable:
            continue
        c = obj.pose.position_m
        if abs(c[0] - pos[0]) > reach or abs(c[1] - pos[1]) > reach:
            continue
        if pos[2] + _EPS < TABLE_HEIGHT + obj.height_m / 2.0:
            continue
        d = math.sqrt(
            (c[0] - pos[0]) ** 2 + (c[1] - pos[1]) ** 2 + (c[2] - pos[2]) ** 2
        )
        if d <= GRASP_RADIUS + _EPS and (best is None or (d, i) < best):
            best = (d, i)
    return None if best is None else best[1]


def _landing(
    objects: tuple[WorldObject, ...],
    index: int,
    position: tuple[float, float, float],
) -> tuple[float, float, float]:
    """Where object ``index``, released with its center at ``position``, rests."""
    obj = objects[index]
    cx, cy = position[0], position[1]
    base = position[2] - obj.height_m / 2.0
    landing = TABLE_HEIGHT
    for j, other in enumerate(objects):
        if j == index:
            continue
        if not (other.support_surface or other.container):
            continue
        if not _contains_xy(other, cx, cy):
            continue
        cand = (
            other.base + CONTAINER_FLOOR_OFFSET if other.container else other.top
        )
        if cand <= base + REST_TOL and cand > landing:
            landing = cand
    return (cx, cy, landing + obj.height_m / 2.0)


def step(
    objects: tuple[WorldObject, ...], position: tuple[float, float, float],
    attached: int | None, action: Action,
) -> tuple[tuple[WorldObject, ...], tuple[float, float, float], int | None]:
    """Advance one tick: the next ``(objects, position, attached)``.

    The caller bounds the number of steps. The returned objects tuple is
    ``objects`` itself exactly when no object's pose changed.
    """
    (dx, dy, dz), cmd = action
    z_min = TABLE_HEIGHT
    if attached is not None:
        z_min = TABLE_HEIGHT + objects[attached].height_m / 2.0
    x = position[0] + dx
    y = position[1] + dy
    z = position[2] + dz
    pos = (
        -WORKSPACE_HALF_X if x < -WORKSPACE_HALF_X
        else WORKSPACE_HALF_X if x > WORKSPACE_HALF_X else x,
        -WORKSPACE_HALF_Y if y < -WORKSPACE_HALF_Y
        else WORKSPACE_HALF_Y if y > WORKSPACE_HALF_Y else y,
        z_min if z < z_min else WORKSPACE_Z_MAX if z > WORKSPACE_Z_MAX else z,
    )

    # At most one object moves per step: the held one, the one just grasped,
    # or the one just released.
    moving, target = attached, pos
    if cmd is GripperCommand.CLOSE and attached is None:
        attached = moving = _nearest_graspable(objects, pos)
    elif cmd is GripperCommand.OPEN and attached is not None:
        target = _landing(objects, attached, pos)
        attached = None
    if moving is not None:
        objects = _placed(objects, moving, target)
    return objects, pos, attached


# ---- observation ----------------------------------------------------------


def render_raster(objects: tuple[WorldObject, ...], env: EnvSetupOp) -> bytes:
    """Orthographic 64x64 grayscale render, one byte per pixel in row-major
    order: pixel (row, col) is byte ``row * RASTER_WIDTH + col``.

    Each object is a filled rectangle (its projected AABB). The fill value is
    min(255, round(intensity * shade)) where shade is an integer derived from
    the object's depth along the view axis; background stays 0. Objects are
    painted far to near. A camera that looks at its own position sees only
    background.
    """
    cam = env.camera
    px, py, pz = cam.position_m
    fx = cam.look_at_m[0] - px
    fy = cam.look_at_m[1] - py
    fz = cam.look_at_m[2] - pz
    norm = math.sqrt(fx * fx + fy * fy + fz * fz)
    if norm < _EPS:
        return bytes(RASTER_WIDTH * RASTER_HEIGHT)
    fx, fy, fz = fx / norm, fy / norm, fz / norm
    ux, uy, uz = (0.0, 0.0, 1.0)
    if abs(fx * ux + fy * uy + fz * uz) > 0.999:
        ux, uy, uz = (0.0, 1.0, 0.0)
    rx = fy * uz - fz * uy
    ry = fz * ux - fx * uz
    rz = fx * uy - fy * ux
    rn = math.sqrt(rx * rx + ry * ry + rz * rz)
    rx, ry, rz = rx / rn, ry / rn, rz / rn
    cux = ry * fz - rz * fy
    cuy = rz * fx - rx * fz
    cuz = rx * fy - ry * fx

    intensity = env.lighting.intensity
    span = 2.0 * VIEW_HALF_WIDTH
    layers = []
    for obj in objects:
        cx, cy, cz = obj.pose.position_m
        depth = (cx - px) * fx + (cy - py) * fy + (cz - pz) * fz
        if depth <= 0:
            continue
        shade = round(240.0 - 120.0 * depth)
        shade = 16 if shade < 16 else 240 if shade > 240 else shade
        value = min(255, round(intensity * shade))
        us = []
        vs = []
        for sx in (cx - obj.fx, cx + obj.fx):
            for sy in (cy - obj.fy, cy + obj.fy):
                for sz in (obj.base, obj.top):
                    qx, qy, qz = sx - px, sy - py, sz - pz
                    us.append(qx * rx + qy * ry + qz * rz)
                    vs.append(qx * cux + qy * cuy + qz * cuz)
        c0 = math.floor((min(us) + VIEW_HALF_WIDTH) / span * RASTER_WIDTH)
        c1 = math.floor((max(us) + VIEW_HALF_WIDTH) / span * RASTER_WIDTH)
        r0 = math.floor((VIEW_HALF_WIDTH - max(vs)) / span * RASTER_HEIGHT)
        r1 = math.floor((VIEW_HALF_WIDTH - min(vs)) / span * RASTER_HEIGHT)
        if c1 < 0 or c0 >= RASTER_WIDTH or r1 < 0 or r0 >= RASTER_HEIGHT:
            continue
        layers.append((depth, r0, r1, c0, c1, value))
    layers.sort(key=lambda item: -item[0])
    width = RASTER_WIDTH
    img = bytearray(width * RASTER_HEIGHT)
    for _, r0, r1, c0, c1, value in layers:
        r0, r1 = max(r0, 0), min(r1, RASTER_HEIGHT - 1) + 1
        c0, c1 = max(c0, 0), min(c1, width - 1) + 1
        # Walk the shorter side, so a rectangle costs min(rows, columns) slice
        # assignments: one per row, or one strided per column.
        if c1 - c0 >= r1 - r0:
            run = bytes((value,)) * (c1 - c0)
            for row in range(r0 * width, r1 * width, width):
                img[row + c0 : row + c1] = run
        else:
            run = bytes((value,)) * (r1 - r0)
            for c in range(c0, c1):
                img[r0 * width + c : r1 * width + c : width] = run
    return bytes(img)


def observe(
    objects: tuple[WorldObject, ...], env: EnvSetupOp, instruction: str, *,
    render: bool = True,
) -> Observation:
    """What a policy sees of ``objects``, whose tuple it carries itself."""
    raster = render_raster(objects, env) if render else None
    return Observation(instruction, objects, raster)


# ---- goals ----------------------------------------------------------------


def _hdist(a: WorldObject, b: WorldObject) -> float:
    ax, ay = a.pose.position_m[0], a.pose.position_m[1]
    bx, by = b.pose.position_m[0], b.pose.position_m[1]
    return math.sqrt((ax - bx) ** 2 + (ay - by) ** 2)


def check_success(
    objects: tuple[WorldObject, ...], attached: int | None, goal: TaskGoal
) -> bool:
    """Whether ``objects``, with object ``attached`` held, meet ``goal``, whose
    indices ``CampaignManifest.validate`` has checked: in range, and a
    distinct object b for all tasks but pick_up."""
    a = objects[goal.target_a_index]
    a_attached = attached == goal.target_a_index
    if goal.task is Task.PICK_UP:
        return a_attached and a.base >= TABLE_HEIGHT + PICK_HEIGHT - _EPS
    b = objects[goal.target_b_index]
    if goal.task is Task.MOVE_NEAR:
        return (not a_attached) and _hdist(a, b) <= NEAR_DISTANCE + _EPS
    if goal.task is Task.PUT_ON:
        return (
            (not a_attached)
            and abs(a.base - b.top) <= REST_TOL
            and _contains_xy(b, a.pose.position_m[0], a.pose.position_m[1])
        )
    return (  # PUT_IN
        (not a_attached)
        and _contains_xy(b, a.pose.position_m[0], a.pose.position_m[1])
        and b.base - _EPS <= a.pose.position_m[2] <= b.top + _EPS
    )
