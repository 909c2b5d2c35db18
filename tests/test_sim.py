"""Property tests for the kinematic simulator's invariants and contracts."""

import copy
import math
from dataclasses import dataclass

from hypothesis import example, given, settings
from hypothesis import strategies as st

from benchtop.catalog import load_default_catalog
from benchtop.errors import PlacementExhausted
from benchtop.generation import fallback_generate
from benchtop.jsonio import quantize
from benchtop.scene import (
    _EPS,
    PLACEMENT_MARGIN,
    REST_TOL,
    TABLE_HALF_X,
    TABLE_HEIGHT,
    CameraPose,
    EnvSetupOp,
    ObjectAddOp,
    Pose,
    Provenance,
    SceneConfig,
    SceneDescription,
    footprint_half_extents,
    validate_config,
)
from benchtop.sim import (
    ACTION_DELTA_LIMIT,
    CONTAINER_FLOOR_OFFSET,
    GRASP_RADIUS,
    GRIPPER_HOME,
    WORKSPACE_HALF_X,
    WORKSPACE_HALF_Y,
    WORKSPACE_Z_MAX,
    Action,
    GripperCommand,
    WorldObject,
    _landing,
    _placed,
    init_world,
    make_action,
    observe,
    render_raster,
    step,
)

CATALOG = load_default_catalog()
GRASPABLE = [m for m in CATALOG.models if m.graspable]
SURFACES = [m for m in CATALOG.models if m.support_surface or m.container]

# Deltas reach past the limit, so make_action's clamp is exercised too.
actions = st.builds(
    make_action,
    *[st.floats(-0.08, 0.08)] * 3,
    st.sampled_from(GripperCommand),
)


@st.composite
def planned_scenes(draw, max_count=4, mentions=st.just(())):
    count = draw(st.integers(1, max_count))
    seed = draw(st.integers(0, 2**32 - 1))
    description = SceneDescription(object_count=count, mentions=draw(mentions))
    try:
        return fallback_generate(description, CATALOG, seed)
    except PlacementExhausted:
        return fallback_generate(SceneDescription(object_count=1), CATALOG, seed)


def poses(objects):
    return [o.pose for o in objects]


def trajectory(config, action_list):
    """The worlds ``(objects, position, attached)`` from the start on."""
    worlds = [(init_world(config, CATALOG), GRIPPER_HOME, None)]
    for action in action_list:
        worlds.append(step(*worlds[-1], action))
    return worlds


@settings(max_examples=60, deadline=None)
@given(planned_scenes(), st.lists(actions, max_size=40))
def test_step_is_pure_and_deterministic(config, action_list):
    world = (init_world(config, CATALOG), GRIPPER_HOME, None)
    for action in action_list:
        before = copy.deepcopy(world)
        first, second = step(*world, action), step(*world, action)
        assert first == second
        assert world == before
        world = first
    assert trajectory(config, action_list)[-1] == world


@settings(max_examples=60, deadline=None)
@given(planned_scenes(), st.lists(actions, max_size=60))
def test_gripper_stays_inside_the_workspace(config, action_list):
    for objects, (x, y, z), held in trajectory(config, action_list):
        assert -WORKSPACE_HALF_X <= x <= WORKSPACE_HALF_X
        assert -WORKSPACE_HALF_Y <= y <= WORKSPACE_HALF_Y
        assert TABLE_HEIGHT <= z <= WORKSPACE_Z_MAX
        if held is not None:
            assert z >= TABLE_HEIGHT + objects[held].height_m / 2.0
            assert objects[held].pose.position_m == (x, y, z)


@settings(max_examples=60, deadline=None)
@given(planned_scenes(), st.lists(actions, max_size=60))
def test_no_step_moves_the_gripper_more_than_the_delta_limit(config, action_list):
    worlds = trajectory(config, action_list)
    for old, new in zip(worlds, worlds[1:]):
        for before, after in zip(old[1], new[1]):
            assert abs(after - before) <= ACTION_DELTA_LIMIT + 1e-12


def same_tuple_exactly_when_no_pose_changed(old, new):
    return (new is old) == (poses(new) == poses(old))


@settings(max_examples=60, deadline=None)
@given(planned_scenes(), st.lists(actions, max_size=40))
def test_objects_are_the_same_tuple_exactly_when_no_pose_changed(config, action_list):
    worlds = trajectory(config, action_list)
    for old, new in zip(worlds, worlds[1:]):
        assert same_tuple_exactly_when_no_pose_changed(old[0], new[0])


def _resting(model, x):
    return ObjectAddOp(
        model_id=model.id,
        pose=Pose(position_m=(x, 0.0, quantize(model.dimensions_m[2] / 2.0))),
    )


def _two_object_scene(item, surface):
    """``item`` near the left edge of the table, ``surface`` near the right."""
    item_fx = footprint_half_extents(item.shape, item.dimensions_m, 0.0)[0]
    surface_fx = footprint_half_extents(surface.shape, surface.dimensions_m, 0.0)[0]
    edge = TABLE_HALF_X - PLACEMENT_MARGIN - 0.001
    config = SceneConfig(
        scene_id="drop",
        adds=(
            _resting(item, quantize(-edge + item_fx)),
            _resting(surface, quantize(edge - surface_fx)),
        ),
        env=EnvSetupOp(),
        seed=0,
        provenance=Provenance.MANUAL,
    )
    assert validate_config(config, CATALOG) == []
    return config


@dataclass(frozen=True, slots=True)
class Gripper:
    position: tuple[float, float, float]
    attached: int | None


@dataclass(frozen=True, slots=True)
class WorldState:
    objects: tuple[WorldObject, ...]
    gripper: Gripper


def _clamp(v: float, lo: float, hi: float) -> float:
    return lo if v < lo else hi if v > hi else v


def _nearest_graspable(objects, pos):
    """The grasp search as the simulator first wrote it: every graspable the
    gripper is at or above, by its full distance, ties to the lower index."""
    best = None
    for i, obj in enumerate(objects):
        if not obj.graspable:
            continue
        if pos[2] + _EPS < TABLE_HEIGHT + obj.height_m / 2.0:
            continue
        c = obj.pose.position_m
        d = math.sqrt(
            (c[0] - pos[0]) ** 2 + (c[1] - pos[1]) ** 2 + (c[2] - pos[2]) ** 2
        )
        if d <= GRASP_RADIUS + _EPS and (best is None or (d, i) < best):
            best = (d, i)
    return None if best is None else best[1]


def reference_step(state: WorldState, action: Action) -> WorldState:
    """The step the simulator had when a world was one ``WorldState``, with
    its own clamp and grasp search and the sim's ``_landing`` and
    ``_placed``: the reference the three-value ``step`` must agree with."""
    (dx, dy, dz), cmd = action

    g = state.gripper
    attached = g.attached
    z_min = TABLE_HEIGHT
    if attached is not None:
        z_min = TABLE_HEIGHT + state.objects[attached].height_m / 2.0
    nx = _clamp(g.position[0] + dx, -WORKSPACE_HALF_X, WORKSPACE_HALF_X)
    ny = _clamp(g.position[1] + dy, -WORKSPACE_HALF_Y, WORKSPACE_HALF_Y)
    nz = _clamp(g.position[2] + dz, z_min, WORKSPACE_Z_MAX)
    pos = (nx, ny, nz)

    moving, target = attached, pos
    if cmd is GripperCommand.CLOSE and attached is None:
        attached = moving = _nearest_graspable(state.objects, pos)
    elif cmd is GripperCommand.OPEN and attached is not None:
        target = _landing(state.objects, attached, pos)
        attached = None
    objects = state.objects
    if moving is not None:
        objects = _placed(objects, moving, target)

    return WorldState(objects=objects, gripper=Gripper(position=pos, attached=attached))


# How far from a graspable center an "edge" segment steers, along x or y:
# a few ulps either side of the grasp radius, of the radius with its
# tolerance, and of twice the radius, beyond which no object is in reach.
edge_offsets = st.tuples(
    st.sampled_from([0, 1]),
    st.builds(
        lambda base, ulps, sign: sign * (base + ulps * math.ulp(base)),
        st.sampled_from([GRASP_RADIUS, GRASP_RADIUS + _EPS, 2 * GRASP_RADIUS]),
        st.integers(-4, 4),
        st.sampled_from([-1.0, 1.0]),
    ),
)

# A segment steers for up to 12 steps: freely by a fixed delta, toward a
# graspable object's center (where CLOSE grasps it), to the edge of its grasp
# radius, to the midpoint of two graspables, or toward a point above a
# support's or container's top (where OPEN drops the load onto it). Far
# targets ask for deltas past the limit, which ``make_action`` clamps.
segments = st.tuples(
    st.sampled_from(["free", "center", "edge", "between", "above"]),
    st.integers(0, 4),  # the object, modulo the count of candidates
    st.integers(1, 12),  # its steps
    st.tuples(*[st.floats(-0.08, 0.08)] * 3),  # the free delta, a tenth as jitter
    st.floats(0.0, 0.1),  # the load's clearance above the top
    st.sampled_from(GripperCommand),  # on arrival, or a free segment's last step
    st.sampled_from(GripperCommand),  # on the other steps
    edge_offsets,  # an edge segment's axis and offset
)


def _steered(world, segment, last):
    objects, position, attached = world
    kind, index, _, delta, clearance, arrival_command, command, edge = segment
    if kind != "free":
        if kind == "above":
            candidates = [o for o in objects if o.support_surface or o.container]
        else:
            candidates = [o for o in objects if o.graspable]
        candidates = candidates or list(objects)
        obj = candidates[index % len(candidates)]
        x, y, z = obj.pose.position_m
        if kind == "above":
            load = 0.0 if attached is None else objects[attached].height_m / 2
            z = obj.top + load + clearance
        if kind == "between":
            other = candidates[(index + 1) % len(candidates)].pose.position_m
            target = ((x + other[0]) / 2, (y + other[1]) / 2, max(z, other[2]))
        elif kind == "edge":
            axis, offset = edge
            target = (x + offset, y, z) if axis == 0 else (x, y + offset, z)
        else:
            jx, jy, jz = (d / 10 for d in delta)  # jitter, never below the target
            target = (x + jx, y + jy, z + abs(jz))
        delta = [t - p for t, p in zip(target, position)]
        last = all(abs(d) <= ACTION_DELTA_LIMIT for d in delta)
    return make_action(*delta, arrival_command if last else command)


STILL = (0.0, 0.0, 0.0)
NO_EDGE = (0, 0.0)


def _carry(item, surface):
    """A scene and segments that carry ``item`` onto ``surface`` and drop it."""
    return _two_object_scene(item, surface), [
        ("center", 0, 12, STILL, 0.0, GripperCommand.CLOSE, GripperCommand.HOLD,
         NO_EDGE),
        ("above", 0, 12, STILL, 0.02, GripperCommand.OPEN, GripperCommand.HOLD,
         NO_EDGE),
    ]


def _tie_scene():
    """Two marbles 3 cm apart on x either side of the gripper's home column,
    so the gripper, lowered between them, is exactly as far from each."""
    marble = CATALOG.get("marble")
    config = SceneConfig(
        scene_id="tie",
        adds=(_resting(marble, -0.015), _resting(marble, 0.015)),
        env=EnvSetupOp(),
        seed=0,
        provenance=Provenance.MANUAL,
    )
    assert validate_config(config, CATALOG) == []
    return config


def _lower_between():
    """A scene and the segment that closes between its two equidistant
    graspables, which grasps the first of them."""
    return _tie_scene(), [
        ("between", 0, 12, STILL, 0.0, GripperCommand.CLOSE, GripperCommand.HOLD,
         NO_EDGE),
    ]


@settings(max_examples=150, deadline=None)
@example(*_carry(CATALOG.get("apple"), CATALOG.get("blue_plate")))
@example(*_carry(CATALOG.get("lemon"), CATALOG.get("bowl")))
@example(*_lower_between())
@given(
    planned_scenes(5, st.sampled_from(SURFACES).map(lambda m: (m.display_name,))),
    st.lists(segments, min_size=1, max_size=20),
)
def test_step_agrees_with_the_world_state_reference(config, segment_list):
    """Up to 50 steps, each also played by the reference: the same objects,
    position and attachment, and the same tuple back exactly when it was."""
    world = (init_world(config, CATALOG), GRIPPER_HOME, None)
    state = WorldState(world[0], Gripper(world[1], world[2]))
    plan = [(seg, i == seg[2] - 1) for seg in segment_list for i in range(seg[2])]
    for segment, last in plan[:50]:
        action = _steered(world, segment, last)
        new = step(*world, action)
        expected = reference_step(state, action)
        gripper = expected.gripper
        assert new == (expected.objects, gripper.position, gripper.attached)
        assert (new[0] is world[0]) == (expected.objects is state.objects)
        world, state = new, expected


def test_a_grasp_between_two_equidistant_objects_takes_the_first():
    config = _tie_scene()
    start = (init_world(config, CATALOG), GRIPPER_HOME, None)
    objects, position, attached = _go_to(start, (0.0, 0.0, 0.008), GripperCommand.CLOSE)
    left, right = (math.dist(o.pose.position_m, position) for o in start[0])
    assert left == right <= GRASP_RADIUS
    assert attached == 0
    assert objects[0].pose.position_m == position


def _go_to(world, target, gripper=GripperCommand.HOLD):
    """Step ``world`` toward ``target`` until the gripper is there.

    The last step sends ``gripper``. Every step keeps the identity contract.
    """
    while True:
        delta = [t - p for t, p in zip(target, world[1])]
        last = all(abs(d) <= ACTION_DELTA_LIMIT for d in delta)
        command = gripper if last else GripperCommand.HOLD
        new = step(*world, make_action(*delta, command))
        assert same_tuple_exactly_when_no_pose_changed(world[0], new[0])
        world = new
        if last:
            return world


@settings(max_examples=150, deadline=None)
@given(
    item=st.sampled_from(GRASPABLE),
    surface=st.sampled_from(SURFACES),
    offset=st.tuples(st.floats(-1.2, 1.2), st.floats(-1.2, 1.2)),
    height=st.floats(0.0, 0.3),
)
def test_released_object_rests_on_its_support_floor_or_the_table(
    item, surface, offset, height
):
    config = _two_object_scene(item, surface)
    start = (init_world(config, CATALOG), GRIPPER_HOME, None)
    grasped = _go_to(start, config.adds[0].pose.position_m, GripperCommand.CLOSE)
    assert grasped[2] == 0
    below = grasped[0][1]
    half = item.dimensions_m[2] / 2.0
    drop = (
        below.pose.position_m[0] + offset[0] * below.fx,
        below.pose.position_m[1] + offset[1] * below.fy,
        min(TABLE_HEIGHT + half + height, WORKSPACE_Z_MAX),
    )
    carried, (cx, cy, cz), _ = _go_to(grasped, drop)
    assert carried[0].pose.position_m == (cx, cy, cz)
    released, _, held = step(
        carried, (cx, cy, cz), 0, make_action(0.0, 0.0, 0.0, GripperCommand.OPEN)
    )
    assert same_tuple_exactly_when_no_pose_changed(carried, released)
    assert held is None
    rest = released[0]
    assert rest.pose.position_m[:2] == (cx, cy)

    base_at_release = cz - half
    inside = (
        abs(cx - below.pose.position_m[0]) <= below.fx + 1e-9
        and abs(cy - below.pose.position_m[1]) <= below.fy + 1e-9
    )
    surface_z = below.base + CONTAINER_FLOOR_OFFSET if below.container else below.top
    lands_on_surface = inside and surface_z <= base_at_release + REST_TOL
    expected = surface_z if lands_on_surface else TABLE_HEIGHT
    assert math.isclose(rest.base, expected, abs_tol=1e-12)
    assert released[1] is carried[1]


@settings(max_examples=30, deadline=None)
@given(planned_scenes())
def test_render_raster_returns_immutable_bytes(config):
    raster = render_raster(init_world(config, CATALOG), config.env)
    assert type(raster) is bytes
    assert len(raster) == 64 * 64


def test_degenerate_camera_raster_is_blank_bytes():
    config = fallback_generate(SceneDescription(object_count=2), CATALOG, 5)
    here = (0.0, 0.0, 0.5)
    env = EnvSetupOp(camera=CameraPose(position_m=here, look_at_m=here))
    raster = render_raster(init_world(config, CATALOG), env)
    assert type(raster) is bytes
    assert len(raster) == 64 * 64
    assert not any(raster)


@settings(max_examples=30, deadline=None)
@given(planned_scenes(), st.lists(actions, max_size=20), st.booleans())
def test_an_observation_carries_the_world_objects_tuple_itself(
    config, action_list, render
):
    objects = trajectory(config, action_list)[-1][0]
    obs = observe(objects, config.env, "pick up the cup", render=render)
    assert obs.objects is objects
    assert (obs.raster is not None) == render
