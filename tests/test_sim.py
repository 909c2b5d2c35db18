"""Property tests for the kinematic simulator's invariants and contracts."""

import copy
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from benchtop.catalog import load_default_catalog
from benchtop.errors import PlacementExhausted
from benchtop.generation import fallback_generate
from benchtop.jsonio import quantize
from benchtop.scene import (
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
    WORKSPACE_HALF_X,
    WORKSPACE_HALF_Y,
    WORKSPACE_Z_MAX,
    Action,
    GripperCommand,
    init_world,
    observe,
    render_raster,
    step,
)

CATALOG = load_default_catalog()
GRASPABLE = [m for m in CATALOG.models if m.graspable]
SURFACES = [m for m in CATALOG.models if m.support_surface or m.container]

# Deltas reach past the limit, so Action.make's clamp is exercised too.
actions = st.builds(
    Action.make,
    *[st.floats(-0.08, 0.08)] * 3,
    st.sampled_from(GripperCommand),
)


@st.composite
def planned_scenes(draw):
    count = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    try:
        return fallback_generate(SceneDescription(object_count=count), CATALOG, seed)
    except PlacementExhausted:
        return fallback_generate(SceneDescription(object_count=1), CATALOG, seed)


def poses(state):
    return [o.pose for o in state.objects]


def trajectory(config, action_list):
    states = [init_world(config, CATALOG)]
    for action in action_list:
        states.append(step(states[-1], action))
    return states


@settings(max_examples=60, deadline=None)
@given(planned_scenes(), st.lists(actions, max_size=40))
def test_step_is_pure_and_deterministic(config, action_list):
    state = init_world(config, CATALOG)
    for action in action_list:
        before = copy.deepcopy(state)
        first, second = step(state, action), step(state, action)
        assert first == second
        assert state == before
        state = first
    assert trajectory(config, action_list)[-1] == state


@settings(max_examples=60, deadline=None)
@given(planned_scenes(), st.lists(actions, max_size=60))
def test_gripper_stays_inside_the_workspace(config, action_list):
    for state in trajectory(config, action_list):
        x, y, z = state.gripper.position
        assert -WORKSPACE_HALF_X <= x <= WORKSPACE_HALF_X
        assert -WORKSPACE_HALF_Y <= y <= WORKSPACE_HALF_Y
        assert TABLE_HEIGHT <= z <= WORKSPACE_Z_MAX
        held = state.gripper.attached
        if held is not None:
            assert z >= TABLE_HEIGHT + state.objects[held].height_m / 2.0
            assert state.objects[held].pose.position_m == state.gripper.position


@settings(max_examples=60, deadline=None)
@given(planned_scenes(), st.lists(actions, max_size=60))
def test_no_step_moves_the_gripper_more_than_the_delta_limit(config, action_list):
    states = trajectory(config, action_list)
    for old, new in zip(states, states[1:]):
        for before, after in zip(old.gripper.position, new.gripper.position):
            assert abs(after - before) <= ACTION_DELTA_LIMIT + 1e-12


def same_tuple_exactly_when_no_pose_changed(old, new):
    return (new.objects is old.objects) == (poses(new) == poses(old))


@settings(max_examples=60, deadline=None)
@given(planned_scenes(), st.lists(actions, max_size=40))
def test_objects_are_the_same_tuple_exactly_when_no_pose_changed(config, action_list):
    states = trajectory(config, action_list)
    for old, new in zip(states, states[1:]):
        assert same_tuple_exactly_when_no_pose_changed(old, new)


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


def _go_to(state, target, gripper=GripperCommand.HOLD):
    """Step toward ``target`` until the gripper is there.

    The last step sends ``gripper``. Every step keeps the identity contract.
    """
    while True:
        delta = [t - p for t, p in zip(target, state.gripper.position)]
        last = all(abs(d) <= ACTION_DELTA_LIMIT for d in delta)
        command = gripper if last else GripperCommand.HOLD
        new = step(state, Action.make(*delta, command))
        assert same_tuple_exactly_when_no_pose_changed(state, new)
        state = new
        if last:
            return state


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
    start = init_world(config, CATALOG)
    state = _go_to(start, config.adds[0].pose.position_m, GripperCommand.CLOSE)
    assert state.gripper.attached == 0
    below = state.objects[1]
    half = item.dimensions_m[2] / 2.0
    drop = (
        below.pose.position_m[0] + offset[0] * below.fx,
        below.pose.position_m[1] + offset[1] * below.fy,
        min(TABLE_HEIGHT + half + height, WORKSPACE_Z_MAX),
    )
    carried = _go_to(state, drop)
    assert carried.objects[0].pose.position_m == carried.gripper.position
    released = step(carried, Action.make(0.0, 0.0, 0.0, GripperCommand.OPEN))
    assert same_tuple_exactly_when_no_pose_changed(carried, released)
    assert released.gripper.attached is None
    rest = released.objects[0]
    cx, cy = carried.gripper.position[0], carried.gripper.position[1]
    assert rest.pose.position_m[:2] == (cx, cy)

    base_at_release = carried.gripper.position[2] - half
    inside = (
        abs(cx - below.pose.position_m[0]) <= below.fx + 1e-9
        and abs(cy - below.pose.position_m[1]) <= below.fy + 1e-9
    )
    surface_z = below.base + CONTAINER_FLOOR_OFFSET if below.container else below.top
    lands_on_surface = inside and surface_z <= base_at_release + REST_TOL
    expected = surface_z if lands_on_surface else TABLE_HEIGHT
    assert math.isclose(rest.base, expected, abs_tol=1e-12)
    assert released.objects[1] is carried.objects[1]


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
    state = trajectory(config, action_list)[-1]
    obs = observe(state, config.env, "pick up the cup", render=render)
    assert obs.objects is state.objects
    assert obs.step_count == state.step_count
    assert (obs.raster is not None) == render
