import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchtop.catalog import Catalog, ObjectModel, Shape, Source
from benchtop.errors import PlacementExhausted, SchemaViolation
from benchtop.jsonio import dumps, loads, quantize
from benchtop.scene import (
    PLACEMENT_MARGIN,
    TABLE_HALF_X,
    TABLE_HALF_Y,
    CameraPose,
    EnvSetupOp,
    LightingSpec,
    ObjectAddOp,
    Pose,
    Provenance,
    SceneConfig,
    footprint,
    footprint_half_extents,
    placement_capacity,
    sample_pose,
    validate_config,
)


def _model(id, shape=Shape.BOX, dims=(0.05, 0.05, 0.05), **over):
    base = dict(
        id=id,
        display_name=id.replace("_", " "),
        aliases=(),
        source=Source.SEEN_SET,
        shape=shape,
        dimensions_m=dims,
        graspable=True,
        container=False,
        support_surface=False,
    )
    base.update(over)
    return ObjectModel(**base)


@pytest.fixture(scope="module")
def toy_catalog():
    return Catalog(
        models=(
            _model("brick", dims=(0.08, 0.04, 0.03)),
            _model("drum", shape=Shape.CYLINDER, dims=(0.06, 0.06, 0.1)),
            _model("pea", shape=Shape.SPHERE, dims=(0.02, 0.02, 0.02)),
            _model("slab", dims=(0.2, 0.15, 0.02)),
        ),
        version="1",
    )


def _config(adds, env=None, **over):
    base = dict(
        scene_id="s",
        adds=tuple(adds),
        env=env or EnvSetupOp(),
        seed=3,
        provenance=Provenance.MANUAL,
    )
    base.update(over)
    return SceneConfig(**base)


def _resting(model, x, y, yaw=0.0):
    return ObjectAddOp(
        model_id=model.id,
        pose=Pose(position_m=(x, y, quantize(model.dimensions_m[2] / 2)), yaw_rad=yaw),
    )


# ---- geometry -------------------------------------------------------------


def _naive_box_extents(hx, hy, yaw):
    xs, ys = [], []
    for sx in (-hx, hx):
        for sy in (-hy, hy):
            xs.append(sx * math.cos(yaw) - sy * math.sin(yaw))
            ys.append(sx * math.sin(yaw) + sy * math.cos(yaw))
    return max(xs), max(ys)


@given(
    st.floats(min_value=0.01, max_value=0.2),
    st.floats(min_value=0.01, max_value=0.2),
    st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_box_footprint_matches_corner_rotation(w, d, yaw):
    fx, fy = footprint_half_extents(Shape.BOX, (w, d, 0.1), yaw)
    ex, ey = _naive_box_extents(w / 2, d / 2, yaw)
    assert fx == pytest.approx(ex, abs=1e-12)
    assert fy == pytest.approx(ey, abs=1e-12)


def test_round_footprints_ignore_yaw():
    for shape in (Shape.CYLINDER, Shape.SPHERE):
        assert footprint_half_extents(shape, (0.06, 0.06, 0.1), 1.3) == (0.03, 0.03)


# ---- pose sampling --------------------------------------------------------


def test_sampled_poses_satisfy_independent_predicates(toy_catalog):
    """10,000 samples re-checked with freshly written geometry.

    The oracle below recomputes footprints from rotated corners and gaps
    from raw interval arithmetic; nothing is shared with the implementation
    beyond the constants.
    """
    rng = random.Random(99)
    models = toy_catalog.models
    sampled = 0
    while sampled < 10_000:
        placed = []
        boxes = []
        taken = []
        for model in rng.sample(models, k=rng.randint(1, len(models))):
            pose = sample_pose(rng, taken, model)
            sampled += 1
            hx, hy, hz = (d / 2 for d in model.dimensions_m)
            if model.shape is Shape.BOX:
                ex, ey = _naive_box_extents(hx, hy, pose.yaw_rad)
            else:
                ex, ey = hx, hy
            x, y, z = pose.position_m
            assert z == quantize(hz)
            assert -math.pi <= pose.yaw_rad < math.pi
            assert x - ex >= -TABLE_HALF_X - 1e-9
            assert x + ex <= TABLE_HALF_X + 1e-9
            assert y - ey >= -TABLE_HALF_Y - 1e-9
            assert y + ey <= TABLE_HALF_Y + 1e-9
            box = (x - ex, x + ex, y - ey, y + ey)
            for other in boxes:
                gap_x = max(other[0] - box[1], box[0] - other[1])
                gap_y = max(other[2] - box[3], box[2] - other[3])
                assert max(gap_x, gap_y) >= PLACEMENT_MARGIN - 1e-9
            boxes.append(box)
            taken.append(footprint(model, pose))
            placed.append(ObjectAddOp(model_id=model.id, pose=pose))
        # the sampler's own invariants must agree with the validator
        assert validate_config(_config(placed), toy_catalog) == []


def test_sample_pose_quantized(toy_catalog):
    rng = random.Random(5)
    pose = sample_pose(rng, [], toy_catalog.models[0])
    for v in (*pose.position_m, pose.yaw_rad):
        assert v == quantize(v)


def test_oversized_model_exhausts_placement(toy_catalog):
    whale = _model("whale", dims=(0.7, 0.5, 0.1))
    with pytest.raises(PlacementExhausted):
        sample_pose(random.Random(0), [], whale)


def test_crowded_table_exhausts_placement():
    big = _model("big_slab", dims=(0.28, 0.18, 0.02))
    rng = random.Random(1)
    taken = [footprint(big, Pose(position_m=(0.0, 0.0, 0.01)))]
    with pytest.raises(PlacementExhausted):
        sample_pose(rng, taken, big)


def test_placement_capacity_of_the_default_catalog(catalog):
    assert placement_capacity(catalog) == 516


def test_placement_capacity_bounds_a_tight_valid_packing():
    # 9 cm squares 1 cm apart: six by four fit with a centimetre to spare
    side = 0.09
    cells = [(col, row) for col in range(6) for row in range(4)]
    tiles = Catalog(
        models=tuple(_model(f"tile_{c}_{r}", dims=(side, side, 0.02)) for c, r in cells),
        version="1",
    )
    adds = [
        _resting(tiles.get(f"tile_{c}_{r}"), -0.255 + 0.1 * c, -0.155 + 0.1 * r)
        for c, r in cells
    ]
    assert validate_config(_config(adds), tiles) == []
    assert placement_capacity(tiles) == 25


# ---- validation -----------------------------------------------------------


def test_valid_config_has_no_violations(toy_catalog):
    brick = toy_catalog.models[0]
    cfg = _config([_resting(brick, 0.0, 0.0)])
    assert validate_config(cfg, toy_catalog) == []


def test_empty_scene_flagged(toy_catalog):
    assert validate_config(_config([]), toy_catalog) == [
        "a scene needs at least one object"
    ]


def test_unknown_model_flagged(toy_catalog):
    cfg = _config([ObjectAddOp(model_id="ghost", pose=Pose(position_m=(0, 0, 0.01)))])
    assert validate_config(cfg, toy_catalog) == ["object 0: unknown model 'ghost'"]


def test_bad_yaw_flagged(toy_catalog):
    brick = toy_catalog.models[0]
    cfg = _config([_resting(brick, 0.0, 0.0), _resting(brick, 0.1, 0.0, yaw=math.pi)])
    assert validate_config(cfg, toy_catalog) == [
        f"object 1: yaw {math.pi} outside [-pi, pi)"
    ]


def test_off_table_flagged(toy_catalog):
    brick = toy_catalog.models[0]
    cfg = _config([_resting(brick, 0.29, 0.0)])
    assert validate_config(cfg, toy_catalog) == [
        "object 0: footprint extends beyond the placement range"
    ]


def test_floating_object_flagged(toy_catalog):
    op = ObjectAddOp(model_id="brick", pose=Pose(position_m=(0.0, 0.0, 0.2)))
    cfg = _config([op])
    assert validate_config(cfg, toy_catalog) == [
        "object 0: z 0.2 is not the resting height 0.015"
    ]


OVERLAP = "footprint closer than the placement margin to an earlier object"


def test_overlap_flagged(toy_catalog):
    brick = toy_catalog.models[0]
    cfg = _config([_resting(brick, 0.0, 0.0), _resting(brick, 0.02, 0.0)])
    assert validate_config(cfg, toy_catalog) == [f"object 1: {OVERLAP}"]


def test_margin_is_enforced_not_just_contact(toy_catalog):
    brick = toy_catalog.models[0]  # 0.08 wide: contact at dx = 0.08
    touching = _config([_resting(brick, 0.0, 0.0), _resting(brick, 0.085, 0.0)])
    assert validate_config(touching, toy_catalog) == [f"object 1: {OVERLAP}"]
    clear = _config([_resting(brick, 0.0, 0.0), _resting(brick, 0.09, 0.0)])
    assert validate_config(clear, toy_catalog) == []


def test_bad_lighting_flagged(toy_catalog):
    brick = toy_catalog.models[0]
    env = EnvSetupOp(lighting=LightingSpec(intensity=2.5))
    cfg = _config([_resting(brick, 0.0, 0.0)], env=env)
    assert validate_config(cfg, toy_catalog) == ["lighting 2.5 outside [0.25, 2.0]"]


def test_bad_camera_flagged(toy_catalog):
    brick = toy_catalog.models[0]
    for position, look_at, message in (
        ((0.1, 0.1, 0.5), (0.1, 0.1, 0.5), "camera position equals look_at"),
        ((0.0, 0.2, -0.1), (0.0, 0.0, 0.0), "camera must sit above the table plane"),
    ):
        env = EnvSetupOp(
            lighting=LightingSpec(),
            camera=CameraPose(position_m=position, look_at_m=look_at),
        )
        cfg = _config([_resting(brick, 0.0, 0.0)], env=env)
        assert validate_config(cfg, toy_catalog) == [message]


# ---- serialization --------------------------------------------------------


def test_exact_canonical_form(toy_catalog):
    brick = toy_catalog.models[0]
    cfg = _config([_resting(brick, 0.1, 0.05)])
    expected = (
        '{"adds":[{"model_id":"brick","pose":{"position_m":'
        "[0.100000,0.050000,0.015000],"
        '"yaw_rad":0.000000}}],"env":{"camera":{"look_at_m":'
        "[0.000000,0.000000,0.000000],"
        '"position_m":[0.000000,-0.500000,0.600000]},"lighting":'
        '{"intensity":1.000000}},"provenance":"manual","scene_id":"s","seed":3}'
    )
    assert dumps(cfg) == expected


def test_round_trip_identity(toy_catalog):
    brick = toy_catalog.models[0]
    cfg = _config([_resting(brick, -0.12, 0.07, yaw=1.25)])
    text = dumps(cfg)
    again = loads(SceneConfig, text)
    assert again == cfg
    assert dumps(again) == text


def test_schema_violation_reports_path():
    with pytest.raises(SchemaViolation) as err:
        loads(SceneConfig, '{"scene_id": "s", "seed": 1}')
    assert "$" in str(err.value)
    broken = (
        '{"adds":[{"model_id":"brick","pose":{"yaw_rad":0}}],'
        '"env":{"camera":{"look_at_m":[0,0,0],"position_m":[0,-0.5,0.6]},'
        '"lighting":{"intensity":1}},"provenance":"manual","scene_id":"s","seed":3}'
    )
    with pytest.raises(SchemaViolation) as err:
        loads(SceneConfig, broken)
    assert err.value.path == "$.adds[0].pose"


def test_bad_provenance_rejected():
    text = (
        '{"adds":[{"model_id":"b","pose":{"position_m":[0,0,0.015],"yaw_rad":0}}],'
        '"env":{"camera":{"look_at_m":[0,0,0],"position_m":[0,-0.5,0.6]},'
        '"lighting":{"intensity":1}},"provenance":"wishes","scene_id":"s","seed":3}'
    )
    with pytest.raises(SchemaViolation):
        loads(SceneConfig, text)



_pos = st.floats(min_value=-0.2, max_value=0.2).map(quantize)
_yaw = st.floats(min_value=-3.14159, max_value=3.14159).map(quantize)


@settings(max_examples=60)
@given(
    xs=st.lists(st.tuples(_pos, _pos, _yaw), min_size=1, max_size=3),
    seed=st.integers(min_value=0, max_value=2**63),
    intensity=st.floats(min_value=0.25, max_value=2.0).map(quantize),
)
def test_serialization_round_trips_any_config(xs, seed, intensity):
    adds = tuple(
        ObjectAddOp(
            model_id="thing",
            pose=Pose(position_m=(x, y, 0.015), yaw_rad=yaw),
        )
        for x, y, yaw in xs
    )
    cfg = SceneConfig(
        scene_id="prop",
        adds=adds,
        env=EnvSetupOp(lighting=LightingSpec(intensity=intensity)),
        seed=seed,
        provenance=Provenance.LLM,
    )
    text = dumps(cfg)
    assert loads(SceneConfig, text) == cfg
    assert dumps(loads(SceneConfig, text)) == text
