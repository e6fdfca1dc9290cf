import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from arplace.cli import PipelineConfig
from arplace.geometry import ObjectFeatures, RobotOffset, wrap_angle
from arplace.simworld import (Dataset, TrialRecord, corridor_coords, corridor_halfwidth,
                              default_object_grid, default_robot_grid,
                              default_world, execute_trial, generate_dataset,
                              geometric_success, grasp_outcome,
                              handle_position, theoretically_reachable)


@pytest.fixture(scope="module")
def w():
    return default_world(seed=0)


# ---------------------------------------------------------------------------
# deterministic geometry
# ---------------------------------------------------------------------------

def test_handle_position_zero_rotation(w):
    obj = ObjectFeatures(0.12, 0.0)
    hx, hy = handle_position(obj, w)
    assert hx == pytest.approx(-0.12 + w.handle_length)
    assert hy == pytest.approx(0.0)


def test_corridor_coords_identity_at_zero_rotation(w):
    obj = ObjectFeatures(w.handle_length, 0.0)  # handle at the origin
    along, lateral = corridor_coords(obj, 0.5, 0.2, w)
    assert along == pytest.approx(0.5)
    assert lateral == pytest.approx(0.2)


def test_corridor_halfwidth_tapers_linearly(w):
    near = corridor_halfwidth(w.reach_min, w)
    far = corridor_halfwidth(w.reach_max, w)
    assert near == pytest.approx(0.5 * w.corridor_width)
    assert far < near
    mid = corridor_halfwidth(0.5 * (w.reach_min + w.reach_max), w)
    assert mid == pytest.approx(0.5 * (near + far))
    assert corridor_halfwidth(100.0, w) == 0.0


def test_grasp_outcome_known_cases(w):
    obj = ObjectFeatures(0.12, 0.0)  # handle at the origin
    assert grasp_outcome(obj, 0.5, 0.0, w) == "none"
    assert grasp_outcome(obj, 0.5, 0.5, w) == "slip"
    assert grasp_outcome(obj, 1.2, 0.0, w) == "empty_grip"
    assert grasp_outcome(obj, 0.10, 0.0, w) == "table_collision"
    assert grasp_outcome(ObjectFeatures(0.05, 0.0), 0.125, 0.0, w) == \
        "object_collision"


def test_success_region_rotates_with_the_handle(w):
    # the corridor follows the handle axis: a spot that works for a straight
    # handle fails for a strongly rotated one, and the rotated corridor's
    # own far end works instead
    straight = ObjectFeatures(0.12, 0.0)
    rotated = ObjectFeatures(0.12, 0.6)
    far = (0.85, 0.0)
    assert grasp_outcome(straight, *far, w) == "none"
    assert grasp_outcome(rotated, *far, w) != "none"
    hx, hy = handle_position(rotated, w)
    swung = (hx + 0.8 * math.cos(0.6), hy + 0.8 * math.sin(0.6))
    assert grasp_outcome(rotated, *swung, w) == "none"


def test_reachability_is_superset_of_success(w):
    rng = np.random.default_rng(7)
    for _ in range(500):
        obj = ObjectFeatures(rng.uniform(0.0, 0.3), rng.uniform(-0.8, 0.8))
        rob = RobotOffset(rng.uniform(0.0, 1.3), rng.uniform(-1.0, 1.0))
        if geometric_success(obj, rob, w):
            assert theoretically_reachable(obj, rob, w)


def _reachable_reference(obj, robot, world):
    """The corridor formula of the reachability filter written out on its
    own: table clearance, reach interval, corridor half-width without the
    gripper margin, and the arm-sector bearing. The oracle that
    theoretically_reachable (grasp_outcome's stages with zero margins) must
    equal."""
    if robot.dx_rob < world.robot_radius:
        return False
    along, lateral = corridor_coords(obj, robot.dx_rob, robot.dy_rob, world)
    if not (world.reach_min <= along <= world.reach_max):
        return False
    if abs(lateral) > corridor_halfwidth(along, world):
        return False
    hx, hy = handle_position(obj, world)
    bearing = abs(wrap_angle(math.atan2(hy - robot.dy_rob, hx - robot.dx_rob) - math.pi))
    return bearing <= world.reach_halfangle


@pytest.mark.parametrize("margins", [
    {},
    {"grasp_margin": 0.07, "table_margin": 0.05, "min_object_clearance": 0.3},
], ids=["default", "wide_margins"])
def test_reachability_equals_the_corridor_formula(w, margins):
    """On 3,000 seeded (pose, base) pairs and on every pair of the default
    grids, whatever the world's margins."""
    world = dataclasses.replace(w, **margins)
    rng = np.random.default_rng(11)
    pairs = [(ObjectFeatures(rng.uniform(0.0, 0.3), rng.uniform(-0.8, 0.8)),
              RobotOffset(rng.uniform(0.0, 1.3), rng.uniform(-1.0, 1.0)))
             for _ in range(3000)]
    pairs += [(obj, rob) for obj in default_object_grid() for rob in default_robot_grid()]
    reachable = [_reachable_reference(obj, rob, world) for obj, rob in pairs]
    assert [theoretically_reachable(obj, rob, world) for obj, rob in pairs] == reachable
    assert 0.1 < np.mean(reachable) < 0.9


# ---------------------------------------------------------------------------
# trials and datasets
# ---------------------------------------------------------------------------

def test_trial_record_consistency_checks():
    obj, rob = ObjectFeatures(0.1, 0.0), RobotOffset(0.5, 0.0)
    with pytest.raises(ValueError):
        TrialRecord(obj, rob, "success", "slip")
    with pytest.raises(ValueError):
        TrialRecord(obj, rob, "failure", "gremlins")
    with pytest.raises(ValueError):
        TrialRecord(obj, rob, "banana", "none")


def test_execute_trial_deterministic_per_seed(w):
    obj, rob = ObjectFeatures(0.12, 0.2), RobotOffset(0.6, 0.1)
    a = execute_trial(obj, rob, w, np.random.default_rng(3))
    b = execute_trial(obj, rob, w, np.random.default_rng(3))
    assert a == b


def test_unreachable_commands_are_not_executed(w):
    obj, rob = ObjectFeatures(0.12, 0.0), RobotOffset(2.5, 0.0)
    rec = execute_trial(obj, rob, w, np.random.default_rng(0))
    assert rec.label == "failure"
    assert rec.cause == "unreachable_theory"
    assert not rec.executed


def test_success_frequency_matches_gaussian_mass_oracle(w):
    """Empirical success rate at a borderline base position must match the
    Gaussian mass of the noise-free success set around it (independent
    numeric integration), times the local-minimum survival rate."""
    obj = ObjectFeatures(0.12, 0.1)
    # straddle the slip boundary so the rate is genuinely intermediate
    along = 0.55
    lat = corridor_halfwidth(along, w) - w.grasp_margin
    hx, hy = handle_position(obj, w)
    ux, uy = math.cos(0.1), math.sin(0.1)
    base = (hx + along * ux - lat * uy, hy + along * uy + lat * ux)

    sigma = w.nav_noise_sigma
    span = np.linspace(-4 * sigma, 4 * sigma, 81)
    weights = np.exp(-0.5 * (span / sigma) ** 2)
    weights /= weights.sum()
    mass = 0.0
    for ex, wx in zip(span, weights):
        for ey, wy in zip(span, weights):
            if grasp_outcome(obj, base[0] + ex, base[1] + ey, w) == "none":
                mass += wx * wy
    expected = mass * (1.0 - w.local_minimum_rate)

    n = 4000
    hits = 0
    for t in range(n):
        rec = execute_trial(obj, RobotOffset(*base), w,
                            np.random.default_rng((99, t)),
                            check_reachability=False)
        hits += rec.label == "success"
    assert hits / n == pytest.approx(expected, abs=0.03)


def test_generate_dataset_reproducible_and_order_independent(w):
    objs = default_object_grid()[:2]
    robs = default_robot_grid()[::9]
    a = generate_dataset(w, objs, robs, seed=5)
    b = generate_dataset(w, objs, robs, seed=5)
    assert a.records == b.records
    # each record runs on the stream of its own pair index, whatever ran before
    k = len(robs) + 3
    assert a.records[k] == execute_trial(objs[1], robs[3], w,
                                         np.random.default_rng((5, k)))
    assert generate_dataset(w, objs, robs, seed=6).records != a.records


def _generate_dataset_reference(world, object_grid, robot_grid, seed, use_capability_filter):
    """generate_dataset with a generator built for every pair before the
    reachability filter runs: the records generate_dataset must reproduce."""
    return [execute_trial(obj, rob, world,
                          np.random.default_rng((seed, i * len(robot_grid) + j)),
                          check_reachability=use_capability_filter)
            for i, obj in enumerate(object_grid)
            for j, rob in enumerate(robot_grid)]


@pytest.mark.parametrize("seed", [0, 42])
def test_generate_dataset_matches_eager_generators(w, seed):
    objs, robs = default_object_grid(), default_robot_grid()
    data = generate_dataset(w, objs, robs, seed=seed)
    assert data.records == _generate_dataset_reference(w, objs, robs, seed, True)
    unfiltered = generate_dataset(w, objs[:2], robs, seed=seed, use_capability_filter=False)
    assert unfiltered.records == _generate_dataset_reference(w, objs[:2], robs, seed, False)


def test_capability_filter_preserves_executed_trials(w):
    objs = default_object_grid()[:2]
    robs = default_robot_grid()[::7]
    full = generate_dataset(w, objs, robs, seed=11, use_capability_filter=False)
    filt = generate_dataset(w, objs, robs, seed=11, use_capability_filter=True)
    assert filt.executed_count() < full.executed_count()
    for rf, ru in zip(filt.records, full.records):
        if rf.executed:
            assert rf == ru
        else:
            assert ru.label == "failure" or rf.cause == "unreachable_theory"


def test_dataset_csv_round_trip(w, tmp_path):
    data = generate_dataset(w, default_object_grid()[:1],
                            default_robot_grid()[::13], seed=2)
    path = tmp_path / "d.csv"
    data.save_csv(path, header_lines=["round-trip test"])
    back = Dataset.load_csv(path, w)
    assert back.records == data.records
    assert back.object_grid == data.object_grid
    assert back.robot_grid == data.robot_grid


def test_dataset_csv_columns_are_found_by_name(w, tmp_path):
    """A file with its columns in another order loads to the same records."""
    data = generate_dataset(w, default_object_grid()[:2],
                            default_robot_grid()[::13], seed=2)
    path = tmp_path / "d.csv"
    data.save_csv(path, header_lines=["column order test"])
    lines = path.read_text().splitlines()
    order = [5, 2, 0, 4, 3, 1]
    permuted = tmp_path / "p.csv"
    permuted.write_text("\n".join([lines[0]] + [",".join(row[k] for k in order)
                                                for row in csv.reader(lines[1:])]) + "\n")
    back = Dataset.load_csv(permuted, w)
    assert back.records == data.records
    assert back.object_grid == data.object_grid
    assert back.robot_grid == data.robot_grid
    assert back.comments == ["column order test"]


def test_world_config_json_round_trip(w, tmp_path):
    """Every world constant written under a config file's "world" key comes
    back as the same WorldConfig."""
    path = tmp_path / "cfg.json"
    changed = dataclasses.replace(w, robot_radius=0.12, local_minimum_rate=0.0)
    path.write_text(json.dumps({"world": dataclasses.asdict(changed)}))
    assert PipelineConfig.from_file(path).world_config(0) == changed
