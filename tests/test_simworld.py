import csv
import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arplace.cli import PipelineConfig
from arplace.geometry import ObjectFeatures, RobotOffset, wrap_angle
from arplace.simworld import (CAUSES, Dataset, default_object_grid, first_failure,
                              default_robot_grid, default_world, generate_dataset,
                              grasp_outcome, robot_bounds, run_trials)


@pytest.fixture(scope="module")
def w():
    return default_world(seed=0)


def _first_failure_reference(obj, x, y, world, margins=True):
    """The stage test as a scalar cascade of math calls, stage by stage:
    table, object, reach interval, bearing, slip. The handle sits at
    (-dx_obj + handle_length cos dpsi, handle_length sin dpsi); (along,
    lateral) is the base in the frame of the handle axis. margins=False
    sets the grasp margin, table margin and object clearance to 0."""
    grasp_margin, table_margin, clearance = ((world.grasp_margin, world.table_margin,
                                              world.min_object_clearance)
                                             if margins else (0.0, 0.0, 0.0))
    if x < world.robot_radius + table_margin:
        return "table_collision"
    if math.hypot(x + obj.dx_obj, y) < clearance:
        return "object_collision"
    ux, uy = math.cos(obj.dpsi_obj), math.sin(obj.dpsi_obj)
    hx, hy = -obj.dx_obj + world.handle_length * ux, world.handle_length * uy
    rx, ry = x - hx, y - hy
    along, lateral = rx * ux + ry * uy, -rx * uy + ry * ux
    if not (world.reach_min + grasp_margin <= along <= world.reach_max - grasp_margin):
        return "empty_grip"
    if abs(wrap_angle(math.atan2(hy - y, hx - x) - math.pi)) > world.reach_halfangle:
        return "empty_grip"
    halfwidth = max(0.5 * (world.corridor_width
                           - world.corridor_taper * (along - world.reach_min)), 0.0)
    if abs(lateral) > halfwidth - grasp_margin:
        return "slip"
    return "none"


def _stage_test(objs, x, y, world, margins=True):
    """Causes of first_failure over lists of objects and base coordinates."""
    codes = first_failure(np.array([o.dx_obj for o in objs]), np.array([o.dpsi_obj for o in objs]),
                          np.asarray(x, dtype=float), np.asarray(y, dtype=float), world, margins)
    return [CAUSES[c] for c in codes.tolist()]


def _run(objs, robs, world, streams, **kwargs):
    """Causes of run_trials over lists of objects and base positions."""
    codes = run_trials([o.dx_obj for o in objs], [o.dpsi_obj for o in objs],
                       [r.dx_rob for r in robs], [r.dy_rob for r in robs], world, streams,
                       **kwargs)
    return [CAUSES[c] for c in codes.tolist()]


def _trials(data):
    """The trials of a dataset as (object pose, base position, cause)."""
    return [(data.object_grid[i], data.robot_grid[j], CAUSES[c])
            for i, j, c in zip(data.pose.tolist(), data.base.tolist(), data.cause.tolist())]


WIDE_MARGINS = {"grasp_margin": 0.07, "table_margin": 0.05, "min_object_clearance": 0.3}


# ---------------------------------------------------------------------------
# the stage test against the scalar cascade
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("margins", [{}, WIDE_MARGINS], ids=["default", "wide_margins"])
def test_first_failure_matches_the_scalar_cascade(w, margins):
    """On 200,000 seeded random (pose, base) pairs, every cause occurs and
    every decision equals the cascade's.

    The inputs are seeded, not searched for the exact stage boundaries:
    np.hypot and np.arctan2 may differ from math.hypot and math.atan2 in
    the last bit (with numpy 2.4 on x86-64 they did on 0.6% and 7.7% of a
    million random inputs), so a search would find 1-ulp disagreements at a
    boundary that are not defects."""
    world = dataclasses.replace(w, **margins)
    rng = np.random.default_rng(17)
    n = 200_000
    objs = [ObjectFeatures(dx, dpsi) for dx, dpsi in
            zip(rng.uniform(0.0, 0.3, n).tolist(), rng.uniform(-math.pi, math.pi, n).tolist())]
    x, y = rng.uniform(0.0, 1.3, n).tolist(), rng.uniform(-1.0, 1.0, n).tolist()
    got = _stage_test(objs, x, y, world)
    want = [_first_failure_reference(o, xb, yb, world) for o, xb, yb in zip(objs, x, y)]
    assert got == want
    assert set(want) == set(CAUSES) - {"unreachable_theory", "local_minimum"}


def test_first_failure_matches_the_scalar_cascade_on_the_default_grids(w):
    """Every pair of the default grids, at zero margins (the reachability
    filter) and at the world's margins."""
    pairs = list(itertools.product(default_object_grid(), default_robot_grid()))
    objs = [o for o, _ in pairs]
    x, y = [r.dx_rob for _, r in pairs], [r.dy_rob for _, r in pairs]
    for margins in (False, True):
        assert _stage_test(objs, x, y, w, margins) == \
            [_first_failure_reference(o, xb, yb, w, margins) for o, xb, yb in zip(objs, x, y)]


def test_first_failure_matches_the_scalar_cascade_off_the_reals(w):
    """NaN and infinite base coordinates take the cascade's decision, with
    no warning: a NaN fails the reach interval, an infinite x passes the
    table and object tests."""
    values = [math.nan, math.inf, -math.inf, 0.0, 0.5, -0.3]
    objs = [ObjectFeatures(0.12, psi) for psi in (0.0, 0.4, -math.pi / 2, math.pi)]
    cases = [(o, xb, yb) for o in objs for xb in values for yb in values
             if not (math.isfinite(xb) and math.isfinite(yb))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _stage_test([o for o, _, _ in cases], [c[1] for c in cases],
                          [c[2] for c in cases], w)
    assert got == [_first_failure_reference(o, xb, yb, w) for o, xb, yb in cases]
    assert {"table_collision", "empty_grip"} <= set(got)


def test_first_failure_of_a_batch_equals_one_call_per_pair(w):
    """A batch and single calls give the same causes, and grasp_outcome is
    the single call at the world's margins."""
    rng = np.random.default_rng(5)
    n = 2000
    objs = [ObjectFeatures(dx, dpsi) for dx, dpsi in
            zip(rng.uniform(0.0, 0.3, n).tolist(), rng.uniform(-0.8, 0.8, n).tolist())]
    x, y = rng.uniform(0.0, 1.3, n).tolist(), rng.uniform(-1.0, 1.0, n).tolist()
    batch = _stage_test(objs, x, y, w)
    single = [CAUSES[first_failure(o.dx_obj, o.dpsi_obj, xb, yb, w)]
              for o, xb, yb in zip(objs, x, y)]
    assert batch == single
    assert [grasp_outcome(o, xb, yb, w) for o, xb, yb in zip(objs[:200], x, y)] == batch[:200]


# ---------------------------------------------------------------------------
# deterministic geometry
# ---------------------------------------------------------------------------

def test_reach_interval_starts_beyond_the_handle(w):
    """The handle of an unrotated object sits handle_length in front of it,
    at (-dx_obj + handle_length, 0): the reach interval, narrowed by the
    gripper margin, starts reach_min + grasp_margin beyond it."""
    obj = ObjectFeatures(0.2, 0.0)
    start = -0.2 + w.handle_length + w.reach_min + w.grasp_margin
    assert grasp_outcome(obj, start + 1e-6, 0.0, w) == "none"
    assert grasp_outcome(obj, start - 1e-6, 0.0, w) == "empty_grip"


def test_slip_edge_lies_at_the_tapered_half_width(w):
    """With the handle at the origin and no rotation, the corridor frame is
    the GSM frame: the slip boundary at x = 0.5 lies at the half-width
    of stand-off 0.5, less the gripper margin, on either side."""
    obj = ObjectFeatures(w.handle_length, 0.0)  # handle at the origin
    edge = 0.5 * (w.corridor_width - w.corridor_taper * (0.5 - w.reach_min)) - w.grasp_margin
    for side in (1.0, -1.0):
        assert grasp_outcome(obj, 0.5, side * (edge - 1e-6), w) == "none"
        assert grasp_outcome(obj, 0.5, side * (edge + 1e-6), w) == "slip"


def test_corridor_halfwidth_tapers_linearly(w):
    """The slip boundary narrows linearly with the stand-off, from
    corridor_width / 2 at reach_min, and a half-width tapered below 0 stays
    0: then only the axis itself holds without a gripper margin."""
    obj = ObjectFeatures(w.handle_length, 0.0)  # handle at the origin
    for along in (0.3, 0.5, 0.7, 0.9):
        half = 0.5 * w.corridor_width - 0.5 * w.corridor_taper * (along - w.reach_min)
        assert grasp_outcome(obj, along, half - w.grasp_margin - 1e-6, w) == "none"
        assert grasp_outcome(obj, along, half - w.grasp_margin + 1e-6, w) == "slip"
    steep = dataclasses.replace(w, corridor_taper=2.0, grasp_margin=0.0)
    assert grasp_outcome(obj, 0.8, 0.0, steep) == "none"  # -0.25 before the clamp
    assert grasp_outcome(obj, 0.8, 1e-9, steep) == "slip"


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
    hx, hy = -0.12 + w.handle_length * math.cos(0.6), w.handle_length * math.sin(0.6)
    swung = (hx + 0.8 * math.cos(0.6), hy + 0.8 * math.sin(0.6))
    assert grasp_outcome(rotated, *swung, w) == "none"


def _random_pairs(rng, n):
    objs = [ObjectFeatures(rng.uniform(0.0, 0.3), rng.uniform(-0.8, 0.8)) for _ in range(n)]
    robs = [RobotOffset(rng.uniform(0.0, 1.3), rng.uniform(-1.0, 1.0)) for _ in range(n)]
    return objs, robs


def test_reachability_is_superset_of_success(w):
    objs, robs = _random_pairs(np.random.default_rng(7), 500)
    x, y = [r.dx_rob for r in robs], [r.dy_rob for r in robs]
    success = np.array(_stage_test(objs, x, y, w)) == "none"
    reachable = np.array(_stage_test(objs, x, y, w, margins=False)) == "none"
    assert success.any()
    assert not (success & ~reachable).any()


def _reachable_reference(obj, robot, world):
    """The corridor formula of the reachability filter written out on its
    own: table clearance, reach interval, corridor half-width without the
    gripper margin, and the arm-sector bearing. The oracle that the filter
    of run_trials (the stage test with zero margins) must equal."""
    if robot.dx_rob < world.robot_radius:
        return False
    c, s = math.cos(obj.dpsi_obj), math.sin(obj.dpsi_obj)
    hx, hy = world.handle_length * c - obj.dx_obj, world.handle_length * s
    rx, ry = robot.dx_rob - hx, robot.dy_rob - hy
    along, lateral = rx * c + ry * s, ry * c - rx * s
    if not (world.reach_min <= along <= world.reach_max):
        return False
    if abs(lateral) > max(0.0, 0.5 * (world.corridor_width
                                      - world.corridor_taper * (along - world.reach_min))):
        return False
    bearing = abs(wrap_angle(math.atan2(hy - robot.dy_rob, hx - robot.dx_rob) - math.pi))
    return bearing <= world.reach_halfangle


@pytest.mark.parametrize("margins", [{}, WIDE_MARGINS], ids=["default", "wide_margins"])
def test_reachability_equals_the_corridor_formula(w, margins):
    """On 3,000 seeded (pose, base) pairs and on every pair of the default
    grids, whatever the world's margins, run_trials executes exactly the
    reachable trials."""
    world = dataclasses.replace(w, **margins)
    objs, robs = _random_pairs(np.random.default_rng(11), 3000)
    for obj, rob in itertools.product(default_object_grid(), default_robot_grid()):
        objs.append(obj)
        robs.append(rob)
    reachable = [_reachable_reference(obj, rob, world) for obj, rob in zip(objs, robs)]
    causes = _run(objs, robs, world, list(range(len(objs))))
    assert [cause != "unreachable_theory" for cause in causes] == reachable
    assert 0.1 < np.mean(reachable) < 0.9


# ---------------------------------------------------------------------------
# trials and datasets
# ---------------------------------------------------------------------------

def test_run_trials_is_deterministic_per_stream(w):
    """A trial's cause depends only on its stream: a seed, or the generator
    built from it. At local_minimum_rate 0.5 the two outcomes of a
    reachable command are equally likely, so 40 streams that agree across
    calls but not with each other show that each stream decides."""
    half = dataclasses.replace(w, local_minimum_rate=0.5)
    objs, robs = [ObjectFeatures(0.12, 0.2)] * 40, [RobotOffset(0.6, 0.1)] * 40
    a = _run(objs, robs, half, [np.random.default_rng(k) for k in range(40)])
    assert a == _run(objs, robs, half, [np.random.default_rng(k) for k in range(40)])
    assert a == _run(objs, robs, half, list(range(40)))
    assert set(a) == {"none", "local_minimum"}


def test_unreachable_commands_are_not_executed(w):
    obj, rob = ObjectFeatures(0.12, 0.0), RobotOffset(2.5, 0.0)
    stream = np.random.default_rng(0)
    state = stream.bit_generator.state
    assert _run([obj], [rob], w, [stream]) == ["unreachable_theory"]
    assert stream.bit_generator.state == state  # nothing was drawn


def test_only_trials_whose_stages_all_pass_can_stick(w):
    """At local_minimum_rate 1 every executed trial whose stages all pass
    ends in a local minimum, and every failing stage keeps its cause: the
    trials give the causes they give at rate 0, on the same draws, with
    "none" renamed."""
    obj = ObjectFeatures(0.05, 0.0)
    robs = [RobotOffset(x, y) for x in (0.11, 0.12, 0.125, 0.4, 0.5, 1.2)
            for y in (-0.4, -0.02, 0.0, 0.02)]
    n = len(robs) * 20
    stuck, free = (_run([obj] * n, robs * 20, dataclasses.replace(w, local_minimum_rate=rate),
                        list(range(n)), check_reachability=False) for rate in (1.0, 0.0))
    assert set(free) == set(CAUSES) - {"unreachable_theory", "local_minimum"}
    assert stuck == ["local_minimum" if cause == "none" else cause for cause in free]


def test_a_local_minimum_turns_only_the_grasps_that_pass(w):
    """Noise-free trials on a 40 x 40 base grid over the default robot
    grid's bounds, for the object at dx 0.12 m and psi 0: at rate 1 each
    trial's cause is first_failure's, with "none" renamed local_minimum."""
    world = dataclasses.replace(w, local_minimum_rate=1.0, nav_noise_sigma=0.0)
    x_min, x_max, y_min, y_max = robot_bounds(default_robot_grid())
    x, y = (a.ravel() for a in np.meshgrid(np.linspace(x_min, x_max, 40),
                                           np.linspace(y_min, y_max, 40), indexing="ij"))
    n = len(x)
    codes = run_trials(np.full(n, 0.12), np.zeros(n), x, y, world, list(range(n)),
                       check_reachability=False)
    stages = first_failure(0.12, 0.0, x, y, world)
    np.testing.assert_array_equal(codes, np.where(stages == 0, CAUSES.index("local_minimum"),
                                                  stages))
    counts = dict(zip(CAUSES, np.bincount(codes, minlength=len(CAUSES)).tolist()))
    assert counts == {"none": 0, "unreachable_theory": 0, "table_collision": 0,
                      "object_collision": 0, "empty_grip": 480, "slip": 900,
                      "local_minimum": 220}


def test_each_executed_trial_draws_two_normals_then_one_uniform(w):
    """Every executed trial, whether it succeeds, slips, sticks or hits the
    table or the object, leaves its generator where normal(size=2) and then
    one uniform() leave a fresh generator on the same seed; an unreachable
    command leaves its generator untouched."""
    obj = ObjectFeatures(0.05, 0.0)
    robs = [RobotOffset(x, y) for x in (0.11, 0.12, 0.125, 0.5, 2.5) for y in (-0.02, 0.0, 0.3)]
    half = dataclasses.replace(w, local_minimum_rate=0.5)
    for check_reachability in (False, True):
        streams = [np.random.default_rng(k) for k in range(len(robs) * 4)]
        causes = _run([obj] * len(streams), robs * 4, half, streams,
                      check_reachability=check_reachability)
        for k, (stream, cause) in enumerate(zip(streams, causes)):
            fresh = np.random.default_rng(k)
            if cause != "unreachable_theory":
                fresh.normal(0.0, 1.0, size=2)
                fresh.uniform()
            assert stream.bit_generator.state == fresh.bit_generator.state, (k, cause)
        # the filter turns away every base next to the table or the object
        want = {"none", "local_minimum"} | ({"unreachable_theory"} if check_reachability else
                                            {"table_collision", "object_collision"})
        assert want <= set(causes)


@pytest.mark.parametrize("lengths", [(2, 1, 1), (1, 2, 1), (1, 1, 2), (0, 1, 0)])
def test_run_trials_refuses_lists_of_different_lengths(w, lengths):
    """zip would drop the trials beyond the shortest list without a word,
    and broadcasting would stretch a list of one entry over every trial."""
    objs, robs, streams = lengths
    with pytest.raises(ValueError, match="one entry per trial"):
        run_trials([0.12] * objs, [0.0] * objs, [0.5] * robs, [0.0] * robs, w,
                   list(range(streams)))


def test_success_frequency_matches_gaussian_mass_oracle(w):
    """Empirical success rate at a borderline base position must match the
    Gaussian mass of the noise-free success set around it (independent
    numeric integration), times the local-minimum survival rate."""
    obj = ObjectFeatures(0.12, 0.1)
    # straddle the slip boundary so the rate is genuinely intermediate
    along = 0.55
    lat = 0.5 * (w.corridor_width - w.corridor_taper * (along - w.reach_min)) - w.grasp_margin
    ux, uy = math.cos(0.1), math.sin(0.1)
    hx, hy = -0.12 + w.handle_length * ux, w.handle_length * uy
    base = (hx + along * ux - lat * uy, hy + along * uy + lat * ux)

    sigma = w.nav_noise_sigma
    span = np.linspace(-4 * sigma, 4 * sigma, 81)
    weights = np.exp(-0.5 * (span / sigma) ** 2)
    weights /= weights.sum()
    ex, ey = np.meshgrid(span, span, indexing="ij")
    inside = first_failure(obj.dx_obj, obj.dpsi_obj, base[0] + ex, base[1] + ey, w) == 0
    mass = float(np.sum(np.outer(weights, weights)[inside]))
    expected = mass * (1.0 - w.local_minimum_rate)
    assert 0.2 < mass < 0.8

    n = 4000
    causes = _run([obj] * n, [RobotOffset(*base)] * n, w, [(99, t) for t in range(n)],
                  check_reachability=False)
    hits = causes.count("none")
    assert hits / n == pytest.approx(expected, abs=0.03)


def test_generate_dataset_reproducible_and_order_independent(w):
    objs = default_object_grid()[:2]
    robs = default_robot_grid()[::9]
    a = generate_dataset(w, objs, robs, seed=5)
    b = generate_dataset(w, objs, robs, seed=5)
    assert _trials(a) == _trials(b)
    # each trial runs on the stream of its own pair index, whatever ran before
    k = len(robs) + 3
    assert _trials(a)[k] == (objs[1], robs[3], _run([objs[1]], [robs[3]], w, [(5, k)])[0])
    assert _trials(generate_dataset(w, objs, robs, seed=6)) != _trials(a)


def _trial_reference(obj, robot, world, rng, check_reachability):
    """One trial on its own generator, the stages by the scalar cascade: the
    (object pose, base position, cause) that run_trials must give."""
    if check_reachability and _first_failure_reference(
            obj, robot.dx_rob, robot.dy_rob, world, margins=False) != "none":
        return obj, robot, "unreachable_theory"
    noise = rng.normal(0.0, 1.0, size=2) * world.nav_noise_sigma
    stuck = rng.uniform() < world.local_minimum_rate
    cause = _first_failure_reference(obj, robot.dx_rob + noise[0], robot.dy_rob + noise[1], world)
    if cause == "none" and stuck:
        cause = "local_minimum"
    return obj, robot, cause


def _generate_dataset_reference(world, object_grid, robot_grid, seed, use_capability_filter):
    """generate_dataset as one trial at a time, with a generator built for
    every pair before the reachability filter runs: the trials
    generate_dataset must reproduce."""
    return [_trial_reference(obj, rob, world,
                             np.random.default_rng((seed, i * len(robot_grid) + j)),
                             use_capability_filter)
            for i, obj in enumerate(object_grid)
            for j, rob in enumerate(robot_grid)]


@pytest.mark.parametrize("seed", [0, 42])
def test_generate_dataset_matches_eager_generators(w, seed):
    """Filtered on the default grids, and unfiltered on two poses with bases
    next to the table and the object, so that collisions occur among the
    trials: like every failing stage, they keep their cause whatever their
    local-minimum number."""
    objs, robs = default_object_grid(), default_robot_grid()
    data = generate_dataset(w, objs, robs, seed=seed)
    filtered = _generate_dataset_reference(w, objs, robs, seed, True)
    assert _trials(data) == filtered
    near = [RobotOffset(x, y) for x in (0.11, 0.12, 0.13) for y in (-0.05, 0.0, 0.05)]
    unfiltered = generate_dataset(w, objs[:2], robs + near, seed=seed,
                                  use_capability_filter=False)
    reference = _generate_dataset_reference(w, objs[:2], robs + near, seed, False)
    assert _trials(unfiltered) == reference
    assert {cause for _, _, cause in filtered + reference} == set(CAUSES)


def test_capability_filter_preserves_executed_trials(w):
    objs = default_object_grid()[:2]
    robs = default_robot_grid()[::7]
    full = generate_dataset(w, objs, robs, seed=11, use_capability_filter=False)
    filt = generate_dataset(w, objs, robs, seed=11, use_capability_filter=True)
    assert filt.executed_count() < full.executed_count()
    for rf, ru in zip(_trials(filt), _trials(full)):
        assert rf == ru or (rf[2] == "unreachable_theory" and ru[2] != "none")


def test_dataset_csv_round_trip(w, tmp_path):
    data = generate_dataset(w, default_object_grid()[:1],
                            default_robot_grid()[::13], seed=2)
    path = tmp_path / "d.csv"
    data.save_csv(path, header_lines=["round-trip test"])
    back = Dataset.load_csv(path, w)
    assert _trials(back) == _trials(data)
    assert back.object_grid == data.object_grid
    assert back.robot_grid == data.robot_grid


def test_dataset_csv_columns_are_found_by_name(w, tmp_path):
    """A file with its columns in another order loads to the same trials."""
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
    assert _trials(back) == _trials(data)
    assert back.object_grid == data.object_grid
    assert back.robot_grid == data.robot_grid
    assert back.comments == ["column order test"]


def test_load_csv_grids_keep_the_first_of_equal_values(w, tmp_path):
    """Number strings of equal value ("0.1" and "0.10", "0" and "-0") are
    one grid entry, which keeps the value of the first row that has it; the
    grids hold the values in the order they first appear. So the -0 of the
    first row stands for all three rows at the same base, as saving shows."""
    path = tmp_path / "d.csv"
    path.write_text("object_dx,object_dpsi,robot_dx,robot_dy,label,cause\n"
                    "0.10,0,0.5,-0,failure,slip\n"
                    "0.2,0,0.5,0,success,none\n"
                    "0.1,-0,0.50,0.0,failure,slip\n"
                    "0.3,0,0.6,0,success,none\n")
    data = Dataset.load_csv(path, w)
    assert data.object_grid == [ObjectFeatures(0.1, 0.0), ObjectFeatures(0.2, 0.0),
                                ObjectFeatures(0.3, 0.0)]
    assert data.robot_grid == [RobotOffset(0.5, 0.0), RobotOffset(0.6, 0.0)]
    assert math.copysign(1.0, data.robot_grid[0].dy_rob) == -1.0
    assert data.pose.tolist() == [0, 1, 0, 2] and data.base.tolist() == [0, 0, 0, 1]
    assert [CAUSES[c] for c in data.cause.tolist()] == ["slip", "none", "slip", "none"]
    data.save_csv(tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == (
        b"object_dx,object_dpsi,robot_dx,robot_dy,label,cause\r\n"
        b"0.10000000000000001,0,0.5,-0,failure,slip\r\n"
        b"0.20000000000000001,0,0.5,-0,success,none\r\n"
        b"0.10000000000000001,0,0.5,-0,failure,slip\r\n"
        b"0.29999999999999999,0,0.59999999999999998,0,success,none\r\n")


def test_world_config_json_round_trip(w, tmp_path):
    """Every world constant written under a config file's "world" key comes
    back as the same WorldConfig."""
    path = tmp_path / "cfg.json"
    changed = dataclasses.replace(w, robot_radius=0.12, local_minimum_rate=0.0)
    path.write_text(json.dumps({"world": dataclasses.asdict(changed)}))
    assert PipelineConfig.from_file(path).world_config(0) == changed


def _save_csv_reference(data, path, header_lines):
    """The writer as csv.writer rows of separately formatted numbers: the
    bytes save_csv must reproduce."""
    with open(path, "w", newline="") as f:
        for line in header_lines:
            f.write(f"# {line}\n")
        w = csv.writer(f)
        w.writerow(("object_dx", "object_dpsi", "robot_dx", "robot_dy", "label", "cause"))
        for obj, rob, cause in _trials(data):
            w.writerow([f"{obj.dx_obj:.17g}", f"{obj.dpsi_obj:.17g}",
                        f"{rob.dx_rob:.17g}", f"{rob.dy_rob:.17g}",
                        "success" if cause == "none" else "failure", cause])


# equal pairs that print apart (0.0 and -0.0), and the extremes of %.17g
_CSV_OBJECTS = list(itertools.product((0.0, -0.0, 1 / 3, 1e300), (0.0, -2.5, math.pi)))
_CSV_ROBOTS = list(itertools.product((0.0, -0.0, 5e-324, 1 / 3), (-0.0, 0.1, -1e300)))


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11),
                               st.integers(0, len(CAUSES) - 1)), max_size=40),
       header=st.lists(st.sampled_from(["seed=1", "config_hash=ab", ""]), max_size=3))
def test_save_csv_writes_the_bytes_of_csv_writer(tmp_path_factory, rows, header):
    """Rows of any object pose, base position and cause. The grids hold
    entries of equal value that print apart, 0.0 and -0.0, and each row is
    written with the value of its own entry."""
    objects = [ObjectFeatures(*v) for v in _CSV_OBJECTS]
    robots = [RobotOffset(*v) for v in _CSV_ROBOTS]
    pose, base, cause = np.array(rows, dtype=np.intp).reshape(-1, 3).T
    data = Dataset(default_world(0), objects, robots, pose, base, cause)
    tmp = tmp_path_factory.mktemp("csv")
    data.save_csv(tmp / "a.csv", header_lines=header)
    _save_csv_reference(data, tmp / "b.csv", header)
    assert (tmp / "a.csv").read_bytes() == (tmp / "b.csv").read_bytes()


def test_save_csv_writes_equal_grid_entries_as_each_prints(tmp_path):
    """0.0 and -0.0 are equal values that print apart: rows of the two grid
    entries are written as 0 and -0."""
    data = Dataset(default_world(0), [ObjectFeatures(0.0, 0.0), ObjectFeatures(-0.0, 0.0)],
                   [RobotOffset(0.5, 0.0), RobotOffset(0.5, -0.0)],
                   np.array([0, 1, 1]), np.array([1, 0, 1]), np.array([0, 5, 1]))
    data.save_csv(tmp_path / "d.csv")
    assert (tmp_path / "d.csv").read_bytes().splitlines()[1:] == [
        b"0,0,0.5,-0,success,none", b"-0,0,0.5,0,failure,slip",
        b"-0,0,0.5,-0,failure,unreachable_theory"]


def test_save_csv_keeps_the_bytes_of_a_generated_dataset(w, tmp_path):
    data = generate_dataset(w, default_object_grid()[:3], default_robot_grid(), seed=9)
    data.save_csv(tmp_path / "a.csv", header_lines=["seed=9", "tool_version=x"])
    _save_csv_reference(data, tmp_path / "b.csv", ["seed=9", "tool_version=x"])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
