import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from arplace import evaluation
from arplace.evaluation import (SweepSpec, accuracy_curve, candidate_grid_spec,
                                chi_square, fixed_strategy_offset,
                                make_two_cup_scene, merge_experiment, robustness_experiment,
                                transformation_benefit)
from arplace.geometry import ObjectFeatures
from arplace.shapemodel import GSMModel
from arplace.simworld import (CAUSES, default_robot_grid, first_failure, geometric_success,
                              grasp_outcome)

BENCH_MODEL = Path(__file__).resolve().parents[1] / "perfbench" / "model" / "gsm_seed42.json"

# Frozen references computed independently from the textbook statistic
# sum (O - E)^2 / E on the 2x2 table and the chi-square survival function
# with one degree of freedom.
CHI2_REFERENCES = [
    # (succ_a, n_a, succ_b, n_b, statistic, p_value)
    (90, 100, 60, 100, 24.0, 9.63357008643095e-07),
    (95, 100, 85, 100, 5.555555555555555, 0.01842212545409897),
    (10, 50, 40, 50, 36.0, 1.9731752900753933e-09),
    (99, 100, 90, 100, 7.792207792207792, 0.005247203739115639),
    (50, 100, 50, 100, 0.0, 1.0),
]


def test_chi_square_matches_frozen_references():
    for sa, na, sb, nb, stat_ref, p_ref in CHI2_REFERENCES:
        stat, p = chi_square(sa, na, sb, nb)
        assert stat == pytest.approx(stat_ref, abs=1e-6)
        assert p == pytest.approx(p_ref, abs=1e-6)


def test_package_import_does_not_load_scipy_stats():
    """The package needs numpy only: neither the import nor the significance
    test loads scipy."""
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, arplace; from arplace.evaluation import chi_square; "
                           "chi_square(90, 100, 60, 100); print('scipy' in sys.modules)"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_chi_square_symmetry():
    assert chi_square(90, 100, 60, 100) == chi_square(60, 100, 90, 100)


def test_chi_square_degenerate_tables():
    assert chi_square(0, 50, 0, 80) == (0.0, 1.0)    # empty success column
    assert chi_square(50, 50, 80, 80) == (0.0, 1.0)  # empty failure column


def test_chi_square_input_validation():
    with pytest.raises(ValueError):
        chi_square(5, 0, 1, 10)
    with pytest.raises(ValueError):
        chi_square(11, 10, 1, 10)


# ---------------------------------------------------------------------------
# fixed-offset baseline
# ---------------------------------------------------------------------------

def test_fixed_offset_is_the_mean_pose_region_centroid(world):
    spec = SweepSpec()
    off = fixed_strategy_offset(world, spec)
    mean_obj = ObjectFeatures(0.5 * sum(spec.dx_range),
                              0.5 * sum(spec.dpsi_range))
    cells = [r for r in default_robot_grid()
             if geometric_success(mean_obj, r, world)]
    want_x = np.mean([r.dx_rob for r in cells]) + mean_obj.dx_obj
    want_y = np.mean([r.dy_rob for r in cells])
    assert off == (pytest.approx(want_x), pytest.approx(want_y))
    assert off[0] > 0.0  # stands clear of the table


@pytest.mark.parametrize("margins", [{}, {"grasp_margin": 0.07, "table_margin": 0.05,
                                         "min_object_clearance": 0.3}],
                         ids=["default", "wide_margins"])
def test_fixed_offset_equals_the_mean_over_geometric_successes(world, margins):
    """The one batch stage test over the 432 candidate bases gives the same
    floats as averaging the bases that geometric_success accepts, one call
    each."""
    world = dataclasses.replace(world, **margins)
    spec = SweepSpec()
    mean_obj = ObjectFeatures(0.5 * (spec.dx_range[0] + spec.dx_range[1]),
                              0.5 * (spec.dpsi_range[0] + spec.dpsi_range[1]))
    cells = [r for r in default_robot_grid() if geometric_success(mean_obj, r, world)]
    assert 0 < len(cells) < len(default_robot_grid())
    assert fixed_strategy_offset(world, spec) == (
        float(np.mean([r.dx_rob for r in cells])) + mean_obj.dx_obj,
        float(np.mean([r.dy_rob for r in cells])))


def test_candidate_grid_covers_the_training_rectangle():
    spec = candidate_grid_spec(0.025)
    xs, ys = spec.centers()
    assert xs[0] <= 0.15 and xs[-1] >= 1.05 - 0.025
    assert ys[0] <= -0.78 and ys[-1] >= 0.78 - 0.025


def test_make_two_cup_scene_layout():
    scene = make_two_cup_scene(0.4)
    a, b = scene.objects["cup-a"], scene.objects["cup-b"]
    assert a.truth[1] == pytest.approx(-0.2)
    assert b.truth[1] == pytest.approx(0.2)
    assert a.truth[2] == -b.truth[2] != 0.0  # handles toe in
    assert scene.robot_xy == (1.5, 0.0)


# ---------------------------------------------------------------------------
# merge experiment under navigation noise
# ---------------------------------------------------------------------------

def test_merged_plans_navigate_once_whatever_the_arrival_noise(gsm, world):
    """A merged plan's tasks hold one designator, so it navigates once
    however far its arrival lands from the target: at σ 0.05 m every merged
    separation of the transform report saves one navigation and at least
    30% of the flat plan's duration."""
    noisy = dataclasses.replace(world, nav_noise_sigma=0.05)
    points = transformation_benefit([round(0.20 + 0.05 * k, 2) for k in range(9)],
                                    gsm, noisy, seed=0).points
    merged = [p for p in points if p.merged]
    assert [p.separation for p in merged] == [0.20, 0.25, 0.30, 0.35, 0.40, 0.45]
    for p in merged:
        assert (p.trace_a.count("navigate"), p.trace_b.count("navigate")) == (2, 1)
        assert p.reduction >= 0.30


def test_a_merge_navigates_once_under_metre_scale_arrival_noise(gsm, world):
    point = merge_experiment(0.3, gsm, dataclasses.replace(world, nav_noise_sigma=1.0), (0,))
    assert point.merged
    assert point.trace_b.count("navigate") == 1


# ---------------------------------------------------------------------------
# robustness sweep behavior
# ---------------------------------------------------------------------------

def test_sweep_is_deterministic_per_seed(gsm, world):
    spec = SweepSpec(sigma_obj_values=(0.0, 0.1), trials_per_cell=10,
                     n_map_samples=40)
    a = robustness_experiment(spec, gsm, world, seed=3)
    b = robustness_experiment(spec, gsm, world, seed=3)
    assert [p.successes for p in a.points] == [p.successes for p in b.points]
    assert a.point_for(0.1).n_trials == 10


def test_fixed_strategy_degrades_monotonically_without_execution_noise(gsm, world):
    """With execution noise off, the baseline's mean success over many seeds
    must fall as perception noise grows: its only error source is the
    perceived pose."""
    spec = SweepSpec(sigma_obj_values=(0.0, 0.10, 0.20), sigma_rob=0.0,
                     trials_per_cell=30, n_map_samples=30)
    rates = np.zeros(3)
    n_seeds = 10
    for seed in range(n_seeds):
        res = robustness_experiment(spec, gsm, world, seed=seed)
        rates += [p.rate("fixed") for p in res.points]
    rates /= n_seeds
    assert rates[0] > rates[1] > rates[2]


@pytest.mark.parametrize("seed", [0, 7])
def test_sweep_outcomes_equal_grasp_outcome_per_strategy(world, monkeypatch, seed):
    """On the benchmark model, each sweep trial tests both strategies'
    achieved bases in one stage-test call, against the trial's true object;
    each row's cause equals grasp_outcome's for that object and base."""
    objects, calls = [], []

    def recorded_object(**features):
        objects.append(ObjectFeatures(**features))
        return objects[-1]

    def recorded_stage_test(dx_obj, dpsi_obj, x, y, w, **kwargs):
        codes = first_failure(dx_obj, dpsi_obj, x, y, w, **kwargs)
        calls.append((dx_obj, dpsi_obj, np.array(x), np.array(y), codes))
        return codes

    monkeypatch.setattr(evaluation, "ObjectFeatures", recorded_object)
    monkeypatch.setattr(evaluation, "first_failure", recorded_stage_test)
    spec = SweepSpec(trials_per_cell=20, n_map_samples=50)
    result = robustness_experiment(spec, GSMModel.load(BENCH_MODEL), world, seed=seed)
    monkeypatch.undo()
    # the first object and call are the fixed offset's mean pose; one of each per trial follows
    trials = list(zip(objects[1:], calls[1:]))
    assert len(objects) == len(calls) == 1 + 5 * 20
    causes = set()
    for obj, (dx_obj, dpsi_obj, x, y, codes) in trials:
        assert (dx_obj, dpsi_obj) == (obj.dx_obj, obj.dpsi_obj) and codes.shape == (2,)
        want = [grasp_outcome(obj, float(xb), float(yb), world) for xb, yb in zip(x, y)]
        assert [CAUSES[c] for c in codes.tolist()] == want
        causes.update(want)
    assert {"none", "slip"} <= causes
    assert sum(p.successes["arplace"] + p.successes["fixed"] for p in result.points) <= \
        sum(int(np.count_nonzero(codes == 0)) for _, (_, _, _, _, codes) in trials)


# ---------------------------------------------------------------------------
# accuracy curve behavior
# ---------------------------------------------------------------------------

def test_accuracy_curve_filter_reduces_executed_trials(world):
    obj = ObjectFeatures(0.11, 0.2)
    sizes = [40, 80]
    unfiltered = accuracy_curve(world, obj, sizes, use_capability_filter=False,
                                seed=1)
    filtered = accuracy_curve(world, obj, sizes, use_capability_filter=True,
                              seed=1)
    for u, f in zip(unfiltered, filtered):
        assert u.size == f.size
        assert f.executed < u.executed
        assert u.executed == u.size
        assert 0.0 <= f.accuracy <= 1.0


def test_accuracy_curve_runs_each_training_trial_once(world, monkeypatch):
    """All sizes share one run of the max(sizes) training trials: each trial
    stream is used once. The report bytes are pinned in test_cli."""
    streams = []
    real = evaluation.run_trials

    def counted(dx_obj, dpsi_obj, x, y, world, trial_streams, **kwargs):
        streams.extend(trial_streams)
        return real(dx_obj, dpsi_obj, x, y, world, trial_streams, **kwargs)

    monkeypatch.setattr(evaluation, "run_trials", counted)
    accuracy_curve(world, ObjectFeatures(0.11, 0.2), [20, 50, 100],
                   use_capability_filter=True, seed=0, n_test=30)
    assert len(streams) == 30 + 100
    assert len(set(streams)) == len(streams)


def test_accuracy_curve_refuses_unusable_svm_constants_where_no_prefix_trains(world):
    """With a corridor of width 0 every trial fails, so no prefix trains an
    SVM; constants that train_svm refuses still raise, as they do in train."""
    no_success = dataclasses.replace(world, corridor_width=0.0)
    for svm in ({"kernel_sigma": 1e200}, {"cost_C": 1e-20}):
        with pytest.raises(ValueError, match="kernel_sigma" if "kernel_sigma" in svm else "cost_C"):
            accuracy_curve(no_success, ObjectFeatures(0.14, 0.0), [20, 50], True, **svm)


def test_accuracy_curve_requires_ascending_sizes(world):
    with pytest.raises(ValueError):
        accuracy_curve(world, ObjectFeatures(0.1, 0.0), [80, 40],
                       use_capability_filter=True)
