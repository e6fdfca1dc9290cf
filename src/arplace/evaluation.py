"""Experiment harness: robustness sweep against a fixed-offset baseline,
classifier accuracy versus training-set size with and without the capability
filter, and the duration benefit of the location-merging plan transformation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classifier import EmptySuccessRegionError, check_svm_constants, train_svm
from .geometry import ObjectFeatures
from .grids import GridSpec
from .placemap import GaussianBelief, apply_robot_uncertainty, best_cell, compute_map
from .planner import (MERGE_THRESHOLD, ExecutionTrace, Flaw, PlanNode, Scene,
                      SceneObject, apply_merge_transform, detect_merge_flaw,
                      plan_duration, project, two_pickup_plan)
from .shapemodel import GSMModel
from .simworld import (CAUSES, WorldConfig, default_robot_grid, first_failure, robot_bounds,
                       run_trials, trial_causes)


def chi_square(successes_a: int, n_a: int, successes_b: int, n_b: int) -> tuple[float, float]:
    """2x2 homogeneity test, 1 degree of freedom, no continuity correction.
    Degenerate tables (an empty margin) give statistic 0 and p = 1."""
    if n_a < 1 or n_b < 1:
        raise ValueError("need at least one trial per group")
    if not (0 <= successes_a <= n_a and 0 <= successes_b <= n_b):
        raise ValueError("success counts must lie in [0, n]")
    table = np.array([[successes_a, n_a - successes_a],
                      [successes_b, n_b - successes_b]], dtype=float)
    rows = table.sum(axis=1)
    cols = table.sum(axis=0)
    total = table.sum()
    if np.any(rows == 0) or np.any(cols == 0):
        return 0.0, 1.0
    expected = np.outer(rows, cols) / total
    stat = float(np.sum((table - expected) ** 2 / expected))
    # the chi-square survival function for one degree of freedom
    return stat, math.erfc(math.sqrt(stat / 2.0))


# ---------------------------------------------------------------------------
# robustness sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    sigma_obj_values: tuple[float, ...] = (0.0, 0.05, 0.10, 0.15, 0.20)
    sigma_rob: float = 0.05
    psi_noise_factor: float = 3.5
    trials_per_cell: int = 100
    dx_range: tuple[float, float] = (0.07, 0.21)
    dpsi_range: tuple[float, float] = (-0.45, 0.45)
    cell_size: float = 0.025
    n_map_samples: int = 250
    smooth_radius: float = 0.03

    def __post_init__(self):
        if self.trials_per_cell < 1:
            raise ValueError("trials_per_cell must be at least 1")


@dataclass
class SweepPoint:
    sigma_obj: float
    successes: dict[str, int]
    n_trials: int
    chi2_stat: float
    p_value: float

    def rate(self, strategy: str) -> float:
        return self.successes[strategy] / self.n_trials


@dataclass
class SweepResult:
    spec: SweepSpec
    points: list[SweepPoint] = field(default_factory=list)

    def point_for(self, sigma: float) -> SweepPoint:
        for p in self.points:
            if abs(p.sigma_obj - sigma) < 1e-12:
                return p
        raise KeyError(f"no sweep point at sigma={sigma}")


def fixed_strategy_offset(world: WorldConfig, spec: SweepSpec) -> tuple[float, float]:
    """Centroid of the noise-free success cells for the mean object pose,
    evaluated over the standard candidate grid — the hand-coded constant
    offset the baseline strategy applies in the frame of every perceived
    object (rotated by the perceived orientation)."""
    mean_obj = ObjectFeatures(
        dx_obj=0.5 * (spec.dx_range[0] + spec.dx_range[1]),
        dpsi_obj=0.5 * (spec.dpsi_range[0] + spec.dpsi_range[1]))
    x, y = np.array([(r.dx_rob, r.dy_rob) for r in default_robot_grid()]).T
    ok = first_failure(mean_obj.dx_obj, mean_obj.dpsi_obj, x, y, world) == 0  # "none"
    if not ok.any():
        raise EmptySuccessRegionError("mean pose has no successful candidate cell")
    # offset from the object position (-dx, 0) to the region centroid
    return float(np.mean(x[ok])) + mean_obj.dx_obj, float(np.mean(y[ok]))


def candidate_grid_spec(cell_size: float = 0.025) -> GridSpec:
    """Map grid over the rectangle of the default candidate base positions."""
    return GridSpec.covering(*robot_bounds(default_robot_grid()), cell_size)


def plan_grid_spec(separation: float, cell_size: float = 0.025) -> GridSpec:
    """Map grid of a two-cup scene: the x range of the default candidate
    base positions, and 0.6 m beyond either cup along the table edge."""
    x_min, x_max, _, _ = robot_bounds(default_robot_grid())
    half = separation / 2.0 + 0.6
    return GridSpec.covering(x_min, x_max, -half, half, cell_size)


def robustness_experiment(spec: SweepSpec, gsm: GSMModel, world: WorldConfig,
                          seed: int = 0) -> SweepResult:
    """Compare target selection from the success map against a fixed offset
    from the perceived object position, under increasing perception noise.

    Both strategies see the same perceived pose and the same execution noise
    stream in every trial; only the chosen base target differs. The grasp
    itself runs against the true object state.
    """
    grid_spec = candidate_grid_spec(spec.cell_size)
    fixed_offset = fixed_strategy_offset(world, spec)
    result = SweepResult(spec=spec)
    for s_idx, sigma in enumerate(spec.sigma_obj_values):
        successes = np.zeros(2, dtype=int)  # arplace, fixed
        for t in range(spec.trials_per_cell):
            rng = np.random.default_rng((seed, s_idx, t))
            dx_true = rng.uniform(*spec.dx_range)
            psi_true = rng.uniform(*spec.dpsi_range)
            true_obj = ObjectFeatures(dx_obj=dx_true, dpsi_obj=psi_true)
            # perception noise on the modeled object features (edge distance
            # and orientation); the position along the edge is observed
            noise = rng.normal(0.0, 1.0, 2)
            dx_perc = dx_true + sigma * noise[0]
            psi_perc = psi_true + sigma * spec.psi_noise_factor * noise[1]

            belief = GaussianBelief(
                (max(dx_perc, 0.0), 0.0, psi_perc),
                np.diag([sigma ** 2, 0.0,
                         (sigma * spec.psi_noise_factor) ** 2]))
            grid = compute_map(gsm, belief, grid_spec,
                               n_samples=spec.n_map_samples,
                               rng=rng.integers(2 ** 31), frame="world")
            grid = apply_robot_uncertainty(grid, spec.sigma_rob)
            (bi, bj), _ = best_cell(grid, spec.smooth_radius)
            arplace_target = grid.spec.cell_center(bi, bj)
            # constant offset in the perceived object frame, clamped away
            # from the table
            c, s = np.cos(psi_perc), np.sin(psi_perc)
            fixed_target = (
                max(-dx_perc + c * fixed_offset[0] - s * fixed_offset[1],
                    world.robot_radius + world.table_margin + 0.01),
                s * fixed_offset[0] + c * fixed_offset[1])

            exec_noise = spec.sigma_rob * rng.normal(0.0, 1.0, 2)
            lm_draw = rng.random()
            # both strategies' achieved bases against the true object, one row each
            achieved = np.array([arplace_target, fixed_target]) + exec_noise
            stage = first_failure(true_obj.dx_obj, true_obj.dpsi_obj, *achieved.T, world)
            successes += trial_causes(stage, lm_draw, world) == 0  # "none"
        a, f = successes.tolist()
        stat, p = chi_square(a, spec.trials_per_cell, f, spec.trials_per_cell)
        result.points.append(SweepPoint(sigma_obj=sigma, successes={"arplace": a, "fixed": f},
                                        n_trials=spec.trials_per_cell,
                                        chi2_stat=stat, p_value=p))
    return result


# ---------------------------------------------------------------------------
# accuracy versus training-set size
# ---------------------------------------------------------------------------

@dataclass
class AccuracyPoint:
    size: int
    accuracy: float
    executed: int


def _random_trials(object_pose: ObjectFeatures, n: int, world: WorldConfig, seed: int,
                   stream: int, check_reachability: bool = True):
    """n base positions (x, y) drawn on (seed, stream), uniform over the
    default robot grid's bounds, and the CAUSES codes of their trials for
    object_pose, trial idx on the stream (seed, stream + 1, idx)."""
    x_min, x_max, y_min, y_max = robot_bounds(default_robot_grid())
    rng = np.random.default_rng((seed, stream))
    X = np.column_stack([rng.uniform(x_min, x_max, n), rng.uniform(y_min, y_max, n)])
    return X, run_trials(np.full(n, object_pose.dx_obj), np.full(n, object_pose.dpsi_obj),
                         X[:, 0], X[:, 1], world, [(seed, stream + 1, idx) for idx in range(n)],
                         check_reachability=check_reachability)


def accuracy_curve(world: WorldConfig, object_pose: ObjectFeatures,
                   sizes: list[int], use_capability_filter: bool,
                   seed: int = 0, n_test: int = 150, kernel_sigma: float = 0.1,
                   cost_C: float = 40.0,
                   positive_class_weight: float = 2.0) -> list[AccuracyPoint]:
    """Held-out classifier accuracy as the training set grows, each size
    trained by train_svm with the given SVM constants.

    With the capability filter on, theoretically unreachable commands are
    labeled failures without running the simulated trial, cutting the
    executed-trial count. Sample points and trial noise depend only on the
    seed, so filtered and unfiltered runs see identical data. A one-class
    prefix scores as the constant classifier of its class, as in LIBSVM.
    SVM constants that train_svm refuses raise ValueError, even where no
    prefix trains one.
    """
    if sorted(sizes) != list(sizes):
        raise ValueError("sizes must be ascending")
    check_svm_constants(kernel_sigma, cost_C, positive_class_weight)
    test_X, test_codes = _random_trials(object_pose, n_test, world, seed, 0)
    # trial idx draws from (seed, 3, idx), so each size trains on a prefix
    X, codes = _random_trials(object_pose, max(sizes), world, seed, 2, use_capability_filter)
    y = np.where(codes == 0, 1.0, -1.0)  # code 0 is "none", a success
    executed = codes != CAUSES.index("unreachable_theory")
    points = []
    for size in sizes:
        pred = np.full(n_test, y[0] > 0)  # train_svm refuses a prefix of one class
        if np.any(y[:size] != y[0]):
            model = train_svm(X[:size], y[:size], kernel_sigma, cost_C, positive_class_weight)
            pred = model.decision_values(test_X) > 0
        points.append(AccuracyPoint(size=size,
                                    accuracy=float(np.mean(pred == (test_codes == 0))),
                                    executed=int(np.count_nonzero(executed[:size]))))
    return points


# ---------------------------------------------------------------------------
# merge-transformation benefit
# ---------------------------------------------------------------------------

@dataclass
class TransformPoint:
    """One separation of the merge experiment: the flat plan's trace and,
    when the merge flaw fires, the flaw and the transformed plan's trace."""

    separation: float
    trace_a: ExecutionTrace
    duration_a: float
    flaw: Flaw | None = None
    plan_b: PlanNode | None = None
    trace_b: ExecutionTrace | None = None
    duration_b: float | None = None

    @property
    def merged(self) -> bool:
        return self.flaw is not None

    @property
    def merged_probability(self) -> float | None:
        return None if self.flaw is None else self.flaw.proposed_location[1]

    @property
    def reduction(self) -> float | None:
        if self.duration_b is None or self.duration_a <= 0:
            return None
        return 1.0 - self.duration_b / self.duration_a


@dataclass
class TransformResult:
    points: list[TransformPoint] = field(default_factory=list)


def make_two_cup_scene(separation: float) -> Scene:
    """Two cups 0.12 m from the table edge, handles turned 0.04 rad toward
    each other so a shared grasp position exists for moderate separations,
    beliefs with sigma 0.005 m / 0.02 rad, and the robot at (1.5, 0)."""
    objs = {}
    for name, y, psi in (("cup-a", -separation / 2.0, 0.04),
                         ("cup-b", separation / 2.0, -0.04)):
        truth = (0.12, y, psi)
        objs[name] = SceneObject(name, truth, GaussianBelief.isotropic(truth, 0.005, 0.02))
    return Scene(objects=objs, robot_xy=(1.5, 0.0))


def merge_experiment(separation: float, gsm: GSMModel, world: WorldConfig,
                     rng_base: tuple, cell_size: float = 0.025,
                     threshold: float = MERGE_THRESHOLD) -> TransformPoint:
    """Project the flat two-pick-up plan on a two-cup scene, look for an
    unoptimized-locations flaw, and — when it fires — project the
    transformed plan, both under the default time model. The three steps
    draw from the generators seeded with rng_base + (0,), (1,) and (2,)."""
    spec = plan_grid_spec(separation, cell_size)
    scene = make_two_cup_scene(separation)
    plan = two_pickup_plan()
    trace_a = project(plan, scene, gsm, world, spec,
                      rng=np.random.default_rng(rng_base + (0,)))
    point = TransformPoint(separation, trace_a,
                           plan_duration(trace_a, trace_a.time_model))
    point.flaw = detect_merge_flaw(plan, scene, gsm, spec,
                                   rng=np.random.default_rng(rng_base + (1,)),
                                   threshold=threshold)
    if point.flaw is not None:
        point.plan_b = apply_merge_transform(plan, point.flaw)
        point.trace_b = project(point.plan_b, scene, gsm, world, spec,
                                rng=np.random.default_rng(rng_base + (2,)))
        point.duration_b = plan_duration(point.trace_b, point.trace_b.time_model)
    return point


def transformation_benefit(distances: list[float], gsm: GSMModel,
                           world: WorldConfig, seed: int = 0,
                           cell_size: float = 0.025,
                           threshold: float = MERGE_THRESHOLD) -> TransformResult:
    """The merge experiment at each cup separation; separation k draws from
    rng_base (seed, k). Every separation's plan grid is built first, so one
    above grids.MAX_GRID_CELLS raises GridSizeError before any map."""
    for sep in distances:
        plan_grid_spec(sep, cell_size)
    result = TransformResult()
    for k, sep in enumerate(distances):
        result.points.append(merge_experiment(sep, gsm, world, (seed, k), cell_size,
                                              threshold))
    return result
