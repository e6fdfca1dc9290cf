"""Probabilistic base-placement maps for mobile manipulation: a synthetic
grasp world, per-pose success classifiers, a generalized success model,
Monte-Carlo place maps, and a small transformational planner."""

__version__ = "0.1.0"

from .geometry import ObjectFeatures, RobotOffset, wrap_angle
from .grids import ARPlaceGrid, CostGrid, GridSpec, load_grid_text, save_grid_text, save_pgm
from .simworld import (Dataset, TrialRecord, WorldConfig, default_object_grid,
                       default_robot_grid, default_world, generate_dataset,
                       geometric_success, run_trials)
from .classifier import Boundary, SVMModel, train_per_pose, train_svm
from .shapemodel import (PDM, GSMModel, RegressionModel, assemble_H, fit_pdm,
                         fit_regression, optimize_landmarks, train_gsm)
from .placemap import (GaussianBelief, apply_robot_uncertainty, best_cell,
                       compute_map, cost_map, merge, sample_boundaries,
                       union_edges)
from .planner import (Designator, ExecutionTrace, Flaw, PlanNode, Scene,
                      SceneObject, TimeModel, apply_merge_transform,
                      detect_merge_flaw, plan_duration, plan_to_sexp, project,
                      two_pickup_plan)
from .evaluation import (SweepSpec, accuracy_curve, chi_square, merge_experiment,
                         robustness_experiment, transformation_benefit)
