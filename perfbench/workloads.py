"""The three benchmark workloads. Each is a closed loop with one client and
no think time: the next operation starts when the previous one returns.

A workload is set up once (`__init__`), makes the input of operation k from
the workload seed alone (`make_input`), runs it through the package's public
functions (`run`), checks the output (`check`) and reduces it to a digest
that repeats of the same input must reproduce (`digest`).

Every call into the package goes through a module attribute
(`placemap.compute_map`, `planner.project`, `cli.main`, ...) so that the
traced run, which replaces those attributes, sees it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np

from arplace import cli, evaluation, placemap, planner, simworld
from arplace.geometry import ObjectFeatures, RobotOffset
from arplace.grids import GridSpec
from arplace.shapemodel import GSMModel

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
MODEL_PATH = os.path.join(BENCH_DIR, "model", "gsm_seed42.json")
PROVENANCE_PATH = os.path.join(BENCH_DIR, "model", "provenance.json")

# Training cost depends strongly on the dataset (the per-pose SVM step count
# varies several-fold between datasets), so the train workload always trains
# the dataset of the fixed model; the workload seed drives the held-out pairs.
TRAIN_DATASET_SEED = 42
AGREEMENT_POSES = 400
AGREEMENT_BASES_PER_POSE = 25

# query: one trial of evaluation.robustness_experiment at the default sweep
SWEEP = evaluation.SweepSpec()
# plan: evaluation.transformation_benefit at the default threshold
SEPARATION_RANGE = (0.20, 0.60)
SEPARATION_STRATA = 8
MERGE_THRESHOLD = cli.PipelineConfig().merge_threshold
PLAN_CELL_SIZE = cli.PipelineConfig().cell_size


class ProvenanceError(RuntimeError):
    pass


def load_fixed_model() -> GSMModel:
    """The model kept with the benchmark, after checking it is the file its
    provenance record names."""
    with open(PROVENANCE_PATH) as f:
        prov = json.load(f)
    with open(MODEL_PATH, "rb") as f:
        blob = f.read()
    digest = hashlib.sha256(blob).hexdigest()
    if digest != prov["sha256"]:
        raise ProvenanceError(f"{MODEL_PATH}: sha256 {digest} does not match "
                              f"the provenance record {prov['sha256']}")
    raw = json.loads(blob)
    header = raw.get("header", {})
    for key, want in (("tool_version", prov["tool_version"]),
                      ("seed", prov["dataset_seed"]),
                      ("config_hash", prov["config_hash"])):
        if header.get(key) != want:
            raise ProvenanceError(f"{MODEL_PATH}: header {key}={header.get(key)!r}, "
                                  f"provenance says {want!r}")
    return GSMModel.from_dict(raw)


def gsm_agreement(gsm: GSMModel, world, seed: int) -> float:
    """Fraction of held-out (object pose, base) pairs, drawn from the seed
    inside the trained ranges, where membership in the model's boundary
    matches the noise-free ground truth."""
    rng = np.random.default_rng((seed, 3))
    bounds = gsm.training_bounds
    robot = simworld.default_robot_grid()
    xs = [r.dx_rob for r in robot]
    ys = [r.dy_rob for r in robot]
    agree = 0
    for _ in range(AGREEMENT_POSES):
        obj = ObjectFeatures(float(rng.uniform(*bounds["dx_obj"])),
                             float(rng.uniform(*bounds["dpsi_obj"])))
        pts = np.column_stack([rng.uniform(min(xs), max(xs), AGREEMENT_BASES_PER_POSE),
                               rng.uniform(min(ys), max(ys), AGREEMENT_BASES_PER_POSE)])
        inside = gsm.boundary_for(obj, warn_extrapolation=False).contains(pts)
        for (x, y), pred in zip(pts, inside):
            truth = simworld.geometric_success(obj, RobotOffset(float(x), float(y)), world)
            agree += int(bool(pred) == truth)
    return agree / (AGREEMENT_POSES * AGREEMENT_BASES_PER_POSE)


def model_quality(gsm: GSMModel, world, seed: int) -> dict:
    return {"model_energy": gsm.pdm.energy,
            "model_r2_mode1": float(gsm.regression.r_squared[0]),
            "gsm_agreement": gsm_agreement(gsm, world, seed)}


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


class Train:
    """`arplace gen-data` then `arplace train`, in-process, on the default
    grids. simworld, classifier, shapemodel and the CLI's file I/O do the
    work; placemap and planner do none."""

    name = "train"
    min_ops = 2         # the second chain checks byte-identical output
    repeat_checks = 0   # every chain already repeats the same input

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.world = simworld.default_world(0)

    def make_input(self, k: int):
        return "chain", k

    def run(self, k: int) -> dict:
        data = os.path.join(self.work_dir, f"data-{k}.csv")
        model = os.path.join(self.work_dir, f"model-{k}.json")
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = (cli.main(["gen-data", "--seed", str(TRAIN_DATASET_SEED), "--out", data]),
                  cli.main(["train", "--seed", str(TRAIN_DATASET_SEED),
                            "--data", data, "--out", model]))
        out = {"rc": rc, "log": sink.getvalue(), "data": data, "model": model}
        if rc == (0, 0):
            with open(model, "rb") as f:
                out["model_bytes"] = f.read()
            out["model_file_bytes"] = len(out["model_bytes"])
            out["dataset_bytes"] = os.path.getsize(data)
        return out

    def check(self, k, out) -> str | None:
        if out["rc"] != (0, 0):
            return f"exit codes {out['rc']}: {out['log'].strip()}"
        m = json.loads(out["model_bytes"])
        if m["d"] != 2 or m["energy"] < 0.95 or m["r_squared"][0] < 0.9:
            return f"model quality d={m['d']} energy={m['energy']} r2={m['r_squared']}"
        return None

    def digest(self, out) -> str:
        return _sha(out["model_bytes"])

    def quality(self, outs: list) -> dict:
        first = outs[0]
        gsm = GSMModel.load(first["model"])
        ds = simworld.Dataset.load_csv(first["data"], self.world)
        executed = [r for r in ds.records if r.executed]
        return {**model_quality(gsm, self.world, self.seed),
                "grasp_success_rate": sum(r.label == simworld.SUCCESS for r in executed)
                / len(executed)}


class Query:
    """A stream of place-map queries, each the calls of one robustness
    trial: compute_map (250 samples), robot-noise convolution, smoothed
    best cell, and a ground-truth grasp under execution noise."""

    name = "query"
    min_ops = 20
    repeat_checks = 3

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.gsm = load_fixed_model()
        self.world = simworld.default_world(0)
        self.spec = evaluation.candidate_grid_spec(SWEEP.cell_size)
        # warm-up: one small map through the same calls as an operation
        grid = placemap.compute_map(self.gsm, placemap.GaussianBelief.isotropic(
            (0.14, 0.0, 0.0), 0.05, 0.1), self.spec, n_samples=8, rng=0, frame="world")
        placemap.best_cell(placemap.apply_robot_uncertainty(grid, SWEEP.sigma_rob),
                           SWEEP.smooth_radius)

    def make_input(self, k: int):
        s = SWEEP
        rng = np.random.default_rng((self.seed, 1, k))
        sigma = s.sigma_obj_values[k % len(s.sigma_obj_values)]
        true_obj = ObjectFeatures(float(rng.uniform(*s.dx_range)),
                                  float(rng.uniform(*s.dpsi_range)))
        noise = rng.normal(0.0, 1.0, 2)
        dx_perc = true_obj.dx_obj + sigma * noise[0]
        psi_perc = true_obj.dpsi_obj + sigma * s.psi_noise_factor * noise[1]
        belief = placemap.GaussianBelief(
            (max(dx_perc, 0.0), 0.0, psi_perc),
            np.diag([sigma ** 2, 0.0, (sigma * s.psi_noise_factor) ** 2]))
        return k, {"true_obj": true_obj, "belief": belief,
                   "map_seed": int(rng.integers(2 ** 31)),
                   "exec_noise": s.sigma_rob * rng.normal(0.0, 1.0, 2),
                   "lm_draw": float(rng.random())}

    def run(self, q: dict) -> dict:
        s = SWEEP
        grid = placemap.compute_map(self.gsm, q["belief"], self.spec,
                                    n_samples=s.n_map_samples, rng=q["map_seed"],
                                    frame="world")
        grid = placemap.apply_robot_uncertainty(grid, s.sigma_rob)
        (i, j), p = placemap.best_cell(grid, s.smooth_radius)
        achieved = np.asarray(grid.spec.cell_center(i, j)) + q["exec_noise"]
        cause = simworld.grasp_outcome(q["true_obj"], float(achieved[0]),
                                       float(achieved[1]), self.world)
        success = cause == "none" and q["lm_draw"] >= self.world.local_minimum_rate
        return {"probs": grid.probs, "cell": (i, j), "p": p, "success": success}

    def check(self, q, out) -> str | None:
        probs = out["probs"]
        if probs.shape != (self.spec.nx, self.spec.ny):
            return f"map shape {probs.shape}"
        if not (np.all(np.isfinite(probs)) and probs.min() >= 0.0 and probs.max() <= 1.0):
            return "map probability outside [0, 1]"
        if out["p"] != probs[out["cell"]]:
            return "best_cell probability does not match the map"
        return None

    def digest(self, out) -> str:
        return _sha(out["probs"].tobytes(), out["cell"], out["p"], out["success"])

    def quality(self, outs: list) -> dict:
        return {**model_quality(self.gsm, self.world, self.seed),
                "grasp_success_rate": sum(o["success"] for o in outs) / len(outs)}


class Plan:
    """A stream of two-cup scenes, each the transformation_benefit sequence:
    project the flat plan, detect the merge flaw, apply the merge transform
    and project the transformed plan."""

    name = "plan"
    min_ops = 16
    repeat_checks = 3

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.gsm = load_fixed_model()
        self.world = simworld.default_world(0)
        self.time_model = planner.TimeModel()
        robot = simworld.default_robot_grid()
        self.x_range = (min(r.dx_rob for r in robot), max(r.dx_rob for r in robot))
        spec = self._spec(0.4)
        grid = placemap.compute_map(self.gsm, placemap.GaussianBelief.isotropic(
            (0.12, 0.0, 0.0), 0.005, 0.02), spec, n_samples=8, rng=0, frame="world")
        placemap.best_cell(placemap.merge(grid, grid), 0.02)

    def _spec(self, separation: float) -> GridSpec:
        half = separation / 2.0 + 0.6
        return GridSpec.covering(*self.x_range, -half, half, PLAN_CELL_SIZE)

    def make_input(self, k: int):
        # separations are uniform on the range, stratified in blocks of
        # SEPARATION_STRATA scenes so that every run sees both merge branches
        block, pos = divmod(k, SEPARATION_STRATA)
        stratum = np.random.default_rng((self.seed, 2, block)).permutation(SEPARATION_STRATA)[pos]
        u = np.random.default_rng((self.seed, 2, block, pos)).uniform()
        lo, hi = SEPARATION_RANGE
        return k, {"separation": lo + (hi - lo) * (stratum + u) / SEPARATION_STRATA,
                   "rng_base": (self.seed, 2, block, pos)}

    def run(self, s: dict) -> dict:
        sep, base, tm = s["separation"], s["rng_base"], self.time_model
        spec = self._spec(sep)
        plan = planner.two_pickup_plan()
        trace_a = planner.project(plan, evaluation.make_two_cup_scene(sep), self.gsm,
                                  self.world, spec, rng=np.random.default_rng(base + (0,)),
                                  time_model=tm)
        flaw = planner.detect_merge_flaw(plan, evaluation.make_two_cup_scene(sep), self.gsm,
                                         spec, rng=np.random.default_rng(base + (1,)),
                                         threshold=MERGE_THRESHOLD)
        out = {"trace_a": trace_a, "duration_a": planner.plan_duration(trace_a, tm),
               "flaw": flaw, "trace_b": None, "duration_b": None}
        if flaw is not None:
            plan_b = planner.apply_merge_transform(plan, flaw)
            out["trace_b"] = planner.project(plan_b, evaluation.make_two_cup_scene(sep),
                                             self.gsm, self.world, spec,
                                             rng=np.random.default_rng(base + (2,)),
                                             time_model=tm)
            out["duration_b"] = planner.plan_duration(out["trace_b"], tm)
            out["sexp_b"] = planner.plan_to_sexp(plan_b)
        return out

    def check(self, s, out) -> str | None:
        if out["duration_a"] <= 0:
            return "flat plan has no duration"
        flaw = out["flaw"]
        if flaw is None:
            return None
        if not flaw.proposed_location[1] > MERGE_THRESHOLD:
            return f"merge fired at joint p={flaw.proposed_location[1]}"
        if not out["trace_b"].count("navigate") < out["trace_a"].count("navigate"):
            return "transformed plan does not save a navigation"
        return None

    def digest(self, out) -> str:
        flaw = out["flaw"]
        grasps = [(g["success"], g["cause"], g["robot"])
                  for t in (out["trace_a"], out["trace_b"]) if t is not None
                  for g in t.grasp_outcomes]
        return _sha(out["duration_a"], out["duration_b"], out.get("sexp_b"),
                    None if flaw is None else flaw.proposed_location, grasps)

    @staticmethod
    def duration_reduction(outs: list) -> float:
        """Mean of 1 - B/A over scenes; a scene without a merge counts as 0."""
        return sum(0.0 if o["duration_b"] is None else 1.0 - o["duration_b"] / o["duration_a"]
                   for o in outs) / len(outs)

    def quality(self, outs: list) -> dict:
        grasps = [g["success"] for o in outs for t in (o["trace_a"], o["trace_b"])
                  if t is not None for g in t.grasp_outcomes]
        return {**model_quality(self.gsm, self.world, self.seed),
                "grasp_success_rate": sum(grasps) / len(grasps)}


WORKLOADS = {w.name: w for w in (Train, Query, Plan)}
