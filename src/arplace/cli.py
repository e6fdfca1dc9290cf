"""Command-line surface for the pipeline: data generation, model training,
map computation and algebra, planning, experiments, and exports.

Every output file starts with a header naming the tool version, the seed, and
a hash of the effective configuration; a fixed seed makes every subcommand
byte-reproducible.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import typing

import numpy as np

from . import __version__
from .classifier import (DEFAULT_CLASS_WEIGHT, DEFAULT_COST_C, DEFAULT_KERNEL_SIGMA,
                         EmptySuccessRegionError, check_svm_constants, train_per_pose)
from .evaluation import (DEFAULT_CELL_SIZE, SweepSpec, accuracy_curve, candidate_grid_spec,
                         merge_experiment, robustness_experiment,
                         transformation_benefit)
from .geometry import ObjectFeatures
from .grids import GridSizeError, GridSpec, load_grid_text, save_grid_text, save_pgm
from .placemap import (DEFAULT_N_SAMPLES, MAX_MAP_SAMPLES, GaussianBelief,
                       apply_robot_uncertainty, best_cell, compute_map, cost_map, merge)
from .planner import MERGE_THRESHOLD, plan_to_sexp
from .shapemodel import (DEFAULT_ENERGY_TARGET, DEFAULT_N_LANDMARKS, MAX_LANDMARKS,
                         DegenerateShapeError, GSMModel, RegressionRankError,
                         finite_numbers, train_gsm)
from .simworld import (CAUSES, Dataset, WorldConfig, default_object_grid,
                       default_robot_grid, default_world, generate_dataset,
                       robot_bounds)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BAD_CONFIG = 3
EXIT_MISSING_INPUT = 4
EXIT_MODULE_ERROR = 5


@dataclasses.dataclass(frozen=True)
class PipelineConfig:
    """Hyperparameters of the whole pipeline, overridable from a JSON file."""

    kernel_sigma: float = DEFAULT_KERNEL_SIGMA
    cost_C: float = DEFAULT_COST_C
    class_weight: float = DEFAULT_CLASS_WEIGHT
    n_landmarks: int = DEFAULT_N_LANDMARKS
    n_samples: int = DEFAULT_N_SAMPLES
    cell_size: float = DEFAULT_CELL_SIZE
    extraction_cell: float = 0.01
    merge_threshold: float = MERGE_THRESHOLD
    energy_target: float = DEFAULT_ENERGY_TARGET
    use_capability_filter: bool = True
    world: dict = dataclasses.field(default_factory=dict)

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        """Read a JSON override file. Unknown keys, values of the wrong type
        or out of range (n_samples above placemap.MAX_MAP_SAMPLES and
        n_landmarks above shapemodel.MAX_LANDMARKS too), SVM constants that the
        solver refuses, a cell size whose grid over the default base positions
        has more than grids.MAX_GRID_CELLS cells, and world constants that
        WorldConfig rejects raise BadConfigError."""
        raw = _read("config", _load_json, path)
        _check_fields(cls, raw, "config")
        cfg = cls(**raw)
        for key, (lo, hi) in _OPEN_RANGES.items():
            value = getattr(cfg, key)
            if not (lo < value < (math.inf if hi is None else hi)):
                bounds = f"finite and > {lo}" if hi is None else f"in ({lo}, {hi})"
                raise BadConfigError(f"config {key} must be {bounds}, found {value!r}")
        try:  # the weighted bound in floats, so that integers cannot hide its overflow
            check_svm_constants(cfg.kernel_sigma, float(cfg.cost_C), cfg.class_weight)
        except ValueError as e:
            raise BadConfigError(f"config SVM constants: {e}")
        for key in ("cell_size", "extraction_cell"):
            try:  # also for gen-data, which builds no grid
                candidate_grid_spec(getattr(cfg, key))
            except GridSizeError as e:
                raise BadConfigError(f"config {key} {getattr(cfg, key)!r}: {e}")
        _check_fields(WorldConfig, cfg.world, "config world")
        try:
            cfg.world_config(0)
        except ValueError as e:
            raise BadConfigError(f"config world: {e}")
        return cfg

    def world_config(self, seed: int) -> WorldConfig:
        return dataclasses.replace(default_world(seed), **self.world)

    def hash(self) -> str:
        blob = json.dumps(dataclasses.asdict(self), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


# exclusive (lower, upper) bounds of the numeric config values; landmarks at most
# MAX_LANDMARKS and map samples at most MAX_MAP_SAMPLES
_OPEN_RANGES = {
    "kernel_sigma": (0, None), "cost_C": (0, None), "class_weight": (0, None),
    "n_landmarks": (3, MAX_LANDMARKS + 1), "n_samples": (0, MAX_MAP_SAMPLES + 1),
    "cell_size": (0, None),
    "extraction_cell": (0, None), "merge_threshold": (0, 1), "energy_target": (0, 1),
}


def _check_fields(cls, raw, where: str):
    """raw must be a dict of known fields of the dataclass cls, each of its
    declared type; an int within the float range is accepted for a float, a
    bool for neither."""
    if not isinstance(raw, dict):
        raise BadConfigError(f"{where} must be a JSON object, found {raw!r}")
    types = typing.get_type_hints(cls)
    unknown = set(raw) - set(types)
    if unknown:
        raise BadConfigError(f"unknown {where} keys: {sorted(unknown)}")
    for key, value in raw.items():
        want = (int, float) if types[key] is float else types[key]
        if isinstance(value, bool) != (types[key] is bool) or not isinstance(value, want):
            raise BadConfigError(f"{where} {key} must be {types[key].__name__}, "
                                 f"found {value!r}")
        if types[key] is float:
            try:
                float(value)
            except OverflowError:  # an integer beyond the float range
                raise BadConfigError(f"{where} {key} must be a float, found an integer "
                                     f"beyond the float range") from None


class BadConfigError(RuntimeError):
    pass


class MissingInputError(RuntimeError):
    pass


def _header(cfg: PipelineConfig, seed: int) -> list[str]:
    return [f"tool_version={__version__} seed={seed} config_hash={cfg.hash()}"]


def _header_fields(lines: list[str]) -> dict:
    """The key=value fields of header lines written by _header."""
    return dict(tok.split("=", 1) for line in lines for tok in line.split() if "=" in tok)


def _read(kind: str, load, path):
    """load(path) for an input file of the given kind. A missing file, or a
    path that names a directory or runs through a file, raises
    MissingInputError (exit 4); a malformed one, on which load raises
    KeyError, TypeError, ValueError or OverflowError (bad JSON, a bad
    number, a missing key, an integer too large for a float), raises
    BadConfigError (exit 3). Both messages name the kind and the path."""
    try:
        return load(path)
    except FileNotFoundError:
        raise MissingInputError(f"{kind} file not found: {path}")
    except (IsADirectoryError, NotADirectoryError) as e:
        raise MissingInputError(f"{kind} file cannot be read: {path}: {e.strerror}")
    except KeyError as e:
        raise BadConfigError(f"{kind} {path} lacks the key {e}")
    except (TypeError, ValueError, OverflowError) as e:  # incl. JSONDecodeError, UnicodeDecodeError
        raise BadConfigError(f"invalid {kind} {path}: {e}")


def _load_json(path):
    with open(path) as f:
        return json.load(f)


def _parse_belief(path) -> GaussianBelief:
    raw = _load_json(path)
    mean = finite_numbers(raw["mean"], "belief mean")
    if "cov" in raw:
        cov = finite_numbers(raw["cov"], "belief cov")
        return GaussianBelief(mean, np.diag(cov) if cov.ndim == 1 else cov)
    sigma_xy, sigma_psi = (float(finite_numbers(raw[key], f"belief {key}", ()))
                           for key in ("sigma_xy", "sigma_psi"))
    return GaussianBelief.isotropic(mean, sigma_xy, sigma_psi)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(args, cfg: PipelineConfig) -> int:
    world = cfg.world_config(args.seed)
    dataset = generate_dataset(world, default_object_grid(), default_robot_grid(),
                               seed=args.seed,
                               use_capability_filter=cfg.use_capability_filter)
    dataset.save_csv(args.out, header_lines=_header(cfg, args.seed))
    counts = np.bincount(dataset.cause, minlength=len(CAUSES)).tolist()
    print(f"wrote {len(dataset.cause)} trials ({dataset.executed_count()} executed) "
          f"to {args.out}: " + " ".join(f"{c}={k}" for c, k in zip(CAUSES, counts)))
    return EXIT_OK


def cmd_train(args, cfg: PipelineConfig) -> int:
    world = cfg.world_config(args.seed)
    dataset = _read("dataset", lambda path: Dataset.load_csv(path, world), args.data)
    made_under = _header_fields(dataset.comments).get("config_hash")
    if made_under is not None and made_under != cfg.hash():
        raise BadConfigError(f"dataset {args.data} was generated under config_hash "
                             f"{made_under}, not under this config ({cfg.hash()})")
    try:
        # over the dataset's own base positions, so a wide one fails before any SVM
        grid = GridSpec.covering(*robot_bounds(dataset.robot_grid), cfg.extraction_cell)
        svms = train_per_pose(dataset, kernel_sigma=cfg.kernel_sigma,
                              cost_C=cfg.cost_C,
                              positive_class_weight=cfg.class_weight)
        gsm = train_gsm(svms, grid, n_landmarks=cfg.n_landmarks,
                        energy_target=cfg.energy_target)
    except (ValueError, EmptySuccessRegionError, DegenerateShapeError,
            RegressionRankError) as e:  # SVMConvergenceError stays a solver limit
        raise BadConfigError(f"dataset {args.data} cannot train a model: {e}")
    gsm.save(args.out, {"tool_version": __version__, "seed": args.seed,
                        "config_hash": cfg.hash()})
    print(f"trained model: d={gsm.pdm.d} energy={gsm.pdm.energy:.4f} "
          f"r2={np.round(gsm.regression.r_squared, 4).tolist()} "
          f"svm_steps={sum(m.pair_steps for m in svms.values())} "
          f"svm_rows={sum(m.pair_rows for m in svms.values())} "
          f"max_pose_steps={max(m.pair_steps for m in svms.values())} "
          f"max_kkt_violation={max(m.kkt_violation for m in svms.values()):.3g} "
          f"-> {args.out}")
    return EXIT_OK


def cmd_map(args, cfg: PipelineConfig) -> int:
    gsm = _read("model", GSMModel.load, args.model)
    belief = _read("belief", _parse_belief, args.belief)
    spec = candidate_grid_spec(cfg.cell_size)
    grid = compute_map(gsm, belief, spec, n_samples=cfg.n_samples, rng=args.seed)
    grid = apply_robot_uncertainty(grid, args.robot_sigma)
    save_grid_text(grid, args.out, header_lines=_header(cfg, args.seed))
    (i, j), p = best_cell(grid)
    print(f"map written to {args.out}; best cell ({i}, {j}) p={p:.3f}")
    return EXIT_OK


def cmd_merge(args, cfg: PipelineConfig) -> int:
    merged = _read("grid", load_grid_text, args.grids[0])
    for path in args.grids[1:]:
        try:
            merged = merge(merged, _read("grid", load_grid_text, path))
        except ValueError as e:  # another lattice than the maps before it
            raise BadConfigError(f"cannot merge grid {path}: {e}")
    save_grid_text(merged, args.out, header_lines=_header(cfg, args.seed))
    print(f"merged {len(args.grids)} maps -> {args.out}")
    return EXIT_OK


def cmd_cost(args, cfg: PipelineConfig) -> int:
    grid = _read("grid", load_grid_text, args.grid)
    try:
        costs = cost_map(grid, (args.robot_x, args.robot_y),
                         retry_penalty_s=args.retry_penalty,
                         nav_speed_mps=args.nav_speed)
    except ValueError as e:  # a cost beyond the float range
        raise BadConfigError(f"no cost map for grid {args.grid}: {e}")
    save_grid_text(costs, args.out, header_lines=_header(cfg, args.seed))
    print(f"cost map written to {args.out}")
    return EXIT_OK


def _write_report(args, cfg: PipelineConfig, body: list[str]) -> int:
    """Write the header comment and the body lines to --out and echo them."""
    text = "# " + "\n".join(_header(cfg, args.seed) + body) + "\n"
    with open(args.out, "w") as f:
        f.write(text)
    print(text, end="")
    return EXIT_OK


def cmd_plan(args, cfg: PipelineConfig) -> int:
    gsm = _read("model", GSMModel.load, args.model)
    point = merge_experiment(args.separation, gsm, cfg.world_config(args.seed),
                             (args.seed,), cfg.cell_size, cfg.merge_threshold)
    lines = [f"plan A duration {point.duration_a:.2f} s "
             f"({point.trace_a.count('navigate')} navigations)"]
    if point.flaw is None:
        lines.append("no merge flaw detected; plan unchanged")
    else:
        (x, y), p = point.flaw.proposed_location
        lines.append(f"merge flaw: joint probability {p:.3f} at ({x:.3f}, {y:.3f})")
        lines.append(f"plan B duration {point.duration_b:.2f} s "
                     f"({point.trace_b.count('navigate')} navigations)")
        lines.append("transformed plan: " + plan_to_sexp(point.plan_b))
    return _write_report(args, cfg, lines)


def cmd_eval(args, cfg: PipelineConfig) -> int:
    world = cfg.world_config(args.seed)
    lines = []
    if args.experiment == "robustness":
        gsm = _read("model", GSMModel.load, args.model)
        sweep = SweepSpec(cell_size=cfg.cell_size, n_map_samples=cfg.n_samples)
        try:
            points = robustness_experiment(sweep, gsm, world, seed=args.seed)
        except EmptySuccessRegionError as e:  # no fixed offset in this world
            raise BadConfigError(f"config world {cfg.world}: {e}")
        lines.append("sigma_obj arplace fixed chi2 p")
        for p in points:
            lines.append(f"{p.sigma_obj:.2f} {p.rate('arplace'):.3f} "
                         f"{p.rate('fixed'):.3f} {p.chi2_stat:.4f} "
                         f"{p.p_value:.6g}")
    elif args.experiment == "accuracy":
        sizes = [20, 50, 100, 187, 300]
        obj = ObjectFeatures(0.14, 0.0)
        lines.append("size filtered_acc filtered_exec unfiltered_acc unfiltered_exec")
        svm = {"kernel_sigma": cfg.kernel_sigma, "cost_C": cfg.cost_C,
               "positive_class_weight": cfg.class_weight}
        filt = accuracy_curve(world, obj, sizes, True, seed=args.seed, **svm)
        raw = accuracy_curve(world, obj, sizes, False, seed=args.seed, **svm)
        for a, b in zip(filt, raw):
            lines.append(f"{a.size} {a.accuracy:.3f} {a.executed} "
                         f"{b.accuracy:.3f} {b.executed}")
    elif args.experiment == "transform":
        gsm = _read("model", GSMModel.load, args.model)
        distances = [round(0.20 + 0.05 * k, 2) for k in range(9)]
        points = transformation_benefit(distances, gsm, world, seed=args.seed,
                                        cell_size=cfg.cell_size, threshold=cfg.merge_threshold)
        lines.append("separation merged probability duration_a duration_b")
        for p in points:
            prob = "-" if p.merged_probability is None else f"{p.merged_probability:.3f}"
            db = "-" if p.duration_b is None else f"{p.duration_b:.2f}"
            lines.append(f"{p.separation:.2f} {int(p.merged)} {prob} "
                         f"{p.duration_a:.2f} {db}")
        lines.append("note: a 48 s -> 32 s change is a 33% reduction (1.5x speedup); both "
                     "figures are reported because '50% faster' is ambiguous")
    return _write_report(args, cfg, lines)


def cmd_export_pgm(args, cfg: PipelineConfig) -> int:
    grid = _read("grid", load_grid_text, args.grid)
    save_pgm(grid, args.out, header_lines=_header(cfg, args.seed))
    print(f"graymap written to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _number(kind=float, above=-math.inf, at_least=-math.inf, below=math.inf):
    """argparse type: a finite number of the given kind that is > above,
    >= at_least and < below. Ints are compared with the bounds exactly."""
    def parse(text: str):
        value = kind(text)
        finite = kind is int or math.isfinite(value)
        if not (finite and above < value and at_least <= value < below):
            bounds = "".join(f", {op} {b:g}" for op, b in (
                ("above", above), ("at least", at_least), ("below", below)) if math.isfinite(b))
            raise argparse.ArgumentTypeError(f"must be finite{bounds}, found {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid float value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="arplace",
                                description="success-probability place maps")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="pipeline config JSON")
        sp.add_argument("--seed", type=_number(int, at_least=0), required=True)
        sp.add_argument("--out", required=True)

    sp = sub.add_parser("gen-data", help="generate a trial dataset")
    common(sp)
    sp.set_defaults(func=cmd_gen_data)

    sp = sub.add_parser("train", help="train the success model from trials")
    common(sp)
    sp.add_argument("--data", required=True)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("map", help="compute a success map for a belief")
    common(sp)
    sp.add_argument("--model", required=True)
    sp.add_argument("--belief", required=True)
    sp.add_argument("--samples", type=_number(int, at_least=1, below=MAX_MAP_SAMPLES + 1))
    sp.add_argument("--robot-sigma", type=_number(at_least=0), default=0.0)
    sp.set_defaults(func=cmd_map)

    sp = sub.add_parser("merge", help="cellwise product of success maps")
    common(sp)
    sp.add_argument("grids", nargs="+")
    sp.set_defaults(func=cmd_merge)

    sp = sub.add_parser("cost", help="expected-cost map from a success map")
    common(sp)
    sp.add_argument("grid")
    sp.add_argument("--robot-x", type=_number(), required=True)
    sp.add_argument("--robot-y", type=_number(), required=True)
    sp.add_argument("--retry-penalty", type=_number(at_least=0), default=5.0)
    sp.add_argument("--nav-speed", type=_number(above=0), default=0.3)
    sp.set_defaults(func=cmd_cost)

    sp = sub.add_parser("plan", help="two-cup plan with merge transformation")
    common(sp)
    sp.add_argument("--model", required=True)
    sp.add_argument("--separation", type=_number(at_least=0), default=0.30)
    sp.add_argument("--threshold", type=_number(above=0, below=1))
    sp.set_defaults(func=cmd_plan)

    sp = sub.add_parser("eval", help="run an experiment")
    sp.add_argument("experiment", choices=["robustness", "accuracy", "transform"])
    common(sp)
    sp.add_argument("--model")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("export-pgm", help="export a grid as a graymap")
    common(sp)
    sp.add_argument("grid")
    sp.set_defaults(func=cmd_export_pgm)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "eval" and args.experiment != "accuracy" and args.model is None:
        parser.error(f"eval {args.experiment} requires --model")
    # an output that cannot be written is refused before any work
    out_dir = os.path.dirname(args.out) or "."
    if not args.out or os.path.isdir(args.out):
        parser.error(f"argument --out: {args.out!r} names no file")
    if not os.path.isdir(out_dir):
        parser.error(f"argument --out: no directory {out_dir!r}")
    try:
        cfg = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
        # flags that override config values are folded in, so that headers hash what ran
        if getattr(args, "samples", None) is not None:
            cfg = dataclasses.replace(cfg, n_samples=args.samples)
        if getattr(args, "threshold", None) is not None:
            cfg = dataclasses.replace(cfg, merge_threshold=args.threshold)
        return args.func(args, cfg)
    except (BadConfigError, GridSizeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except MissingInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_MODULE_ERROR


if __name__ == "__main__":
    sys.exit(main())
