"""Synthetic navigate-reach-grasp world.

Stands in for a physics simulator: trials are labeled by an analytic grasp
geometry plus stochastic navigation noise and a controller local-minimum
failure, so ground truth is available for oracles.

The gripper must approach along the object's handle axis: the feasible base
region is a corridor aligned with the handle direction, tapering with
distance (a distant robot has less lateral arm slack). Lateral misalignment
makes the grasp slip off; standing too close or too far leaves the gripper
empty. Failure causes mirror the stages of the action sequence.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass, field, fields

import numpy as np

from .geometry import TWO_PI, ObjectFeatures, RobotOffset

SUCCESS = "success"
FAILURE = "failure"

CAUSES = (
    "none",
    "unreachable_theory",
    "table_collision",
    "object_collision",
    "empty_grip",
    "slip",
    "local_minimum",
)
_NONE, _UNREACHABLE, _TABLE_COLLISION, _OBJECT_COLLISION, _EMPTY_GRIP, _SLIP, \
    _LOCAL_MINIMUM = range(len(CAUSES))


@dataclass(frozen=True)
class WorldConfig:
    robot_radius: float = 0.10
    reach_min: float = 0.25
    reach_max: float = 0.95
    reach_halfangle: float = 1.45
    nav_noise_sigma: float = 0.01
    grasp_margin: float = 0.03
    local_minimum_rate: float = 0.01
    seed: int = 0
    # grasp geometry of the synthetic gripper/object pair
    handle_length: float = 0.12
    corridor_width: float = 0.60
    corridor_taper: float = 0.65
    table_margin: float = 0.02
    min_object_clearance: float = 0.18

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{f.name} must be finite and non-negative, found {value!r}")
        if not (0.0 < self.reach_min < self.reach_max):
            raise ValueError("need 0 < reach_min < reach_max")
        if self.robot_radius <= 0:
            raise ValueError("robot_radius must be positive")
        if not (0.0 <= self.local_minimum_rate <= 1.0):
            raise ValueError("local_minimum_rate must be in [0, 1]")


@dataclass(frozen=True)
class TrialRecord:
    object: ObjectFeatures
    robot: RobotOffset
    label: str
    cause: str

    @property
    def executed(self) -> bool:
        return self.cause != "unreachable_theory"


_CSV_COLUMNS = ("object_dx", "object_dpsi", "robot_dx", "robot_dy", "label", "cause")
# the label of each CAUSES code: only "none" is a success
_LABELS = [SUCCESS] + [FAILURE] * (len(CAUSES) - 1)
_CODES = {(label, cause): k for k, (label, cause) in enumerate(zip(_LABELS, CAUSES))}


@dataclass
class Dataset:
    world: WorldConfig
    object_grid: list[ObjectFeatures]
    robot_grid: list[RobotOffset]
    pose: np.ndarray  # per trial, the index of its object pose in object_grid
    base: np.ndarray  # per trial, the index of its base position in robot_grid
    cause: np.ndarray  # per trial, the index of its cause in CAUSES
    comments: list[str] = field(default_factory=list)  # "# " lines of a loaded file

    @property
    def records(self) -> list[TrialRecord]:
        """The trials as TrialRecords, built on each call; only perfbench/ reads them."""
        return [TrialRecord(self.object_grid[i], self.robot_grid[j], _LABELS[c], CAUSES[c])
                for i, j, c in zip(self.pose.tolist(), self.base.tolist(), self.cause.tolist())]

    def executed_count(self) -> int:
        return int(np.count_nonzero(self.cause != _UNREACHABLE))

    def save_csv(self, path, header_lines: list[str] | None = None):
        """The header lines as "# " comments, then the rows of csv.writer's
        default dialect: comma-separated and CRLF-terminated, without
        quotes, since no number, label or cause holds a comma, quote or line
        break. Each grid entry and outcome is formatted once, and the file
        is written in one call."""
        objects = [f"{o.dx_obj:.17g},{o.dpsi_obj:.17g}," for o in self.object_grid]
        robots = [f"{r.dx_rob:.17g},{r.dy_rob:.17g}," for r in self.robot_grid]
        outcomes = [f"{label},{cause}\r\n" for label, cause in zip(_LABELS, CAUSES)]
        lines = [f"# {line}\n" for line in header_lines or []]
        lines.append(",".join(_CSV_COLUMNS) + "\r\n")
        lines += [objects[i] + robots[j] + outcomes[c]
                  for i, j, c in zip(self.pose.tolist(), self.base.tolist(), self.cause.tolist())]
        with open(path, "w", newline="") as f:
            f.write("".join(lines))

    @classmethod
    def load_csv(cls, path, world: WorldConfig) -> "Dataset":
        """Read a file written by save_csv. "#" lines are comments; the
        columns are found by header name. Each distinct pair of number
        strings is parsed once into a grid index. Pairs of equal value
        ("0.10" and "0.1", "0" and "-0") share the entry of the first, and
        each grid keeps the order in which its values first appear. A
        missing column raises KeyError; a short row, a bad number or a label
        that does not go with its cause raises ValueError naming the file
        line."""
        comments = []

        def data_lines(f):
            for ln in f:
                if ln.startswith("#"):
                    comments.append(ln[1:].strip())
                else:
                    yield ln

        objects, robots = {}, {}  # grid entry -> its index
        object_ix, robot_ix, trials = {}, {}, []  # pair of number strings -> grid index
        with open(path, newline="") as f:
            reader = csv.reader(data_lines(f))
            header = next(reader, [])
            cols = {name: k for k, name in enumerate(header)}
            ix = [cols[name] for name in _CSV_COLUMNS]
            fields, width = operator.itemgetter(*ix), max(ix) + 1
            try:
                for row in reader:
                    if not row:
                        continue
                    if len(row) < width:
                        raise ValueError(f"{len(row)} fields, the header has {len(header)}")
                    ox, op, rx, ry, label, cause = fields(row)
                    i = object_ix.get((ox, op))
                    if i is None:
                        obj = ObjectFeatures(float(ox), float(op))
                        i = object_ix[ox, op] = objects.setdefault(obj, len(objects))
                    j = robot_ix.get((rx, ry))
                    if j is None:
                        rob = RobotOffset(float(rx), float(ry))
                        j = robot_ix[rx, ry] = robots.setdefault(rob, len(robots))
                    if (label, cause) not in _CODES:
                        raise ValueError(f"label {label!r} does not go with cause {cause!r}")
                    trials.append((i, j, _CODES[label, cause]))
            except (ValueError, csv.Error) as e:
                # comments holds every "#" line read so far
                raise ValueError(f"line {reader.line_num + len(comments)}: {e}") from None
        if not trials:
            raise ValueError("no trial rows")
        pose, base, codes = np.array(trials, dtype=np.intp).T
        return cls(world, list(objects), list(robots), pose, base, codes, comments)


def first_failure(dx_obj, dpsi_obj, x, y, world: WorldConfig, margins: bool = True) -> np.ndarray:
    """CAUSES index of the first failing stage of a reach-grasp from base
    position (x, y), elementwise over broadcast arrays; 0 ("none") where all
    pass. In the order of the action sequence: table_collision (x below
    robot_radius + table_margin), object_collision (closer than
    min_object_clearance to the object at (-dx_obj, 0)), empty_grip (the
    stand-off along the handle axis outside the reach interval narrowed by
    grasp_margin, or the handle bearing more than reach_halfangle off the
    robot front, which faces -x), then slip (the lateral offset from the
    axis beyond the corridor half-width less grasp_margin). The handle sits
    handle_length from the object along dpsi_obj, and its axis points away
    from the object. The half-width, corridor_width/2 at reach_min, shrinks
    by corridor_taper/2 per metre of stand-off down to 0. Each margin only
    narrows a stage, so margins=False, which sets grasp_margin, table_margin
    and min_object_clearance to 0, passes a superset of the geometrically
    successful poses: the reachability filter."""
    grasp, table, clearance = ((world.grasp_margin, world.table_margin,
                                world.min_object_clearance) if margins else (0.0, 0.0, 0.0))
    with np.errstate(invalid="ignore"):  # an infinite base gives NaN, as math does
        c, s = np.cos(dpsi_obj), np.sin(dpsi_obj)
        rx = x - (world.handle_length * c - dx_obj)
        ry = y - world.handle_length * s
        along, lateral = rx * c + ry * s, -rx * s + ry * c
        # angle from the robot front (-x) to the handle, wrapped as geometry.wrap_angle
        bearing = np.abs(np.pi - ((np.pi - (np.arctan2(-ry, -rx) - np.pi)) % TWO_PI))
        halfwidth = np.maximum(0.5 * (world.corridor_width
                                      - world.corridor_taper * (along - world.reach_min)), 0.0)
        empty = (~((world.reach_min + grasp <= along) & (along <= world.reach_max - grasp))
                 | (bearing > world.reach_halfangle))
        code = np.where(np.abs(lateral) > halfwidth - grasp, _SLIP, _NONE)
        code = np.where(empty, _EMPTY_GRIP, code)
        code = np.where(np.hypot(x + dx_obj, y) < clearance, _OBJECT_COLLISION, code)
        return np.where(x < world.robot_radius + table, _TABLE_COLLISION, code)


def grasp_outcome(obj: ObjectFeatures, xb: float, yb: float, world: WorldConfig) -> str:
    """Deterministic outcome of the reach-grasp stages at an achieved base
    position (local-minimum events excluded). Returns a cause, "none" on
    success."""
    return CAUSES[first_failure(obj.dx_obj, obj.dpsi_obj, xb, yb, world)]


def geometric_success(obj: ObjectFeatures, robot: RobotOffset, world: WorldConfig) -> bool:
    """Noise-free success predicate (ground truth for oracles)."""
    return grasp_outcome(obj, robot.dx_rob, robot.dy_rob, world) == "none"


def run_trials(dx_obj, dpsi_obj, x, y, world: WorldConfig, streams,
               check_reachability: bool = True) -> np.ndarray:
    """CAUSES codes of the trials: trial k commands the base position
    (x[k], y[k]) for the object pose (dx_obj[k], dpsi_obj[k]) and runs on
    streams[k], a Generator or a seed for np.random.default_rng. With
    check_reachability, a command that fails first_failure(margins=False)
    is "unreachable_theory" and never builds its generator. Every other
    trial draws normal(size=2) navigation noise, scaled by nav_noise_sigma,
    then one uniform(); its achieved base's first failing stage is its
    cause, or local_minimum where the uniform is below local_minimum_rate
    and the robot hit neither table nor object."""
    n = len(streams)
    dx, dpsi, x, y = (np.asarray(a, dtype=float) for a in (dx_obj, dpsi_obj, x, y))
    if any(a.shape != (n,) for a in (dx, dpsi, x, y)):
        raise ValueError("coordinates and streams need one entry per trial")
    run = np.arange(n)
    if check_reachability:
        run = np.flatnonzero(first_failure(dx, dpsi, x, y, world, margins=False) == _NONE)
    rngs = (np.random.default_rng(streams[k]) for k in run.tolist())
    ex, ey, u = np.reshape([(*rng.normal(0.0, 1.0, size=2).tolist(), rng.uniform())
                            for rng in rngs], (-1, 3)).T
    outcome = first_failure(dx[run], dpsi[run], x[run] + world.nav_noise_sigma * ex,
                            y[run] + world.nav_noise_sigma * ey, world)
    collided = (outcome == _TABLE_COLLISION) | (outcome == _OBJECT_COLLISION)
    codes = np.full(n, _UNREACHABLE)
    codes[run] = np.where(~collided & (u < world.local_minimum_rate), _LOCAL_MINIMUM, outcome)
    return codes


def generate_dataset(world: WorldConfig, object_grid, robot_grid, seed: int,
                     use_capability_filter: bool = True) -> Dataset:
    """One trial per (object, robot) pair, each on an independent RNG stream
    derived from (seed, pair index), so a trial does not depend on the
    order in which the pairs run. A pair the reachability filter rejects
    never builds its generator."""
    if not object_grid or not robot_grid:
        raise ValueError("grids must be non-empty")
    pose = np.repeat(np.arange(len(object_grid)), len(robot_grid))
    base = np.tile(np.arange(len(robot_grid)), len(object_grid))
    dx, dpsi = np.array([(o.dx_obj, o.dpsi_obj) for o in object_grid])[pose].T
    x, y = np.array([(r.dx_rob, r.dy_rob) for r in robot_grid])[base].T
    cause = run_trials(dx, dpsi, x, y, world, [(seed, k) for k in range(len(pose))],
                       check_reachability=use_capability_filter)
    return Dataset(world, list(object_grid), list(robot_grid), pose, base, cause)


def default_world(seed: int = 0) -> WorldConfig:
    return WorldConfig(seed=seed)


def default_object_grid() -> list[ObjectFeatures]:
    """4 x 4 = 16 object poses spanning the trained feature ranges."""
    return [ObjectFeatures(dx, dpsi)
            for dx in (0.05, 0.11, 0.17, 0.23)
            for dpsi in (-0.6, -0.2, 0.2, 0.6)]


def default_robot_grid() -> list[RobotOffset]:
    """16 x 27 = 432 candidate base positions in the bounding rectangle."""
    xs = np.linspace(0.15, 1.05, 16)
    ys = np.linspace(-0.78, 0.78, 27)
    return [RobotOffset(float(x), float(y)) for x in xs for y in ys]


def robot_bounds(robot_grid) -> tuple[float, float, float, float]:
    """(x_min, x_max, y_min, y_max) of the base positions of a robot grid."""
    xs = [r.dx_rob for r in robot_grid]
    ys = [r.dy_rob for r in robot_grid]
    return min(xs), max(xs), min(ys), max(ys)
