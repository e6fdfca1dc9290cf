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

from .geometry import ObjectFeatures, RobotOffset, wrap_angle

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

    def __post_init__(self):
        if self.label not in (SUCCESS, FAILURE):
            raise ValueError(f"unknown label {self.label!r}")
        if self.label == SUCCESS and self.cause != "none":
            raise ValueError("successful trials carry no failure cause")
        if self.cause not in CAUSES:
            raise ValueError(f"unknown cause {self.cause!r}")

    @property
    def executed(self) -> bool:
        return self.cause != "unreachable_theory"


_CSV_COLUMNS = ("object_dx", "object_dpsi", "robot_dx", "robot_dy", "label", "cause")


@dataclass
class Dataset:
    world: WorldConfig
    object_grid: list[ObjectFeatures]
    robot_grid: list[RobotOffset]
    records: list[TrialRecord] = field(default_factory=list)
    comments: list[str] = field(default_factory=list)  # "# " lines of a loaded file

    def executed_count(self) -> int:
        return sum(1 for r in self.records if r.executed)

    def save_csv(self, path, header_lines: list[str] | None = None):
        with open(path, "w", newline="") as f:
            for line in header_lines or []:
                f.write(f"# {line}\n")
            w = csv.writer(f)
            w.writerow(_CSV_COLUMNS)
            for r in self.records:
                w.writerow([
                    f"{r.object.dx_obj:.17g}", f"{r.object.dpsi_obj:.17g}",
                    f"{r.robot.dx_rob:.17g}", f"{r.robot.dy_rob:.17g}",
                    r.label, r.cause,
                ])

    @classmethod
    def load_csv(cls, path, world: WorldConfig) -> "Dataset":
        """Read a file written by save_csv. "#" lines are comments; the
        columns are found by header name. Each distinct pair of number
        strings becomes one ObjectFeatures or RobotOffset, shared by its
        rows. A missing column raises KeyError; a short row, a bad number or
        a bad label raises ValueError naming the file line."""
        comments = []

        def data_lines(f):
            for ln in f:
                if ln.startswith("#"):
                    comments.append(ln[1:].strip())
                else:
                    yield ln

        records, objects, robots = [], {}, {}
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
                    obj = objects.get((ox, op))
                    if obj is None:
                        obj = objects[ox, op] = ObjectFeatures(float(ox), float(op))
                    rob = robots.get((rx, ry))
                    if rob is None:
                        rob = robots[rx, ry] = RobotOffset(float(rx), float(ry))
                    records.append(TrialRecord(obj, rob, label, cause))
            except (ValueError, csv.Error) as e:
                # comments holds every "#" line read so far
                raise ValueError(f"line {reader.line_num + len(comments)}: {e}") from None
        if not records:
            raise ValueError("no trial rows")
        # the grids in order of first appearance
        object_grid = list(dict.fromkeys(r.object for r in records))
        robot_grid = list(dict.fromkeys(r.robot for r in records))
        return cls(world=world, object_grid=object_grid, robot_grid=robot_grid,
                   records=records, comments=comments)


def handle_position(obj: ObjectFeatures, world: WorldConfig) -> tuple[float, float]:
    """Grasp handle in the GSM frame; the object sits at (-dx_obj, 0)."""
    return (-obj.dx_obj + world.handle_length * math.cos(obj.dpsi_obj),
            world.handle_length * math.sin(obj.dpsi_obj))


def _handle_bearing(xb: float, yb: float, hx: float, hy: float) -> float:
    """Bearing of the handle relative to the robot front (the robot faces the
    table, i.e. the -x direction)."""
    return abs(wrap_angle(math.atan2(hy - yb, hx - xb) - math.pi))


def corridor_coords(obj: ObjectFeatures, xb: float, yb: float,
                    world: WorldConfig) -> tuple[float, float]:
    """Base position in the handle-axis frame: (along, lateral) where the
    axis points from the handle away from the object at angle dpsi_obj."""
    hx, hy = handle_position(obj, world)
    ux, uy = math.cos(obj.dpsi_obj), math.sin(obj.dpsi_obj)
    rx, ry = xb - hx, yb - hy
    return (rx * ux + ry * uy, -rx * uy + ry * ux)


def corridor_halfwidth(along: float, world: WorldConfig) -> float:
    """Lateral arm slack at a given stand-off distance; shrinks linearly
    with distance from the near end of the reach interval."""
    w = world.corridor_width - world.corridor_taper * (along - world.reach_min)
    return max(0.5 * w, 0.0)


def _first_failure(obj: ObjectFeatures, x: float, y: float, world: WorldConfig,
                   grasp_margin: float, table_margin: float, clearance: float) -> str:
    """First failing stage of a reach-grasp from base position (x, y) under
    the given margins, in the order of the action sequence; "none" when all
    pass."""
    if x < world.robot_radius + table_margin:
        return "table_collision"
    if math.hypot(x + obj.dx_obj, y) < clearance:
        return "object_collision"
    along, lateral = corridor_coords(obj, x, y, world)
    if not (world.reach_min + grasp_margin <= along <= world.reach_max - grasp_margin):
        return "empty_grip"
    hx, hy = handle_position(obj, world)
    if _handle_bearing(x, y, hx, hy) > world.reach_halfangle:
        return "empty_grip"
    if abs(lateral) > corridor_halfwidth(along, world) - grasp_margin:
        return "slip"
    return "none"


def theoretically_reachable(obj: ObjectFeatures, robot: RobotOffset,
                            world: WorldConfig) -> bool:
    """Kinematic upper bound: the outcome test of grasp_outcome with zero
    gripper margin, table margin and object clearance. Each margin only
    narrows a stage, so with non-negative margins this is a superset of
    every geometrically successful pose."""
    return _first_failure(obj, robot.dx_rob, robot.dy_rob, world, 0.0, 0.0, 0.0) == "none"


def grasp_outcome(obj: ObjectFeatures, xb: float, yb: float,
                  world: WorldConfig) -> str:
    """Deterministic outcome of the reach-grasp stages at an achieved base
    position (local-minimum events excluded). Returns a cause, "none" on
    success."""
    return _first_failure(obj, xb, yb, world, world.grasp_margin, world.table_margin,
                          world.min_object_clearance)


def geometric_success(obj: ObjectFeatures, robot: RobotOffset, world: WorldConfig) -> bool:
    """Noise-free success predicate (ground truth for oracles)."""
    return grasp_outcome(obj, robot.dx_rob, robot.dy_rob, world) == "none"


def execute_trial(obj: ObjectFeatures, robot: RobotOffset, world: WorldConfig,
                  rng, check_reachability: bool = True) -> TrialRecord:
    """Run one navigate-reach-grasp trial.

    Theoretically unreachable commands are labeled without simulation. The
    achieved base pose is the command plus Gaussian navigation noise; the
    first failing stage determines the cause. rng is a Generator or a seed
    for np.random.default_rng, which is built only for a simulated trial.
    """
    if check_reachability and not theoretically_reachable(obj, robot, world):
        return TrialRecord(obj, robot, FAILURE, "unreachable_theory")
    rng = np.random.default_rng(rng)
    noise = rng.normal(0.0, 1.0, size=2) * world.nav_noise_sigma
    xb = robot.dx_rob + noise[0]
    yb = robot.dy_rob + noise[1]
    cause = grasp_outcome(obj, xb, yb, world)
    if cause in ("table_collision", "object_collision"):
        return TrialRecord(obj, robot, FAILURE, cause)
    if rng.uniform() < world.local_minimum_rate:
        return TrialRecord(obj, robot, FAILURE, "local_minimum")
    if cause != "none":
        return TrialRecord(obj, robot, FAILURE, cause)
    return TrialRecord(obj, robot, SUCCESS, "none")


def generate_dataset(world: WorldConfig, object_grid, robot_grid, seed: int,
                     use_capability_filter: bool = True) -> Dataset:
    """One trial per (object, robot) pair, each on an independent RNG stream
    derived from (seed, pair index), so a record does not depend on the
    order in which the pairs run. A pair the reachability filter rejects
    never builds its generator."""
    if not object_grid or not robot_grid:
        raise ValueError("grids must be non-empty")
    records = [execute_trial(obj, rob, world, (seed, i * len(robot_grid) + j),
                             check_reachability=use_capability_filter)
               for i, obj in enumerate(object_grid)
               for j, rob in enumerate(robot_grid)]
    return Dataset(world=world, object_grid=list(object_grid),
                   robot_grid=list(robot_grid), records=records)


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
