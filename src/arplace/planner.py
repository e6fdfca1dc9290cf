"""Miniature transformational planner.

A plan is a tuple of pick-up tasks, run in order; each is at-location(d)
{ perceive(o); achieve(entity-picked-up o) } for a location designator d
that names the object o. Designators are symbolic location descriptions
resolved against success-probability maps when needed. Projection simulates
a plan against a scene and yields an event trace timed by a time model. A
flaw names two pick-up designators whose joint designator resolves to a high
success probability; the merge transformation gives every task on either one
base location.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .grids import GridSpec
from .placemap import GaussianBelief, apply_robot_uncertainty, best_cell, compute_map, merge
from .shapemodel import GSMModel
from .simworld import CAUSES, WorldConfig, first_failure, trial_causes

MERGE_THRESHOLD = 0.85
# perception scales the belief covariance of the object it observes by this
_PERCEPTION_SHRINK = 0.5


class UnresolvableDesignatorError(RuntimeError):
    pass


@dataclass(eq=False)
class Designator:
    """Symbolic pick-up location: which objects it must reach, and optionally
    a world-frame cell with its success probability fixed in advance (as the
    merge transformation does). Designators compare and hash by identity:
    two tasks share a location only if they hold the same designator."""

    objects: tuple[str, ...]
    resolved: tuple[tuple[float, float], float] | None = None

    def __post_init__(self):
        if isinstance(self.objects, str):
            raise ValueError("objects must be a sequence of names, not one string")
        self.objects = tuple(self.objects)
        if not self.objects:
            raise ValueError("a designator must name at least one object")
        if len(set(self.objects)) < len(self.objects):
            raise ValueError(f"a designator names each object once, not {self.objects}")


@dataclass(frozen=True, slots=True)
class Task:
    """Pick up obj from the base its location designator resolves to, a
    designator that names obj."""

    location: Designator
    obj: str

    def __post_init__(self):
        if self.obj not in self.location.objects:
            raise ValueError(f"the task's location does not name {self.obj!r}")


def pickup_task(object_name: str) -> Task:
    """The pick-up of one object at a designator of its own."""
    return Task(Designator((object_name,)), object_name)


def two_pickup_plan() -> tuple[Task, ...]:
    return (pickup_task("cup-a"), pickup_task("cup-b"))


# ---------------------------------------------------------------------------
# plan serialization (s-expressions)
# ---------------------------------------------------------------------------

def plan_to_sexp(plan: tuple[Task, ...]) -> str:
    """(sequence (at-location (a location ...) (perceive (object-pose o))
    (achieve (entity-picked-up o))) ...), one at-location per task; a
    designator of one object is to pick-up, one of several to joint-pick-up."""
    tasks = []
    for task in plan:
        d = task.location
        fields = [f"a location (to {'pick-up' if len(d.objects) == 1 else 'joint-pick-up'})",
                  "(objects " + " ".join(d.objects) + ")"]
        if d.resolved is not None:
            (x, y), p = d.resolved
            fields.append(f"(resolved {x:.17g} {y:.17g} {p:.17g})")
        tasks.append(f" (at-location ({' '.join(fields)}) (perceive (object-pose {task.obj}))"
                     f" (achieve (entity-picked-up {task.obj})))")
    return "(sequence" + "".join(tasks) + ")"


# ---------------------------------------------------------------------------
# scenes and projection
# ---------------------------------------------------------------------------

@dataclass
class SceneObject:
    """An object on the table: true displacement state (distance from the
    edge, position along it, orientation) and the current belief about it."""

    name: str
    truth: tuple[float, float, float]
    belief: GaussianBelief


@dataclass
class Scene:
    objects: dict[str, SceneObject]
    robot_xy: tuple[float, float]


@dataclass(frozen=True)
class TimeModel:
    nav_overhead: float = 15.0
    nav_speed: float = 0.3
    grasp_time: float = 5.0
    perceive_time: float = 1.0

    def event_duration(self, event: "TraceEvent") -> float:
        if event.kind == "navigate":
            return self.nav_overhead + event.detail["distance"] / self.nav_speed
        if event.kind == "perceive":
            return self.perceive_time
        if event.kind == "grasp":
            return self.grasp_time
        return 0.0


@dataclass(slots=True)
class TraceEvent:
    kind: str          # navigate | perceive | grasp
    detail: dict


@dataclass(slots=True)
class ExecutionTrace:
    time_model: TimeModel  # the one project ran under; it times the events
    events: list[TraceEvent] = field(default_factory=list)

    @property
    def grasp_outcomes(self) -> list[dict]:
        return [e.detail for e in self.events if e.kind == "grasp"]

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)


def plan_duration(trace: ExecutionTrace, time_model: TimeModel) -> float:
    """Sum of per-event durations under the given time model."""
    return sum(time_model.event_duration(e) for e in trace.events)


def resolve_location(designator: Designator, scene: Scene, gsm: GSMModel, world: WorldConfig,
                     spec: GridSpec, rng) -> tuple[tuple[float, float], float]:
    """The best cell of the joint success map of the objects the designator
    must reach, conditioned on the world's navigation noise, as (world-frame
    center, probability): one world-frame map per object on a seed drawn
    from np.random.default_rng(rng) in designator order, multiplied
    cellwise, then apply_robot_uncertainty at world.nav_noise_sigma, the
    noise project applies on arrival. The grasps share one base and one
    arrival error, so the product is what is conditioned: the probability
    is the chance that every grasp succeeds from the cell after a noisy
    arrival. The designator is left unchanged."""
    missing = [n for n in designator.objects if n not in scene.objects]
    if missing:
        raise UnresolvableDesignatorError(f"unknown objects {missing}")
    rng = np.random.default_rng(rng)
    grid = functools.reduce(merge, [
        compute_map(gsm, scene.objects[name].belief, spec,
                    rng=rng.integers(2 ** 31), frame="world")
        for name in designator.objects])
    (i, j), p = best_cell(apply_robot_uncertainty(grid, world.nav_noise_sigma))
    return grid.spec.cell_center(i, j), p


def project(plan: tuple[Task, ...], scene: Scene, gsm: GSMModel, world: WorldConfig,
            spec: GridSpec, rng, time_model: TimeModel = TimeModel()) -> ExecutionTrace:
    """Simulate a plan task by task: navigate to the location designator's
    resolved cell, with position noise on arrival, unless the robot's last
    navigation was for that same designator; perceive the object; grasp it.
    So each visit to a designator is one navigation, and its tasks share one
    base and one arrival error of world.nav_noise_sigma, which is what
    resolve_location, passed the same world, conditions on. Perception snaps
    a belief to the true state and shrinks its covariance, and grasps run
    against the true object state from the achieved base position, each
    labeled by simworld.trial_causes. An object that a designator names and
    the scene lacks raises UnresolvableDesignatorError before any map is
    computed.

    The plan and the scene passed in are never written: resolved cells are
    kept per projection and perception updates copies of the scene's objects,
    so projecting the same plan and scene again with the same rng gives the
    same trace.
    """
    rng = np.random.default_rng(rng)
    scene = Scene({name: replace(obj) for name, obj in scene.objects.items()},
                  scene.robot_xy)
    missing = sorted({name for task in plan for name in task.location.objects}
                     - scene.objects.keys())
    if missing:
        raise UnresolvableDesignatorError(f"unknown objects {missing}")

    trace = ExecutionTrace(time_model)
    robot, at = tuple(scene.robot_xy), None  # at: the last navigation's designator
    targets: dict[Designator, tuple[tuple[float, float], float]] = {}
    for task in plan:
        if task.location is not at:
            at = d = task.location
            if d.resolved is None and d not in targets:
                targets[d] = resolve_location(d, scene, gsm, world, spec,
                                              rng=rng.integers(2 ** 31))
            (tx, ty), _ = d.resolved or targets[d]
            sigma = world.nav_noise_sigma
            achieved = (tx + sigma * rng.standard_normal(), ty + sigma * rng.standard_normal())
            trace.events.append(TraceEvent("navigate", {
                "from": robot, "goal": (tx, ty), "achieved": achieved,
                "distance": float(np.hypot(tx - robot[0], ty - robot[1]))}))
            robot = achieved
        obj = scene.objects[task.obj]
        obj.belief = GaussianBelief(obj.truth, obj.belief.cov * _PERCEPTION_SHRINK)
        trace.events.append(TraceEvent("perceive", {"object": obj.name}))
        dx, y, psi = obj.truth
        stage = first_failure(max(dx, 0.0), psi, robot[0], robot[1] - y, world)
        # only a grasp whose stages all pass ("none") draws its uniform
        u = rng.random() if stage == 0 else 1.0
        cause = CAUSES[trial_causes(stage, u, world)]
        trace.events.append(TraceEvent("grasp", {
            "object": obj.name, "success": cause == "none", "cause": cause,
            "robot": robot}))
    return trace


# ---------------------------------------------------------------------------
# flaws and transformations
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Flaw:
    """Unoptimized-locations flaw: two pick-up designators whose tasks can
    share one base, and the joint cell they would share."""

    locations: tuple[Designator, Designator]
    proposed_location: tuple[tuple[float, float], float]  # joint cell, p


def detect_merge_flaw(plan: tuple[Task, ...], scene: Scene, gsm: GSMModel,
                      spec: GridSpec, rng, threshold: float = MERGE_THRESHOLD, *,
                      world: WorldConfig = WorldConfig()) -> Flaw | None:
    """Unoptimized-locations flaw: two distinct designators (tasks share a
    location exactly when they hold one designator) whose joint designator
    resolves to a probability above the threshold in the world the plan
    will be projected in (the default world if none is given). Each pair of
    designators is tried once, in the order their first tasks appear in the
    plan, and resolved on the next draws of np.random.default_rng(rng)."""
    if not 0 < threshold < 1:
        raise ValueError("threshold must lie in (0, 1)")
    rng = np.random.default_rng(rng)
    for a, b in itertools.combinations(dict.fromkeys(task.location for task in plan), 2):
        joint = Designator(tuple(dict.fromkeys(a.objects + b.objects)))
        location = resolve_location(joint, scene, gsm, world, spec, rng)
        if location[1] > threshold:
            return Flaw((a, b), location)
    return None


def apply_merge_transform(plan: tuple[Task, ...], flaw: Flaw) -> tuple[Task, ...]:
    """A new plan in which every task that held either of the flaw's
    designators holds one resolved joint designator of the sorted objects
    both reach, and every other designator is copied once, so tasks that
    shared one share its copy; the plan passed in is unchanged. A plan that
    does not hold both designators raises ValueError."""
    if not {task.location for task in plan} >= set(flaw.locations):
        raise ValueError("the plan does not hold the flaw's designators")
    objects = tuple(sorted({name for d in flaw.locations for name in d.objects}))
    copies = dict.fromkeys(flaw.locations, Designator(objects, flaw.proposed_location))
    for task in plan:
        if task.location not in copies:
            copies[task.location] = replace(task.location)
    return tuple(Task(copies[task.location], task.obj) for task in plan)
