"""Miniature transformational planner.

Plans are small trees of sequence / at-location / perceive / achieve nodes.
Location goals are designators: symbolic descriptions resolved against
success-probability maps when needed. Projection simulates a plan against a
scene and yields an event trace timed by a time model; the merge
transformation gives every task on two pick-up tasks' designators one base
location when their joint designator resolves to a high success probability.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .grids import GridSpec
from .placemap import GaussianBelief, apply_robot_uncertainty, best_cell, compute_map, merge
from .shapemodel import GSMModel
from .simworld import CAUSES, WorldConfig, default_world, first_failure, trial_causes

MERGE_THRESHOLD = 0.85
# the robot position noise (m) that location queries condition their maps on:
# the default world's navigation noise, for project and detect_merge_flaw alike
_NAV_NOISE_SIGMA = default_world().nav_noise_sigma
# perception scales the belief covariance of the object it observes by this
_PERCEPTION_SHRINK = 0.5

SEQUENCE = "sequence"
AT_LOCATION = "at_location"
PERCEIVE = "perceive"
ACHIEVE = "achieve"
_KINDS = (SEQUENCE, AT_LOCATION, PERCEIVE, ACHIEVE)


class UnresolvableDesignatorError(RuntimeError):
    pass


@dataclass(eq=False)
class Designator:
    """Symbolic location description: what it is for, which objects it must
    reach, and optionally a world-frame cell with its success probability
    fixed in advance (as the merge transformation does). Designators compare
    and hash by identity: two tasks share a location only if they hold the
    same designator."""

    purpose: str                       # pick_up | joint_pick_up
    objects: tuple[str, ...]
    resolved: tuple[tuple[float, float], float] | None = None

    def __post_init__(self):
        if self.purpose not in ("pick_up", "joint_pick_up"):
            raise ValueError(f"unknown designator purpose {self.purpose!r}")
        if isinstance(self.objects, str):
            raise ValueError("objects must be a sequence of names, not one string")
        self.objects = tuple(self.objects)
        if not self.objects:
            raise ValueError("a designator must name at least one object")
        if len(set(self.objects)) < len(self.objects):
            raise ValueError(f"a designator names each object once, not {self.objects}")


@dataclass
class PlanNode:
    """Plan tree node. `goal` is a symbolic tuple such as
    ('entity-picked-up', 'cup-a'); at_location nodes carry the location
    designator their children run under."""

    kind: str
    goal: tuple | None = None
    location: Designator | None = None
    children: list["PlanNode"] = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown node kind {self.kind!r}")
        if self.kind == AT_LOCATION and self.location is None:
            raise ValueError("at_location requires a location designator")
        if self.kind != AT_LOCATION and self.location is not None:
            raise ValueError("only at_location carries a location")
        if self.kind in (PERCEIVE, ACHIEVE) and self.children:
            raise ValueError(f"{self.kind} carries no children")

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()


def sequence(*children: PlanNode) -> PlanNode:
    return PlanNode(SEQUENCE, children=list(children))


def at_location(location: Designator, *children: PlanNode) -> PlanNode:
    return PlanNode(AT_LOCATION, location=location, children=list(children))


def perceive(object_name: str) -> PlanNode:
    return PlanNode(PERCEIVE, goal=("object-pose", object_name))


def achieve_grasp(object_name: str) -> PlanNode:
    return PlanNode(ACHIEVE, goal=("entity-picked-up", object_name))


def pickup_task(object_name: str) -> PlanNode:
    """at-location(pick_up obj) { perceive(obj); achieve(entity-picked-up obj) }"""
    loc = Designator("pick_up", (object_name,))
    return at_location(loc, perceive(object_name), achieve_grasp(object_name))


def two_pickup_plan(name_a: str = "cup-a", name_b: str = "cup-b") -> PlanNode:
    return sequence(pickup_task(name_a), pickup_task(name_b))


# ---------------------------------------------------------------------------
# plan serialization (s-expressions)
# ---------------------------------------------------------------------------

def plan_to_sexp(node: PlanNode) -> str:
    parts = [node.kind.replace("_", "-")]
    if node.goal is not None:
        parts.append("(" + " ".join(str(v) for v in node.goal) + ")")
    d = node.location
    if d is not None:
        fields = [f"a location (to {d.purpose.replace('_', '-')})",
                  "(objects " + " ".join(d.objects) + ")"]
        if d.resolved is not None:
            (x, y), p = d.resolved
            fields.append(f"(resolved {x:.17g} {y:.17g} {p:.17g})")
        parts.append("(" + " ".join(fields) + ")")
    parts.extend(plan_to_sexp(c) for c in node.children)
    return "(" + " ".join(parts) + ")"


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


def resolve_location(designator: Designator, scene: Scene, gsm: GSMModel,
                     spec: GridSpec, rng) -> tuple[tuple[float, float], float]:
    """The best cell of the joint success map of the objects the designator
    must reach, conditioned on the default world's navigation noise, as
    (world-frame center, probability): one world-frame map per object on a
    seed drawn from np.random.default_rng(rng) in designator order,
    multiplied cellwise, then apply_robot_uncertainty. The grasps share one
    base and one arrival error, so the product is what is conditioned: the
    probability is the chance that every grasp succeeds from the cell after
    a noisy arrival. The designator is left unchanged."""
    missing = [n for n in designator.objects if n not in scene.objects]
    if missing:
        raise UnresolvableDesignatorError(f"unknown objects {missing}")
    rng = np.random.default_rng(rng)
    grid = functools.reduce(merge, [
        compute_map(gsm, scene.objects[name].belief, spec,
                    rng=rng.integers(2 ** 31), frame="world")
        for name in designator.objects])
    (i, j), p = best_cell(apply_robot_uncertainty(grid, _NAV_NOISE_SIGMA))
    return grid.spec.cell_center(i, j), p


def project(plan: PlanNode, scene: Scene, gsm: GSMModel, world: WorldConfig,
            spec: GridSpec, rng, time_model: TimeModel = TimeModel()) -> ExecutionTrace:
    """Simulate a plan: an at-location node navigates to its designator's
    resolved cell, with position noise on arrival, unless the robot's last
    navigation was for that same designator. So each visit to a designator
    is one navigation, and its tasks share one base and one arrival error,
    which is what resolve_location conditions on. Perception snaps a belief
    to the true state and shrinks its covariance, and grasps run against the
    true object state from the achieved base position, each labeled by
    simworld.trial_causes. An object that a location, perceive or achieve
    node names and the scene lacks raises UnresolvableDesignatorError before
    any map is computed.

    The plan and the scene passed in are never written: resolved cells are
    kept per projection and perception updates copies of the scene's objects,
    so projecting the same plan and scene again with the same rng gives the
    same trace.
    """
    rng = np.random.default_rng(rng)
    scene = Scene({name: replace(obj) for name, obj in scene.objects.items()},
                  scene.robot_xy)
    named = {name for node in plan.walk()
             for name in (node.location.objects if node.kind == AT_LOCATION else
                          node.goal[1:] if node.kind in (PERCEIVE, ACHIEVE) else ())}
    missing = sorted(named - scene.objects.keys())
    if missing:
        raise UnresolvableDesignatorError(f"unknown objects {missing}")

    trace = ExecutionTrace(time_model)
    robot, at = tuple(scene.robot_xy), None  # at: the last navigation's designator
    targets: dict[Designator, tuple[tuple[float, float], float]] = {}
    for node in plan.walk():  # pre-order: a location is reached before its children run
        if node.kind == AT_LOCATION and node.location is not at:
            at = d = node.location
            if d.resolved is None and d not in targets:
                targets[d] = resolve_location(d, scene, gsm, spec,
                                              rng=rng.integers(2 ** 31))
            (tx, ty), _ = d.resolved or targets[d]
            sigma = world.nav_noise_sigma
            achieved = (tx + sigma * rng.standard_normal(), ty + sigma * rng.standard_normal())
            trace.events.append(TraceEvent("navigate", {
                "from": robot, "goal": (tx, ty), "achieved": achieved,
                "distance": float(np.hypot(tx - robot[0], ty - robot[1]))}))
            robot = achieved
        elif node.kind == PERCEIVE:
            obj = scene.objects[node.goal[1]]
            cov = obj.belief.cov * _PERCEPTION_SHRINK
            obj.belief = GaussianBelief(obj.truth, cov)
            trace.events.append(TraceEvent("perceive", {"object": obj.name}))
        elif node.kind == ACHIEVE:
            obj = scene.objects[node.goal[1]]
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
    """Unoptimized-locations flaw: two pick-up tasks that can share a base."""

    tasks: tuple[int, int]             # positions in pick-up task order
    objects: tuple[str, ...]           # the objects they reach, sorted
    proposed_location: tuple[tuple[float, float], float]  # joint cell, p


def _pickup_tasks(plan: PlanNode) -> list[PlanNode]:
    return [node for node in plan.walk()
            if node.kind == AT_LOCATION
            and any(c.kind == ACHIEVE and c.goal[0] == "entity-picked-up"
                    for c in node.children)]


def detect_merge_flaw(plan: PlanNode, scene: Scene, gsm: GSMModel,
                      spec: GridSpec, rng, threshold: float = MERGE_THRESHOLD) -> Flaw | None:
    """Unoptimized-locations flaw: two pick-up tasks on distinct designators
    (tasks share a location exactly when they hold one designator) whose
    joint designator resolves to a probability above the threshold. The
    pairs are tried in plan order, each resolved on the next draws of
    np.random.default_rng(rng)."""
    if not 0 < threshold < 1:
        raise ValueError("threshold must lie in (0, 1)")
    rng = np.random.default_rng(rng)
    tasks = _pickup_tasks(plan)
    for (ka, a), (kb, b) in itertools.combinations(enumerate(tasks), 2):
        if a.location is b.location:
            continue
        joint = Designator("joint_pick_up",
                           tuple(dict.fromkeys(a.location.objects + b.location.objects)))
        location = resolve_location(joint, scene, gsm, spec, rng)
        if location[1] > threshold:
            return Flaw((ka, kb), tuple(sorted(joint.objects)), location)
    return None


def _copy_plan(node: PlanNode, designators: dict) -> PlanNode:
    """The tree copied node by node; tasks sharing a designator share its
    copy, and an entry already in the map replaces its designator."""
    d = node.location
    if d is not None and d not in designators:
        designators[d] = replace(d)
    return PlanNode(node.kind, node.goal, designators.get(d),
                    [_copy_plan(c, designators) for c in node.children])


def apply_merge_transform(plan: PlanNode, flaw: Flaw) -> PlanNode:
    """Return a new plan in which every task that held either flawed pick-up
    task's designator holds one resolved joint location designator; the
    plan passed in is unchanged."""
    tasks = _pickup_tasks(plan)
    try:
        flawed = [tasks[k].location for k in flaw.tasks]
    except IndexError:
        raise ValueError("flawed tasks are no longer present in the plan") from None
    reached = tuple(sorted({name for d in flawed for name in d.objects}))
    if reached != flaw.objects:
        raise ValueError(f"flawed tasks reach {reached}, not the flaw's "
                         f"objects {flaw.objects}")
    shared = Designator("joint_pick_up", flaw.objects, resolved=flaw.proposed_location)
    return _copy_plan(plan, dict.fromkeys(flawed, shared))
