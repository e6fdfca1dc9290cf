"""Miniature transformational planner.

Plans are small trees of sequence / at-location / perceive / achieve nodes.
Location goals are designators: symbolic descriptions resolved against
success-probability maps when needed. Projection simulates a plan against a
scene and yields a timestamped event trace; the merge transformation rewrites
two pick-up tasks to share a single base location when the merged map still
promises a high joint success probability.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import ObjectFeatures
from .grids import ARPlaceGrid, GridSpec
from .placemap import GaussianBelief, best_cell, compute_map, merge
# not called here; perfbench's tracer patches this module attribute
from .placemap import apply_robot_uncertainty  # noqa: F401
from .shapemodel import GSMModel
from .simworld import WorldConfig, grasp_outcome

MERGE_THRESHOLD = 0.85
# best_cell smoothing radius (m): among equally likely cells, prefer the
# interior of a plateau over its corners
_TIE_BREAK_RADIUS = 0.02
# perception scales the belief covariance of the object it observes by this
_PERCEPTION_SHRINK = 0.5

SEQUENCE = "sequence"
AT_LOCATION = "at_location"
PERCEIVE = "perceive"
ACHIEVE = "achieve"
_KINDS = (SEQUENCE, AT_LOCATION, PERCEIVE, ACHIEVE)

_uid_counter = itertools.count(1)


class UnresolvableDesignatorError(RuntimeError):
    pass


@dataclass
class Designator:
    """Symbolic location description: what it is for, which objects it must
    reach, and — once an ARPlace query ran — the chosen world-frame cell and
    its success probability."""

    purpose: str                       # pick_up | put_down | joint_pick_up
    objects: tuple[str, ...]
    resolved: tuple[tuple[float, float], float] | None = None
    uid: int = field(default_factory=lambda: next(_uid_counter))

    def __post_init__(self):
        if self.purpose not in ("pick_up", "put_down", "joint_pick_up"):
            raise ValueError(f"unknown designator purpose {self.purpose!r}")
        self.objects = tuple(self.objects)

    @property
    def target(self) -> tuple[float, float]:
        if self.resolved is None:
            raise UnresolvableDesignatorError("designator not yet resolved")
        return self.resolved[0]


@dataclass
class PlanNode:
    """Plan tree node. `goal` is a symbolic tuple such as
    ('entity-picked-up', 'cup-a'); at_location nodes carry the location
    designator their children run under."""

    kind: str
    goal: tuple | None = None
    location: Designator | None = None
    children: list["PlanNode"] = field(default_factory=list)
    uid: int = field(default_factory=lambda: next(_uid_counter))

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown node kind {self.kind!r}")
        if self.kind == AT_LOCATION and self.location is None:
            raise ValueError("at_location requires a location designator")
        if self.kind != AT_LOCATION and self.location is not None:
            raise ValueError("only at_location carries a location")

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()

    def copy(self) -> "PlanNode":
        """Structural copy preserving node and designator identities (uids),
        so flaws detected on the original still match."""
        return PlanNode(kind=self.kind, goal=self.goal, location=self.location,
                        children=[c.copy() for c in self.children], uid=self.uid)

    def find(self, uid: int) -> "PlanNode | None":
        for node in self.walk():
            if node.uid == uid:
                return node
        return None


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


@dataclass
class TraceEvent:
    kind: str          # navigate | perceive | grasp
    t_start: float
    t_end: float
    detail: dict = field(default_factory=dict)


@dataclass
class ExecutionTrace:
    events: list[TraceEvent] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.events[-1].t_end if self.events else 0.0

    @property
    def grasp_outcomes(self) -> list[dict]:
        return [e.detail for e in self.events if e.kind == "grasp"]

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)


def plan_duration(trace: ExecutionTrace, time_model: TimeModel) -> float:
    """Sum of per-event durations under the given time model."""
    return sum(time_model.event_duration(e) for e in trace.events)


def merged_map(gsm: GSMModel, scene: Scene, names, spec: GridSpec,
               rng: np.random.Generator) -> ARPlaceGrid:
    """World-frame joint success map of the named scene objects: one map per
    object on a seed drawn from rng in the order of names (the belief's
    lateral mean places it along the table edge), multiplied cellwise."""
    grid = None
    for name in names:
        g = compute_map(gsm, scene.objects[name].belief, spec,
                        rng=rng.integers(2 ** 31), frame="world")
        grid = g if grid is None else merge(grid, g)
    return grid


def resolve_location(designator: Designator, scene: Scene, gsm: GSMModel,
                     spec: GridSpec, rng) -> Designator:
    """Resolve a location designator to the best cell of the (merged) map of
    the objects it must reach."""
    missing = [n for n in designator.objects if n not in scene.objects]
    if missing:
        raise UnresolvableDesignatorError(f"unknown objects {missing}")
    grid = merged_map(gsm, scene, designator.objects, spec,
                      np.random.default_rng(rng))
    (i, j), p = best_cell(grid, _TIE_BREAK_RADIUS)
    designator.resolved = (grid.spec.cell_center(i, j), p)
    return designator


# a goal closer than this counts as "already there": navigation (and its
# fixed overhead) is skipped, which is what makes merged locations pay off
_ARRIVAL_TOL = 0.05


def project(plan: PlanNode, scene: Scene, gsm: GSMModel, world: WorldConfig,
            spec: GridSpec, rng, time_model: TimeModel = TimeModel()) -> ExecutionTrace:
    """Simulate a plan: navigation drives to resolved locations (skipped when
    the robot is already there, with position noise on arrival), perception
    snaps a belief to the true state and shrinks its covariance, and grasps
    run against the true object state from the achieved base position.

    Perception updates copies of the scene's objects, so the scene passed in
    keeps its beliefs and can be projected again.
    """
    rng = np.random.default_rng(rng)
    scene = Scene({name: replace(obj) for name, obj in scene.objects.items()},
                  scene.robot_xy)
    for node in plan.walk():
        if node.kind == AT_LOCATION:
            for name in node.location.objects:
                if name not in scene.objects:
                    raise UnresolvableDesignatorError(
                        f"unknown object {name!r} in location designator")

    trace = ExecutionTrace()
    robot = list(scene.robot_xy)
    clock = [0.0]

    def emit(kind, detail):
        ev = TraceEvent(kind, clock[0], clock[0], detail)
        ev.t_end = clock[0] + time_model.event_duration(ev)
        clock[0] = ev.t_end
        trace.events.append(ev)

    def run(node: PlanNode):
        if node.kind == SEQUENCE:
            for c in node.children:
                run(c)
        elif node.kind == AT_LOCATION:
            d = node.location
            if d.resolved is None:
                resolve_location(d, scene, gsm, spec, rng=rng.integers(2 ** 31))
            tx, ty = d.target
            dist = float(np.hypot(tx - robot[0], ty - robot[1]))
            if dist > _ARRIVAL_TOL:
                sigma = world.nav_noise_sigma
                achieved = (tx + sigma * rng.standard_normal(),
                            ty + sigma * rng.standard_normal())
                emit("navigate", {"from": tuple(robot), "goal": (tx, ty),
                                  "achieved": achieved, "distance": dist})
                robot[0], robot[1] = achieved
            for c in node.children:
                run(c)
        elif node.kind == PERCEIVE:
            obj = scene.objects[node.goal[1]]
            cov = obj.belief.cov_array() * _PERCEPTION_SHRINK
            obj.belief = GaussianBelief(obj.truth, cov)
            emit("perceive", {"object": obj.name})
        elif node.kind == ACHIEVE:
            obj = scene.objects[node.goal[1]]
            dx, y, psi = obj.truth
            feats = ObjectFeatures(dx_obj=max(dx, 0.0), dpsi_obj=psi)
            cause = grasp_outcome(feats, robot[0], robot[1] - y, world)
            success = cause == "none"
            if success and rng.random() < world.local_minimum_rate:
                success, cause = False, "local_minimum"
            emit("grasp", {"object": obj.name, "success": success,
                           "cause": cause, "robot": tuple(robot)})

    run(plan)
    return trace


# ---------------------------------------------------------------------------
# flaws and transformations
# ---------------------------------------------------------------------------

@dataclass
class Flaw:
    kind: str                         # unoptimized_locations
    bindings: dict
    proposed_location: tuple[tuple[float, float], float] | None = None


def _pickup_tasks(plan: PlanNode) -> list[PlanNode]:
    return [node for node in plan.walk()
            if node.kind == AT_LOCATION
            and any(c.kind == ACHIEVE and c.goal[0] == "entity-picked-up"
                    for c in node.children)]


def detect_merge_flaw(plan: PlanNode, scene: Scene, gsm: GSMModel,
                      spec: GridSpec, rng, threshold: float = MERGE_THRESHOLD) -> Flaw | None:
    """Unoptimized-locations flaw: two distinct pick-up tasks whose merged
    success map still has a cell above the threshold."""
    if not 0 < threshold < 1:
        raise ValueError("threshold must lie in (0, 1)")
    rng = np.random.default_rng(rng)
    tasks = _pickup_tasks(plan)
    for a, b in itertools.combinations(tasks, 2):
        if a.location.uid == b.location.uid:
            continue
        if set(a.location.objects) == set(b.location.objects):
            continue
        grid = merged_map(gsm, scene, a.location.objects + b.location.objects,
                          spec, rng)
        (i, j), p = best_cell(grid, _TIE_BREAK_RADIUS)
        if p > threshold:
            return Flaw("unoptimized_locations",
                        {"tasks": [a.uid, b.uid],
                         "objects": sorted(set(a.location.objects)
                                           | set(b.location.objects))},
                        proposed_location=(grid.spec.cell_center(i, j), p))
    return None


def apply_merge_transform(plan: PlanNode, flaw: Flaw) -> PlanNode:
    """Return a new plan in which both flawed pick-up tasks share one
    resolved joint location designator; all other nodes are unchanged."""
    if flaw.kind != "unoptimized_locations":
        raise ValueError("not an unoptimized-locations flaw")
    new_plan = plan.copy()
    nodes = [new_plan.find(uid) for uid in flaw.bindings["tasks"]]
    if any(n is None for n in nodes):
        raise ValueError("flawed tasks are no longer present in the plan")
    shared = Designator("joint_pick_up", tuple(flaw.bindings["objects"]),
                        resolved=flaw.proposed_location)
    for n in nodes:
        n.location = shared
    return new_plan
