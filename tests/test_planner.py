import copy
import dataclasses
import itertools

import numpy as np
import pytest

from arplace import planner
from arplace.evaluation import make_two_cup_scene, plan_grid_spec
from arplace.grids import GridSpec
from arplace.placemap import GaussianBelief
from arplace.planner import (Designator, ExecutionTrace, Flaw, PlanNode, Scene, SceneObject,
                             TimeModel, TraceEvent, UnresolvableDesignatorError, achieve_grasp,
                             apply_merge_transform, at_location,
                             detect_merge_flaw, perceive, pickup_task,
                             plan_duration, plan_to_sexp, project,
                             resolve_location, sequence, two_pickup_plan)
from arplace.simworld import CAUSES, run_trials


def _spec(sep):
    half = sep / 2.0 + 0.6
    return GridSpec.covering(0.15, 1.05, -half, half, 0.025)


# ---------------------------------------------------------------------------
# plan structure and serialization
# ---------------------------------------------------------------------------

def test_two_pickup_plan_shape():
    plan = two_pickup_plan()
    kinds = [n.kind for n in plan.walk()]
    assert kinds == ["sequence", "at_location", "perceive", "achieve",
                     "at_location", "perceive", "achieve"]
    tasks = [n for n in plan.walk() if n.kind == "at_location"]
    assert tasks[0].location.objects == ("cup-a",)
    assert tasks[1].location.objects == ("cup-b",)
    assert tasks[0].location is not tasks[1].location


def test_sexp_writes_structure_and_resolved_location():
    plan = two_pickup_plan()
    task = next(n for n in plan.walk() if n.kind == "at_location")
    task.location.resolved = ((0.5, -0.25), 0.9375)
    assert plan_to_sexp(plan) == (
        "(sequence"
        " (at-location (a location (to pick-up) (objects cup-a)"
        " (resolved 0.5 -0.25 0.9375))"
        " (perceive (object-pose cup-a)) (achieve (entity-picked-up cup-a)))"
        " (at-location (a location (to pick-up) (objects cup-b))"
        " (perceive (object-pose cup-b)) (achieve (entity-picked-up cup-b))))")


def test_designator_validation():
    with pytest.raises(ValueError):
        Designator("teleport", ("cup-a",))
    with pytest.raises(ValueError):  # nothing builds put-down locations
        Designator("put_down", ("cup-a",))
    for purpose in ("pick_up", "joint_pick_up"):  # an empty one has no map to resolve
        with pytest.raises(ValueError, match="at least one object"):
            Designator(purpose, ())
    d = Designator("pick_up", ["cup-a"])
    assert d.objects == ("cup-a",)
    # designators are compared and hashed by identity
    assert d == d and d != Designator("pick_up", ("cup-a",))
    assert {d: 1}[d] == 1


def test_designator_refuses_a_bare_string():
    """A string is a sequence of characters, not of object names."""
    with pytest.raises(ValueError, match="not one string"):
        Designator("pick_up", "cup-a")
    assert Designator("pick_up", ("cup-a",)).objects == ("cup-a",)


@pytest.mark.parametrize("kind", ["perceive", "achieve"])
def test_leaf_nodes_carry_no_children(kind):
    with pytest.raises(ValueError, match="carries no children"):
        PlanNode(kind, goal=("object-pose", "cup-a"), children=[perceive("cup-b")])


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def test_project_flat_plan_trace_shape(gsm, world):
    scene = make_two_cup_scene(0.5)
    trace = project(two_pickup_plan(), scene, gsm, world, _spec(0.5),
                    rng=np.random.default_rng(0))
    assert trace.count("navigate") == 2
    assert trace.count("perceive") == 2
    assert trace.count("grasp") == 2
    assert all(g["success"] for g in trace.grasp_outcomes)


def test_project_is_deterministic(gsm, world):
    a = project(two_pickup_plan(), make_two_cup_scene(0.4), gsm, world,
                _spec(0.4), rng=np.random.default_rng(5))
    b = project(two_pickup_plan(), make_two_cup_scene(0.4), gsm, world,
                _spec(0.4), rng=np.random.default_rng(5))
    assert [(e.kind, e.detail) for e in a.events] == \
        [(e.kind, e.detail) for e in b.events]
    assert plan_duration(a, a.time_model) == plan_duration(b, b.time_model)


def test_project_leaves_the_scene_beliefs_unchanged(gsm, world):
    """Perception updates copies: the same scene projects again to the same
    trace."""
    scene = make_two_cup_scene(0.4)
    before = {name: obj.belief for name, obj in scene.objects.items()}
    a = project(two_pickup_plan(), scene, gsm, world, _spec(0.4),
                rng=np.random.default_rng(5))
    assert a.count("perceive") == 2
    assert {name: obj.belief for name, obj in scene.objects.items()} == before
    b = project(two_pickup_plan(), scene, gsm, world, _spec(0.4),
                rng=np.random.default_rng(5))
    assert [(e.kind, e.detail) for e in a.events] == \
        [(e.kind, e.detail) for e in b.events]
    assert plan_duration(a, a.time_model) == plan_duration(b, b.time_model)


def test_project_leaves_the_plan_unchanged(gsm, world):
    """Resolved cells are kept per projection: the same plan projects again
    to the same trace, and its s-expression does not change."""
    plan = two_pickup_plan()
    before = plan_to_sexp(plan)
    a = project(plan, make_two_cup_scene(0.4), gsm, world, _spec(0.4),
                rng=np.random.default_rng(5))
    assert plan_to_sexp(plan) == before
    b = project(plan, make_two_cup_scene(0.4), gsm, world, _spec(0.4),
                rng=np.random.default_rng(5))
    assert [(e.kind, e.detail) for e in a.events] == \
        [(e.kind, e.detail) for e in b.events]
    assert plan_duration(a, a.time_model) == plan_duration(b, b.time_model)


def test_project_rejects_unknown_objects(gsm, world):
    scene = make_two_cup_scene(0.4)
    plan = two_pickup_plan("cup-a", "cup-z")
    with pytest.raises(UnresolvableDesignatorError):
        project(plan, scene, gsm, world, _spec(0.4),
                rng=np.random.default_rng(0))


@pytest.mark.parametrize("leaf", [perceive, achieve_grasp])
def test_project_checks_every_named_object_before_any_map(gsm, world, monkeypatch, leaf):
    """An object that only a perceive or achieve node names is checked with
    the location designators, before the first map."""
    maps = []
    monkeypatch.setattr(planner, "compute_map", lambda *a, **k: maps.append(a))
    plan = sequence(pickup_task("cup-a"), leaf("cup-z"))
    with pytest.raises(UnresolvableDesignatorError, match=r"\['cup-z'\]"):
        project(plan, make_two_cup_scene(0.4), gsm, world, _spec(0.4),
                rng=np.random.default_rng(0))
    assert maps == []


def test_project_nested_plan(gsm, world, monkeypatch):
    """Projection runs the plan in pre-order: an at-location navigates
    before its children, an inner location is not left when it ends, and a
    designator shared by two tasks is resolved once and reached once."""
    resolved = []

    def counting(d, *args, **kwargs):
        resolved.append(d)
        return resolve_location(d, *args, **kwargs)

    monkeypatch.setattr(planner, "resolve_location", counting)
    # cup-a's location holds an inner location for cup-b, whose designator
    # a second task shares
    outer, shared = Designator("pick_up", ("cup-a",)), Designator("pick_up", ("cup-b",))
    plan = sequence(
        at_location(outer, perceive("cup-a"), at_location(shared, perceive("cup-b")),
                    achieve_grasp("cup-a")),
        at_location(shared, achieve_grasp("cup-b")))
    a = project(plan, make_two_cup_scene(0.4), gsm, world, _spec(0.4),
                rng=np.random.default_rng(3))
    assert [(e.kind, e.detail.get("object")) for e in a.events] == [
        ("navigate", None), ("perceive", "cup-a"), ("navigate", None),
        ("perceive", "cup-b"), ("grasp", "cup-a"), ("grasp", "cup-b")]
    assert resolved == [outer, shared]  # designators compare by identity
    # both grasps run from where the inner location left the robot
    inner_base = a.events[2].detail["achieved"]
    assert [g["robot"] for g in a.grasp_outcomes] == [inner_base, inner_base]
    b = project(plan, make_two_cup_scene(0.4), gsm, world, _spec(0.4),
                rng=np.random.default_rng(3))
    assert [(e.kind, e.detail) for e in a.events] == \
        [(e.kind, e.detail) for e in b.events]
    assert len(resolved) == 4


def test_resolve_location_rejects_unknown_objects(gsm):
    scene = make_two_cup_scene(0.4)
    with pytest.raises(UnresolvableDesignatorError):
        resolve_location(Designator("pick_up", ("ghost",)), scene, gsm,
                         _spec(0.4), rng=0)


def test_resolve_location_leaves_the_designator_unchanged(gsm):
    d = Designator("pick_up", ("cup-a",))
    (x, y), p = resolve_location(d, make_two_cup_scene(0.4), gsm, _spec(0.4), rng=0)
    assert d.resolved is None
    assert 0.0 < p <= 1.0 and y < 0.0  # cup-a sits at y = -0.2


def test_plan_duration_matches_trace_clock(gsm, world):
    """A trace keeps one clock: its duration is plan_duration under the time
    model it was projected with, which is the running sum of the event
    durations, bit for bit."""
    tm = TimeModel(nav_overhead=10.0, nav_speed=0.4, grasp_time=4.0, perceive_time=1.5)
    trace = project(two_pickup_plan(), make_two_cup_scene(0.5), gsm, world,
                    _spec(0.5), rng=np.random.default_rng(1), time_model=tm)
    assert trace.time_model is tm
    clock = 0.0
    for e in trace.events:
        clock += tm.event_duration(e)
    assert plan_duration(trace, trace.time_model) == clock
    assert plan_duration(trace, TimeModel()) != clock
    assert not hasattr(trace, "duration")  # no second way to time a trace
    # independent recomputation from the event details
    want = 0.0
    for e in trace.events:
        if e.kind == "navigate":
            want += tm.nav_overhead + e.detail["distance"] / tm.nav_speed
        elif e.kind == "perceive":
            want += tm.perceive_time
        else:
            want += tm.grasp_time
    assert plan_duration(trace, tm) == pytest.approx(want)


# ---------------------------------------------------------------------------
# flaws and the merge transformation
# ---------------------------------------------------------------------------

def test_merge_flaw_fires_for_close_cups(gsm):
    scene = make_two_cup_scene(0.30)
    flaw = detect_merge_flaw(two_pickup_plan(), scene, gsm, _spec(0.30),
                             rng=np.random.default_rng(0))
    assert flaw is not None
    assert flaw.tasks == (0, 1)
    assert flaw.objects == ("cup-a", "cup-b")
    (x, y), p = flaw.proposed_location
    assert p > 0.85
    assert abs(y) < 0.2  # between the cups


def test_merge_flaw_resolves_the_joint_designator(gsm):
    """The flaw's location is the joint designator's, resolved on the same
    Generator stream."""
    scene = make_two_cup_scene(0.30)
    flaw = detect_merge_flaw(two_pickup_plan(), scene, gsm, _spec(0.30),
                             rng=np.random.default_rng(0))
    joint = Designator("joint_pick_up", ("cup-a", "cup-b"))
    assert flaw.proposed_location == resolve_location(
        joint, scene, gsm, _spec(0.30), rng=np.random.default_rng(0))


def test_merge_flaw_rejects_unknown_objects(gsm):
    with pytest.raises(UnresolvableDesignatorError):
        detect_merge_flaw(two_pickup_plan("cup-a", "cup-z"), make_two_cup_scene(0.30),
                          gsm, _spec(0.30), rng=np.random.default_rng(0))


def test_merge_flaw_absent_for_distant_cups(gsm):
    scene = make_two_cup_scene(0.60)
    flaw = detect_merge_flaw(two_pickup_plan(), scene, gsm, _spec(0.60),
                             rng=np.random.default_rng(0))
    assert flaw is None


def _detect_merge_flaw_reference(plan, scene, gsm, spec, rng, threshold):
    """detect_merge_flaw spelled out: every joint designator is resolved,
    and its cell's probability decides."""
    rng = np.random.default_rng(rng)
    tasks = planner._pickup_tasks(plan)
    for (ka, a), (kb, b) in itertools.combinations(enumerate(tasks), 2):
        if a.location is b.location:
            continue
        joint = Designator("joint_pick_up",
                           tuple(dict.fromkeys(a.location.objects + b.location.objects)))
        location = resolve_location(joint, scene, gsm, spec, rng)
        if location[1] > threshold:
            return Flaw((ka, kb), tuple(sorted(set(joint.objects))), location)
    return None


def test_merge_flaw_equals_the_search_on_every_joint_map(gsm):
    """Three cups, so that a pair without a flaw leaves the generator to the
    next pair: on random separations and thresholds the flaw, or None, is
    the one of the search that runs best_cell on every joint map."""
    rng = np.random.default_rng(29)
    outcomes = set()
    for _ in range(16):
        sep, gap = rng.uniform(0.3, 0.6, 2)
        threshold = float(rng.choice([rng.uniform(0.01, 0.99), 0.85, 0.93, 0.95]))
        scene = make_two_cup_scene(sep)
        truth = (0.12, sep / 2 + gap, 0.0)
        scene.objects["cup-c"] = SceneObject("cup-c", truth,
                                             GaussianBelief.isotropic(truth, 0.005, 0.02))
        plan = sequence(pickup_task("cup-a"), pickup_task("cup-b"), pickup_task("cup-c"))
        spec = _spec(sep + 2 * gap)
        seed = int(rng.integers(2 ** 31))
        flaw = detect_merge_flaw(plan, scene, gsm, spec, rng=seed, threshold=threshold)
        assert flaw == _detect_merge_flaw_reference(plan, scene, gsm, spec, seed, threshold)
        outcomes.add(flaw and flaw.tasks)
    assert outcomes == {(0, 1), (1, 2), None}


def test_a_joint_designator_names_each_object_once(gsm):
    """Tasks on overlapping (cup-a, cup-b) and (cup-b, cup-c) designators:
    their joint names each of the three cups once and resolves as that
    designator does. A designator that repeats a name, whose map would be
    multiplied in again, is refused."""
    scene = make_two_cup_scene(0.30)
    scene.objects["cup-c"] = SceneObject("cup-c", (0.12, 0.30, 0.0),
                                         GaussianBelief.isotropic((0.12, 0.30, 0.0), 0.005, 0.02))
    plan = sequence(
        at_location(Designator("pick_up", ("cup-a", "cup-b")),
                    perceive("cup-a"), achieve_grasp("cup-a")),
        at_location(Designator("pick_up", ("cup-b", "cup-c")),
                    perceive("cup-c"), achieve_grasp("cup-c")))
    spec = _spec(0.6)
    flaw = detect_merge_flaw(plan, scene, gsm, spec, rng=5, threshold=0.5)
    assert flaw.tasks == (0, 1) and flaw.objects == ("cup-a", "cup-b", "cup-c")
    joint = Designator("joint_pick_up", ("cup-a", "cup-b", "cup-c"))
    assert flaw.proposed_location == resolve_location(joint, scene, gsm, spec, rng=5)
    for objects in (("cup-a", "cup-a"), ("cup-a", "cup-b", "cup-a")):
        with pytest.raises(ValueError, match="each object once"):
            Designator("joint_pick_up", objects)


def _cup_scene(cups):
    """Cups 0.12 m from the table edge at the given (y, psi), named cup-0,
    cup-1, ..., with the beliefs of make_two_cup_scene."""
    objects = {}
    for k, (y, psi) in enumerate(cups):
        truth = (0.12, float(y), float(psi))
        objects[f"cup-{k}"] = SceneObject(f"cup-{k}", truth,
                                          GaussianBelief.isotropic(truth, 0.005, 0.02))
    return planner.Scene(objects, robot_xy=(1.5, 0.0))


def _designators(plan):
    return {id(n.location) for n in plan.walk() if n.kind == "at_location"}


def test_merging_three_cups_ends_on_one_designator(gsm):
    """Merges (0, 1) and then (0, 2) re-point every task that held a flawed
    designator, so all three tasks end on one designator and no flaw is
    left. Re-pointing only the two flawed tasks would leave task 1 behind
    and take a third flaw that ends on two designators. Each merged plan
    shares no node or designator object with its input."""
    scene = _cup_scene([(-0.15, 0.04), (0.15, -0.04), (0.30, -0.04)])
    plan = sequence(*(pickup_task(name) for name in scene.objects))
    spec = plan_grid_spec(0.6)
    flaws = []
    for seed in range(4):
        flaw = detect_merge_flaw(plan, scene, gsm, spec, rng=seed, threshold=0.5)
        if flaw is None:
            break
        flaws.append(flaw.tasks)
        merged = apply_merge_transform(plan, flaw)
        assert not {id(n) for n in plan.walk()} & {id(n) for n in merged.walk()}
        assert not _designators(plan) & _designators(merged)
        plan = merged
    assert flaw is None and flaws == [(0, 1), (0, 2)]
    assert len(_designators(plan)) == 1
    assert plan.children[0].location.objects == ("cup-0", "cup-1", "cup-2")


def test_tasks_on_distinct_designators_of_one_object_are_a_flaw(gsm):
    """Two tasks on distinct designators share no location even when they
    reach the same objects; after the merge they hold one and no flaw is
    left."""
    plan = sequence(pickup_task("cup-a"), pickup_task("cup-a"))
    scene = make_two_cup_scene(0.30)
    flaw = detect_merge_flaw(plan, scene, gsm, _spec(0.30), rng=0)
    assert flaw is not None and flaw.tasks == (0, 1) and flaw.objects == ("cup-a",)
    merged = apply_merge_transform(plan, flaw)
    assert len(_designators(merged)) == 1
    assert detect_merge_flaw(merged, scene, gsm, _spec(0.30), rng=0) is None


def test_each_merge_removes_one_designator(gsm):
    """On random three- and four-cup scenes and thresholds every applied
    flaw lowers the number of distinct designators by one, so the merges
    end within (designators - 1) steps."""
    rng = np.random.default_rng(3)
    merge_counts = []
    for _ in range(20):
        n = int(rng.integers(3, 5))
        scene = _cup_scene(zip(np.sort(rng.uniform(-0.3, 0.3, n)), rng.uniform(-0.04, 0.04, n)))
        plan = sequence(*(pickup_task(name) for name in scene.objects))
        threshold = float(rng.uniform(0.3, 0.9))
        seed = int(rng.integers(2 ** 31))
        for step in range(n):
            flaw = detect_merge_flaw(plan, scene, gsm, plan_grid_spec(0.6),
                                     rng=(seed, step), threshold=threshold)
            if flaw is None:
                break
            before = len(_designators(plan))
            plan = apply_merge_transform(plan, flaw)
            assert len(_designators(plan)) == before - 1
        assert flaw is None
        merge_counts.append(step)
    assert {1, 2, 3} <= set(merge_counts)


def test_merge_transform_structural_diff(gsm):
    plan = two_pickup_plan()
    scene = make_two_cup_scene(0.30)
    flaw = detect_merge_flaw(plan, scene, gsm, _spec(0.30),
                             rng=np.random.default_rng(0))
    merged = apply_merge_transform(plan, flaw)
    # original untouched
    orig_tasks = [n for n in plan.walk() if n.kind == "at_location"]
    assert orig_tasks[0].location is not orig_tasks[1].location
    assert flaw.tasks == (0, 1)
    # transformed plan: same kinds and goals, one shared resolved designator
    assert [(n.kind, n.goal) for n in merged.walk()] == \
        [(n.kind, n.goal) for n in plan.walk()]
    new_tasks = [n for n in merged.walk() if n.kind == "at_location"]
    assert new_tasks[0].location is new_tasks[1].location
    shared = new_tasks[0].location
    assert shared.purpose == "joint_pick_up"
    assert set(shared.objects) == {"cup-a", "cup-b"}
    assert shared.resolved == flaw.proposed_location


def test_merged_plan_navigates_once(gsm, world):
    plan = two_pickup_plan()
    scene = make_two_cup_scene(0.30)
    flaw = detect_merge_flaw(plan, scene, gsm, _spec(0.30),
                             rng=np.random.default_rng(0))
    merged = apply_merge_transform(plan, flaw)
    trace = project(merged, make_two_cup_scene(0.30), gsm, world, _spec(0.30),
                    rng=np.random.default_rng(2))
    assert trace.count("navigate") == 1
    assert trace.count("grasp") == 2
    # tasks that already share their location are no flaw
    assert detect_merge_flaw(merged, make_two_cup_scene(0.30), gsm, _spec(0.30),
                             rng=np.random.default_rng(0)) is None


def test_distinct_designators_on_one_cell_navigate_twice(gsm, world):
    """Tasks share a location exactly when they hold one designator: two
    pick-up designators of one cup resolve to the same cell and still cost
    two navigations, so merging them saves one."""
    plan = sequence(pickup_task("cup-a"), pickup_task("cup-a"))
    scene, spec = make_two_cup_scene(0.3), plan_grid_spec(0.3)
    flat = project(plan, scene, gsm, world, spec, rng=0)
    goals = [e.detail["goal"] for e in flat.events if e.kind == "navigate"]
    assert len(goals) == 2 and goals[0] == goals[1]
    flaw = detect_merge_flaw(plan, scene, gsm, spec, rng=0)
    merged = project(apply_merge_transform(plan, flaw), scene, gsm, world, spec, rng=0)
    assert merged.count("navigate") == 1
    assert merged.count("grasp") == 2


def test_a_designator_visited_again_after_another_navigates_again(gsm, world, monkeypatch):
    """The rule is the last navigation's designator, not any designator
    reached before: locations on d1, d2, d1 navigate three times, the third
    to d1's cell again, which is resolved once."""
    resolved = []

    def counting(d, *args, **kwargs):
        resolved.append(d)
        return resolve_location(d, *args, **kwargs)

    monkeypatch.setattr(planner, "resolve_location", counting)
    d1, d2 = Designator("pick_up", ("cup-a",)), Designator("pick_up", ("cup-b",))
    plan = sequence(at_location(d1, perceive("cup-a")), at_location(d2, perceive("cup-b")),
                    at_location(d1, achieve_grasp("cup-a")))
    trace = project(plan, make_two_cup_scene(0.4), gsm, world, _spec(0.4), rng=0)
    navs = [e.detail for e in trace.events if e.kind == "navigate"]
    assert len(navs) == 3
    assert navs[2]["goal"] == navs[0]["goal"] != navs[1]["goal"]
    assert navs[2]["from"] == navs[1]["achieved"]
    assert resolved == [d1, d2]


def test_merge_transform_rejects_foreign_flaws():
    flaw = Flaw((0, 1), ("cup-a", "cup-b"), proposed_location=((0.5, 0.0), 0.9))
    assert apply_merge_transform(two_pickup_plan(), flaw) is not None
    # the tasks at the bound positions must reach exactly the flaw's objects
    with pytest.raises(ValueError):
        apply_merge_transform(two_pickup_plan("cup-a", "cup-c"), flaw)
    # and the positions must exist
    with pytest.raises(ValueError):
        apply_merge_transform(sequence(pickup_task("cup-a")), flaw)


def _merge_reference(plan, flaw):
    """apply_merge_transform as it was written on copy.deepcopy."""
    new_plan = copy.deepcopy(plan)
    shared = Designator("joint_pick_up", flaw.objects, resolved=flaw.proposed_location)
    for k in flaw.tasks:
        planner._pickup_tasks(new_plan)[k].location = shared
    return new_plan


def _sharing(plan):
    """For each at_location node, the position of the first node holding
    the same designator object."""
    locations = [n.location for n in plan.walk() if n.kind == "at_location"]
    return [next(k for k, d in enumerate(locations) if d is loc) for loc in locations]


def test_merge_transform_keeps_a_shared_designator_shared():
    """Tasks 0 and 1 share one designator; after tasks 2 and 3 merge they
    still share one, a new one, as under copy.deepcopy's memo."""
    d = Designator("joint_pick_up", ("cup-a", "cup-b"))
    plan = sequence(at_location(d, perceive("cup-a"), achieve_grasp("cup-a")),
                    at_location(d, perceive("cup-b"), achieve_grasp("cup-b")),
                    pickup_task("cup-c"), pickup_task("cup-d"))
    before = plan_to_sexp(plan)
    flaw = Flaw((2, 3), ("cup-c", "cup-d"), proposed_location=((0.5, 0.1), 0.9))
    merged = apply_merge_transform(plan, flaw)
    reference = _merge_reference(plan, flaw)
    assert _sharing(merged) == _sharing(reference) == [0, 0, 2, 2]
    assert plan_to_sexp(merged) == plan_to_sexp(reference)
    assert plan_to_sexp(plan) == before and _sharing(plan) == [0, 0, 2, 3]
    originals = {id(n.location) for n in plan.walk() if n.kind == "at_location"}
    assert not originals & {id(n.location) for n in merged.walk() if n.kind == "at_location"}
    assert not {id(n) for n in plan.walk()} & {id(n) for n in merged.walk()}


def test_trace_and_flaw_records_carry_no_instance_dict():
    flaw = Flaw((0, 1), ("cup-a", "cup-b"), proposed_location=((0.5, 0.0), 0.9))
    for obj in (TraceEvent("perceive", {"object": "cup-a"}), ExecutionTrace(TimeModel()), flaw):
        assert not hasattr(obj, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        flaw.tasks = (1, 2)


def test_a_failing_grasp_keeps_its_stage_cause_under_a_local_minimum(gsm, world):
    """At local_minimum_rate 1 and without arrival noise, a grasp that slips
    from its base slips and one whose stages all pass ends in a local
    minimum, in run_trials and in a projection trace alike."""
    stuck = dataclasses.replace(world, local_minimum_rate=1.0, nav_noise_sigma=0.0)
    bases = [(0.5, 0.3), (0.5, 0.0)]
    codes = run_trials([0.12] * 2, [0.0] * 2, *zip(*bases), stuck, [0, 1],
                       check_reachability=False)
    assert [CAUSES[c] for c in codes.tolist()] == ["slip", "local_minimum"]
    cup = (0.12, 0.0, 0.0)
    scene = Scene({"cup-a": SceneObject("cup-a", cup, GaussianBelief.isotropic(cup, 0.005, 0.02))},
                  robot_xy=(1.5, 0.0))
    tasks = [pickup_task("cup-a") for _ in bases]
    for task, base in zip(tasks, bases):
        task.location.resolved = (base, 0.5)
    trace = project(sequence(*tasks), scene, gsm, stuck, _spec(0.4), rng=0)
    assert [(g["robot"], g["success"], g["cause"]) for g in trace.grasp_outcomes] == [
        ((0.5, 0.3), False, "slip"), ((0.5, 0.0), False, "local_minimum")]
