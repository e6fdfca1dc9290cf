"""In-memory span recorder that wraps the package's public functions from
outside, by replacing module and class attributes inside this process.

A span is (name, start, end, parent, op): `parent` is the index of the
enclosing span (-1 for none) and `op` the operation id the span belongs to.
Nothing in `src/` knows about the tracer; `Tracer.patched()` installs the
wrappers and restores the original attributes on exit.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict

from arplace import classifier, cli, evaluation, planner, placemap, shapemodel, simworld

ROOT = "op"  # span around one whole benchmark operation; its self time is the benchmark's own glue


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, op]
        self._stack: list[int] = []
        self.op = -1
        self.counters: Counter = Counter()
        self.missing: list[str] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextlib.contextmanager
    def operation(self, op_id: int):
        self.op = op_id
        idx = self._open(ROOT)
        try:
            yield
        finally:
            self._close(idx)

    def parent_name(self) -> str | None:
        """Name of the span enclosing the currently open one."""
        if len(self._stack) < 2:
            return None
        return self.spans[self.spans[self._stack[-1]][3]][0]

    def wrap(self, name: str, fn, count=None):
        """Wrapper that records a span named `name` around each call of fn
        and, when given, calls count(tracer, result, args, kwargs) to update
        the counters."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    # inside the span, so parent_name() names the caller
                    count(self, result, args, kwargs)
                return result
            finally:
                self.counters[name + ".calls"] += 1
                self._close(idx)
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers of `PATCHES` for the duration of the block.
        A name the package no longer has is skipped and listed in `missing`."""
        saved = []
        self.missing = sorted({f"{owner.__name__}.{attr}" for owner, attr, _, _ in PATCHES
                               if attr not in owner.__dict__})
        try:
            for owner, attr, name, count in PATCHES:
                raw = owner.__dict__.get(attr)
                if raw is None:
                    continue
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, count)))
                else:
                    setattr(owner, attr, self.wrap(name, raw, count))
            yield
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # aggregation

    def totals(self) -> tuple[dict, dict]:
        """(inclusive seconds, self seconds) per span name."""
        incl: dict = defaultdict(float)
        child: dict = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            incl[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s: dict = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child.get(idx, 0.0)
        return dict(incl), dict(self_s)

    def max_duration(self, name: str) -> float:
        return max((e - s for n, s, e, _, _ in self.spans if n == name), default=0.0)

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "missing": self.missing}, f)
            f.write("\n")


# ---------------------------------------------------------------------------
# counters computed from arguments and results (array sizes, not from src/)


def _count_dataset(t, ds, args, kwargs):
    t.counters["simworld.trials"] += len(ds.records)
    t.counters["simworld.trials_executed"] += ds.executed_count()


def _count_svm(t, model, args, kwargs):
    t.counters["classifier.support_vectors"] += len(model.alphas)


def _count_contour(t, contour, args, kwargs):
    model, spec = args[0], args[1]
    # the decision surface is evaluated twice on the grid centers
    t.counters["classifier.kernel_evals"] += 2 * spec.nx * spec.ny * len(model.alphas)
    t.counters["classifier.contour_vertices"] += len(contour)


def _count_map(t, grid, args, kwargs):
    n = kwargs["n_samples"] if "n_samples" in kwargs else (
        args[3] if len(args) > 3 else placemap.DEFAULT_N_SAMPLES)
    t.counters["placemap.samples"] += n
    t.counters["placemap.edge_tests"] += n * grid.spec.nx * grid.spec.ny * args[0].pdm.m


def _count_uncertainty(t, grid, args, kwargs):
    key = "calls_in_best_cell" if t.parent_name() == "placemap.best_cell" else "calls_direct"
    t.counters["placemap.apply_robot_uncertainty." + key] += 1


def _count_project(t, trace, args, kwargs):
    t.counters["planner.navigations"] += trace.count("navigate")


def _count_flaw(t, flaw, args, kwargs):
    t.counters["planner.merge_flaws"] += int(flaw is not None)


# (owner, attribute, span name, counter). Names that callers imported into
# their own namespace are patched there too, so every call path is seen.
PATCHES = [
    (cli, "cmd_gen_data", "cli.gen_data", None),
    (cli, "cmd_train", "cli.train", None),
    (cli, "generate_dataset", "simworld.generate_dataset", _count_dataset),
    (simworld, "generate_dataset", "simworld.generate_dataset", _count_dataset),
    (simworld.Dataset, "save_csv", "simworld.save_csv", None),
    (simworld.Dataset, "load_csv", "simworld.load_csv", None),
    (cli, "train_per_pose", "classifier.train_per_pose", None),
    (classifier, "train_svm", "classifier.train_svm", _count_svm),
    (evaluation, "train_svm", "classifier.train_svm", _count_svm),
    (cli, "train_gsm", "shapemodel.train_gsm", None),
    (shapemodel, "extract_contour", "classifier.extract_contour", _count_contour),
    (classifier, "extract_contour", "classifier.extract_contour", _count_contour),
    (shapemodel, "optimize_landmarks", "shapemodel.optimize_landmarks", None),
    (shapemodel, "placement_cost", "shapemodel.placement_cost", None),
    (shapemodel, "fit_regression", "shapemodel.fit_regression", None),
    (shapemodel.GSMModel, "boundary_for", "shapemodel.boundary_for", None),
    (placemap, "sample_boundaries", "placemap.sample_boundaries", None),
    (placemap, "compute_map", "placemap.compute_map", _count_map),
    (planner, "compute_map", "placemap.compute_map", _count_map),
    (evaluation, "compute_map", "placemap.compute_map", _count_map),
    (classifier.Boundary, "contains", "placemap.contains", None),
    (placemap, "apply_robot_uncertainty", "placemap.apply_robot_uncertainty", _count_uncertainty),
    (planner, "apply_robot_uncertainty", "placemap.apply_robot_uncertainty", _count_uncertainty),
    (evaluation, "apply_robot_uncertainty", "placemap.apply_robot_uncertainty", _count_uncertainty),
    (placemap, "best_cell", "placemap.best_cell", None),
    (planner, "best_cell", "placemap.best_cell", None),
    (evaluation, "best_cell", "placemap.best_cell", None),
    (placemap, "merge", "placemap.merge", None),
    (planner, "merge", "placemap.merge", None),
    (planner, "project", "planner.project", _count_project),
    (evaluation, "project", "planner.project", _count_project),
    (planner, "resolve_location", "planner.resolve_location", None),
    (planner, "detect_merge_flaw", "planner.detect_merge_flaw", _count_flaw),
    (evaluation, "detect_merge_flaw", "planner.detect_merge_flaw", _count_flaw),
]

LAYERS = ("cli", "simworld", "classifier", "shapemodel", "placemap", "planner")
