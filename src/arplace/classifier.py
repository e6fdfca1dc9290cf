"""Per-object-pose success classifiers and closed decision boundaries.

A soft-margin Gaussian-kernel SVM is trained per object pose with a
maximal-violating-pair working-set solver; the zero level set of its decision
surface is traced with marching squares into the closed contour on which the
shape model places its landmarks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import ObjectFeatures, RobotOffset
from .grids import GridSpec

KKT_TOLERANCE = 1e-3     # convergence contract
_SOLVE_EPS = 1e-10       # internal target, for order-independent solutions
_MAX_PAIR_STEPS = 500_000


class SVMConvergenceError(RuntimeError):
    def __init__(self, violation: float):
        super().__init__(f"SVM did not converge; final KKT violation {violation:.3e}")
        self.violation = violation


class EmptySuccessRegionError(RuntimeError):
    pass


@dataclass
class LabeledSet:
    points: list[RobotOffset]
    labels: list[int]  # +1 success, -1 failure
    object: ObjectFeatures

    def __post_init__(self):
        if len(self.points) != len(self.labels) or len(self.points) < 2:
            raise ValueError("need matching points/labels, at least 2 samples")
        if not any(l > 0 for l in self.labels) or not any(l < 0 for l in self.labels):
            raise ValueError("both classes must be present")

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        X = np.array([[p.dx_rob, p.dy_rob] for p in self.points])
        y = np.array(self.labels, dtype=float)
        return X, y


@dataclass
class SVMModel:
    support_points: np.ndarray   # (n_sv, 2)
    alphas: np.ndarray           # signed: y_i * alpha_i
    bias: float
    kernel_sigma: float
    cost_C: float
    positive_class_weight: float

    def decision_values(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        d2 = np.sum((pts[:, None, :] - self.support_points[None, :, :]) ** 2, axis=2)
        K = np.exp(-d2 / (2.0 * self.kernel_sigma ** 2))
        return K @ self.alphas + self.bias


def train_svm(data: LabeledSet, kernel_sigma: float = 0.1, cost_C: float = 40.0,
              positive_class_weight: float = 2.0) -> SVMModel:
    """Fit the dual soft-margin problem by repeatedly optimizing the maximal
    violating pair. Positive samples get box bound C * positive_class_weight.
    """
    X, y = data.arrays()
    n = len(y)
    d2 = np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=2)
    K = np.exp(-d2 / (2.0 * kernel_sigma ** 2))
    Q = (y[:, None] * y[None, :]) * K
    C = np.where(y > 0, cost_C * positive_class_weight, cost_C)

    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of 1/2 a'Qa - e'a
    violation = np.inf
    for _ in range(_MAX_PAIR_STEPS):
        myg = -y * grad
        up = ((y > 0) & (alpha < C - 1e-14)) | ((y < 0) & (alpha > 1e-14))
        low = ((y < 0) & (alpha < C - 1e-14)) | ((y > 0) & (alpha > 1e-14))
        if not up.any() or not low.any():
            violation = 0.0
            break
        i = np.flatnonzero(up)[np.argmax(myg[up])]
        j = np.flatnonzero(low)[np.argmin(myg[low])]
        violation = myg[i] - myg[j]
        if violation <= _SOLVE_EPS:
            break
        quad = max(K[i, i] + K[j, j] - 2.0 * K[i, j], 1e-12)
        step = violation / quad
        # clip to the box for alpha_i + y_i*step, alpha_j - y_j*step
        step = min(step, C[i] - alpha[i] if y[i] > 0 else alpha[i])
        step = min(step, alpha[j] if y[j] > 0 else C[j] - alpha[j])
        alpha[i] += y[i] * step
        alpha[j] -= y[j] * step
        grad += step * (y[i] * Q[:, i] - y[j] * Q[:, j])
    if violation > KKT_TOLERANCE:
        raise SVMConvergenceError(violation)

    free = (alpha > 1e-10) & (alpha < C - 1e-10)
    myg = -y * grad
    if free.any():
        bias = float(np.mean(myg[free]))
    else:
        up = ((y > 0) & (alpha < C - 1e-14)) | ((y < 0) & (alpha > 1e-14))
        low = ((y < 0) & (alpha < C - 1e-14)) | ((y > 0) & (alpha > 1e-14))
        bias = float((np.max(myg[up]) + np.min(myg[low])) / 2.0)

    sv = alpha > 1e-12
    return SVMModel(support_points=X[sv].copy(), alphas=(y * alpha)[sv].copy(),
                    bias=bias, kernel_sigma=kernel_sigma, cost_C=cost_C,
                    positive_class_weight=positive_class_weight)


# ---------------------------------------------------------------------------
# boundary extraction
# ---------------------------------------------------------------------------

@dataclass
class Boundary:
    """Closed classification boundary as an ordered landmark polygon
    (counterclockwise, in the GSM frame)."""

    landmarks: np.ndarray  # (n, 2), closed implicitly (last connects to first)

    def __post_init__(self):
        self.landmarks = np.asarray(self.landmarks, dtype=float)
        if self.landmarks.ndim != 2 or self.landmarks.shape[1] != 2 or len(self.landmarks) < 3:
            raise ValueError("boundary needs at least 3 2D landmarks")

    def centroid(self) -> np.ndarray:
        x, y = self.landmarks[:, 0], self.landmarks[:, 1]
        cross = x * np.roll(y, -1) - np.roll(x, -1) * y
        a = signed_area(self.landmarks)
        if abs(a) < 1e-15:
            return self.landmarks.mean(axis=0)
        cx = np.sum((x + np.roll(x, -1)) * cross) / (6.0 * a)
        cy = np.sum((y + np.roll(y, -1)) * cross) / (6.0 * a)
        return np.array([cx, cy])

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Even-odd membership test for an (m, 2) array of points."""
        return points_in_polygon(self.landmarks, pts)


def signed_area(poly: np.ndarray) -> float:
    """Shoelace area of a closed (k, 2) polygon; positive when the vertices
    run counterclockwise."""
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def points_in_polygon(poly: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Vectorized even-odd (crossing-number) test."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    n = len(poly)
    for k in range(n):
        x1, y1 = poly[k]
        x2, y2 = poly[(k + 1) % n]
        cond = (y1 > y) != (y2 > y)
        if not cond.any():
            continue
        xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= cond & (x < xint)
    return inside


_MS_PAD = -1e9  # padding keeps contours closed when a region touches the grid border


def _marching_squares(values: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> list[np.ndarray]:
    """Zero-level contours of values sampled at (xs x ys); returns closed
    loops as (k, 2) vertex arrays."""
    step_x = xs[1] - xs[0] if len(xs) > 1 else 1.0
    step_y = ys[1] - ys[0] if len(ys) > 1 else 1.0
    v = np.full((values.shape[0] + 2, values.shape[1] + 2), _MS_PAD)
    v[1:-1, 1:-1] = values
    gx = np.concatenate([[xs[0] - step_x], xs, [xs[-1] + step_x]])
    gy = np.concatenate([[ys[0] - step_y], ys, [ys[-1] + step_y]])

    def interp(i1, j1, i2, j2):
        a, b = v[i1, j1], v[i2, j2]
        t = 0.5 if a == b else a / (a - b)
        return (gx[i1] + t * (gx[i2] - gx[i1]), gy[j1] + t * (gy[j2] - gy[j1]))

    segments = []
    nx, ny = v.shape
    for i in range(nx - 1):
        for j in range(ny - 1):
            c = [v[i, j] > 0, v[i + 1, j] > 0, v[i + 1, j + 1] > 0, v[i, j + 1] > 0]
            case = c[0] | (c[1] << 1) | (c[2] << 2) | (c[3] << 3)
            if case in (0, 15):
                continue
            bottom = interp(i, j, i + 1, j)
            right = interp(i + 1, j, i + 1, j + 1)
            top = interp(i + 1, j + 1, i, j + 1)
            left = interp(i, j + 1, i, j)
            table = {
                1: [(left, bottom)], 2: [(bottom, right)], 3: [(left, right)],
                4: [(right, top)], 6: [(bottom, top)], 7: [(left, top)],
                8: [(top, left)], 9: [(top, bottom)], 11: [(top, right)],
                12: [(right, left)], 13: [(right, bottom)], 14: [(bottom, left)],
            }
            if case == 5 or case == 10:
                center = (v[i, j] + v[i + 1, j] + v[i + 1, j + 1] + v[i, j + 1]) / 4.0
                if case == 5:
                    segs = [(left, top), (right, bottom)] if center > 0 else \
                        [(left, bottom), (right, top)]
                else:
                    segs = [(bottom, left), (top, right)] if center > 0 else \
                        [(bottom, right), (top, left)]
            else:
                segs = table[case]
            segments.extend(segs)

    # chain segments into loops
    def key(p):
        return (round(p[0], 9), round(p[1], 9))

    by_start = {}
    for idx, (a, b) in enumerate(segments):
        by_start.setdefault(key(a), []).append(idx)
    loops = []
    used = set()
    for idx, (a, b) in enumerate(segments):
        if idx in used:
            continue
        loop = [a, b]
        used.add(idx)
        while True:
            nxt = None
            for j2 in by_start.get(key(loop[-1]), []):
                if j2 not in used:
                    nxt = j2
                    break
            if nxt is None:
                break
            loop.append(segments[nxt][1])
            used.add(nxt)
            if key(loop[-1]) == key(loop[0]):
                loop.pop()
                loops.append(np.array(loop))
                break
    return loops


def extract_contour(model: SVMModel, grid_spec: GridSpec) -> np.ndarray:
    """Largest closed positive-region contour of the decision surface on the
    grid, counterclockwise, starting at the vertex of maximal dx_rob."""
    xs, ys = grid_spec.centers()
    pts = grid_spec.center_points()
    values = model.decision_values(pts).reshape(grid_spec.nx, grid_spec.ny)
    if not np.any(values > 0):
        raise EmptySuccessRegionError("empty success region")
    loops = _marching_squares(values, xs, ys)
    if not loops:
        raise EmptySuccessRegionError("empty success region")

    # keep loops that enclose positive decision values
    positive_loops = []
    pos_pts = pts[values.ravel() > 0]
    for loop in loops:
        if points_in_polygon(loop, pos_pts).any():
            positive_loops.append(loop)
    if not positive_loops:
        raise EmptySuccessRegionError("empty success region")
    areas = [abs(signed_area(l)) for l in positive_loops]
    if len(positive_loops) > 1:
        warnings.warn("multiple positive regions; keeping the largest")
    loop = positive_loops[int(np.argmax(areas))]
    if signed_area(loop) < 0:
        loop = loop[::-1]
    return _start_at_max_x_crossing(loop)


def _start_at_max_x_crossing(loop: np.ndarray) -> np.ndarray:
    """Rotate (and if needed split an edge of) the loop so it starts at its
    maximal-dx_rob point along the +x ray through the centroid.

    The raw vertex of maximal x sits on a nearly flat arc for annulus-like
    regions, so its index jitters tangentially between similar contours and
    would wreck landmark correspondence; the ray crossing is stable.
    """
    cx, cy = loop.mean(axis=0)
    n = len(loop)
    best = None
    for k in range(n):
        y1, y2 = loop[k, 1], loop[(k + 1) % n, 1]
        if (y1 > cy) == (y2 > cy):
            continue
        t = (cy - y1) / (y2 - y1)
        x = loop[k, 0] + t * (loop[(k + 1) % n, 0] - loop[k, 0])
        if x > cx and (best is None or x > best[2]):
            best = (k, t, x)
    if best is None:
        return np.roll(loop, -int(np.argmax(loop[:, 0])), axis=0)
    k, t, x = best
    start = np.array([x, cy])
    if t < 1e-9:
        return np.roll(loop, -k, axis=0)
    rolled = np.roll(loop, -(k + 1), axis=0)
    return np.vstack([start, rolled])


def train_per_pose(dataset, kernel_sigma: float = 0.1, cost_C: float = 40.0,
                   positive_class_weight: float = 2.0) -> dict:
    """One classifier per object pose of a trial dataset (simworld.Dataset or
    anything with object_grid / slice_for)."""
    models = {}
    for obj in dataset.object_grid:
        records = dataset.slice_for(obj)
        points = [r.robot for r in records]
        labels = [1 if r.label == "success" else -1 for r in records]
        models[obj] = train_svm(LabeledSet(points, labels, obj),
                                kernel_sigma=kernel_sigma, cost_C=cost_C,
                                positive_class_weight=positive_class_weight)
    return models


def default_extraction_grid(robot_grid, cell_size: float = 0.01) -> GridSpec:
    """1 cm decision grid covering the training rectangle."""
    xs = [r.dx_rob for r in robot_grid]
    ys = [r.dy_rob for r in robot_grid]
    return GridSpec.covering(min(xs), max(xs), min(ys), max(ys), cell_size)
