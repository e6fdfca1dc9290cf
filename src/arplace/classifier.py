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

from .grids import GridSpec

KKT_TOLERANCE = 1e-3     # convergence contract
# default SVM constants: kernel width (m), box bound, and its factor on positive samples
DEFAULT_KERNEL_SIGMA = 0.1
DEFAULT_COST_C = 40.0
DEFAULT_CLASS_WEIGHT = 2.0
_SOLVE_EPS = 1e-10       # internal target, for order-independent solutions
_MAX_PAIR_STEPS = 500_000
_PAIR_ROWS = 256         # cached pair entries per fit: 1.7 MB of rows at n = 432
_KERNEL_BLOCK = 2 ** 17  # kernel entries per block: 1 MB per temporary, 1,024 points at 82 SVs


def _block_rows(n_sv: int) -> int:
    """Points per block of a decision surface over n_sv support vectors: the
    largest power of two whose block holds at most _KERNEL_BLOCK kernel
    entries (at least 1). BLAS sums the rows of K @ alphas in groups of
    four, and a block that started inside a group would change the bits of
    its values, and so the trained model's."""
    return 1 << max(0, (_KERNEL_BLOCK // max(1, n_sv)).bit_length() - 1)


class SVMConvergenceError(RuntimeError):
    def __init__(self, violation: float):
        super().__init__(f"SVM did not converge; final KKT violation {violation:.3e}")
        self.violation = violation


class EmptySuccessRegionError(RuntimeError):
    pass


@dataclass
class SVMModel:
    support_points: np.ndarray   # (n_sv, 2)
    alphas: np.ndarray           # signed: y_i * alpha_i
    bias: float
    kernel_sigma: float
    # solver record of train_svm; zero for a model built by hand
    pair_steps: int = 0
    pair_rows: int = 0           # pair entries the fit built: its cache misses
    kkt_violation: float = 0.0

    def decision_values(self, pts: np.ndarray) -> np.ndarray:
        """Decision value of each point, evaluated in blocks of _block_rows
        points, so that the kernel temporaries grow neither with the grid
        nor with the support vectors."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.empty(len(pts))
        rows = _block_rows(len(self.alphas))
        for start in range(0, len(pts), rows):
            block = slice(start, start + rows)
            K = gaussian_kernel(pts[block], self.support_points, self.kernel_sigma)
            out[block] = K @ self.alphas + self.bias
        return out

    def grid_values(self, grid_spec: GridSpec) -> np.ndarray:
        """(nx, ny) decision values at the cell centers, the floats of
        decision_values(grid_spec.center_points()) in the same blocks. The
        squared distance of center (xs[i], ys[j]) to a support vector is
        dx2[i] + dy2[j], summed from per-axis tables: a block adds each grid
        row's dx2 to the part of dy2 it covers, so no point is subtracted one
        by one."""
        xs, ys = grid_spec.centers()
        ny, n, n_sv = grid_spec.ny, grid_spec.nx * grid_spec.ny, len(self.alphas)
        dy2 = np.subtract.outer(ys, self.support_points[:, 1])
        dy2 *= dy2
        out = np.empty(n)
        rows = _block_rows(n_sv)
        buf = np.empty((min(rows, n), n_sv))
        scale = -2.0 * self.kernel_sigma ** 2  # as in gaussian_kernel
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            K = buf[:stop - start]
            first, last = start // ny, (stop - 1) // ny  # the grid rows the block spans
            dx2 = np.subtract.outer(xs[first:last + 1], self.support_points[:, 0])
            dx2 *= dx2
            for i in range(first, last + 1):
                lo, hi = max(start, i * ny), min(stop, (i + 1) * ny)
                np.add(dx2[i - first], dy2[lo - i * ny:hi - i * ny], out=K[lo - start:hi - start])
            np.divide(K, scale, out=K)
            np.exp(K, out=K)
            out[start:stop] = K @ self.alphas + self.bias
        return out.reshape(grid_spec.nx, ny)


def gaussian_kernel(a: np.ndarray, b: np.ndarray, sigma: float) -> np.ndarray:
    """(len(a), len(b)) kernel matrix exp(-|a_i - b_j|^2 / 2 sigma^2) of two
    point sets, with the squared distance summed as dx*dx + dy*dy, divided
    by -2 sigma^2 and exponentiated; IEEE division is sign-symmetric, so
    that is the float of negating and dividing by 2 sigma^2. It is built in
    place in the result, with one temporary of the same shape for dy*dy."""
    K = np.subtract(a[:, 0:1], b[:, 0])
    np.multiply(K, K, out=K)
    dy = np.subtract(a[:, 1:2], b[:, 1])
    np.multiply(dy, dy, out=dy)
    np.add(K, dy, out=K)
    np.divide(K, -2.0 * sigma ** 2, out=K)
    return np.exp(K, out=K)


def check_svm_constants(kernel_sigma: float, cost_C: float | None = None,
                        positive_class_weight: float = 1.0):
    """Raise ValueError unless train_svm can use these constants: kernel_sigma
    positive, with -2 kernel_sigma^2, the kernel's divisor, finite and
    nonzero (sigma from about 1.6e-162 to 9.5e153), and, when cost_C is
    given, both box bounds cost_C and cost_C * positive_class_weight finite
    and above 2e-14. NaN fails every comparison, and sigma ** 2 is not taken
    where it would overflow."""
    if not (0.0 < kernel_sigma < 1e154 and -math.inf < -2.0 * kernel_sigma ** 2 < 0.0):
        raise ValueError("kernel_sigma must be finite and positive, and -2 kernel_sigma^2, "
                         f"the kernel's divisor, finite and nonzero, not {kernel_sigma!r}")
    if cost_C is not None and not all(2e-14 < c < math.inf
                                      for c in (cost_C, cost_C * positive_class_weight)):
        raise ValueError("the box bounds cost_C and cost_C * positive_class_weight must be "
                         "finite and positive, above 2e-14")


class _Kernel:
    """Kernel matrix K of the base positions X at kernel_sigma, for fits to share."""

    def __init__(self, X: np.ndarray, kernel_sigma: float):
        check_svm_constants(kernel_sigma)
        self.X, self.kernel_sigma = X, kernel_sigma
        self.K = gaussian_kernel(X, X, kernel_sigma)


def _pair_entry(K: np.ndarray, i: int, j: int) -> tuple[np.ndarray, float]:
    """Update row [K[j] - K[i]; K[i] - K[j]] and curvature of the pair (i, j)."""
    row = np.empty((2, len(K)))
    np.subtract(K[j], K[i], out=row[0])
    # not -row[0]: where K[i] and K[j] tie this is +0.0, as (-K[j]) - (-K[i]) is
    np.subtract(K[i], K[j], out=row[1])
    return row, max(K.item(i, i) + K.item(j, j) - 2.0 * K.item(i, j), 1e-12)


def train_svm(X, y, kernel_sigma: float = DEFAULT_KERNEL_SIGMA, cost_C: float = DEFAULT_COST_C,
              positive_class_weight: float = DEFAULT_CLASS_WEIGHT, *,
              kernel: _Kernel | None = None) -> SVMModel:
    """Fit the dual soft-margin problem on the (n, 2) base positions X with
    labels y (+1 success, -1 failure) by repeatedly optimizing the maximal
    violating pair. Positive samples get box bound C * positive_class_weight.
    Mismatched shapes, non-finite positions, fewer than 2 samples, other
    labels, a missing class, and constants that check_svm_constants refuses
    raise ValueError. kernel, when given, is the _Kernel of X at
    kernel_sigma, built by the caller for several fits.

    The loop runs on the signed duals beta = y * alpha, each in its box
    [min(0, y_k C_k), max(0, y_k C_k)]; IEEE rounding is sign-symmetric, so
    beta_k is y_k times the unsigned alpha_k, float for float. It tracks
    myg = -y * grad of the dual objective 1/2 a'Qa - e'a, Q = yy' * K; as
    y = +-1 and K is exactly symmetric, myg += step * (K[j] - K[i]) gives the
    floats of updating grad and negating. H is a (2, n) selection array: row
    0 is myg on the index set up and row 1 is -myg on low, -inf elsewhere.
    One argmax per row picks the pair (the first maximum of -myg is the first
    minimum of myg), and the entry [K[j] - K[i]; K[i] - K[j]] updates both
    rows, so row 1 holds the negated floats of a min-array, up to the sign of
    zeros, which compare equal. A box bound above 2e-14 keeps every index in
    up or low. The step enters the multiply as a 0-d float64 array that the
    loop overwrites, not as a Python float, which numpy 2 takes through its
    weak-scalar path (NEP 50), and argmax writes the pair into a
    preallocated array: 0.4-0.5 us less per step at n = 432, same floats.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[1] != 2 or y.shape != (len(X),):
        raise ValueError(f"need X of shape (n, 2) and y of shape (n,), not {X.shape} and {y.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("base positions must be finite")
    if len(y) < 2:
        raise ValueError("need at least 2 samples")
    if not (np.all(np.abs(y) == 1.0) and np.any(y > 0) and np.any(y < 0)):
        raise ValueError("labels must be +1 or -1, and both classes must be present")
    check_svm_constants(kernel_sigma, cost_C, positive_class_weight)
    if kernel is None:
        kernel = _Kernel(X, kernel_sigma)
    elif kernel.kernel_sigma != kernel_sigma or not np.array_equal(kernel.X, X):
        raise ValueError("the kernel belongs to other positions or another kernel_sigma")
    n = len(y)
    yC = np.where(y > 0, cost_C * positive_class_weight, -cost_C)
    lo, hi = np.minimum(yC, 0.0), np.maximum(yC, 0.0)
    los, his, bottom, top = (a.tolist() for a in (lo, hi, lo + 1e-14, hi - 1e-14))
    beta = [0.0] * n
    up, low = [0.0 < t for t in top], [0.0 > b for b in bottom]
    # myg = y at beta = 0, where grad = -1
    H = np.where([up, low], [y, -y], -np.inf)
    D = np.empty_like(H)
    pairs = {}  # this fit's pair entries, keyed i * n + j
    ij, s = np.empty(2, dtype=np.intp), np.empty(())  # argmax output; 0-d step operand
    argmax, h_item, get = H.argmax, H.item, pairs.get
    multiply, add = np.multiply, np.add
    violation = np.inf
    rows = 0
    for steps in range(_MAX_PAIR_STEPS):
        i, j = argmax(1, ij).tolist()
        if not up[i] or not low[j]:  # one set is empty
            violation = 0.0
            break
        violation = h_item(0, i) + h_item(1, j)
        if violation <= _SOLVE_EPS:
            break
        entry = get(i * n + j)
        if entry is None:
            if len(pairs) >= _PAIR_ROWS:
                pairs.clear()
            entry = pairs[i * n + j] = _pair_entry(kernel.K, i, j)
            rows += 1
        row, quad = entry
        step = violation / quad
        # clip to the box for beta_i + step, beta_j - step
        b_i, b_j = beta[i], beta[j]
        room = his[i] - b_i
        if room < step:
            step = room
        room = b_j - los[j]
        if room < step:
            step = room
        s[()] = step
        multiply(row, s, D)
        add(H, D, H)
        # H already holds myg[k] where membership stays. The update is written
        # out for i and for j: a loop over (i, j) costs about 6% of a step.
        beta[i] = b_i = b_i + step
        u, l = b_i < top[i], b_i > bottom[i]
        if not u or l != low[i]:  # i is in up
            g = h_item(0, i)
            up[i], low[i] = u, l
            H[0, i] = g if u else -np.inf
            H[1, i] = -g if l else -np.inf
        beta[j] = b_j = b_j - step
        u, l = b_j < top[j], b_j > bottom[j]
        if u != up[j] or not l:  # j is in low
            g = h_item(0, j) if up[j] else -h_item(1, j)
            up[j], low[j] = u, l
            H[0, j] = g if u else -np.inf
            H[1, j] = -g if l else -np.inf
    else:
        steps = _MAX_PAIR_STEPS
    myg = np.where(up, H[0], -H[1])
    if violation > KKT_TOLERANCE:
        raise SVMConvergenceError(violation)

    beta = np.array(beta)
    free = (beta > lo + 1e-10) & (beta < hi - 1e-10)
    if free.any():
        bias = float(np.mean(myg[free]))
    else:
        bias = float((np.max(myg[np.array(up)]) + np.min(myg[np.array(low)])) / 2.0)

    sv = np.abs(beta) > 1e-12
    return SVMModel(support_points=X[sv], alphas=beta[sv], bias=bias, kernel_sigma=kernel_sigma,
                    pair_steps=steps, pair_rows=rows, kkt_violation=violation)


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
        # only the points whose y the edge spans, so a flat edge cannot overflow
        idx = np.flatnonzero((y1 > y) != (y2 > y))
        xint = x1 + (y[idx] - y1) * (x2 - x1) / (y2 - y1)
        inside[idx] ^= x[idx] < xint
    return inside


_MS_PAD = -1e9  # padding keeps contours closed when a region touches the grid border

# Marching-squares segments per cell code, as (start edge, end edge) pairs over
# the edges 0 bottom, 1 right, 2 top, 3 left. The code is the case bitmask of
# the corners (i, j), (i+1, j), (i+1, j+1), (i, j+1) above zero; the saddle
# cases 5 and 10 keep their code when the cell-centre mean is positive and
# become 16 and 17 when it is not. Every segment runs with its code's positive
# corners on its right.
_MS_SEGMENTS = {
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)], 6: [(0, 2)], 7: [(3, 2)],
    8: [(2, 3)], 9: [(2, 0)], 11: [(2, 1)], 12: [(1, 3)], 13: [(1, 0)], 14: [(0, 3)],
    5: [(3, 2), (1, 0)], 16: [(3, 0), (1, 2)],
    10: [(0, 3), (2, 1)], 17: [(0, 1), (2, 3)],
}


def _segment_table() -> tuple[np.ndarray, np.ndarray]:
    """_MS_SEGMENTS as arrays: segments per code, and edges[code, segment,
    start/end]."""
    count = np.zeros(18, dtype=int)
    edges = np.zeros((18, 2, 2), dtype=int)
    for code, segs in _MS_SEGMENTS.items():
        count[code] = len(segs)
        edges[code, :len(segs)] = segs
    return count, edges


_MS_COUNT, _MS_EDGES = _segment_table()


def _edge_crossing(a, b, x1, x2, y1, y2):
    """Zero crossing on the edges from value a at (x1, y1) to value b at
    (x2, y2); the midpoint where a == b."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(a == b, 0.5, a / (a - b))
    return np.column_stack([x1 + t * (x2 - x1), y1 + t * (y2 - y1)])


def _marching_squares(values: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> list[np.ndarray]:
    """Zero-level contours of values sampled at (xs x ys): closed (k, 2)
    vertex loops, one per cycle of segments. Cases, crossings and saddles
    are computed for all cells at once, segments come out cell by cell in
    row-major order, and a loop runs from its first segment's start point
    through the end points of its segments."""
    step_x = xs[1] - xs[0] if len(xs) > 1 else 1.0
    step_y = ys[1] - ys[0] if len(ys) > 1 else 1.0
    v = np.full((values.shape[0] + 2, values.shape[1] + 2), _MS_PAD)
    v[1:-1, 1:-1] = values
    gx = np.concatenate([[xs[0] - step_x], xs, [xs[-1] + step_x]])
    gy = np.concatenate([[ys[0] - step_y], ys, [ys[-1] + step_y]])

    pos = v > 0
    two, four, eight = np.uint8(2), np.uint8(4), np.uint8(8)  # a byte per cell, not eight
    case = pos[:-1, :-1] + two * pos[1:, :-1] + four * pos[1:, 1:] + eight * pos[:-1, 1:]
    i, j = np.nonzero((case != 0) & (case != 15))
    code = case[i, j]
    v00, v10, v11, v01 = v[i, j], v[i + 1, j], v[i + 1, j + 1], v[i, j + 1]
    center_neg = ~((v00 + v10 + v11 + v01) / 4.0 > 0)
    code[(code == 5) & center_neg] = 16
    code[(code == 10) & center_neg] = 17
    x0, x1, y0, y1 = gx[i], gx[i + 1], gy[j], gy[j + 1]
    crossings = np.stack([_edge_crossing(v00, v10, x0, x1, y0, y0),   # bottom
                          _edge_crossing(v10, v11, x1, x1, y0, y1),   # right
                          _edge_crossing(v11, v01, x1, x0, y1, y1),   # top
                          _edge_crossing(v01, v00, x0, x0, y1, y0)],  # left
                         axis=1)
    count = _MS_COUNT[code]
    cell = np.repeat(np.arange(len(code)), count)
    k = np.arange(len(cell)) - np.repeat(np.cumsum(count) - count, count)
    edges = _MS_EDGES[code[cell], k]
    starts = crossings[cell, edges[:, 0]]
    ends = crossings[cell, edges[:, 1]]

    # a crossing is named by its grid edge, 2 * (padded index of the edge's
    # lower-left corner) + (0 along x, 1 along y); each crossed edge ends one
    # segment and starts another, so the successors are a permutation
    corner = 2 * (i * v.shape[1] + j)[cell]
    offset = np.array([0, 2 * v.shape[1] + 1, 2, 1])  # bottom, right, top, left
    start_name = corner + offset[edges[:, 0]]
    order = np.argsort(start_name)
    succ = order[np.searchsorted(start_name, corner + offset[edges[:, 1]], sorter=order)].tolist()
    loops, used = [], [False] * len(succ)
    for first in range(len(succ)):
        chain, k = [], first
        while not used[k]:
            used[k] = True
            chain.append(k)
            k = succ[k]
        if chain:
            loops.append(np.concatenate([starts[first:first + 1], ends[chain[:-1]]]))
    return loops


def extract_contour(model: SVMModel, grid_spec: GridSpec) -> np.ndarray:
    """Largest closed positive-region contour of the decision surface on the
    grid, counterclockwise, starting at the vertex of maximal dx_rob. By the
    orientation of _MS_SEGMENTS a loop around a positive region runs
    clockwise and one around a hole counterclockwise.

    The policy: the outer loop of the positive region of largest area is
    kept, so the holes inside it are filled; every other positive region is
    dropped with a warning. No positive region raises
    EmptySuccessRegionError."""
    xs, ys = grid_spec.centers()
    loops = _marching_squares(model.grid_values(grid_spec), xs, ys)
    clockwise_areas = np.array([-signed_area(loop) for loop in loops])
    n_positive = np.count_nonzero(clockwise_areas > 0)
    if n_positive == 0:
        raise EmptySuccessRegionError("empty success region")
    if n_positive > 1:
        warnings.warn("multiple positive regions; keeping the largest")
    loop = loops[int(np.argmax(clockwise_areas))]
    return _start_at_max_x_crossing(loop[::-1])


def _start_at_max_x_crossing(loop: np.ndarray) -> np.ndarray:
    """Rotate (and if needed split an edge of) the loop so it starts at its
    maximal-dx_rob point along the +x ray through the centroid.

    The raw vertex of maximal x sits on a nearly flat arc for annulus-like
    regions, so its index jitters tangentially between similar contours and
    would wreck landmark correspondence; the ray crossing is stable.
    """
    cx, cy = loop.mean(axis=0)
    ahead = np.roll(loop, -1, axis=0)  # the end point of each edge
    edges = np.flatnonzero((loop[:, 1] > cy) != (ahead[:, 1] > cy))
    y1 = loop[edges, 1]
    t = (cy - y1) / (ahead[edges, 1] - y1)
    x = loop[edges, 0] + t * (ahead[edges, 0] - loop[edges, 0])
    if not np.any(x > cx):
        return np.roll(loop, -int(np.argmax(loop[:, 0])), axis=0)
    best = int(np.argmax(x))  # the first of equal maxima, right of the centroid
    k, t, x = int(edges[best]), t[best], x[best]
    start = np.array([x, cy])
    if t < 1e-9:
        return np.roll(loop, -k, axis=0)
    rolled = np.roll(loop, -(k + 1), axis=0)
    return np.vstack([start, rolled])


def train_per_pose(dataset, kernel_sigma: float = DEFAULT_KERNEL_SIGMA,
                   cost_C: float = DEFAULT_COST_C,
                   positive_class_weight: float = DEFAULT_CLASS_WEIGHT) -> dict:
    """One classifier per object pose of a simworld.Dataset, keyed in
    object_grid order; grid entries of equal value are one pose. A trial
    with cause code 0 ("none") is a positive sample, any other a negative."""
    index = {obj: k for k, obj in enumerate(dataset.object_grid)}
    pose = np.array([index[obj] for obj in dataset.object_grid], dtype=np.intp)[dataset.pose]
    points = np.array([(r.dx_rob, r.dy_rob) for r in dataset.robot_grid])[dataset.base]
    labels = np.where(dataset.cause == 0, 1.0, -1.0)
    # the poses of each distinct base-position array share one kernel, and
    # one kernel at a time is alive
    groups: dict[bytes, list] = {}
    for obj, k in index.items():
        groups.setdefault(points[pose == k].tobytes(), []).append(obj)
    fits = {}
    for objs in groups.values():
        X = points[pose == index[objs[0]]]
        kernel = _Kernel(X, kernel_sigma)
        for obj in objs:
            fits[obj] = train_svm(X, labels[pose == index[obj]], kernel_sigma=kernel_sigma,
                                  cost_C=cost_C, positive_class_weight=positive_class_weight,
                                  kernel=kernel)
        del kernel
    return {obj: fits[obj] for obj in index}
