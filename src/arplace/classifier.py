"""Per-object-pose success classifiers and closed decision boundaries.

A soft-margin Gaussian-kernel SVM is trained per object pose with a
maximal-violating-pair working-set solver; the zero level set of its decision
surface is traced with marching squares into the closed contour on which the
shape model places its landmarks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grids import GridSpec

KKT_TOLERANCE = 1e-3     # convergence contract
_SOLVE_EPS = 1e-10       # internal target, for order-independent solutions
_MAX_PAIR_STEPS = 500_000
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


class _PairTable:
    """Kernel K of the base positions X and the rows KK[k] = [K[k]; -K[k]]
    of its (n, 2, n) pair table, read through a list of (2, n) views. It
    depends on X and kernel_sigma only, so every fit on the same positions
    can share one."""

    def __init__(self, X: np.ndarray, kernel_sigma: float):
        self.X, self.kernel_sigma = X, kernel_sigma
        self.K = gaussian_kernel(X, X, kernel_sigma)
        self.diag = np.diag(self.K).tolist()
        KK = np.empty((len(X), 2, len(X)))
        KK[:, 0] = self.K
        np.negative(self.K, out=KK[:, 1])
        self.rows = list(KK)


def train_svm(X, y, kernel_sigma: float = 0.1, cost_C: float = 40.0,
              positive_class_weight: float = 2.0, *, table: _PairTable | None = None
              ) -> SVMModel:
    """Fit the dual soft-margin problem on the (n, 2) base positions X with
    labels y (+1 success, -1 failure) by repeatedly optimizing the maximal
    violating pair. Positive samples get box bound C * positive_class_weight.
    Mismatched shapes, non-finite positions, fewer than 2 samples, other
    labels or a missing class raise ValueError. table, when given, is the
    _PairTable of X at kernel_sigma, built by the caller for several fits.

    The loop tracks myg = -y * grad of the dual objective 1/2 a'Qa - e'a,
    with Q = yy' * K. Since y = +-1 and K is exactly symmetric, the update
    myg += step * (K[j] - K[i]) gives the same floats as updating grad by
    step * (y_i Q[:, i] - y_j Q[:, j]) and negating. It is kept as one (2, n)
    selection array H: row 0 is myg on the index set up and -inf off it,
    row 1 is -myg on low and -inf off it. One argmax per row picks the pair
    (the first maximum of -myg is the first minimum of myg), and the rows of
    KK[k] = [K[k]; -K[k]] update both at once. IEEE negation is exact, so
    row 1 holds the negation of the floats a separate min-array would. A box
    bound above 2e-14 puts every index in up or low, so myg[k] is always in
    one row; membership changes only at the pair just stepped.
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
    C = np.where(y > 0, cost_C * positive_class_weight, cost_C)
    if C.min() <= 2e-14:
        raise ValueError("box bounds cost_C and cost_C * positive_class_weight "
                         "must exceed 2e-14")
    if table is None:
        table = _PairTable(X, kernel_sigma)
    elif table.kernel_sigma != kernel_sigma or not np.array_equal(table.X, X):
        raise ValueError("the pair table belongs to other positions or another kernel_sigma")
    K, KK, diag = table.K, table.rows, table.diag

    n = len(y)
    pos, cs, c_top = (y > 0).tolist(), C.tolist(), (C - 1e-14).tolist()
    alpha = [0.0] * n
    # at alpha = 0 a positive index is only in up and a negative only in low
    up = pos.copy()
    low = [not p for p in pos]
    # myg = y at alpha = 0, where grad = -1
    H = np.where([up, low], [y, -y], -np.inf)
    D = np.empty_like(H)
    argmax, h_item, k_item = H.argmax, H.item, K.item
    subtract, multiply, add = np.subtract, np.multiply, np.add
    violation = np.inf
    for steps in range(_MAX_PAIR_STEPS):
        i, j = argmax(1).tolist()
        if not up[i] or not low[j]:  # one set is empty
            violation = 0.0
            break
        violation = h_item(0, i) + h_item(1, j)
        if violation <= _SOLVE_EPS:
            break
        quad = diag[i] + diag[j] - 2.0 * k_item(i, j)
        if quad < 1e-12:
            quad = 1e-12
        step = violation / quad
        # clip to the box for alpha_i + y_i*step, alpha_j - y_j*step
        a_i, a_j, pos_i, pos_j = alpha[i], alpha[j], pos[i], pos[j]
        room = cs[i] - a_i if pos_i else a_i
        if room < step:
            step = room
        room = a_j if pos_j else cs[j] - a_j
        if room < step:
            step = room
        subtract(KK[j], KK[i], D)
        multiply(D, step, D)
        add(H, D, H)
        # H already holds myg[k] where membership stays. The update is written
        # out for i and for j: a loop over (i, j) costs about 6% of a step.
        if pos_i:
            alpha[i] = a_i = a_i + step
            u, l = a_i < c_top[i], a_i > 1e-14
        else:
            alpha[i] = a_i = a_i - step
            u, l = a_i > 1e-14, a_i < c_top[i]
        if not u or l != low[i]:  # i is in up
            g = h_item(0, i)
            up[i], low[i] = u, l
            H[0, i] = g if u else -np.inf
            H[1, i] = -g if l else -np.inf
        if pos_j:
            alpha[j] = a_j = a_j - step
            u, l = a_j < c_top[j], a_j > 1e-14
        else:
            alpha[j] = a_j = a_j + step
            u, l = a_j > 1e-14, a_j < c_top[j]
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

    alpha = np.array(alpha)
    free = (alpha > 1e-10) & (alpha < C - 1e-10)
    if free.any():
        bias = float(np.mean(myg[free]))
    else:
        up = np.array(up)
        low = np.array(low)
        bias = float((np.max(myg[up]) + np.min(myg[low])) / 2.0)

    sv = alpha > 1e-12
    return SVMModel(support_points=X[sv].copy(), alphas=(y * alpha)[sv].copy(),
                    bias=bias, kernel_sigma=kernel_sigma, pair_steps=steps, kkt_violation=violation)


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
    """Zero-level contours of values sampled at (xs x ys); returns closed
    loops as (k, 2) vertex arrays.

    Cases, edge crossings and saddle decisions are computed for all cells at
    once; segments come out cell by cell in row-major order, and only their
    chaining into loops runs in Python."""
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

    # chain segments into loops, matching end points to 9 decimals
    start_key = list(map(tuple, np.round(starts, 9).tolist()))
    end_key = list(map(tuple, np.round(ends, 9).tolist()))
    by_start = {}
    for idx, key in enumerate(start_key):
        by_start.setdefault(key, []).append(idx)
    loops = []
    used = [False] * len(start_key)
    for first in range(len(start_key)):
        if used[first]:
            continue
        chain = [first]
        used[first] = True
        while True:
            nxt = next((s for s in by_start.get(end_key[chain[-1]], ()) if not used[s]), None)
            if nxt is None:
                break
            chain.append(nxt)
            used[nxt] = True
            if end_key[nxt] == start_key[first]:
                loops.append(np.concatenate([starts[first:first + 1], ends[chain[:-1]]]))
                break
    return loops


def extract_contour(model: SVMModel, grid_spec: GridSpec) -> np.ndarray:
    """Largest closed positive-region contour of the decision surface on the
    grid, counterclockwise, starting at the vertex of maximal dx_rob. By the
    orientation of _MS_SEGMENTS a loop around a positive region runs
    clockwise and one around a hole counterclockwise."""
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


def train_per_pose(dataset, kernel_sigma: float = 0.1, cost_C: float = 40.0,
                   positive_class_weight: float = 2.0) -> dict:
    """One classifier per object pose of a trial dataset (simworld.Dataset or
    anything with object_grid / records), keyed in object_grid order."""
    records = dataset.records
    index = {obj: k for k, obj in enumerate(dataset.object_grid)}
    pose = np.fromiter((index[r.object] for r in records), dtype=np.intp, count=len(records))
    points = np.fromiter(((r.robot.dx_rob, r.robot.dy_rob) for r in records),
                         dtype=(float, 2), count=len(records))
    labels = np.fromiter((1.0 if r.label == "success" else -1.0 for r in records),
                         dtype=float, count=len(records))
    # the poses of each distinct base-position array share one pair table,
    # and one table at a time is alive
    groups: dict[bytes, list] = {}
    for obj, k in index.items():
        groups.setdefault(points[pose == k].tobytes(), []).append(obj)
    fits = {}
    for objs in groups.values():
        X = points[pose == index[objs[0]]]
        table = _PairTable(X, kernel_sigma)
        for obj in objs:
            fits[obj] = train_svm(X, labels[pose == index[obj]], kernel_sigma=kernel_sigma,
                                  cost_C=cost_C, positive_class_weight=positive_class_weight,
                                  table=table)
        del table
    return {obj: fits[obj] for obj in index}
