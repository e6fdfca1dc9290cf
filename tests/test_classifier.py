import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from arplace.classifier import (_KERNEL_BLOCK, _MS_SEGMENTS, KKT_TOLERANCE, Boundary,
                                EmptySuccessRegionError, SVMConvergenceError,
                                SVMModel, _marching_squares, _start_at_max_x_crossing,
                                extract_contour, gaussian_kernel, points_in_polygon,
                                signed_area, train_svm)
from arplace.evaluation import candidate_grid_spec
from arplace.grids import GridSpec
from arplace.placemap import _fill_counts
from arplace.shapemodel import _ArcTable

def _ring_set(seed=0, n=120):
    """(X, y) with positives inside a disk of radius 0.2, negatives in a
    surrounding ring — a clean nonlinear problem for the Gaussian kernel."""
    rng = np.random.default_rng(seed)
    pts, labels = [], []
    for _ in range(n):
        r = rng.uniform(0.0, 0.45)
        a = rng.uniform(0, 2 * np.pi)
        x, y = r * np.cos(a), r * np.sin(a)
        if 0.17 < r < 0.23:
            continue  # margin gap
        pts.append((x, y))
        labels.append(1.0 if r < 0.2 else -1.0)
    return np.array(pts), np.array(labels)


def test_svm_separates_ring_data():
    X, y = _ring_set()
    model = train_svm(X, y)
    pred = np.sign(model.decision_values(X))
    assert np.all(pred == y)


def test_svm_solution_satisfies_dual_constraints():
    """Independent optimality check: the stored alphas must satisfy the dual
    feasibility and stationarity (KKT) conditions of the soft-margin problem,
    not merely come out of the solver."""
    X, y = _ring_set(seed=3)
    model = train_svm(X, y, kernel_sigma=0.1, cost_C=40.0,
                      positive_class_weight=2.0)
    signed = np.zeros(len(y))
    # map support alphas back onto the training set
    for p, a in zip(model.support_points, model.alphas):
        idx = np.argmin(np.sum((X - p) ** 2, axis=1))
        signed[idx] += a
    alpha = signed * y  # recover alpha_i >= 0
    C = np.where(y > 0, 40.0 * 2.0, 40.0)
    assert np.all(alpha >= -1e-9)
    assert np.all(alpha <= C + 1e-9)
    # equality constraint sum_i y_i alpha_i = 0
    assert abs(np.sum(signed)) < 1e-8
    # free support vectors sit on the margin: y f(x) = 1
    f = model.decision_values(X)
    free = (alpha > 1e-6) & (alpha < C - 1e-6)
    assert free.any()
    assert np.max(np.abs(y[free] * f[free] - 1.0)) < 1e-2


def _train_svm_reference(X, y, kernel_sigma=0.1, cost_C=40.0, positive_class_weight=2.0,
                         solve_eps=1e-10, max_steps=500_000):
    """Maximal-violating-pair solver written with whole-array masks and the
    gradient of the dual itself: the loop train_svm must reproduce float
    for float. Returns (support points, signed alphas, bias, pair steps,
    final violation)."""
    n = len(y)
    d2 = np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=2)
    K = np.exp(-d2 / (2.0 * kernel_sigma ** 2))
    Q = (y[:, None] * y[None, :]) * K
    C = np.where(y > 0, cost_C * positive_class_weight, cost_C)
    alpha = np.zeros(n)
    grad = -np.ones(n)
    violation = np.inf
    steps = 0
    for _ in range(max_steps):
        myg = -y * grad
        up = ((y > 0) & (alpha < C - 1e-14)) | ((y < 0) & (alpha > 1e-14))
        low = ((y < 0) & (alpha < C - 1e-14)) | ((y > 0) & (alpha > 1e-14))
        if not up.any() or not low.any():
            violation = 0.0
            break
        i = np.flatnonzero(up)[np.argmax(myg[up])]
        j = np.flatnonzero(low)[np.argmin(myg[low])]
        violation = myg[i] - myg[j]
        if violation <= solve_eps:
            break
        quad = max(K[i, i] + K[j, j] - 2.0 * K[i, j], 1e-12)
        step = violation / quad
        step = min(step, C[i] - alpha[i] if y[i] > 0 else alpha[i])
        step = min(step, alpha[j] if y[j] > 0 else C[j] - alpha[j])
        alpha[i] += y[i] * step
        alpha[j] -= y[j] * step
        grad += step * (y[i] * Q[:, i] - y[j] * Q[:, j])
        steps += 1
    free = (alpha > 1e-10) & (alpha < C - 1e-10)
    myg = -y * grad
    if free.any():
        bias = float(np.mean(myg[free]))
    else:
        up = ((y > 0) & (alpha < C - 1e-14)) | ((y < 0) & (alpha > 1e-14))
        low = ((y < 0) & (alpha < C - 1e-14)) | ((y > 0) & (alpha > 1e-14))
        bias = float((np.max(myg[up]) + np.min(myg[low])) / 2.0)
    sv = alpha > 1e-12
    return X[sv], (y * alpha)[sv], bias, steps, violation


def test_train_svm_matches_the_reference_solver_on_ring_data():
    X, y = _ring_set(seed=5)
    sv, alphas, bias, steps, violation = _train_svm_reference(X, y)
    model = train_svm(X, y)
    np.testing.assert_array_equal(model.support_points, sv)
    np.testing.assert_array_equal(model.alphas, alphas)
    assert (model.bias, model.pair_steps, model.kkt_violation) == (bias, steps, violation)


@st.composite
def _small_labeled_sets(draw):
    n = draw(st.integers(4, 40))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    # points on a coarse lattice repeat, which makes ties in the selection
    scale = draw(st.sampled_from([0.05, 0.2, 0.5]))
    pts = np.round(rng.uniform(-1.0, 1.0, (n, 2)) / scale) * scale * 0.3
    labels = rng.choice([-1.0, 1.0], n)
    labels[:2] = [1.0, -1.0]
    return (pts, labels,
            draw(st.sampled_from([0.05, 0.1, 0.3])), draw(st.sampled_from([0.5, 40.0])))


@settings(max_examples=60, deadline=None)
@given(_small_labeled_sets())
def test_train_svm_matches_the_reference_solver(case):
    X, y, sigma, cost = case
    sv, alphas, bias, steps, violation = _train_svm_reference(X, y, sigma, cost)
    if violation > KKT_TOLERANCE:
        with pytest.raises(SVMConvergenceError):
            train_svm(X, y, kernel_sigma=sigma, cost_C=cost)
        return
    model = train_svm(X, y, kernel_sigma=sigma, cost_C=cost)
    np.testing.assert_array_equal(model.support_points, sv)
    np.testing.assert_array_equal(model.alphas, alphas)
    assert model.bias == bias
    assert model.pair_steps == steps
    assert model.kkt_violation == violation


def test_train_svm_rejects_a_degenerate_box():
    # below 2e-14 an index can leave both working sets, and its gradient with them
    with pytest.raises(ValueError, match="2e-14"):
        train_svm(*_ring_set(), cost_C=1e-14, positive_class_weight=2.0)


@pytest.mark.parametrize("X, y, match", [
    (np.zeros((3, 2)), np.array([1.0, -1.0]), "shape"),
    (np.zeros((3, 3)), np.array([1.0, -1.0, 1.0]), "shape"),
    (np.zeros((1, 2)), np.array([1.0]), "at least 2 samples"),
    (np.zeros((3, 2)), np.array([1.0, 1.0, 1.0]), "both classes"),
    (np.zeros((3, 2)), np.array([-1.0, -1.0, -1.0]), "both classes"),
    (np.zeros((3, 2)), np.array([1.0, -1.0, 0.5]), "must be \\+1 or -1"),
], ids=["short_y", "three_columns", "one_sample", "only_positive", "only_negative",
        "other_label"])
def test_train_svm_rejects_bad_training_arrays(X, y, match):
    with pytest.raises(ValueError, match=match):
        train_svm(X, y)


def _decision_values_reference(model, pts):
    """The decision surface with the squared distances summed over an
    (n, n_sv, 2) temporary: the values decision_values must reproduce."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    d2 = np.sum((pts[:, None, :] - model.support_points[None, :, :]) ** 2, axis=2)
    K = np.exp(-d2 / (2.0 * model.kernel_sigma ** 2))
    return K @ model.alphas + model.bias


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 50), n_sv=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
       sigma=st.sampled_from([0.03, 0.1, 0.37]), lattice=st.booleans())
# three blocks: at 40 support vectors a block holds _KERNEL_BLOCK // 64 = 2,048 points
@example(n=2 * (_KERNEL_BLOCK // 64) + 5, n_sv=40, seed=1, sigma=0.1, lattice=False)
def test_decision_values_match_the_3d_sum(n, n_sv, seed, sigma, lattice):
    rng = np.random.default_rng(seed)
    if lattice:  # points that coincide with support points: zero distances
        sv = rng.integers(-4, 5, (n_sv, 2)) * 0.1
        pts = rng.integers(-4, 5, (n, 2)) * 0.1
    else:
        sv = rng.uniform(-1.0, 1.0, (n_sv, 2))
        pts = rng.uniform(-1.2, 1.2, (n, 2))
    model = SVMModel(support_points=sv, alphas=rng.normal(size=n_sv), bias=float(rng.normal()),
                     kernel_sigma=sigma)
    np.testing.assert_array_equal(model.decision_values(pts),
                                  _decision_values_reference(model, pts))
    np.testing.assert_array_equal(model.decision_values(pts[0]),
                                  _decision_values_reference(model, pts[0]))


def _traced_peak(fn, *args, **kwargs) -> int:
    """tracemalloc peak of one call, in bytes."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_decision_values_memory_does_not_grow_with_the_support_vectors():
    """A block holds between half and all of _KERNEL_BLOCK kernel entries
    (its points are a power of two), so ten times the support vectors take
    at most 1.5 times the memory: 2.3 and 2.7 MB. Blocks of a fixed 4,096
    points peaked at 6.7 and 65.7 MB."""
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1.0, 1.0, (20_000, 2))
    peaks = []
    for n_sv in (40, 400):
        model = SVMModel(support_points=rng.uniform(-1.0, 1.0, (n_sv, 2)),
                         alphas=rng.normal(size=n_sv), bias=0.0, kernel_sigma=0.1)
        peaks.append(_traced_peak(model.decision_values, pts))
    assert peaks[1] <= 1.5 * peaks[0]


def _gaussian_kernel_reference(a, b, sigma):
    """The kernel as one expression, over a temporary per operation."""
    dx = a[:, 0:1] - b[:, 0]
    dy = a[:, 1:2] - b[:, 1]
    return np.exp(-(dx * dx + dy * dy) / (2.0 * sigma ** 2))


@settings(max_examples=150, deadline=None)
@given(n_a=st.integers(1, 30), n_b=st.integers(1, 30), shared=st.integers(0, 30),
       seed=st.integers(0, 2 ** 32 - 1), sigma=st.floats(1e-3, 10.0),
       spread=st.sampled_from([1e-3, 1.0, 1e3]))
@example(n_a=5, n_b=7, shared=3, seed=0, sigma=1e-3, spread=1e3)  # underflow to 0
@example(n_a=5, n_b=7, shared=3, seed=0, sigma=10.0, spread=1e-3)  # all near 1
def test_gaussian_kernel_matches_the_one_line_expression(n_a, n_b, shared, seed, sigma, spread):
    """Built in place, the kernel keeps every float of the expression. The
    first `shared` points of b repeat those of a (zero distances); at a
    spread of 1e3 m the kernel of distinct points underflows to 0."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-spread, spread, (n_a, 2))
    b = rng.uniform(-spread, spread, (n_b, 2))
    k = min(shared, n_a, n_b)
    b[:k] = a[:k]
    K = gaussian_kernel(a, b, sigma)
    np.testing.assert_array_equal(K, _gaussian_kernel_reference(a, b, sigma))
    assert np.all(K[np.arange(k), np.arange(k)] == 1.0)
    if spread == 1e3 and sigma == 1e-3:
        assert np.count_nonzero(K) == k


def test_gaussian_kernel_memory_is_its_result_and_one_temporary():
    """The expression peaked at 4.0 times its result."""
    rng = np.random.default_rng(1)
    a, b = rng.uniform(-1.0, 1.0, (500, 2)), rng.uniform(-1.0, 1.0, (300, 2))
    assert _traced_peak(gaussian_kernel, a, b, 0.1) <= 2.5 * 500 * 300 * 8


def test_train_svm_memory_is_three_kernel_matrices():
    """K plus its (n, 2, n) pair table, about 3 n^2 floats on 613 ring
    points; negating K and stacking both copies peaked at 4.0 n^2."""
    X, y = _ring_set(seed=0, n=700)
    assert _traced_peak(train_svm, X, y) <= 3.5 * len(X) ** 2 * 8


# ---------------------------------------------------------------------------
# polygon membership
# ---------------------------------------------------------------------------

def _ray_cast_reference(poly, pts):
    """Slow even-odd test, written independently of the implementation."""
    out = []
    n = len(poly)
    for x, y in pts:
        inside = False
        for i in range(n):
            x1, y1 = poly[i]
            x2, y2 = poly[(i + 1) % n]
            if (y1 > y) != (y2 > y):
                xc = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
                if x < xc:
                    inside = not inside
        out.append(inside)
    return np.array(out)


def test_points_in_polygon_matches_ray_casting_reference():
    rng = np.random.default_rng(4)
    for _ in range(5):
        angles = np.sort(rng.uniform(0, 2 * np.pi, 12))
        radii = rng.uniform(0.3, 1.0, 12)
        poly = np.column_stack([radii * np.cos(angles),
                                radii * np.sin(angles)])
        pts = rng.uniform(-1.2, 1.2, (200, 2))
        np.testing.assert_array_equal(points_in_polygon(poly, pts),
                                      _ray_cast_reference(poly, pts))


def test_points_in_polygon_skips_the_edges_a_point_does_not_span():
    """A nearly flat edge far below a point gives no crossing to compute, so
    no overflow and no warning."""
    poly = np.array([[0.0, 0.0], [3.0, 5e-324], [1.0, 1.0]])
    pts = np.array([[0.5, 0.0], [0.5, 2.5], [1.0, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert points_in_polygon(poly, pts).tolist() == [False, False, True]


def test_boundary_contains_square():
    square = Boundary(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    res = square.contains(np.array([[0.5, 0.5], [1.5, 0.5], [-0.1, 0.2]]))
    assert list(res) == [True, False, False]


def test_boundary_signed_area_and_centroid():
    square = Boundary(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    assert signed_area(square.landmarks) == pytest.approx(1.0)
    assert signed_area(square.landmarks[::-1]) == pytest.approx(-1.0)
    np.testing.assert_allclose(square.landmarks.mean(axis=0), [0.5, 0.5], atol=1e-12)


# ---------------------------------------------------------------------------
# contour extraction
# ---------------------------------------------------------------------------

def _disk_model(cx=0.0, cy=0.0, radius=0.2, sigma=0.2):
    """Single-support-point model whose zero level set is a circle of the
    given radius around (cx, cy): exp(-r^2 / 2 s^2) - exp(-R^2 / 2 s^2)."""
    return SVMModel(support_points=np.array([[cx, cy]]),
                    alphas=np.array([1.0]),
                    bias=-math.exp(-radius ** 2 / (2 * sigma ** 2)),
                    kernel_sigma=sigma)


def _marching_squares_reference(values, xs, ys):
    """Cell-by-cell marching squares: the segments, and loops chained from
    them, that _marching_squares must reproduce exactly."""
    step_x = xs[1] - xs[0] if len(xs) > 1 else 1.0
    step_y = ys[1] - ys[0] if len(ys) > 1 else 1.0
    v = np.full((values.shape[0] + 2, values.shape[1] + 2), -1e9)
    v[1:-1, 1:-1] = values
    gx = np.concatenate([[xs[0] - step_x], xs, [xs[-1] + step_x]])
    gy = np.concatenate([[ys[0] - step_y], ys, [ys[-1] + step_y]])

    def interp(i1, j1, i2, j2):
        a, b = v[i1, j1], v[i2, j2]
        t = 0.5 if a == b else a / (a - b)
        return (gx[i1] + t * (gx[i2] - gx[i1]), gy[j1] + t * (gy[j2] - gy[j1]))

    segments = []
    for i in range(v.shape[0] - 1):
        for j in range(v.shape[1] - 1):
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
            if case in (5, 10):
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

    def key(p):
        return (round(p[0], 9), round(p[1], 9))

    by_start = {}
    for idx, (a, _) in enumerate(segments):
        by_start.setdefault(key(a), []).append(idx)
    loops, used = [], set()
    for idx, (a, b) in enumerate(segments):
        if idx in used:
            continue
        loop = [a, b]
        used.add(idx)
        while True:
            nxt = next((k for k in by_start.get(key(loop[-1]), []) if k not in used), None)
            if nxt is None:
                break
            loop.append(segments[nxt][1])
            used.add(nxt)
            if key(loop[-1]) == key(loop[0]):
                loop.pop()
                loops.append(np.array(loop))
                break
    return loops


def _assert_same_loops(values, xs, ys):
    got = _marching_squares(values, xs, ys)
    want = _marching_squares_reference(values, xs, ys)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    return got


# fields on a 0.1 grid; each hits one case the vectorized tracer must get right
MARCHING_FIELDS = {
    # diagonal corners positive: the saddle cases 5 and 10, each with the
    # cell-centre mean on both sides of zero
    "saddle_5_center_positive": [[-1, -1, -1, -1], [-1, 2, -1, -1], [-1, -1, 2, -1], [-1, -1, -1, -1]],
    "saddle_5_center_negative": [[-1, -1, -1, -1], [-1, 0.5, -1, -1], [-1, -1, 0.5, -1], [-1, -1, -1, -1]],
    "saddle_10_center_positive": [[-1, -1, -1, -1], [-1, -1, 2, -1], [-1, 2, -1, -1], [-1, -1, -1, -1]],
    "saddle_10_center_negative": [[-1, -1, -1, -1], [-1, -1, 0.5, -1], [-1, 0.5, -1, -1], [-1, -1, -1, -1]],
    # equal values at both ends of an edge (a == b): 0/0 in the crossing
    # formula, which only an edge without a crossing can hit; zero counts
    # as outside
    "ties_at_zero": [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
    "ties_two_regions": [[1, -1, 1], [-1, -1, -1], [1, -1, 1]],
    # a region that runs off the grid is closed by the padding
    "border_touching": [[1, 1, -1, -1], [1, 1, -1, -1], [-1, -1, -1, -1]],
    "all_positive": [[1, 1], [1, 1]],
}


@pytest.mark.parametrize("name", sorted(MARCHING_FIELDS))
def test_marching_squares_matches_the_cell_loop(name):
    values = np.array(MARCHING_FIELDS[name], dtype=float)
    xs = 0.1 * np.arange(values.shape[0])
    ys = -0.2 + 0.1 * np.arange(values.shape[1])
    assert _assert_same_loops(values, xs, ys)


def test_marching_squares_matches_the_cell_loop_on_random_fields():
    rng = np.random.default_rng(7)
    for _ in range(200):
        nx, ny = rng.integers(1, 8, 2)
        # few distinct values, so saddles and a == b ties are common
        values = rng.integers(-2, 3, (nx, ny)) * rng.choice([1.0, 0.3])
        _assert_same_loops(values, np.linspace(0.0, 1.0, nx), np.linspace(-1.0, 0.5, ny))


def test_extract_contour_recovers_analytic_circle():
    model = _disk_model(cx=0.05, cy=-0.03)
    spec = GridSpec.covering(-0.5, 0.5, -0.5, 0.5, 0.01)
    contour = extract_contour(model, spec)
    r = np.hypot(contour[:, 0] - 0.05, contour[:, 1] + 0.03)
    assert np.max(np.abs(r - 0.2)) < 0.011  # within one cell
    b = Boundary(_ArcTable([contour]).at(np.arange(64) / 64)[0])
    assert abs(signed_area(b.landmarks)) == pytest.approx(np.pi * 0.2 ** 2, rel=0.02)
    np.testing.assert_allclose(b.landmarks.mean(axis=0), [0.05, -0.03], atol=0.005)


def test_extract_contour_keeps_border_touching_region_closed():
    # region extends past the grid on one side; the contour must still close
    model = _disk_model(cx=0.45, cy=0.0, radius=0.2)
    spec = GridSpec.covering(-0.5, 0.5, -0.5, 0.5, 0.01)
    contour = extract_contour(model, spec)
    assert len(contour) > 10
    assert np.linalg.norm(contour[0] - contour[-1]) > 0.0  # open storage
    b = Boundary(_ArcTable([contour]).at(np.arange(64) / 64)[0])
    assert b.contains(np.array([[0.45, 0.0]]))[0]


def _extract_contour_reference(model, grid_spec):
    """extract_contour keeping the loops that enclose a positive grid point,
    by points_in_polygon over every positive grid point: the contour and the
    warning extract_contour must reproduce."""
    xs, ys = grid_spec.centers()
    pts = grid_spec.center_points()
    values = model.decision_values(pts).reshape(grid_spec.nx, grid_spec.ny)
    pos_pts = pts[values.ravel() > 0]
    loops = [loop for loop in _marching_squares(values, xs, ys)
             if points_in_polygon(loop, pos_pts).any()]
    if not loops:
        raise EmptySuccessRegionError("empty success region")
    if len(loops) > 1:
        warnings.warn("multiple positive regions; keeping the largest")
    loop = loops[int(np.argmax([abs(signed_area(l)) for l in loops]))]
    if signed_area(loop) < 0:
        loop = loop[::-1]
    return _start_at_max_x_crossing(loop)


def _contour_and_warnings(extract, model, spec):
    """(contour or None when the region is empty, warning messages)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            contour = extract(model, spec)
        except EmptySuccessRegionError:
            contour = None
    return contour, [str(w.message) for w in caught]


def test_every_segment_has_its_positive_corners_on_its_right():
    """The orientation rule extract_contour rests on, checked on the
    segment table: each segment runs between the crossings of two cell
    edges, and on both edges the positive corner lies on its right and the
    negative corner on its left."""
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    midpoints = np.array([[0.5, 0.0], [1.0, 0.5], [0.5, 1.0], [0.0, 0.5]])
    saddles = {16: 5, 17: 10}  # center-negative saddles keep the corners of 5 and 10
    for code, segments in _MS_SEGMENTS.items():
        positive = [(saddles.get(code, code) >> k) & 1 == 1 for k in range(4)]
        for start, end in segments:
            a, b = midpoints[start], midpoints[end]
            for edge in (start, end):
                ends = (edge, (edge + 1) % 4)  # the corners of the edge
                assert positive[ends[0]] != positive[ends[1]]
                for k in ends:
                    c = corners[k]
                    cross = (b - a)[0] * (c - a)[1] - (b - a)[1] * (c - a)[0]
                    assert (cross < 0) == positive[k], (code, start, end, k)


def _random_surface(rng):
    """Decision surface of a ring of support points, which encloses a hole
    when its kernel is narrow, plus a few bumps of either sign."""
    n, k = rng.integers(8, 20), rng.integers(4, 10)
    angles = 2 * np.pi * np.arange(n) / n
    ring = rng.uniform(-0.2, 0.2, 2) + \
        rng.uniform(0.1, 0.25) * np.column_stack([np.cos(angles), np.sin(angles)])
    return SVMModel(support_points=np.vstack([ring, rng.uniform(-0.45, 0.45, (k, 2))]),
                    alphas=np.concatenate([np.ones(n), rng.uniform(-0.5, 1.5, k)]),
                    bias=-rng.uniform(0.3, 1.2), kernel_sigma=rng.uniform(0.03, 0.08))


def test_extract_contour_matches_the_point_test_on_random_surfaces():
    """On 600 random surfaces, over 400 of them with several positive
    regions and over 300 with a hole, the loop picked by orientation is the
    reference's, with the same warnings and the same empty-region errors."""
    rng = np.random.default_rng(11)
    spec = GridSpec.covering(-0.5, 0.5, -0.5, 0.5, 0.04)
    several = holes = 0
    for _ in range(600):
        model = _random_surface(rng)
        got, got_warnings = _contour_and_warnings(extract_contour, model, spec)
        want, want_warnings = _contour_and_warnings(_extract_contour_reference, model, spec)
        assert got_warnings == want_warnings
        if want is None:
            assert got is None
        else:
            np.testing.assert_array_equal(got, want)
        values = model.decision_values(spec.center_points()).reshape(spec.nx, spec.ny)
        several += len(want_warnings)
        holes += any(signed_area(loop) > 0 for loop in _marching_squares(values, *spec.centers()))
    assert several > 400 and holes > 300


def test_extract_contour_matches_the_point_test_on_the_training_contours(pipeline):
    """On the 16 per-pose models of dataset seed 42 the fill decides every
    grid point of every traced loop as points_in_polygon does, and the
    contours are the reference's."""
    spec = pipeline["extraction_grid"]
    xs, ys = spec.centers()
    pts = spec.center_points()
    for model in pipeline["svms"].values():
        values = model.decision_values(pts).reshape(spec.nx, spec.ny)
        for loop in _marching_squares(values, xs, ys):
            np.testing.assert_array_equal(
                _fill_counts(loop[None], np.zeros(1), spec),
                points_in_polygon(loop, pts).reshape(spec.nx, spec.ny))
        np.testing.assert_array_equal(extract_contour(model, spec),
                                      _extract_contour_reference(model, spec))


def test_extract_contour_memory_does_not_grow_with_the_grid(pipeline):
    """The kernel is evaluated in blocks of at most _KERNEL_BLOCK entries: on
    the pose with the most support vectors (82), four times the cells (0.005
    m against 0.01 m) must not take 1.5 times the peak. Evaluating the kernel
    over all points at once peaked at 37.7 and 149.6 MB."""
    model = max(pipeline["svms"].values(), key=lambda m: len(m.alphas))
    peaks = []
    for cell in (0.01, 0.005):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a pose may trace two regions
            peaks.append(_traced_peak(extract_contour, model, candidate_grid_spec(cell)))
    assert peaks[1] <= 1.5 * peaks[0]


def test_extract_contour_drops_the_loop_around_a_hole():
    """A positive ring traces two loops; the inner one encloses no positive
    grid point and is dropped, so the outer loop comes back alone."""
    angles = 2 * np.pi * np.arange(24) / 24
    model = SVMModel(support_points=0.2 * np.column_stack([np.cos(angles), np.sin(angles)]),
                     alphas=np.ones(24), bias=-1.0, kernel_sigma=0.05)
    spec = GridSpec.covering(-0.5, 0.5, -0.5, 0.5, 0.01)
    values = model.decision_values(spec.center_points()).reshape(spec.nx, spec.ny)
    assert len(_marching_squares(values, *spec.centers())) == 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        contour = extract_contour(model, spec)
    np.testing.assert_array_equal(contour, _extract_contour_reference(model, spec))
    assert np.hypot(contour[:, 0], contour[:, 1]).min() > 0.2


def test_extract_contour_raises_without_positive_region():
    model = _disk_model()
    hopeless = SVMModel(support_points=model.support_points,
                        alphas=model.alphas, bias=-10.0,
                        kernel_sigma=model.kernel_sigma)
    spec = GridSpec.covering(-0.5, 0.5, -0.5, 0.5, 0.01)
    with pytest.raises(EmptySuccessRegionError):
        extract_contour(hopeless, spec)


def test_resample_closed_equal_arc_spacing():
    """The shape model's arc-length table resamples a closed contour at
    equal arc spacing."""
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    pts = _ArcTable([square]).at(np.arange(16) / 16)[0]
    assert pts.shape == (16, 2)
    closed = np.vstack([pts, pts[:1]])
    seg = np.linalg.norm(np.diff(closed, axis=0), axis=1)
    # all on the unit-square perimeter, equally spaced along the arc
    assert np.all((np.abs(pts) < 1e-12) | (np.abs(pts - 1) < 1e-12)
                  | ((pts > 0) & (pts < 1)))
    assert seg.max() == pytest.approx(4.0 / 16, abs=1e-9)


def test_train_per_pose_one_model_per_object(pipeline):
    svms = pipeline["svms"]
    data = pipeline["data"]
    assert set(svms) == set(data.object_grid)
    # every model predicts its own noise-free region reasonably well
    model = svms[data.object_grid[0]]
    assert len(model.support_points) > 0
