import itertools
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from arplace import classifier
from arplace.classifier import (_KERNEL_BLOCK, _MS_SEGMENTS, KKT_TOLERANCE, Boundary,
                                EmptySuccessRegionError, SVMConvergenceError,
                                SVMModel, _Kernel, _marching_squares, _pair_entry,
                                _start_at_max_x_crossing, extract_contour, gaussian_kernel,
                                points_in_polygon, signed_area, train_per_pose, train_svm)
from arplace.evaluation import candidate_grid_spec
from arplace.geometry import ObjectFeatures, RobotOffset
from arplace.grids import GridSpec
from arplace.placemap import _fill_counts
from arplace.shapemodel import _ArcTable
from arplace.simworld import CAUSES, Dataset, default_world

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
                         solve_eps=1e-10, max_steps=500_000, pairs=None):
    """Maximal-violating-pair solver written with whole-array masks and the
    gradient of the dual itself: the loop train_svm must reproduce float
    for float. Returns (support points, signed alphas, bias, pair steps,
    final violation); appends the (i, j) of every step to pairs if given."""
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
        if pairs is not None:
            pairs.append((i, j))
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


def _rows_built(pairs, limit):
    """Pair rows a cache of at most limit entries builds for the pair
    sequence, emptied when full: the pair_rows train_svm must report."""
    cache, built = set(), 0
    for pair in pairs:
        if pair not in cache:
            if len(cache) >= limit:
                cache.clear()
            cache.add(pair)
            built += 1
    return built


def test_train_svm_matches_the_reference_solver_on_ring_data(monkeypatch):
    """Also with a one-entry pair cache, which every new pair empties."""
    X, y = _ring_set(seed=5)
    pairs = []
    sv, alphas, bias, steps, violation = _train_svm_reference(X, y, pairs=pairs)
    for limit in (classifier._PAIR_ROWS, 1):
        monkeypatch.setattr(classifier, "_PAIR_ROWS", limit)
        model = train_svm(X, y)
        np.testing.assert_array_equal(model.support_points, sv)
        np.testing.assert_array_equal(model.alphas, alphas)
        assert (model.bias, model.pair_steps, model.kkt_violation) == (bias, steps, violation)
        assert model.pair_rows == _rows_built(pairs, limit)


def _lattice_set(n, seed, scale):
    """(X, y): n points on a lattice of the given scale with random labels,
    both classes present. Points on a coarse lattice repeat, which makes ties
    in the selection."""
    rng = np.random.default_rng(seed)
    pts = np.round(rng.uniform(-1.0, 1.0, (n, 2)) / scale) * scale * 0.3
    labels = rng.choice([-1.0, 1.0], n)
    labels[:2] = [1.0, -1.0]
    return pts, labels


@st.composite
def _small_labeled_sets(draw):
    X, y = _lattice_set(draw(st.integers(4, 40)), draw(st.integers(0, 2 ** 32 - 1)),
                        draw(st.sampled_from([0.05, 0.2, 0.5])))
    return X, y, draw(st.sampled_from([0.05, 0.1, 0.3])), draw(st.sampled_from([0.5, 40.0]))


@settings(max_examples=60, deadline=None)
@given(_small_labeled_sets())
# Together these reach every branch of the written-out update, with i and j
# of either class: the step clipped at i's bound and at j's, i leaving up and
# entering low, j leaving low and entering up, and an index that left a set
# re-entering it. None reaches the empty-set exit: on finite points the
# equality constraint keeps both sets non-empty.
@example((*_lattice_set(9, 44788, 0.05), 0.3, 0.5))
@example((*_lattice_set(9, 28681, 0.5), 0.3, 40.0))
def test_train_svm_matches_the_reference_solver(case):
    """Also with a one-entry pair cache, which every new pair empties."""
    X, y, sigma, cost = case
    pairs = []
    sv, alphas, bias, steps, violation = _train_svm_reference(X, y, sigma, cost, pairs=pairs)
    for limit in (classifier._PAIR_ROWS, 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classifier, "_PAIR_ROWS", limit)
            if violation > KKT_TOLERANCE:
                with pytest.raises(SVMConvergenceError):
                    train_svm(X, y, kernel_sigma=sigma, cost_C=cost)
                continue
            model = train_svm(X, y, kernel_sigma=sigma, cost_C=cost)
        np.testing.assert_array_equal(model.support_points, sv)
        np.testing.assert_array_equal(model.alphas, alphas)
        assert model.bias == bias
        assert model.pair_steps == steps
        assert model.pair_rows == _rows_built(pairs, limit)
        assert model.kkt_violation == violation


@pytest.mark.parametrize("limit", [642, 10])
def test_train_svm_stops_at_the_pair_step_limit(monkeypatch, limit):
    """The ring set takes 643 steps. Stopped one short, its violation is
    within KKT_TOLERANCE and the model records the limit; stopped at 10, the
    solver has not converged."""
    X, y = _ring_set(seed=5)
    monkeypatch.setattr(classifier, "_MAX_PAIR_STEPS", limit)
    sv, alphas, bias, steps, violation = _train_svm_reference(X, y, max_steps=limit)
    assert steps == limit
    if violation > KKT_TOLERANCE:
        with pytest.raises(SVMConvergenceError):
            train_svm(X, y)
        return
    model = train_svm(X, y)
    np.testing.assert_array_equal(model.alphas, alphas)
    assert (model.bias, model.pair_steps, model.kkt_violation) == (bias, limit, violation)


def test_train_svm_rejects_a_degenerate_box():
    # below 2e-14 an index can leave both working sets, and its gradient with them
    with pytest.raises(ValueError, match="2e-14"):
        train_svm(*_ring_set(), cost_C=1e-14, positive_class_weight=2.0)


@pytest.mark.parametrize("setting", [
    {"cost_C": math.nan}, {"cost_C": math.inf}, {"positive_class_weight": math.nan},
    {"positive_class_weight": math.inf}, {"positive_class_weight": -1.0},
    {"kernel_sigma": math.nan}, {"kernel_sigma": math.inf}, {"kernel_sigma": 0.0},
    {"kernel_sigma": -0.1}, {"kernel_sigma": 1e200}, {"kernel_sigma": 1e-300},
], ids=lambda setting: "{}={}".format(*next(iter(setting.items()))))
def test_train_svm_rejects_nonsense_hyperparameters(setting):
    """A comparison with NaN is False, so a NaN box bound once passed the
    2e-14 check, and on this set cost_C NaN "converged" in 42 steps with
    violation 0.0; a NaN or zero kernel_sigma gave a model with bias NaN and
    no support vectors after 1 step. So did 1e-300, where the kernel's
    divisor -2 sigma^2 is 0, and at 1e200 sigma ** 2 overflowed."""
    with pytest.raises(ValueError, match="finite and positive"):
        train_svm(*_ring_set(), **setting)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus_inf"])
@pytest.mark.parametrize("column", [0, 1])
def test_train_svm_rejects_non_finite_positions(bad, column):
    """A NaN position once "converged" after 1 step with violation 0.0, and
    an infinite one ended in a reduction error from the bias."""
    X = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [0.1, 0.1]])
    X[2, column] = bad
    with pytest.raises(ValueError, match="base positions must be finite"):
        train_svm(X, np.array([1.0, -1.0, 1.0, -1.0]))


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


@settings(max_examples=150, deadline=None)
@given(nx=st.integers(1, 40), ny=st.integers(1, 40), n_sv=st.integers(0, 40),
       block=st.sampled_from([2 ** 4, 2 ** 6, 2 ** 9, _KERNEL_BLOCK]),
       seed=st.integers(0, 2 ** 32 - 1), sigma=st.sampled_from([0.03, 0.1, 0.37]),
       on_centers=st.booleans())
# the real block size: 2,048 points at 40 support vectors, so the first
# block ends inside grid row 43 of 47 and the second is short
@example(nx=50, ny=47, n_sv=40, block=_KERNEL_BLOCK, seed=3, sigma=0.1, on_centers=False)
# one row of 7 points per block: every block but the last spans a row end
@example(nx=9, ny=3, n_sv=1, block=2 ** 3, seed=0, sigma=0.1, on_centers=True)
def test_grid_values_are_the_decision_values_of_the_cell_centers(nx, ny, n_sv, block, seed,
                                                                  sigma, on_centers):
    """Bit for bit, over grid shapes, support-vector counts and block sizes
    whose blocks start and end inside grid rows and whose last block is
    short. Support points on cell centers give zero distances."""
    rng = np.random.default_rng(seed)
    spec = GridSpec(rng.uniform(-1.0, 0.0), rng.uniform(-1.0, 0.0), rng.uniform(0.01, 0.1),
                    nx, ny)
    if on_centers:
        sv = spec.center_points()[rng.integers(0, nx * ny, n_sv)]
    else:
        sv = rng.uniform(-1.2, 1.2, (n_sv, 2))
    model = SVMModel(support_points=sv, alphas=rng.normal(size=n_sv), bias=float(rng.normal()),
                     kernel_sigma=sigma)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classifier, "_KERNEL_BLOCK", block)
        np.testing.assert_array_equal(
            model.grid_values(spec), model.decision_values(spec.center_points()).reshape(nx, ny))


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


def test_train_svm_memory_is_the_kernel_and_the_bounded_pair_rows(monkeypatch):
    """On 613 ring points a fit holds at most K, the temporary that builds
    K, and _PAIR_ROWS pair rows of 2 n floats (2.04 n^2 measured, where the
    stacked (n, 2, n) table took 3 n^2). On a kernel built beforehand, the
    rows are the fit's memory: at most one row beyond a full cache, the last
    entry, outlives a clear (16 rows: 247 KB measured; unbounded, the fit's
    161 rows took 1.7 MB)."""
    X, y = _ring_set(seed=0, n=700)
    n = len(X)
    assert _traced_peak(train_svm, X, y) <= (2 * n * n + classifier._PAIR_ROWS * 2 * n) * 8
    monkeypatch.setattr(classifier, "_PAIR_ROWS", 16)
    kernel = _Kernel(X, 0.1)
    assert _traced_peak(train_svm, X, y, kernel=kernel) <= (17 * 2 * n + 32 * n) * 8


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


@pytest.mark.parametrize("landmarks", [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0, 0.0]] * 3,
                                       [0.0] * 6],
                         ids=["two_landmarks", "3d_landmarks", "flat"])
def test_boundary_refuses_fewer_than_3_landmarks_in_2d(landmarks):
    with pytest.raises(ValueError, match="at least 3 2D landmarks"):
        Boundary(np.array(landmarks))


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

    segments = []  # (start, end), each a (point, edge) pair
    for i in range(v.shape[0] - 1):
        for j in range(v.shape[1] - 1):
            c = [v[i, j] > 0, v[i + 1, j] > 0, v[i + 1, j + 1] > 0, v[i, j + 1] > 0]
            case = c[0] | (c[1] << 1) | (c[2] << 2) | (c[3] << 3)
            if case in (0, 15):
                continue
            # an edge is named by its axis and its lower-left corner, so the
            # two cells that share it name it alike
            bottom = (interp(i, j, i + 1, j), ("x", i, j))
            right = (interp(i + 1, j, i + 1, j + 1), ("y", i + 1, j))
            top = (interp(i + 1, j + 1, i, j + 1), ("x", i, j + 1))
            left = (interp(i, j + 1, i, j), ("y", i, j))
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

    by_start = {}
    for idx, (a, _) in enumerate(segments):
        by_start.setdefault(a[1], []).append(idx)
    loops, used = [], set()
    for idx, (a, b) in enumerate(segments):
        if idx in used:
            continue
        loop = [a, b]
        used.add(idx)
        while True:
            nxt = next((k for k in by_start.get(loop[-1][1], []) if k not in used), None)
            if nxt is None:
                break
            loop.append(segments[nxt][1])
            used.add(nxt)
            if loop[-1][1] == loop[0][1]:
                loop.pop()
                loops.append(np.array([point for point, _ in loop]))
                break
    return loops


def _crossed_edges(values):
    """Edges of the padded grid whose ends lie on either side of zero: each
    ends one segment and starts another, so there are as many segments."""
    pos = np.pad(values > 0, 1)
    return np.count_nonzero(pos[1:] != pos[:-1]) + np.count_nonzero(pos[:, 1:] != pos[:, :-1])


def _assert_same_loops(values, xs, ys):
    """The loops of _marching_squares are the reference's, and every
    segment lies in exactly one of them: a loop of k vertices is k segments."""
    got = _marching_squares(values, xs, ys)
    want = _marching_squares_reference(values, xs, ys)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    assert sum(len(loop) for loop in got) == _crossed_edges(values)
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


@pytest.mark.parametrize("offset", [0.0, 1e5, 1e7])
def test_marching_squares_traces_the_disk_in_one_loop(offset):
    """Chained by coordinates rounded to 9 decimals, the disk on a 1 cm
    grid gave loops of [154] vertices for 156 segments at x offset 0, and of
    [2, 152, 2] and [158] for 160 segments at 1e5 and 1e7 m."""
    model = _disk_model(cx=offset)
    spec = GridSpec.covering(offset - 0.5, offset + 0.5, -0.5, 0.5, 0.01)
    values = model.grid_values(spec)
    loops = _assert_same_loops(values, *spec.centers())
    assert len(loops) == 1


def _smooth_field(rng, nx, ny, border):
    """A few Gaussian bumps of either sign on an (nx, ny) grid, rounded to
    0.05 so that exact zeros, and crossings at grid points where several
    edges meet, are common. With border, one bump sits on the grid's edge."""
    gx, gy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    field = np.full((nx, ny), -0.3)
    for k in range(rng.integers(1, 5)):
        cx, cy = rng.uniform(0, nx - 1), rng.uniform(0, ny - 1)
        if border and k == 0:
            cx = rng.choice([0.0, nx - 1.0])
        width = rng.uniform(1.0, 3.0)
        field += rng.uniform(-0.5, 1.5) * np.exp(-((gx - cx) ** 2 + (gy - cy) ** 2) / width ** 2)
    return np.round(field / 0.05) * 0.05


@pytest.mark.parametrize("border", [False, True], ids=["inside", "touching_the_border"])
def test_marching_squares_puts_every_segment_in_one_loop_on_smooth_fields(border):
    rng = np.random.default_rng(23 + border)
    zeros = 0
    for _ in range(150):
        nx, ny = rng.integers(3, 16, 2)
        values = _smooth_field(rng, nx, ny, border)
        zeros += np.any(values == 0.0)
        _assert_same_loops(values, np.linspace(0.0, 1.0, nx), np.linspace(-1.0, 0.5, ny))
    assert zeros > 50


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
    return _start_at_max_x_crossing_reference(loop)


def _start_at_max_x_crossing_reference(loop):
    """The start rotation edge by edge: the loop _start_at_max_x_crossing
    must reproduce."""
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
    if t < 1e-9:
        return np.roll(loop, -k, axis=0)
    return np.vstack([np.array([x, cy]), np.roll(loop, -(k + 1), axis=0)])


@st.composite
def _polygons(draw):
    """Random polygons, self-crossing ones among them. On a coarse lattice
    vertices lie on the ray and crossings tie; some loops cross the ray
    nowhere right of their centroid."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(3, 30))
    return rng.integers(-2, 3, (n, 2)) * 0.5 if draw(st.booleans()) else rng.normal(size=(n, 2))


@settings(max_examples=200, deadline=None)
@given(loop=_polygons())
# a square with a vertex on the ray: the loop starts at that vertex (t = 0)
@example(loop=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]))
def test_start_at_max_x_crossing_matches_the_edge_loop(loop):
    np.testing.assert_array_equal(_start_at_max_x_crossing(loop),
                                  _start_at_max_x_crossing_reference(loop))


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
                _fill_counts(loop[None], spec),
                points_in_polygon(loop, pts).reshape(spec.nx, spec.ny))
        np.testing.assert_array_equal(extract_contour(model, spec),
                                      _extract_contour_reference(model, spec))


def test_extract_contour_memory_does_not_grow_with_the_grid(pipeline):
    """The kernel is evaluated in blocks of at most _KERNEL_BLOCK entries: on
    the pose with the most support vectors (82), four times the cells (0.005
    m against 0.01 m) must not take 1.5 times the peak. Evaluating the kernel
    over all points at once peaked at 37.7 and 149.6 MB.

    Nor may the working memory beyond the (nx, ny) float surface and the
    padded copy that the call must hold, 16 B a cell, grow by more than
    10%. Measured peaks with numpy 2.4: 0.97 MB on the 91 x 157 grid and
    1.41 MB on the 181 x 313 grid, of which 0.23 and 0.91 MB are surface,
    leaving 0.74 and 0.50 MB."""
    model = max(pipeline["svms"].values(), key=lambda m: len(m.alphas))
    peaks, surfaces = [], []
    for cell in (0.01, 0.005):
        spec = candidate_grid_spec(cell)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a pose may trace two regions
            peaks.append(_traced_peak(extract_contour, model, spec))
        surfaces.append(16 * spec.nx * spec.ny)
    assert peaks[1] <= 1.5 * peaks[0]
    assert peaks[1] - surfaces[1] <= 1.1 * (peaks[0] - surfaces[0])


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


def test_train_per_pose_work_on_the_session_dataset(pipeline):
    """The solver's record on the seed-42 dataset, the numbers the train
    command prints: 165,935 pair steps over the 16 fits, 11,534 pair rows
    built for them (the fits' caches miss 6.95% of the steps), 89,106 steps
    on the worst pose, every fit within the solver's internal target."""
    svms = pipeline["svms"].values()
    assert sum(m.pair_steps for m in svms) == 165_935
    assert sum(m.pair_rows for m in svms) == 11_534
    assert max(m.pair_steps for m in svms) == 89_106
    assert max(m.kkt_violation for m in svms) <= 1e-10


def _pose_set(base_sets, seed):
    """A Dataset with one pose per entry of base_sets, the positions of each
    pose in the given order and labels from a ring rule with label noise:
    cause "none" inside the ring, "slip" outside."""
    rng = np.random.default_rng(seed)
    objects = [ObjectFeatures(0.05 * (k + 1), 0.0) for k in range(len(base_sets))]
    robots = list(dict.fromkeys(RobotOffset(x, y) for bases in base_sets for x, y in bases))
    per_pose = []
    for k, (obj, bases) in enumerate(zip(objects, base_sets)):
        per_pose.append([])
        for x, y in bases:
            inside = 0.05 < math.hypot(x, y) < 0.2 + 0.1 * obj.dx_obj
            cause = "none" if inside != (rng.uniform() < 0.05) else "slip"
            per_pose[-1].append((k, robots.index(RobotOffset(x, y)), CAUSES.index(cause)))
    # the poses' trials interleaved: a pose's trials need not be contiguous
    trials = [t for row in itertools.zip_longest(*per_pose) for t in row if t is not None]
    pose, base, cause = np.array(trials).T
    return Dataset(default_world(0), objects, robots, pose, base, cause)


def test_train_per_pose_equals_separate_fits_and_shares_one_kernel(monkeypatch):
    """Poses 0, 2 and 3 stand on the same base positions and share one
    kernel; pose 1 stands on a shuffled copy of them, pose 4 on a subset, so
    each gets its own. Every fit equals train_svm on that pose's arrays, its
    pair rows included, so no fit reuses another's pair cache, also when one
    entry empties it; at most one kernel is alive at a time."""
    rng = np.random.default_rng(7)
    base = [tuple(p) for p in np.round(rng.uniform(-0.3, 0.3, (60, 2)), 3).tolist()]
    shuffled = [base[k] for k in rng.permutation(len(base))]
    data = _pose_set([base, shuffled, base, base, base[:40]], seed=1)
    built, alive = [], weakref.WeakSet()

    class CountedKernel(_Kernel):
        def __init__(self, X, kernel_sigma):
            assert len(alive) == 0
            super().__init__(X, kernel_sigma)
            built.append(len(X))
            alive.add(self)

    monkeypatch.setattr(classifier, "_Kernel", CountedKernel)
    for limit in (classifier._PAIR_ROWS, 1):
        monkeypatch.setattr(classifier, "_PAIR_ROWS", limit)
        alone = {}
        for k, obj in enumerate(data.object_grid):
            rows = data.pose == k
            X = np.array([(r.dx_rob, r.dy_rob) for r in data.robot_grid])[data.base[rows]]
            y = np.where(data.cause[rows] == CAUSES.index("none"), 1.0, -1.0)
            alone[obj] = train_svm(X, y, kernel_sigma=0.05, cost_C=10.0)
        built.clear()
        fits = train_per_pose(data, kernel_sigma=0.05, cost_C=10.0)
        assert built == [60, 60, 40]
        assert list(fits) == data.object_grid
        for obj, model in fits.items():
            np.testing.assert_array_equal(model.support_points, alone[obj].support_points)
            np.testing.assert_array_equal(model.alphas, alone[obj].alphas)
            assert (model.bias, model.pair_steps, model.pair_rows, model.kkt_violation) == \
                (alone[obj].bias, alone[obj].pair_steps, alone[obj].pair_rows,
                 alone[obj].kkt_violation)


def test_pair_entry_is_the_difference_of_the_stacked_table_rows():
    """The entry of (i, j) holds byte for byte the rows KK[j] - KK[i] of the
    stacked table KK[k] = [K[k]; -K[k]] it replaced, also at kernel ties,
    where row 1 is +0.0 and negating row 0 would give -0.0, and the pair's
    curvature, clamped at 1e-12 for coincident points."""
    X, _ = _lattice_set(30, 3, 0.5)  # a coarse lattice: repeated points and kernel ties
    K, n = _Kernel(X, 0.3).K, len(X)
    KK = np.stack([K, -K], axis=1)
    ties = clamped = 0
    for i, j in itertools.product(range(n), repeat=2):
        row, quad = _pair_entry(K, i, j)
        assert row.tobytes() == (KK[j] - KK[i]).tobytes()
        assert quad == max(K[i, i] + K[j, j] - 2.0 * K[i, j], 1e-12)
        ties += i != j and np.any(K[i] == K[j])
        clamped += quad == 1e-12
    assert ties > 0 and clamped > n  # every i == j, and the repeated points


@pytest.mark.parametrize("other", ["positions", "sigma"])
def test_train_svm_refuses_the_kernel_of_other_positions(other):
    X, y = _ring_set(n=40)
    kernel = _Kernel(X + 0.01 if other == "positions" else X, 0.1)
    with pytest.raises(ValueError, match="kernel belongs"):
        train_svm(X, y, kernel_sigma=0.2 if other == "sigma" else 0.1, kernel=kernel)


def test_train_per_pose_one_model_per_object(pipeline):
    svms = pipeline["svms"]
    data = pipeline["data"]
    assert set(svms) == set(data.object_grid)
    # every model predicts its own noise-free region reasonably well
    model = svms[data.object_grid[0]]
    assert len(model.support_points) > 0
