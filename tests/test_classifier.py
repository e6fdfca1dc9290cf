import math

import numpy as np
import pytest

from arplace.classifier import (Boundary, EmptySuccessRegionError, LabeledSet,
                                SVMModel, extract_contour, points_in_polygon,
                                signed_area, train_per_pose, train_svm)
from arplace.geometry import ObjectFeatures, RobotOffset
from arplace.grids import GridSpec
from arplace.shapemodel import _ArcTable

OBJ = ObjectFeatures(0.1, 0.0)


def _ring_set(seed=0, n=120):
    """Positives inside a disk of radius 0.2, negatives in a surrounding
    ring — a clean nonlinear problem for the Gaussian kernel."""
    rng = np.random.default_rng(seed)
    pts, labels = [], []
    for _ in range(n):
        r = rng.uniform(0.0, 0.45)
        a = rng.uniform(0, 2 * np.pi)
        x, y = r * np.cos(a), r * np.sin(a)
        if 0.17 < r < 0.23:
            continue  # margin gap
        pts.append(RobotOffset(x, y))
        labels.append(1 if r < 0.2 else -1)
    return LabeledSet(pts, labels, OBJ)


def test_svm_separates_ring_data():
    data = _ring_set()
    model = train_svm(data)
    X, y = data.arrays()
    pred = np.sign(model.decision_values(X))
    assert np.all(pred == y)


def test_svm_solution_satisfies_dual_constraints():
    """Independent optimality check: the stored alphas must satisfy the dual
    feasibility and stationarity (KKT) conditions of the soft-margin problem,
    not merely come out of the solver."""
    data = _ring_set(seed=3)
    model = train_svm(data, kernel_sigma=0.1, cost_C=40.0,
                      positive_class_weight=2.0)
    X, y = data.arrays()
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


def test_boundary_contains_square():
    square = Boundary(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    res = square.contains(np.array([[0.5, 0.5], [1.5, 0.5], [-0.1, 0.2]]))
    assert list(res) == [True, False, False]


def test_boundary_signed_area_and_centroid():
    square = Boundary(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    assert signed_area(square.landmarks) == pytest.approx(1.0)
    assert signed_area(square.landmarks[::-1]) == pytest.approx(-1.0)
    np.testing.assert_allclose(square.centroid(), [0.5, 0.5], atol=1e-12)


# ---------------------------------------------------------------------------
# contour extraction
# ---------------------------------------------------------------------------

def _disk_model(cx=0.0, cy=0.0, radius=0.2, sigma=0.2):
    """Single-support-point model whose zero level set is a circle of the
    given radius around (cx, cy): exp(-r^2 / 2 s^2) - exp(-R^2 / 2 s^2)."""
    return SVMModel(support_points=np.array([[cx, cy]]),
                    alphas=np.array([1.0]),
                    bias=-math.exp(-radius ** 2 / (2 * sigma ** 2)),
                    kernel_sigma=sigma, cost_C=1.0, positive_class_weight=1.0)


def test_extract_contour_recovers_analytic_circle():
    model = _disk_model(cx=0.05, cy=-0.03)
    spec = GridSpec.covering(-0.5, 0.5, -0.5, 0.5, 0.01)
    contour = extract_contour(model, spec)
    r = np.hypot(contour[:, 0] - 0.05, contour[:, 1] + 0.03)
    assert np.max(np.abs(r - 0.2)) < 0.011  # within one cell
    b = Boundary(_ArcTable(contour).at(np.arange(64) / 64))
    assert abs(signed_area(b.landmarks)) == pytest.approx(np.pi * 0.2 ** 2, rel=0.02)
    np.testing.assert_allclose(b.centroid(), [0.05, -0.03], atol=0.005)


def test_extract_contour_keeps_border_touching_region_closed():
    # region extends past the grid on one side; the contour must still close
    model = _disk_model(cx=0.45, cy=0.0, radius=0.2)
    spec = GridSpec.covering(-0.5, 0.5, -0.5, 0.5, 0.01)
    contour = extract_contour(model, spec)
    assert len(contour) > 10
    assert np.linalg.norm(contour[0] - contour[-1]) > 0.0  # open storage
    b = Boundary(_ArcTable(contour).at(np.arange(64) / 64))
    assert b.contains(np.array([[0.45, 0.0]]))[0]


def test_extract_contour_raises_without_positive_region():
    model = _disk_model()
    hopeless = SVMModel(support_points=model.support_points,
                        alphas=model.alphas, bias=-10.0,
                        kernel_sigma=model.kernel_sigma, cost_C=1.0,
                        positive_class_weight=1.0)
    spec = GridSpec.covering(-0.5, 0.5, -0.5, 0.5, 0.01)
    with pytest.raises(EmptySuccessRegionError):
        extract_contour(hopeless, spec)


def test_resample_closed_equal_arc_spacing():
    """The shape model's arc-length table resamples a closed contour at
    equal arc spacing."""
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    pts = _ArcTable(square).at(np.arange(16) / 16)
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
