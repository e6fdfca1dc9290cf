import dataclasses
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from arplace import shapemodel
from arplace.classifier import extract_contour, train_per_pose
from arplace.geometry import ObjectFeatures
from arplace.shapemodel import (GSM_MODES, DegenerateShapeError, GSMModel,
                                RegressionRankError, _ArcTable, assemble_H, fit_pdm,
                                fit_regression, optimize_landmarks,
                                placement_cost)


def _circle(radius, n=24, cx=0.0, cy=0.0):
    a = 2 * np.pi * np.arange(n) / n
    return np.column_stack([cx + radius * np.cos(a), cy + radius * np.sin(a)])


def _reconstruct(pdm, b):
    """(m, 2) landmark polygon mean + modes @ b by a matrix product: the
    reconstruction PDM.landmarks_for must agree with."""
    col = pdm.mean + pdm.modes @ np.asarray(b, dtype=float)
    return np.column_stack([col[:pdm.m], col[pdm.m:]])


# ---------------------------------------------------------------------------
# principal components
# ---------------------------------------------------------------------------

def _pca_reference(H, d):
    """Independent oracle via singular value decomposition of the centered
    data (not the covariance eigendecomposition used by the implementation)."""
    mean = H.mean(axis=1)
    D = H - mean[:, None]
    U, S, _ = np.linalg.svd(D, full_matrices=False)
    evals = S ** 2 / (H.shape[1] - 1)
    energy = evals[:d].sum() / evals.sum()
    return mean, U[:, :d], evals[:d], energy


def test_fit_pdm_matches_svd_oracle():
    rng = np.random.default_rng(8)
    H = rng.normal(0.0, 1.0, (40, 12))
    d = 3
    pdm = fit_pdm(H, d)
    mean, modes, evals, energy = _pca_reference(H, d)
    np.testing.assert_allclose(pdm.mean, mean, atol=1e-12)
    np.testing.assert_allclose(pdm.eigenvalues, evals, rtol=1e-9)
    assert pdm.energy == pytest.approx(energy, abs=1e-12)
    # same subspace: modes agree up to sign
    for k in range(d):
        dot = float(np.dot(pdm.modes[:, k], modes[:, k]))
        assert abs(abs(dot) - 1.0) < 1e-9


def test_fit_pdm_sign_convention():
    rng = np.random.default_rng(9)
    H = rng.normal(0.0, 1.0, (20, 8))
    pdm = fit_pdm(H, 2)
    for k in range(2):
        idx = int(np.argmax(np.abs(pdm.modes[:, k])))
        assert pdm.modes[idx, k] > 0


def test_pdm_recovers_planted_two_factor_family():
    rng = np.random.default_rng(10)
    mean = rng.normal(0.0, 1.0, 30)
    u1 = rng.normal(0.0, 1.0, 30)
    u2 = rng.normal(0.0, 1.0, 30)
    H = np.column_stack([mean + rng.normal() * u1 + rng.normal() * u2
                         for _ in range(15)])
    pdm = fit_pdm(H, 2)
    assert pdm.energy == pytest.approx(1.0, abs=1e-9)
    # projection followed by reconstruction is lossless inside the subspace
    m = H.shape[0] // 2
    lm = np.column_stack([H[:m, 3], H[m:, 3]])
    rec = _reconstruct(pdm, pdm.project(lm))
    np.testing.assert_allclose(rec, lm, atol=1e-8)


def test_fit_pdm_rejects_degenerate_input():
    H = np.ones((10, 5))
    with pytest.raises(DegenerateShapeError):
        fit_pdm(H, 1)
    with pytest.raises(ValueError):
        fit_pdm(np.random.default_rng(0).normal(size=(10, 5)), 5)


def test_assemble_H_layout_x_then_y():
    b1 = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    b2 = np.array([[7.0, 8.0], [9.0, 10.0], [11.0, 12.0]])
    H = assemble_H([b1, b2])
    assert H.shape == (6, 2)
    np.testing.assert_array_equal(H[:, 0], [1.0, 3.0, 5.0, 2.0, 4.0, 6.0])
    np.testing.assert_array_equal(H[:, 1], [7.0, 9.0, 11.0, 8.0, 10.0, 12.0])
    with pytest.raises(ValueError):
        assemble_H([b1, b2[:2]])


# ---------------------------------------------------------------------------
# landmark placement
# ---------------------------------------------------------------------------

def test_placement_cost_formula():
    contours = [_circle(r) for r in (0.2, 0.25, 0.3, 0.35)]
    cost, energy, l = placement_cost(_ArcTable(contours).at(np.arange(8) / 8), d=1)
    assert cost == pytest.approx((2.0 - energy) * l * l, rel=1e-12)
    assert 0.0 <= energy <= 1.0


def test_optimize_landmarks_on_scaling_circles():
    # pure radial scaling is a one-mode family
    contours = [_circle(r, n=64) for r in (0.2, 0.24, 0.28, 0.32, 0.36)]
    lms, d, energy, fractions = optimize_landmarks(contours, m=12,
                                                   energy_target=0.95)
    assert d == 1
    assert energy > 0.99
    assert len(lms) == 5 and lms[0].shape == (12, 2)
    assert len(np.unique(np.round(fractions % 1.0, 9))) == 12


def test_optimize_landmarks_raises_when_target_unreachable():
    rng = np.random.default_rng(1)
    contours = [_circle(0.3) + rng.normal(0.0, 0.05, (24, 2)) for _ in range(6)]
    with pytest.raises(DegenerateShapeError):
        optimize_landmarks(contours, m=8, energy_target=0.999999)


def _gaps_ok_reference(fractions, min_gap):
    """The gap test as array calls: the answers _gaps_ok must give."""
    f = np.sort(fractions % 1.0)
    gaps = np.diff(np.concatenate([f, [f[0] + 1.0]]))
    return bool(np.all(gaps >= min_gap))


@st.composite
def _landmark_moves(draw):
    """Fractions as optimize_landmarks makes them: m uniform fractions, each
    moved by a few base steps and wrapped, against its minimum gap. Gaps
    land exactly on the minimum, and moves cross 0 and 1."""
    m = draw(st.integers(4, 24))
    moves = np.array(draw(st.lists(st.integers(-8, 8), min_size=m, max_size=m)))
    return (np.arange(m) / m + moves / (8 * m)) % 1.0, 1.0 / (2 * m)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_landmark_moves(),
                 st.tuples(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=30)
                           .map(np.array), st.floats(0.0, 0.6))))
# gaps of exactly min_gap, once across the wrap-around, from fractions outside [0, 1)
@example((np.array([-0.25, 0.0, 1.25, 0.5]), 0.25))
def test_gaps_ok_matches_the_array_expression(case):
    fractions, min_gap = case
    assert shapemodel._gaps_ok(fractions, min_gap) == _gaps_ok_reference(fractions, min_gap)


class _ArcTableReference:
    """One closed polyline's arc-length table, looked up with searchsorted:
    the points the stacked _ArcTable must reproduce for each polyline."""

    def __init__(self, contour):
        self.closed = np.vstack([contour, contour[:1]])
        seg = np.linalg.norm(np.diff(self.closed, axis=0), axis=1)
        self.arcs = np.concatenate([[0.0], np.cumsum(seg)])
        self.seg = np.where(seg > 0, seg, 1.0)
        self.total = self.arcs[-1]

    def at(self, fractions):
        t = (np.asarray(fractions) % 1.0) * self.total
        idx = np.clip(np.searchsorted(self.arcs, t, side="right") - 1,
                      0, len(self.seg) - 1)
        frac = (t - self.arcs[idx]) / self.seg[idx]
        return self.closed[idx] + frac[:, None] * (self.closed[idx + 1] - self.closed[idx])


@settings(max_examples=80, deadline=None)
@given(sizes=st.lists(st.integers(3, 40), min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_arc_table_matches_one_table_per_contour(sizes, seed):
    rng = np.random.default_rng(seed)
    contours = []
    for n in sizes:
        c = rng.normal(size=(n, 2))
        c[rng.random(n) < 0.2] = c[0]  # repeated vertices: zero-length segments
        contours.append(c)
    fractions = np.concatenate([rng.uniform(-1.5, 2.5, 15), [0.0, 0.5, 1.0, -0.25]])
    got = _ArcTable(contours).at(fractions)
    assert got.shape == (len(contours), len(fractions), 2)
    for k, c in enumerate(contours):
        np.testing.assert_array_equal(got[k], _ArcTableReference(c).at(fractions))


def _placement_cost_reference(lms, d):
    """placement_cost with each boundary projected and reconstructed on its
    own by matrix products."""
    pdm = fit_pdm(assemble_H(lms), d)
    dists = [np.linalg.norm(_reconstruct(pdm, pdm.project(lm)) - lm, axis=1) for lm in lms]
    l = float(np.mean(np.concatenate(dists)))
    return (2.0 - pdm.energy) * l * l, pdm.energy, l


@settings(max_examples=150, deadline=None)
@given(m=st.integers(4, 20), N=st.integers(3, 24), d_draw=st.integers(0, 38),
       seed=st.integers(0, 2**32 - 1))
@example(m=20, N=16, d_draw=1, seed=0)  # the pipeline's shape: N - 1 < 2m
@example(m=4, N=16, d_draw=1, seed=0)   # N - 1 > 2m
def test_placement_cost_from_the_gram_matrix_matches_the_model(m, N, d_draw, seed):
    """The cost scored from the N x N Gram matrix equals the one of the
    fitted 2m x 2m covariance model, with each boundary reconstructed on its
    own, to rtol 1e-14, in both regimes N - 1 < 2m and N - 1 > 2m. Where the
    d-th and (d+1)-th eigenvalues nearly tie, or the modes after d hold under
    1% of the variance, the d-mode residual is set by rounding in either
    form, so such draws are skipped."""
    rank = min(2 * m, N - 1)
    assume(rank >= 2)
    d = 1 + d_draw % (rank - 1)
    rng = np.random.default_rng(seed)
    lms = rng.normal(0.0, rng.uniform(0.01, 10.0), (N, m, 2)) + rng.normal(0.0, 1.0, 2)
    H = assemble_H(lms)
    evals = np.linalg.svd(H - H.mean(axis=1)[:, None], compute_uv=False) ** 2
    assume(evals[d - 1] - evals[d] >= 0.05 * evals[0] and evals[d:].sum() >= 0.01 * evals.sum())
    np.testing.assert_allclose(placement_cost(lms, d), _placement_cost_reference(lms, d),
                               rtol=1e-14, atol=0)


@pytest.mark.parametrize("N, m, d, error", [
    (1, 20, 1, ValueError), (16, 20, 0, ValueError), (16, 20, 16, ValueError),
    (16, 4, 9, ValueError), (16, 4, 8, None), (16, 20, 15, None),
    (5, 20, 1, DegenerateShapeError),
])
def test_placement_cost_raises_what_fit_pdm_raises(N, m, d, error):
    """Fewer than 2 boundaries and a d outside [1, min(2m, N - 1)] raise
    ValueError, identical boundaries DegenerateShapeError, in both."""
    rng = np.random.default_rng(3)
    lms = rng.normal(size=(N, m, 2)) if error is not DegenerateShapeError else \
        np.repeat(rng.normal(size=(1, m, 2)), N, axis=0)
    if error is None:
        fit_pdm(assemble_H(lms), d)
        placement_cost(lms, d)
        return
    with pytest.raises(error) as want:
        fit_pdm(assemble_H(lms), d)
    with pytest.raises(error, match=re.escape(str(want.value))):
        placement_cost(lms, d)


def _optimize_landmarks_reference(contours, m=20, energy_target=0.95):
    """optimize_landmarks evaluating every candidate placement in full, each
    with its own per-contour lookups and cost: the placement
    optimize_landmarks must reproduce. Returns (landmarks, d, energy,
    fractions, number of cost evaluations)."""
    tables = [_ArcTableReference(c) for c in contours]

    def cost_of(fractions, d):
        return _placement_cost_reference([t.at(fractions) for t in tables], d)[:2]

    base_step, min_gap = 1.0 / (8 * m), 1.0 / (2 * m)
    fractions = np.arange(m) / m
    evaluations = 0
    for d in range(1, len(contours)):
        cost, energy = cost_of(fractions, d)
        evaluations += 1
        improved = True
        while improved:
            improved = False
            for i in range(m):
                for mult in (4.0, 2.0, 1.0):
                    for sign in (1.0, -1.0):
                        trial = fractions.copy()
                        trial[i] = (trial[i] + sign * mult * base_step) % 1.0
                        f = np.sort(trial % 1.0)
                        if not np.all(np.diff(np.concatenate([f, [f[0] + 1.0]])) >= min_gap):
                            continue
                        c2, e2 = cost_of(trial, d)
                        evaluations += 1
                        if c2 < cost - 1e-15:
                            fractions, cost, energy = trial, c2, e2
                            improved = True
        if energy > energy_target:
            return [t.at(fractions) for t in tables], d, energy, fractions, evaluations
    raise AssertionError("energy target unreachable")


def _seed42_contours(pipeline):
    """The 16 contours of dataset seed 42."""
    spec = pipeline["extraction_grid"]
    return [extract_contour(model, spec) for model in pipeline["svms"].values()]


def test_optimize_landmarks_matches_the_full_evaluation(pipeline, monkeypatch):
    """On the 16 contours of dataset seed 42 the placement equals the one
    found by evaluating every candidate, in 299 cost evaluations of the
    cyclic sweep against the 352 of the pass loop, and each batched cost
    agrees with the per-boundary one to rtol 1e-14."""
    contours = _seed42_contours(pipeline)
    want_lms, want_d, want_energy, want_fractions, want_calls = \
        _optimize_landmarks_reference(contours)
    calls = []

    def recorded(*args):
        calls.append((args, placement_cost(*args)))
        return calls[-1][1]
    monkeypatch.setattr(shapemodel, "placement_cost", recorded)
    lms, d, energy, fractions = optimize_landmarks(contours)
    np.testing.assert_array_equal(lms, np.stack(want_lms))
    assert (d, energy) == (want_d, want_energy)
    np.testing.assert_array_equal(fractions, want_fractions)
    assert (len(calls), want_calls) == (299, 352)
    for args, got in calls:
        np.testing.assert_allclose(got, _placement_cost_reference(*args), rtol=1e-14, atol=0)


def _perturbed_family(seed, n, ellipses, noise):
    """n closed polylines of 16 to 40 vertices around the origin: circles of
    radius 0.1 to 0.4, or ellipses of such half-axes, at a random phase, with
    relative radial noise of the given size."""
    rng = np.random.default_rng(seed)
    family = []
    for _ in range(n):
        k = int(rng.integers(16, 41))
        a = 2 * np.pi * (np.arange(k) + rng.uniform()) / k
        rx = rng.uniform(0.1, 0.4)
        ry = rng.uniform(0.1, 0.4) if ellipses else rx
        r = 1.0 + noise * rng.normal(size=k)
        family.append(np.column_stack([rx * r * np.cos(a), ry * r * np.sin(a)]))
    return family


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(6, 10), ellipses=st.booleans(),
       noise=st.sampled_from([0.0, 0.01, 0.05, 0.1]), m=st.integers(4, 24))
def test_optimize_landmarks_equals_the_full_evaluation_on_random_families(seed, n, ellipses,
                                                                          noise, m):
    """The placement, d, energy and fractions equal the reference's float for
    float on families of perturbed circles and ellipses. Where the reference
    needs more than GSM_MODES modes, or no mode count below N reaches the
    target, optimize_landmarks raises DegenerateShapeError."""
    contours = _perturbed_family(seed, n, ellipses, noise)
    try:
        want_lms, want_d, want_energy, want_fractions, _ = \
            _optimize_landmarks_reference(contours, m)
    except AssertionError:  # unreachable with N - 1 modes
        want_d = None
    if want_d is None or want_d > GSM_MODES:
        with pytest.raises(DegenerateShapeError):
            optimize_landmarks(contours, m)
        return
    lms, d, energy, fractions = optimize_landmarks(contours, m)
    np.testing.assert_array_equal(lms, np.stack(want_lms))
    assert (d, energy) == (want_d, want_energy)
    np.testing.assert_array_equal(fractions, want_fractions)


def test_landmark_search_memory_grows_about_linearly(pipeline):
    """optimize_landmarks keeps no record of the placements it tried: on the
    contours of dataset seed 42 its traced peak at 64 landmarks is under 1.8
    times the one at 32 (1.35 measured; a set of every tried placement's
    fractions made it 2.45)."""
    contours = _seed42_contours(pipeline)
    peaks = []
    for m in (32, 64):
        tracemalloc.start()
        try:
            optimize_landmarks(contours, m)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.8 * peaks[0]


# ---------------------------------------------------------------------------
# regression
# ---------------------------------------------------------------------------

def _random_features(n, rng):
    return [ObjectFeatures(rng.uniform(0.05, 0.25), rng.uniform(-0.6, 0.6))
            for _ in range(n)]


def test_fit_regression_matches_normal_equations_oracle():
    rng = np.random.default_rng(5)
    feats = _random_features(12, rng)
    B = rng.normal(0.0, 1.0, (12, 2))
    reg = fit_regression(B, feats)
    Phi = np.column_stack([
        [f.dx_obj ** 2 for f in feats],
        [f.dx_obj * f.dpsi_obj for f in feats],
        [f.dpsi_obj ** 2 for f in feats],
        [f.dx_obj for f in feats],
        [f.dpsi_obj for f in feats],
        np.ones(12)])
    for k in range(2):
        w = np.linalg.solve(Phi.T @ Phi, Phi.T @ B[:, k])
        q = lambda f: np.array([f.dx_obj, f.dpsi_obj, 1.0])
        for f in feats[:4]:
            want = float(q(f) @ np.array(
                [[w[0], w[1] / 2, w[3] / 2],
                 [w[1] / 2, w[2], w[4] / 2],
                 [w[3] / 2, w[4] / 2, w[5]]]) @ q(f))
            got = reg.predict(np.array([f.dx_obj]), np.array([f.dpsi_obj]))[0, k]
            assert got == pytest.approx(want, rel=1e-8, abs=1e-10)


def test_fit_regression_recovers_exact_quadratic():
    rng = np.random.default_rng(6)
    feats = _random_features(20, rng)
    truth = lambda f: 3.0 * f.dx_obj ** 2 - 1.2 * f.dx_obj * f.dpsi_obj + \
        0.4 * f.dpsi_obj ** 2 + 0.7 * f.dx_obj - 0.1 * f.dpsi_obj + 2.0
    B = np.array([[truth(f)] for f in feats])
    reg = fit_regression(B, feats)
    assert reg.r_squared[0] == pytest.approx(1.0, abs=1e-10)
    f = ObjectFeatures(0.13, 0.21)
    assert reg.predict(np.array([f.dx_obj]), np.array([f.dpsi_obj]))[0, 0] == \
        pytest.approx(truth(f), rel=1e-8)


def test_fit_regression_rejects_rank_deficient_poses():
    feats = [ObjectFeatures(0.1, 0.0)] * 8  # all identical
    with pytest.raises(RegressionRankError):
        fit_regression(np.zeros((8, 1)), feats)


def _predict_reference(W, dx, dpsi):
    """(n, d) coefficients by the per-term loop: acc + W[k, i, j] * q_i * q_j
    for i, j in order, from acc = 0."""
    q = (dx, dpsi, np.ones_like(dx))
    out = np.empty((len(dx), W.shape[0]))
    for k in range(W.shape[0]):
        acc = np.zeros_like(dx)
        for i in range(3):
            for j in range(3):
                acc = acc + W[k, i, j] * q[i] * q[j]
        out[:, k] = acc
    return out


def _landmarks_reference(pdm, b):
    """(n, m, 2) polygons by the per-coordinate loop: mean, then + b_k m_k."""
    out = np.empty((len(b), pdm.m, 2))
    for c, rows in enumerate((slice(None, pdm.m), slice(pdm.m, None))):
        acc = out[:, :, c]
        acc[...] = pdm.mean[rows]
        for k in range(pdm.d):
            acc += b[:, k:k + 1] * pdm.modes[rows, k]
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 100, 250, 600])
def test_predict_landmarks_equals_the_per_term_loops(gsm, n):
    """predict and predict_landmarks keep the bits of the per-term loops,
    for full 3 x 3 weights (a model file may set the lower triangle) over
    scales where a reordered sum would round differently, and for row
    counts below, at and across a prediction block."""
    rng = np.random.default_rng(n)
    for _ in range(20):
        W = rng.normal(size=(GSM_MODES, 3, 3)) * 10.0 ** rng.integers(-4, 5, (GSM_MODES, 3, 3))
        dx = rng.uniform(-0.5, 0.5, n) * 10.0 ** rng.integers(-3, 2)
        dpsi = rng.uniform(-np.pi, np.pi, n)
        model = GSMModel(pdm=gsm.pdm, regression=dataclasses.replace(gsm.regression, W=W))
        b = model.regression.predict(dx, dpsi)
        assert b.tobytes() == _predict_reference(W, dx, dpsi).tobytes()
        assert model.predict_landmarks(dx, dpsi).tobytes() == \
            _landmarks_reference(gsm.pdm, _predict_reference(W, dx, dpsi)).tobytes()


def test_deformation_warns_on_extrapolation(gsm):
    """boundary_for warns outside the training range, on either feature,
    and stays silent inside it or when asked to."""
    (lo_x, hi_x), (lo_p, hi_p) = (gsm.training_bounds[k] for k in ("dx_obj", "dpsi_obj"))
    for obj in (ObjectFeatures(hi_x + 0.1, 0.0), ObjectFeatures(lo_x / 2, 0.0),
                ObjectFeatures(0.14, hi_p + 0.1)):
        with pytest.warns(UserWarning, match="extrapolated"):
            gsm.boundary_for(obj)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gsm.boundary_for(ObjectFeatures(0.5 * (lo_x + hi_x), 0.5 * (lo_p + hi_p)))
        gsm.boundary_for(ObjectFeatures(hi_x + 0.1, 0.0), warn_extrapolation=False)


# ---------------------------------------------------------------------------
# full model
# ---------------------------------------------------------------------------

def test_gsm_save_load_round_trip(gsm, tmp_path):
    path = tmp_path / "model.json"
    gsm.save(path, {"seed": 42})
    assert json.loads(path.read_text())["header"] == {"seed": 42}
    back = GSMModel.load(path)
    np.testing.assert_array_equal(back.pdm.mean, gsm.pdm.mean)
    np.testing.assert_array_equal(back.pdm.modes, gsm.pdm.modes)
    np.testing.assert_array_equal(back.regression.W, gsm.regression.W)
    obj = ObjectFeatures(0.12, 0.2)
    np.testing.assert_array_equal(back.boundary_for(obj).landmarks,
                                  gsm.boundary_for(obj).landmarks)


def test_gsm_has_two_modes(gsm):
    assert gsm.pdm.d == GSM_MODES
    assert gsm.pdm.modes.shape[1] == 2


def test_gsm_boundary_tracks_handle_rotation(gsm):
    """The predicted region swings laterally with the object orientation."""
    left = gsm.boundary_for(ObjectFeatures(0.12, -0.4)).landmarks.mean(axis=0)
    right = gsm.boundary_for(ObjectFeatures(0.12, 0.4)).landmarks.mean(axis=0)
    assert right[1] - left[1] > 0.2


def test_predict_landmarks_rows_equal_boundary_for(gsm):
    """One prediction path: a row of a batch has the bits boundary_for gives
    for it alone, and both agree with the per-mode matrix formulas."""
    rng = np.random.default_rng(8)
    objs = [ObjectFeatures(rng.uniform(0.0, 0.3), rng.uniform(-0.8, 0.8))
            for _ in range(40)]
    batch = gsm.predict_landmarks(np.array([o.dx_obj for o in objs]),
                                  np.array([o.dpsi_obj for o in objs]))
    assert batch.shape == (40, gsm.pdm.m, 2)
    for k, obj in enumerate(objs):
        alone = gsm.boundary_for(obj, warn_extrapolation=False).landmarks
        np.testing.assert_array_equal(batch[k], alone)
        q = np.array([obj.dx_obj, obj.dpsi_obj, 1.0])
        b = np.array([q @ W @ q for W in gsm.regression.W])
        np.testing.assert_allclose(alone, _reconstruct(gsm.pdm, b), rtol=0, atol=1e-12)


def test_reconstruct_at_zero_coefficients_is_the_mean(gsm):
    landmarks = gsm.pdm.landmarks_for(np.zeros((1, 2)))[0]
    m = gsm.pdm.m
    np.testing.assert_allclose(landmarks[:, 0], gsm.pdm.mean[:m])
    np.testing.assert_allclose(landmarks[:, 1], gsm.pdm.mean[m:])


# traced peak of the training chain, in bytes: 5.0 MB measured, 5.2 MB when
# train_per_pose kept every record's position as a Python tuple, 13.9 MB
# when the pair table stacked a negated copy of K and the decision surfaces
# ran in blocks of 4,096 points
TRAINING_MEMORY_BUDGET = 6.5e6


def test_training_memory_stays_within_its_budget(pipeline):
    """train_per_pose on the session dataset, then train_gsm on the session
    classifiers, under tracemalloc. The SVMs train at kernel_sigma 0.02:
    that keeps every pose's 432 samples, so the kernel tables are the same
    size, in 36,503 pair steps instead of 165,935 (tracemalloc slows each
    step about 13-fold)."""
    tracemalloc.start()
    try:
        svms = train_per_pose(pipeline["data"], kernel_sigma=0.02)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a pose may trace two regions
            shapemodel.train_gsm(pipeline["svms"], pipeline["extraction_grid"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(svms) == 16
    assert peak <= TRAINING_MEMORY_BUDGET
