import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from arplace import placemap
from arplace.classifier import points_in_polygon
from arplace.evaluation import candidate_grid_spec
from arplace.geometry import ObjectFeatures
from arplace.grids import ARPlaceGrid, GridSpec
from arplace.placemap import (_FILL_BLOCK, GaussianBelief, _fill_counts, apply_robot_uncertainty,
                              best_cell, compute_map, cost_map, merge, resample_to,
                              sample_boundaries, union_edges)

SPEC = GridSpec(0.0, -0.4, 0.05, 8, 10)

probs_arrays = arrays(np.float64, (8, 10),
                      elements=st.floats(0.0, 1.0, allow_nan=False))


def _grid(probs, frame="gsm", spec=SPEC):
    return ARPlaceGrid(spec=spec, probs=np.asarray(probs), frame=frame)


# ---------------------------------------------------------------------------
# beliefs
# ---------------------------------------------------------------------------

def test_belief_validation():
    with pytest.raises(ValueError):
        GaussianBelief((0.1, 0.0, 0.0), np.eye(2))
    with pytest.raises(ValueError):
        GaussianBelief((0.1, 0.0, 0.0), -np.eye(3))
    with pytest.raises(ValueError):
        GaussianBelief((0.1, 0.0, 0.0), np.diag([np.inf, 0.01, 0.01]))
    # a negative sigma no longer squares away, and one that overflows its
    # square is rejected too
    with pytest.raises(ValueError, match="sigma"):
        GaussianBelief.isotropic((0.1, 0.0, 0.0), -0.02, 0.1)
    with pytest.raises(ValueError, match="sigma"):
        GaussianBelief.isotropic((0.1, 0.0, 0.0), 0.02, np.nan)
    with pytest.raises(ValueError, match="finite"):
        GaussianBelief.isotropic((0.1, 0.0, 0.0), 1e200, 0.1)


def test_belief_sampling_moments():
    cov = np.array([[0.04, 0.01, 0.0],
                    [0.01, 0.09, 0.0],
                    [0.0, 0.0, 0.25]])
    belief = GaussianBelief((0.2, -0.1, 0.3), cov)
    draws = belief.sample(np.random.default_rng(0), 200_000)
    np.testing.assert_allclose(draws.mean(axis=0), belief.mean,
                               atol=5e-3)
    np.testing.assert_allclose(np.cov(draws.T), cov, atol=5e-3)


@pytest.mark.parametrize("cov", [
    np.array([[0.04, 0.01, 0.0], [0.01, 0.09, 0.002], [0.0, 0.002, 0.25]]),
    np.diag([0.01, 0.0, 0.04]),
    np.zeros((3, 3)),
], ids=["full", "semidefinite", "zero"])
def test_belief_sample_is_the_clipped_eigen_root(cov):
    """sample is mean + z @ root.T with root = evecs * sqrt(clip(evals, 0))
    of eigh(cov), bit for bit, for the standard normal z the rng draws."""
    mean = np.array([0.2, -0.1, 0.3])
    draws = GaussianBelief(tuple(mean), cov).sample(np.random.default_rng(4), 500)
    z = np.random.default_rng(4).standard_normal((500, 3))
    evals, evecs = np.linalg.eigh(cov)
    root = evecs * np.sqrt(np.clip(evals, 0.0, None))
    np.testing.assert_array_equal(draws, mean + z @ root.T)


@pytest.mark.parametrize("cov", [
    np.array([[0.04, 0.01, 0.0], [0.01, 0.09, 0.002], [0.0, 0.002, 0.25]]),
    np.array([[0.04, -0.0, 0.0], [-0.0, 0.09, 0.0], [0.0, 0.0, 0.25]]),
    np.diag([0.01, -0.0, 0.04]),
    np.asfortranarray([[0.04, 0.01 + 1e-13, 0.0], [0.01, 0.09, 0.0], [0.0, 0.0, 0.25]]),
], ids=["full", "negative_zero_off_diagonal", "negative_zero_diagonal", "fortran_order"])
def test_beliefs_of_equal_covariance_get_the_fresh_eigen_root(cov):
    """Beliefs of one covariance, built after beliefs of its +0.0 twin and
    of a neighbour 1e-13 off the diagonal, hold roots equal bit for bit to a
    fresh eigh factor of that covariance, signs of zeros included, and
    read-only."""
    evals, evecs = np.linalg.eigh(cov)
    want = (evecs * np.sqrt(np.clip(evals, 0.0, None))).tobytes()
    GaussianBelief((0.0, 0.0, 0.0), cov + 0.0)
    GaussianBelief((0.0, 0.0, 0.0), cov + 1e-13 * (1.0 - np.eye(3)))
    beliefs = [GaussianBelief((0.1, 0.0, 0.2), cov), GaussianBelief((0.0, 0.3, 0.0), cov.copy())]
    for belief in beliefs:
        assert belief.root.tobytes() == want
        assert not belief.root.flags.writeable


def _rejected_as_asymmetric(cov) -> bool:
    try:
        GaussianBelief((0.0, 0.0, 0.0), cov)
    except ValueError as e:
        return "symmetric" in str(e)
    return False


@st.composite
def _near_symmetric(draw):
    """A symmetric matrix plus, above the diagonal, perturbations of about
    the tolerance 1e-12 + 1e-5 |c| of np.allclose, so that both decisions
    occur and some fall on the boundary."""
    entries = st.one_of(st.floats(-1e3, 1e3, allow_nan=False),
                        st.sampled_from([0.0, 1e-13, -1e-7, 0.04]))
    sym = draw(arrays(np.float64, (3, 3), elements=entries))
    sym = np.triu(sym) + np.triu(sym, 1).T
    factor = draw(arrays(np.float64, (3, 3), elements=st.one_of(
        st.floats(-2.0, 2.0, allow_nan=False),
        st.sampled_from([1.0, -1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)]))))
    return sym + np.triu((1e-12 + 1e-5 * np.abs(sym)) * factor, 1)


@settings(max_examples=300, deadline=None)
@given(_near_symmetric())
def test_belief_symmetry_check_decides_as_allclose(cov):
    assert _rejected_as_asymmetric(cov) == (not np.allclose(cov, cov.T, atol=1e-12))


def _belief_refusal_reference(mean, cov):
    """The message with which GaussianBelief refused (mean, cov) when its
    checks ran on arrays, or None where it accepted them."""
    mean, cov = np.array(mean, dtype=float), np.array(cov, dtype=float)
    if mean.shape != (3,) or cov.shape != (3, 3):
        return "belief needs a 3-vector mean and 3x3 covariance"
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
        return "belief mean and covariance must be finite"
    with np.errstate(over="ignore"):
        if not np.all(np.abs(cov - cov.T) <= 1e-12 + 1e-5 * np.abs(cov.T)):
            return "covariance must be symmetric"
    if np.linalg.eigh(cov)[0][0] < -1e-12:
        return "covariance must be positive semidefinite"
    return None


_ODD_ENTRIES = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e308, -1e308, 5e-324, 1e-12]


@st.composite
def _odd_beliefs(draw):
    """Means and covariances with NaN, infinities, -0.0 and extremes among
    their entries, and an entry moved to either side of the symmetry
    tolerance 1e-12 + 1e-5 |c| of its mirror."""
    entries = st.one_of(st.floats(-1e3, 1e3, allow_nan=False), st.sampled_from(_ODD_ENTRIES))
    mean = draw(arrays(np.float64, (3,), elements=entries))
    base = draw(arrays(np.float64, (3, 3), elements=st.floats(-1.0, 1.0)))
    cov = base @ base.T * draw(st.sampled_from([1.0, 1e-9, 1e6]))
    i, j = draw(st.sampled_from([(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]))
    edge = 1e-12 + 1e-5 * abs(cov[j, i])
    step = draw(st.sampled_from([None, 1.0, -1.0, 0.5, 2.0]))
    if step is not None:
        cov[i, j] = cov[j, i] + step * edge
        for _ in range(draw(st.integers(-2, 2))):  # a float or two across the edge
            cov[i, j] = np.nextafter(cov[i, j], np.inf)
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        cov[a, b] = draw(st.sampled_from(_ODD_ENTRIES))
    return mean, cov


@settings(max_examples=400, deadline=None)
@given(_odd_beliefs())
def test_belief_accepts_and_refuses_as_the_array_checks_did(case):
    mean, cov = case
    want = _belief_refusal_reference(mean, cov)
    try:
        GaussianBelief(mean, cov)
        got = None
    except ValueError as e:
        got = str(e)
    assert got == want


def test_belief_accepts_semidefinite_covariance():
    belief = GaussianBelief((0.1, 0.0, 0.2), np.diag([0.01, 0.0, 0.04]))
    draws = belief.sample(np.random.default_rng(1), 1000)
    assert np.all(draws[:, 1] == 0.0)


# ---------------------------------------------------------------------------
# map computation
# ---------------------------------------------------------------------------

def test_compute_map_deterministic(gsm):
    belief = GaussianBelief.isotropic((0.14, 0.0, 0.0), 0.02, 0.1)
    spec = GridSpec.covering(0.15, 1.05, -0.6, 0.6, 0.05)
    a = compute_map(gsm, belief, spec, n_samples=50, rng=9)
    b = compute_map(gsm, belief, spec, n_samples=50, rng=9)
    np.testing.assert_array_equal(a.probs, b.probs)
    assert np.all((a.probs >= 0) & (a.probs <= 1))


def test_compute_map_point_belief_is_indicator(gsm):
    """A zero-covariance belief must give the 0/1 indicator of the single
    predicted boundary."""
    belief = GaussianBelief((0.14, 0.0, 0.1), np.zeros((3, 3)))
    spec = GridSpec.covering(0.15, 1.05, -0.6, 0.6, 0.05)
    grid = compute_map(gsm, belief, spec, n_samples=37, rng=0)
    boundary = gsm.boundary_for(ObjectFeatures(0.14, 0.1))
    want = boundary.contains(spec.center_points()).astype(float)
    np.testing.assert_array_equal(grid.probs.ravel(), want)


def test_sample_boundaries_clamps_to_training_range(gsm):
    lo, hi = gsm.regression.training_bounds["dpsi_obj"]
    belief = GaussianBelief((0.14, 0.0, hi + 5.0), np.zeros((3, 3)))
    polygons = sample_boundaries(gsm, belief, 3, rng=0)
    want = gsm.boundary_for(ObjectFeatures(0.14, hi), warn_extrapolation=False)
    np.testing.assert_array_equal(polygons[0], want.landmarks)


def test_sample_boundaries_shifts_by_lateral_mean(gsm):
    """Each boundary is the prediction translated by its draw: x is the
    prediction's and y the prediction's plus the lateral draw, exactly, with
    and without lateral variance."""
    want = gsm.boundary_for(ObjectFeatures(0.14, 0.0)).landmarks
    for cov in (np.zeros((3, 3)), np.diag([0.0, 0.04, 0.0])):
        belief = GaussianBelief((0.14, 0.25, 0.0), cov)
        polygons = sample_boundaries(gsm, belief, 4, rng=0)
        lateral = belief.sample(np.random.default_rng(0), 4)[:, 1]
        assert cov[1, 1] > 0 or (lateral == 0.25).all()
        np.testing.assert_array_equal(polygons[:, :, 0], np.tile(want[:, 0], (4, 1)))
        np.testing.assert_array_equal(polygons[:, :, 1], want[None, :, 1] + lateral[:, None])


def test_sample_boundaries_edge_distance_clamp_policy(gsm):
    """Edge distances are clamped to [0, dx_hi], not to [dx_lo, dx_hi]:
    draws below the training range extrapolate."""
    dx_lo, dx_hi = gsm.regression.training_bounds["dx_obj"]
    assert dx_lo > 0.0

    def drawn(dx):
        belief = GaussianBelief((dx, 0.0, 0.2), np.zeros((3, 3)))
        return sample_boundaries(gsm, belief, 1, rng=0)[0]

    def predicted(dx):
        return gsm.boundary_for(ObjectFeatures(dx, 0.2), warn_extrapolation=False).landmarks

    np.testing.assert_array_equal(drawn(-0.3), predicted(0.0))
    np.testing.assert_array_equal(drawn(dx_hi + 0.3), predicted(dx_hi))
    np.testing.assert_array_equal(drawn(dx_lo / 2), predicted(dx_lo / 2))
    assert not np.array_equal(drawn(dx_lo / 2), predicted(dx_lo))


# ---------------------------------------------------------------------------
# scanline fill against the per-point even-odd test
# ---------------------------------------------------------------------------

def _fill_oracle(polygons, shifts, spec):
    """Per-point even-odd counts of the polygons, polygon k translated by
    shifts[k] along y."""
    pts = spec.center_points()
    counts = np.zeros(len(pts), dtype=np.int64)
    for poly, shift in zip(polygons, shifts):
        counts += points_in_polygon(poly + np.array([0.0, shift]), pts)
    return counts.reshape(spec.nx, spec.ny)


def _translated(polygons, shifts):
    """The polygons translated along y as sample_boundaries translates them."""
    out = np.array(polygons, dtype=float)
    out[:, :, 1] += shifts[:, None]
    return out


# centers on multiples of 0.25, exact in binary, so the cases below put
# vertices and edges exactly on rows and crossings exactly on centers
EXACT = GridSpec(0.0, 0.0, 0.25, 9, 7)

FILL_CASES = {
    "vertex_on_row": [[[1.0, 0.25], [1.75, 0.75], [1.0, 1.25], [0.25, 0.75]]],
    "horizontal_edges": [[[0.5, 0.5], [1.5, 0.5], [1.5, 1.0], [0.5, 1.0]],
                         [[0.5, 1.0], [0.5, 0.5], [1.5, 0.5], [1.5, 1.0]]],
    "crossing_on_center_x": [[[0.5, 0.1], [0.5, 1.4], [1.25, 1.4], [1.25, 0.1]]],
    "several_spans_per_row": [[[0.0, 0.0], [2.0, 0.0], [2.0, 1.5], [1.5, 1.5],
                               [1.5, 0.5], [0.5, 0.5], [0.5, 1.5], [0.0, 1.5]]],
    # wholly below the first row, wholly above the last, and edges beyond both
    "edges_beyond_the_grid": [[[0.5, -1.0], [1.5, -1.0], [1.5, -0.2], [0.5, -0.2]],
                              [[0.5, 2.0], [1.5, 2.0], [1.5, 3.0], [0.5, 3.0]],
                              [[0.3, -0.7], [1.6, -0.9], [1.8, 2.4], [0.4, 2.2]]],
    "outside_on_every_side": [[[-1.0, -1.0], [5.0, -1.0], [5.0, 5.0], [-1.0, 5.0]],
                              [[-0.6, 0.7], [1.1, -0.9], [2.9, 0.8], [1.0, 2.6]],
                              [[3.0, 3.0], [4.0, 3.0], [4.0, 4.0], [3.0, 4.0]]],
}


@pytest.mark.parametrize("name", sorted(FILL_CASES))
@pytest.mark.parametrize("shift", [0.0, 0.25, -0.5, 0.1])
def test_fill_matches_even_odd_oracle_on_degenerate_cases(name, shift):
    polygons = np.array(FILL_CASES[name], dtype=float)
    shifts = np.full(len(polygons), shift)
    np.testing.assert_array_equal(_fill_counts(_translated(polygons, shifts), EXACT),
                                  _fill_oracle(polygons, shifts, EXACT))


def test_fill_matches_oracle_across_blocks():
    rng = np.random.default_rng(4)
    n = 2 * _FILL_BLOCK + 17
    polygons = rng.uniform(-0.2, 2.2, (n, 7, 2))
    shifts = rng.normal(0.0, 0.3, n)
    np.testing.assert_array_equal(_fill_counts(_translated(polygons, shifts), EXACT),
                                  _fill_oracle(polygons, shifts, EXACT))


def test_fill_matches_oracle_where_translated_vertices_land_on_rows():
    """Apexes that the translation by shift puts exactly on a row center,
    and one float under and over it. Each is the apex of a flat triangle
    whose base the translation puts on the row itself, so a row counted on
    the wrong side of an equal value adds or drops a whole span; an apex on
    the row makes a triangle that lies on it and contains no center. Each
    side is filled on its own, so an added and a dropped span cannot cancel."""
    spec, shift = GridSpec(0.0, 0.5, 0.1, 6, 12), 0.25
    ys = spec.centers()[1]
    shifts = np.full(len(ys), shift)
    for target in (ys, np.nextafter(ys, -np.inf), np.nextafter(ys, np.inf)):
        apex, base = target - shift, ys - shift
        # on this grid both differences are exact, so the translation hits the rows
        assert (apex + shift == target).all() and (base + shift == ys).all()
        polygons = np.stack([np.stack([np.full_like(apex, 0.25), apex], axis=-1),
                             np.stack([np.full_like(apex, 0.5), base], axis=-1),
                             np.stack([np.zeros_like(apex), base], axis=-1)], axis=1)
        np.testing.assert_array_equal(_fill_counts(_translated(polygons, shifts), spec),
                                      _fill_oracle(polygons, shifts, spec))


def test_fill_of_point_belief_draws(gsm):
    """Five draws of a belief fixed in edge distance and orientation: the
    fill of the sampled boundaries is the point test's. Without lateral
    variance every cell holds 0 or 5; with it the boundaries spread."""
    spec = GridSpec.covering(0.15, 1.05, -0.6, 0.6, 0.05)
    for lateral_var in (0.0, 0.01):
        belief = GaussianBelief((0.14, 0.1, 0.1), np.diag([0.0, lateral_var, 0.0]))
        polygons = sample_boundaries(gsm, belief, 5, rng=0)
        counts = _fill_counts(polygons, spec)
        np.testing.assert_array_equal(counts, _fill_oracle(polygons, np.zeros(5), spec))
        if lateral_var == 0.0:
            assert set(np.unique(counts)) == {0, 5}
    assert len(np.unique(counts)) > 2


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 9), st.integers(1, 5), st.integers(1, 9), st.integers(1, 9),
       st.data())
def test_fill_matches_oracle_with_vertices_on_cell_centers(m, n, nx, ny, data):
    """Every vertex on a cell center, or one cell beyond the grid, and every
    shift a whole number of cells, so that vertices sit on rows and vertical
    edges cross rows exactly at centers."""
    spec = GridSpec(0.0, 0.0, 0.25, nx, ny)
    centers = st.integers(-1, max(nx, ny)).map(lambda k: 0.25 * k)
    polygons = data.draw(arrays(np.float64, (n, m, 2), elements=centers))
    shifts = data.draw(arrays(np.float64, (n,), elements=st.integers(-3, 3).map(
        lambda k: 0.25 * k)))
    np.testing.assert_array_equal(_fill_counts(_translated(polygons, shifts), spec),
                                  _fill_oracle(polygons, shifts, spec))


_snapped = st.integers(-4, 12).map(lambda k: 0.25 * k)
_coords = st.one_of(_snapped, st.floats(-1.0, 3.0, allow_nan=False))


@st.composite
def _fill_inputs(draw):
    m = draw(st.integers(3, 9))
    n = draw(st.integers(1, 4))
    polygons = draw(arrays(np.float64, (n, m, 2), elements=_coords))
    shifts = draw(arrays(np.float64, (n,), elements=st.one_of(
        _snapped, st.floats(-1.0, 1.0, allow_nan=False))))
    spec = GridSpec(draw(st.sampled_from([0.0, -0.25, 0.1])),
                    draw(st.sampled_from([0.0, -0.5, 0.05])),
                    draw(st.sampled_from([0.25, 0.5, 0.3])),
                    draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    return polygons, shifts, spec


@settings(max_examples=200, deadline=None)
@given(_fill_inputs())
def test_fill_matches_oracle_on_random_polygons(case):
    polygons, shifts, spec = case
    np.testing.assert_array_equal(_fill_counts(_translated(polygons, shifts), spec),
                                  _fill_oracle(polygons, shifts, spec))


# sha256 of compute_map(gsm, isotropic(mean, sigma, sigma), candidate grid,
# n_samples=n, rng=3).probs.tobytes() on the session model; the scanline fill
# must keep these bytes
MAP_BYTES = {
    "sigma_0": ((0.14, 0.0, 0.1), 0.0, 250,
                "9a4a0ce6720af8de90d5577c79c9857239812c5214fdad9f1a23fcbcb5ea70ae"),
    "sigma_0.05": ((0.14, 0.0, 0.1), 0.05, 250,
                   "503c5c43fa26197e1a27e637c812a5ab2377e420bc46d06250f65b9aeafbec79"),
    "sigma_0.2": ((0.14, 0.0, 0.1), 0.2, 250,
                  "3d1f6cd36b11c136876400b9cdca7ca69775efda59ce21fd2d79cc93b3a78d6d"),
    "lateral_shift": ((0.14, 0.12, 0.1), 0.05, 250,
                      "2b9847d9969cde57fd966f3fc0dadf7f5401b2ef4e8e79b45c967064b4a59309"),
    "two_blocks": ((0.14, 0.0, 0.1), 0.05, 400,
                   "565c4e067cc438f96e3d7ede55f03bfd0efeaa49f4d0577b3c14adcf39e976d7"),
}


@pytest.mark.parametrize("name", sorted(MAP_BYTES))
def test_compute_map_keeps_its_bytes(gsm, name):
    mean, sigma, n, sha = MAP_BYTES[name]
    assert name != "two_blocks" or _FILL_BLOCK < n <= 2 * _FILL_BLOCK
    grid = compute_map(gsm, GaussianBelief.isotropic(mean, sigma, sigma),
                       candidate_grid_spec(), n_samples=n, rng=3)
    assert hashlib.sha256(grid.probs.tobytes()).hexdigest() == sha


def test_compute_map_memory_does_not_grow_with_samples(gsm):
    """Eight times the samples take at most twice the peak, and the working
    memory beyond the (n, m, 2) float polygons that the call must hold does
    not grow by more than 15%. Measured peaks with numpy 2.4 (m = 20, a
    37 x 65 grid): 1.41 MB at n = 500 and 2.61 MB at n = 4,000, of which
    0.16 and 1.28 MB are polygons, leaving 1.25 and 1.33 MB."""
    belief = GaussianBelief.isotropic((0.14, 0.0, 0.0), 0.02, 0.1)
    spec = GridSpec.covering(0.15, 1.05, -0.8, 0.8, 0.025)
    polygon_bytes = len(gsm.pdm.mean) * 8  # m points of 2 floats per sample

    def peak(n):
        tracemalloc.start()
        try:
            compute_map(gsm, belief, spec, n_samples=n, rng=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peaks = {n: peak(n) for n in (500, 4000)}
    assert peaks[4000] <= 2 * peaks[500]
    assert peaks[4000] - 4000 * polygon_bytes <= 1.15 * (peaks[500] - 500 * polygon_bytes)


# ---------------------------------------------------------------------------
# robot uncertainty
# ---------------------------------------------------------------------------

def _convolve_reference(grid, sigma):
    """Independent oracle: dense kernel-weighted average over all cells."""
    pts = grid.spec.center_points()
    p = grid.probs.ravel()
    out = np.empty_like(p)
    for k in range(len(pts)):
        w = np.exp(-0.5 * np.sum((pts - pts[k]) ** 2, axis=1) / sigma ** 2)
        out[k] = float(np.sum(w * p) / np.sum(w))
    return out.reshape(grid.probs.shape)


def test_robot_uncertainty_matches_dense_average_oracle():
    """At sigma 0.2 the 6-sigma cut-off (24 cells) is wider than the 8x10
    grid on both axes."""
    rng = np.random.default_rng(2)
    grid = _grid(rng.uniform(0, 1, (8, 10)))
    for sigma in (0.05, 0.2):
        got = apply_robot_uncertainty(grid, sigma)
        np.testing.assert_allclose(got.probs, _convolve_reference(grid, sigma), atol=1e-9)


@pytest.mark.parametrize("sigma", [-0.05, np.nan, np.inf])
def test_robot_uncertainty_rejects_a_bad_sigma(sigma):
    with pytest.raises(ValueError):
        apply_robot_uncertainty(_grid(np.full((8, 10), 0.5)), sigma)


def test_robot_uncertainty_zero_is_identity():
    rng = np.random.default_rng(4)
    grid = _grid(rng.uniform(0, 1, (8, 10)))
    out = apply_robot_uncertainty(grid, 0.0)
    np.testing.assert_array_equal(out.probs, grid.probs)


def test_robot_uncertainty_at_extreme_sigmas():
    """A sigma whose square underflows is the identity; one whose square
    overflows gives every cell the mean of the map."""
    grid = _grid(np.random.default_rng(5).uniform(0, 1, (8, 10)))
    np.testing.assert_array_equal(apply_robot_uncertainty(grid, 1e-200).probs, grid.probs)
    np.testing.assert_allclose(apply_robot_uncertainty(grid, 1e300).probs,
                               grid.probs.mean(), atol=1e-12)


def test_robot_uncertainty_preserves_uniform_maps():
    grid = _grid(np.full((8, 10), 0.37))
    out = apply_robot_uncertainty(grid, 0.05)
    np.testing.assert_allclose(out.probs, 0.37, atol=1e-12)


def test_robot_uncertainty_smooths_towards_the_mean():
    probs = np.zeros((8, 10))
    probs[4, 5] = 1.0
    out = apply_robot_uncertainty(_grid(probs), 0.05)
    assert out.probs[4, 5] < 1.0
    assert out.probs[4, 6] > 0.0


def _full_grid_reference(grid, sigma):
    """The offset loop over every destination cell of the grid, as it ran
    before the convolution was limited to the box around the map's steps."""
    var = sigma * sigma
    if var == 0.0:
        return grid.probs.copy()
    h = grid.spec.cell_size
    p = grid.probs
    num = np.zeros_like(p)
    den = np.zeros_like(p)
    nx, ny = p.shape
    r = math.ceil(min(6.0 * sigma / h, max(nx, ny)))
    ri, rj = min(r, nx - 1), min(r, ny - 1)
    for di in range(-ri, ri + 1):
        for dj in range(-rj, rj + 1):
            w = math.exp(-0.5 * ((di * h) ** 2 + (dj * h) ** 2) / var)
            if w < 1e-13:
                continue
            src_i = slice(max(di, 0), nx + min(di, 0))
            dst_i = slice(max(-di, 0), nx + min(-di, 0))
            src_j = slice(max(dj, 0), ny + min(dj, 0))
            dst_j = slice(max(-dj, 0), ny + min(-dj, 0))
            num[dst_i, dst_j] += w * (p[src_i, src_j] - p[dst_i, dst_j])
            den[dst_i, dst_j] += w
    return np.clip(p + num / den, 0.0, 1.0)


def _assert_same_bytes_as_full_grid(probs, sigma, cell=0.025):
    probs = np.asarray(probs, dtype=float)
    grid = _grid(probs, spec=GridSpec(0.0, 0.0, cell, *probs.shape))
    assert apply_robot_uncertainty(grid, sigma).probs.tobytes() == \
        _full_grid_reference(grid, sigma).tobytes()


PERCENT = st.integers(0, 100).map(lambda k: k / 100)


@st.composite
def plateau_maps(draw):
    """A map of a few plateau values, each painted on a random rectangle
    over a background plateau; -0.0, tiny values, the two floats below 1.0,
    the k/100 of a 100-sample map and the products of two such are among
    them. A quarter of the maps are one row, and a quarter one column."""
    nx, ny = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    nx, ny = draw(st.sampled_from([(nx, ny), (nx, ny), (1, ny), (nx, 1)]))
    values = (st.sampled_from([0.0, -0.0, 1.0, 0.5, 0.3, 0.999, 1e-300, 1.0 - 2.0 ** -52,
                               1.0 - 2.0 ** -53])
              | PERCENT | st.tuples(PERCENT, PERCENT).map(lambda kl: kl[0] * kl[1]))
    probs = np.full((nx, ny), draw(values))
    for _ in range(draw(st.integers(0, 4))):
        i0, i1 = sorted(draw(st.integers(0, nx)) for _ in range(2))
        j0, j1 = sorted(draw(st.integers(0, ny)) for _ in range(2))
        probs[i0:i1, j0:j1] = draw(values)
    return probs


@settings(max_examples=200, deadline=None)
@given(plateau_maps(), st.sampled_from([0.004, 0.01, 0.02, 0.03, 0.05, 0.2]))
def test_robot_uncertainty_box_is_exact_on_plateau_maps(probs, sigma):
    _assert_same_bytes_as_full_grid(probs, sigma)


@pytest.mark.parametrize("value", [0.0, -0.0, 0.37, 1.0])
def test_robot_uncertainty_of_a_constant_map_is_an_exact_copy(value):
    probs = np.full((12, 9), value)
    _assert_same_bytes_as_full_grid(probs, 0.05)
    out = apply_robot_uncertainty(_grid(probs, spec=GridSpec(0.0, 0.0, 0.025, 12, 9)), 0.05)
    np.testing.assert_array_equal(out.probs, 0.0 + probs)
    assert out.probs is not probs


@pytest.mark.parametrize("cell", [(0, 0), (0, 23), (19, 0), (19, 23),
                                  (0, 11), (19, 11), (9, 0), (9, 23), (9, 11)])
@pytest.mark.parametrize("background", [0.0, 1.0])
def test_robot_uncertainty_box_is_exact_for_one_changed_cell(cell, background):
    """One cell at each corner, on each border and inside a 20x24 map; at
    sigma 0.02 the reach is 5 cells, so most of the map lies outside the
    box."""
    probs = np.full((20, 24), background)
    probs[cell] = 0.6
    _assert_same_bytes_as_full_grid(probs, 0.02)


@pytest.mark.parametrize("shape", [(1, 30), (30, 1), (1, 1), (2, 1)])
def test_robot_uncertainty_box_is_exact_on_single_row_and_column_grids(shape):
    probs = np.zeros(shape)
    probs.flat[len(probs.flat) // 2] = 1.0
    probs.flat[-1] = 0.4
    for sigma in (0.01, 0.05):
        _assert_same_bytes_as_full_grid(probs, sigma)


@pytest.mark.parametrize("sigma", [0.2, 1e300, 1e-200])
def test_robot_uncertainty_box_is_exact_at_wide_and_extreme_sigmas(sigma):
    """At 0.2 the 6-sigma reach (48 cells) is wider than the grid; 1e300
    makes every weight 1 and 1e-200 is the identity."""
    probs = np.zeros((20, 24))
    probs[3:7, 15:18] = 1.0
    probs[12, 4] = 0.25
    _assert_same_bytes_as_full_grid(probs, sigma)


# ---------------------------------------------------------------------------
# map algebra (exact identities)
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(probs_arrays, probs_arrays)
def test_merge_commutative(pa, pb):
    a, b = _grid(pa), _grid(pb)
    np.testing.assert_allclose(merge(a, b).probs, merge(b, a).probs,
                               atol=1e-12, rtol=0)


@settings(max_examples=50, deadline=None)
@given(probs_arrays, probs_arrays, probs_arrays)
def test_merge_associative(pa, pb, pc):
    a, b, c = _grid(pa), _grid(pb), _grid(pc)
    left = merge(merge(a, b), c).probs
    right = merge(a, merge(b, c)).probs
    np.testing.assert_allclose(left, right, atol=1e-12, rtol=0)


@settings(max_examples=50, deadline=None)
@given(probs_arrays)
def test_merge_identity_and_annihilator(pa):
    a = _grid(pa)
    ones = _grid(np.ones((8, 10)))
    zeros = _grid(np.zeros((8, 10)))
    np.testing.assert_array_equal(merge(a, ones).probs, a.probs)
    np.testing.assert_array_equal(merge(a, zeros).probs, 0.0)


@settings(max_examples=50, deadline=None)
@given(probs_arrays, probs_arrays)
def test_union_is_cellwise_max_and_commutative(pa, pb):
    a, b = _grid(pa), _grid(pb)
    u = union_edges([a, b])
    np.testing.assert_array_equal(u.probs, np.maximum(pa, pb))
    np.testing.assert_array_equal(u.probs, union_edges([b, a]).probs)


@settings(max_examples=50, deadline=None)
@given(probs_arrays)
def test_union_idempotent(pa):
    a = _grid(pa)
    np.testing.assert_array_equal(union_edges([a, a]).probs, a.probs)


def test_union_covers_disjoint_extents():
    a = _grid(np.full((8, 10), 0.5))
    spec_b = GridSpec(SPEC.origin_x + 8 * SPEC.cell_size, SPEC.origin_y,
                      SPEC.cell_size, 4, 10)
    b = _grid(np.full((4, 10), 0.8), spec=spec_b)
    u = union_edges([a, b])
    assert u.spec.nx == 12
    assert u.probs[0, 0] == 0.5 and u.probs[11, 0] == 0.8


def _union_edges_reference(maps):
    """The explicit placement union_edges must reproduce: each map written
    into its slot of the union extent by np.maximum, missing cells 0."""
    cell = maps[0].spec.cell_size
    x0 = min(m.spec.origin_x for m in maps)
    y0 = min(m.spec.origin_y for m in maps)
    nx = max(int(round((m.spec.origin_x - x0) / cell)) + m.spec.nx for m in maps)
    ny = max(int(round((m.spec.origin_y - y0) / cell)) + m.spec.ny for m in maps)
    probs = np.zeros((nx, ny))
    for m in maps:
        i0 = int(round((m.spec.origin_x - x0) / cell))
        j0 = int(round((m.spec.origin_y - y0) / cell))
        region = probs[i0:i0 + m.spec.nx, j0:j0 + m.spec.ny]
        np.maximum(region, m.probs, out=region)
    return GridSpec(x0, y0, cell, nx, ny), probs


@pytest.mark.parametrize("placements", [
    [(0, 0, 8, 10), (3, -4, 9, 7), (-2, 5, 4, 12)],   # overlapping
    [(0, 0, 8, 10), (8, 0, 4, 10), (20, -15, 3, 3)],  # disjoint
    [(0, 0, 8, 10), (2, 3, 3, 4), (1, 1, 1, 1)],      # nested
], ids=["overlapping", "disjoint", "nested"])
def test_union_edges_equals_the_explicit_placement(placements):
    rng = np.random.default_rng(3)
    maps = [_grid(rng.uniform(0, 1, (nx, ny)),
                  spec=GridSpec(SPEC.origin_x + i * SPEC.cell_size,
                                SPEC.origin_y + j * SPEC.cell_size, SPEC.cell_size, nx, ny))
            for i, j, nx, ny in placements]
    spec, probs = _union_edges_reference(maps)
    for order in (maps, maps[::-1]):
        u = union_edges(order)
        assert u.spec == spec
        np.testing.assert_array_equal(u.probs, probs)


def test_union_rejects_misaligned_lattices():
    a = _grid(np.zeros((8, 10)))
    off = GridSpec(SPEC.origin_x + 0.013, SPEC.origin_y, SPEC.cell_size, 8, 10)
    b = _grid(np.zeros((8, 10)), spec=off)
    with pytest.raises(ValueError):
        union_edges([a, b])


def test_merge_rejects_mismatched_geometry_or_frame():
    a = _grid(np.zeros((8, 10)))
    with pytest.raises(ValueError):
        merge(a, _grid(np.zeros((8, 10)), frame="world"))
    other = GridSpec(0.1, -0.4, 0.05, 8, 10)
    with pytest.raises(ValueError):
        merge(a, _grid(np.zeros((8, 10)), spec=other))


def test_resample_to_same_spec_is_identity():
    rng = np.random.default_rng(5)
    a = _grid(rng.uniform(0, 1, (8, 10)))
    out = resample_to(a, SPEC)
    np.testing.assert_array_equal(out.probs, a.probs)


def test_resample_to_shifted_spec_uses_nearest_cells():
    rng = np.random.default_rng(6)
    a = _grid(rng.uniform(0, 1, (8, 10)))
    shifted = GridSpec(SPEC.origin_x + SPEC.cell_size, SPEC.origin_y,
                       SPEC.cell_size, 8, 10)
    out = resample_to(a, shifted)
    np.testing.assert_array_equal(out.probs[:7], a.probs[1:])
    np.testing.assert_array_equal(out.probs[7], 0.0)


def test_cost_map_formula_oracle():
    rng = np.random.default_rng(7)
    a = _grid(rng.uniform(0, 1, (8, 10)))
    robot = (1.0, 0.5)
    cg = cost_map(a, robot, retry_penalty_s=5.0, nav_speed_mps=0.25)
    for i, j in [(0, 0), (3, 4), (7, 9)]:
        x, y = SPEC.cell_center(i, j)
        want = (1.0 - a.probs[i, j]) * 5.0 + \
            np.hypot(x - robot[0], y - robot[1]) / 0.25
        assert cg.costs[i, j] == pytest.approx(want, rel=1e-12)


def test_best_cell_and_tie_break():
    probs = np.zeros((8, 10))
    probs[2, 3] = 0.9
    probs[5, 1] = 0.9
    grid = _grid(probs)
    (i, j), p = best_cell(grid)
    assert (i, j) == (2, 3) and p == 0.9


@given(probs_arrays)
@settings(max_examples=50, deadline=None)
def test_best_cell_at_radius_zero_is_the_plain_argmax(probs):
    """Radius 0 smooths nothing: the first maximal cell in row-major order,
    read from the map itself."""
    probs = np.round(probs, 1)  # ties are common
    ij, p = best_cell(_grid(probs), 0.0)
    assert ij == np.unravel_index(np.argmax(probs), probs.shape)
    assert p == probs.max()


def test_best_cell_rejects_a_negative_radius():
    with pytest.raises(ValueError):
        best_cell(_grid(np.zeros((8, 10))), -0.01)


def test_best_cell_smoothing_prefers_plateau_interiors():
    probs = np.zeros((10, 10))
    probs[1:6, 1:6] = 1.0   # 5x5 plateau
    probs[8, 8] = 1.0       # isolated spike of the same height
    spec = GridSpec(0.0, 0.0, 0.05, 10, 10)
    grid = ARPlaceGrid(spec=spec, probs=probs, frame="gsm")
    (i, j), p = best_cell(grid, smooth_radius=0.05)
    assert 2 <= i <= 4 and 2 <= j <= 4
    assert p == 1.0  # probability still read from the raw map


def _margin(sigma, cell, shape):
    """(2n+5) S 2**-53 for the n offsets, of weight sum S, that the
    robot-noise kernel keeps on this map shape: a gap from the maximum near
    it is where a smoothed cell below the maximum can round up to it."""
    nx, ny = shape
    r = math.ceil(min(6.0 * sigma / cell, max(nx, ny)))
    ri, rj = min(r, nx - 1), min(r, ny - 1)
    w = [math.exp(-0.5 * ((a * cell) ** 2 + (b * cell) ** 2) / sigma ** 2)
         for a in range(-ri, ri + 1) for b in range(-rj, rj + 1)]
    w = [wt for wt in w if wt >= 1e-13]
    return (2 * len(w) + 5) * math.fsum(w) * 2.0 ** -53


@st.composite
def tie_break_cases(draw):
    """(probs, sigma, cell): a plateau map, a radius of 0.2 to 40 cells (past
    every grid's extent), and in half the cases the map's second value moved
    to a gap from its maximum of 0.5 to 10**6 times _margin."""
    probs = draw(plateau_maps())
    cell = draw(st.sampled_from([0.025, 0.05]))
    sigma = cell * draw(st.sampled_from([0.2, 0.3, 0.5, 0.8, 1.0, 1.5, 2.5, 5.0, 40.0]))
    top = probs.max()
    lower = probs[probs < top]
    if len(lower) and draw(st.booleans()):
        gap = draw(st.sampled_from([0.5, 0.99, 1.01, 2.0, 1e3, 1e6])) * \
            _margin(sigma, cell, probs.shape)
        probs = np.where(probs == lower.max(), max(top - gap, 0.0), probs)
    return probs, sigma, cell


@settings(max_examples=400, deadline=None)
@given(tie_break_cases())
def test_best_cell_is_the_argmax_of_the_full_smoothing(case):
    """best_cell finds the cell the full smoothing would, on every map: with
    and without a plateau, at gaps within and beyond the margin."""
    probs, sigma, cell = case
    grid = _grid(probs, spec=GridSpec(0.0, 0.0, cell, *probs.shape))
    ij, p = best_cell(grid, sigma)
    flat = int(np.argmax(_full_grid_reference(grid, sigma)))
    assert ij == divmod(flat, probs.shape[1])
    assert p == float(probs[ij])


def test_the_first_plateau_cell_whose_window_is_all_maximum_wins():
    """A 13x14 plateau of 1.0 holds an all-1.0 window of 11x11 cells (reach
    5 at sigma 0.02 on 0.025-m cells): the first such cell smooths to 1.0
    and wins over the plateau's cells before it."""
    probs = np.full((20, 24), 0.3)
    probs[3:16, 4:18] = 1.0
    probs[3, 4] = 0.99
    grid = _grid(probs, spec=GridSpec(0.0, 0.0, 0.025, 20, 24))
    want = divmod(int(np.argmax(_full_grid_reference(grid, 0.02))), 24)
    assert best_cell(grid, 0.02) == (want, 1.0)


def test_a_lower_neighbour_within_half_an_ulp_leaves_the_corner_cell_the_argmax():
    """At sigma 0.01 on 0.05-m cells the diagonal weight is exp(-25), about
    1.4e-11: the 1e-6 drop at (1, 1) moves (0, 0)'s smoothed value by less
    than half an ulp of 1.0, so (0, 0) smooths to 1.0 and is the argmax,
    although its window holds a lower cell and (0, 4) is the first cell
    whose window does not."""
    probs = np.ones((20, 9))
    probs[1, 1] = 1.0 - 1e-6
    grid = _grid(probs, spec=GridSpec(0.0, 0.0, 0.05, 20, 9))
    assert int(np.argmax(_full_grid_reference(grid, 0.01))) == 0
    assert best_cell(grid, 0.01) == ((0, 0), 1.0)


def test_a_corner_cell_renormalized_over_its_on_grid_weights_smooths_below_the_maximum():
    """A 20x9 map at 1.0 but for (1, 1) at 1 - 4.0e-6, at sigma 0.01 on
    0.05-m cells (reach 2, 3x3 offsets kept): (0, 0)'s one nonzero term,
    about -5.6e-17, divided by its weights on the grid (1 + 7.5e-6) lies
    just beyond half an ulp below 1.0, and divided by the whole kernel's
    (1 + 1.5e-5) just within. So (0, 0) smooths below 1.0, and the argmax
    is a later cell."""
    probs = np.ones((20, 9))
    probs[1, 1] = 0.9999960028949523
    grid = _grid(probs, spec=GridSpec(0.0, 0.0, 0.05, 20, 9))
    flat = int(np.argmax(_full_grid_reference(grid, 0.01)))
    assert flat > 0
    assert best_cell(grid, 0.01) == (divmod(flat, 9), 1.0)


def test_a_cell_one_ulp_below_the_maximum_can_smooth_to_it():
    """(0, 0) at 1 - 2**-53 among cells at 1.0 smooths to exactly 1.0 and is
    the argmax: a gap within the margin runs the full smoothing."""
    probs = np.ones((12, 12))
    probs[0, 0] = 1.0 - 2.0 ** -53
    grid = _grid(probs, spec=GridSpec(0.0, 0.0, 0.025, 12, 12))
    assert _full_grid_reference(grid, 0.02)[0, 0] == 1.0
    assert best_cell(grid, 0.02) == ((0, 0), 1.0 - 2.0 ** -53)


def test_best_cell_smooths_once_and_an_isolated_spike_loses(monkeypatch):
    """With one cell at the maximum no window is all maximum, and the
    argmax comes from apply_robot_uncertainty."""
    probs = np.full((20, 24), 0.5)
    probs[8:16, 6:18] = 0.8
    probs[2, 20] = 0.9
    grid = _grid(probs, spec=GridSpec(0.0, 0.0, 0.025, 20, 24))
    calls = []
    smooth = placemap.apply_robot_uncertainty
    monkeypatch.setattr(placemap, "apply_robot_uncertainty",
                        lambda g, s: calls.append(s) or smooth(g, s))
    ij, p = best_cell(grid, 0.02)
    assert calls == [0.02]
    assert ij == divmod(int(np.argmax(_full_grid_reference(grid, 0.02))), 24)
    assert ij != (2, 20) and p == 0.8


def test_best_cell_at_radius_zero_reads_the_map_without_smoothing(monkeypatch):
    """Radius 0 (and -0.0) takes the argmax of grid.probs itself: no
    apply_robot_uncertainty call, so no copy of the map."""
    probs = np.full((20, 24), 0.5)
    probs[8:16, 6:18] = 0.8
    probs[2, 20] = 0.9
    grid = _grid(probs, spec=GridSpec(0.0, 0.0, 0.025, 20, 24))
    calls = []
    smooth = placemap.apply_robot_uncertainty
    monkeypatch.setattr(placemap, "apply_robot_uncertainty",
                        lambda g, s: calls.append(s) or smooth(g, s))
    assert best_cell(grid, 0.0) == ((2, 20), 0.9)
    assert best_cell(grid, -0.0) == ((2, 20), 0.9)
    assert best_cell(grid) == ((2, 20), 0.9)
    assert calls == []


def test_best_cell_at_an_underflowing_radius_is_the_plain_argmax():
    """1e-200 squared is 0: the map itself, first maximal cell."""
    probs = np.zeros((10, 10))
    probs[1:6, 1:6] = 1.0
    grid = _grid(probs, spec=GridSpec(0.0, 0.0, 0.05, 10, 10))
    assert best_cell(grid, 1e-200) == ((1, 1), 1.0)


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, -1e-300])
def test_best_cell_refuses_a_radius_that_is_not_finite_and_non_negative(radius):
    with pytest.raises(ValueError, match="robot sigma must be finite and non-negative"):
        best_cell(_grid(np.zeros((8, 10))), radius)
