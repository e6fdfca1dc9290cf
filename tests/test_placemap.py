import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from arplace.classifier import points_in_polygon
from arplace.geometry import ObjectFeatures
from arplace.grids import ARPlaceGrid, GridSpec
from arplace.placemap import (_FILL_BLOCK, GaussianBelief, _fill_counts,
                              apply_robot_uncertainty, best_cell, compute_map, cost_map,
                              merge, resample_to, sample_boundaries, union_edges)

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


def test_belief_sampling_moments():
    cov = np.array([[0.04, 0.01, 0.0],
                    [0.01, 0.09, 0.0],
                    [0.0, 0.0, 0.25]])
    belief = GaussianBelief((0.2, -0.1, 0.3), cov)
    draws = belief.sample(np.random.default_rng(0), 200_000)
    np.testing.assert_allclose(draws.mean(axis=0), belief.mean_array(),
                               atol=5e-3)
    np.testing.assert_allclose(np.cov(draws.T), cov, atol=5e-3)


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
    polygons, shifts = sample_boundaries(gsm, belief, 3, rng=0)
    want = gsm.boundary_for(ObjectFeatures(0.14, hi), warn_extrapolation=False)
    np.testing.assert_array_equal(polygons[0], want.landmarks)


def test_sample_boundaries_shifts_by_lateral_mean(gsm):
    belief = GaussianBelief((0.14, 0.25, 0.0), np.zeros((3, 3)))
    polygons, shifts = sample_boundaries(gsm, belief, 2, rng=0)
    assert shifts[0] == pytest.approx(0.25)


def test_sample_boundaries_edge_distance_clamp_policy(gsm):
    """Edge distances are clamped to [0, dx_hi], not to [dx_lo, dx_hi]:
    draws below the training range extrapolate."""
    dx_lo, dx_hi = gsm.regression.training_bounds["dx_obj"]
    assert dx_lo > 0.0

    def drawn(dx):
        belief = GaussianBelief((dx, 0.0, 0.2), np.zeros((3, 3)))
        return sample_boundaries(gsm, belief, 1, rng=0)[0][0]

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
    pts = spec.center_points()
    counts = np.zeros(len(pts), dtype=np.int64)
    for poly, shift in zip(polygons, shifts):
        counts += points_in_polygon(poly, pts - np.array([0.0, shift]))
    return counts.reshape(spec.nx, spec.ny)


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
    "outside_on_every_side": [[[-1.0, -1.0], [5.0, -1.0], [5.0, 5.0], [-1.0, 5.0]],
                              [[-0.6, 0.7], [1.1, -0.9], [2.9, 0.8], [1.0, 2.6]],
                              [[3.0, 3.0], [4.0, 3.0], [4.0, 4.0], [3.0, 4.0]]],
}


@pytest.mark.parametrize("name", sorted(FILL_CASES))
@pytest.mark.parametrize("shift", [0.0, 0.25, -0.5, 0.1])
def test_fill_matches_even_odd_oracle_on_degenerate_cases(name, shift):
    polygons = np.array(FILL_CASES[name], dtype=float)
    shifts = np.full(len(polygons), shift)
    np.testing.assert_array_equal(_fill_counts(polygons, shifts, EXACT),
                                  _fill_oracle(polygons, shifts, EXACT))


def test_fill_matches_oracle_across_blocks():
    rng = np.random.default_rng(4)
    n = 2 * _FILL_BLOCK + 17
    polygons = rng.uniform(-0.2, 2.2, (n, 7, 2))
    shifts = rng.normal(0.0, 0.3, n)
    np.testing.assert_array_equal(_fill_counts(polygons, shifts, EXACT),
                                  _fill_oracle(polygons, shifts, EXACT))


def test_fill_of_point_belief_draws(gsm):
    belief = GaussianBelief((0.14, 0.1, 0.1), np.zeros((3, 3)))
    spec = GridSpec.covering(0.15, 1.05, -0.6, 0.6, 0.05)
    polygons, shifts = sample_boundaries(gsm, belief, 5, rng=0)
    counts = _fill_counts(polygons, shifts, spec)
    np.testing.assert_array_equal(counts, _fill_oracle(polygons, shifts, spec))
    assert set(np.unique(counts)) == {0, 5}


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
    np.testing.assert_array_equal(_fill_counts(polygons, shifts, spec),
                                  _fill_oracle(polygons, shifts, spec))


def test_compute_map_memory_does_not_grow_with_samples(gsm):
    belief = GaussianBelief.isotropic((0.14, 0.0, 0.0), 0.02, 0.1)
    spec = GridSpec.covering(0.15, 1.05, -0.8, 0.8, 0.025)

    def peak(n):
        tracemalloc.start()
        try:
            compute_map(gsm, belief, spec, n_samples=n, rng=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4000) <= 2 * peak(500)


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
    out = resample_to(a, shifted, fill=0.0)
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


def test_best_cell_smoothing_prefers_plateau_interiors():
    probs = np.zeros((10, 10))
    probs[1:6, 1:6] = 1.0   # 5x5 plateau
    probs[8, 8] = 1.0       # isolated spike of the same height
    spec = GridSpec(0.0, 0.0, 0.05, 10, 10)
    grid = ARPlaceGrid(spec=spec, probs=probs, frame="gsm")
    (i, j), p = best_cell(grid, smooth_radius=0.05)
    assert 2 <= i <= 4 and 2 <= j <= 4
    assert p == 1.0  # probability still read from the raw map
