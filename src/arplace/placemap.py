"""Success-probability place maps.

A map assigns each candidate robot cell the probability that a grasp from
there succeeds, given a Gaussian belief over the object pose. Maps are built
by Monte-Carlo sampling boundaries from the generalized success model, can be
conditioned on robot position uncertainty, and support merging (joint success
for several objects), cellwise maxima, resampling, and conversion to a
navigation cost map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import wrap_angle
from .grids import ARPlaceGrid, CostGrid, GridSpec
from .shapemodel import GSMModel

DEFAULT_N_SAMPLES = 100


@dataclass(frozen=True, eq=False)
class GaussianBelief:
    """Gaussian belief over object displacement (dx_obj, dy_obj, dpsi_obj):
    distance from the table edge, lateral position along it, orientation.

    The covariance is checked and factored once, by one eigendecomposition:
    root = evecs * sqrt(clip(evals, 0)), so semidefinite beliefs are accepted
    and root @ root.T is the covariance. mean, cov and root are read-only
    float arrays."""

    mean: np.ndarray  # (3,)
    cov: np.ndarray   # (3, 3)
    root: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float)
        cov = np.array(self.cov, dtype=float)
        if mean.shape != (3,) or cov.shape != (3, 3):
            raise ValueError("belief needs a 3-vector mean and 3x3 covariance")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("belief mean and covariance must be finite")
        # np.allclose(cov, cov.T, atol=1e-12) spelled out, for finite entries
        if not np.all(np.abs(cov - cov.T) <= 1e-12 + 1e-5 * np.abs(cov.T)):
            raise ValueError("covariance must be symmetric")
        evals, evecs = np.linalg.eigh(cov)
        if evals[0] < -1e-12:
            raise ValueError("covariance must be positive semidefinite")
        root = evecs * np.sqrt(np.clip(evals, 0.0, None))
        for name, a in (("mean", mean), ("cov", cov), ("root", root)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @classmethod
    def isotropic(cls, mean, sigma_xy: float, sigma_psi: float) -> "GaussianBelief":
        """Belief with independent axes of standard deviation sigma_xy,
        sigma_xy and sigma_psi. A negative or non-finite sigma raises
        ValueError, and so does one whose square overflows."""
        for sigma in (sigma_xy, sigma_psi):
            if not (math.isfinite(sigma) and sigma >= 0.0):
                raise ValueError(f"belief sigma must be finite and non-negative, found {sigma}")
        return cls(mean, np.diag([sigma_xy * sigma_xy, sigma_xy * sigma_xy,
                                  sigma_psi * sigma_psi]))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """(n, 3) samples mean + z @ root.T of standard normal z."""
        return self.mean + rng.standard_normal((n, 3)) @ self.root.T


_FILL_BLOCK = 256  # polygons rasterized together; bounds the working memory


def _fill_counts(polygons: np.ndarray, shifts: np.ndarray, spec: GridSpec) -> np.ndarray:
    """(nx, ny) number of polygons containing each cell center, polygon k
    translated by shifts[k] along y.

    Even-odd scanline fill. Row j of polygon k lies at ys[j] - shifts[k].
    The number of rows strictly below each vertex is estimated by one
    division and then stepped to the exact count against those floats, so
    an edge crosses exactly the rows between the counts of its two end
    points. Each crossing is intersected with its row using the float
    expressions of classifier.points_in_polygon and becomes k, the number of
    cell centers strictly to its left. Sorted per (polygon, row), the
    crossings k1 <= k2 <= ... bound the inside spans [k1, k2), [k3, k4), ...;
    a difference array and a cumulative sum turn the spans into counts.
    Every membership decision equals points_in_polygon's on center_points()
    - [0, shift]. The work is m row lookups per polygon plus one step per
    crossing.
    """
    xs, ys = spec.centers()
    nx, ny = spec.nx, spec.ny
    width = nx + 1
    size = ny * width
    diff = np.zeros(size, dtype=np.int64)
    for start in range(0, len(polygons), _FILL_BLOCK):
        block = polygons[start:start + _FILL_BLOCK]
        nb, m = block.shape[:2]
        # row j of polygon k is y_rows[k * ny + j]; vertex v is (bx[v], by[v])
        y_rows = (ys[None, :] - shifts[start:start + _FILL_BLOCK, None]).ravel()
        bx, by = block[:, :, 0].ravel(), block[:, :, 1].ravel()
        row0 = np.repeat(np.arange(nb) * ny, m)
        # rows strictly below each vertex: one division, then steps to the exact
        # count; a quotient beyond the float range clamps to 0 or ny all the same
        with np.errstate(over="ignore"):
            a = np.ceil((by - y_rows[row0]) / spec.cell_size)
        a = np.fmin(np.fmax(a, 0), ny).astype(np.intp)
        while True:
            up = (a < ny) & (y_rows[row0 + np.minimum(a, ny - 1)] < by)
            down = (a > 0) & ~(y_rows[row0 + np.maximum(a - 1, 0)] < by)
            if not (up.any() or down.any()):
                break
            a += up
            a -= down
        # edge v runs to vertex nxt[v] and crosses the rows [lo, lo + span)
        nxt = np.roll(np.arange(nb * m).reshape(nb, m), -1, axis=1).ravel()
        lo = np.minimum(a, a[nxt])
        span = np.abs(a - a[nxt])
        v = np.repeat(np.arange(nb * m), span)
        # flat (polygon, row) index of each crossing, as in y_rows
        row = np.repeat(row0 + lo - (np.cumsum(span) - span), span) + np.arange(len(v))
        w = nxt[v]
        y = y_rows[row]
        xint = bx[v] + (y - by[v]) * (bx[w] - bx[v]) / (by[w] - by[v])
        # sorting (polygon, row, k) keys puts each row's crossings in pairs
        keys = np.sort(row * width + np.searchsorted(xs, xint, side="left"))
        diff += np.bincount(keys[0::2] % size, minlength=size)
        diff -= np.bincount(keys[1::2] % size, minlength=size)
    return np.ascontiguousarray(np.cumsum(diff.reshape(ny, width), axis=1)[:, :nx].T)


def sample_boundaries(gsm: GSMModel, belief, n_samples: int,
                      rng) -> tuple[np.ndarray, np.ndarray]:
    """Draw object poses from the belief and predict one boundary per draw.

    Returns (polygons (n, m, 2), shifts (n,)): each polygon is reconstructed
    in the object-relative frame and the sampled lateral displacement is kept
    as a rigid translation along the table edge. Any belief object exposing
    ``sample(rng, n) -> (n, 3)`` works; Gaussian is the shipped form.

    Before prediction the edge distance is clamped to [0, dx_hi] and the
    orientation to [dpsi_lo, dpsi_hi] of the regression's training bounds
    (the orientation then wrapped as ObjectFeatures wraps it). Draws with an
    edge distance in [0, dx_lo) are not raised to dx_lo: the quadratic
    deformation model extrapolates there, without a warning.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(rng)
    draws = belief.sample(rng, n_samples)
    dx_hi = gsm.regression.training_bounds["dx_obj"][1]
    psi_lo, psi_hi = gsm.regression.training_bounds["dpsi_obj"]
    dx = np.maximum(np.minimum(draws[:, 0], dx_hi), 0.0)
    dpsi = wrap_angle(np.minimum(np.maximum(draws[:, 2], psi_lo), psi_hi))
    return gsm.predict_landmarks(dx, dpsi), draws[:, 1].copy()


def compute_map(gsm: GSMModel, belief, grid_spec: GridSpec, n_samples: int = DEFAULT_N_SAMPLES,
                rng=0, frame: str = "gsm") -> ARPlaceGrid:
    """Monte-Carlo success map: each cell holds the fraction of sampled,
    shifted boundaries that contain its center."""
    polygons, shifts = sample_boundaries(gsm, belief, n_samples, rng)
    probs = _fill_counts(polygons, shifts, grid_spec) / n_samples
    return ARPlaceGrid(spec=grid_spec, probs=probs, frame=frame)


# kernel weights beyond this many standard deviations are dropped
_TRUNCATE_SIGMAS = 6.0


def apply_robot_uncertainty(grid: ARPlaceGrid, sigma: float) -> ARPlaceGrid:
    """Condition the map on isotropic Gaussian robot position noise of
    standard deviation sigma (m).

    Each cell becomes the kernel-weighted average of its neighbourhood, with
    the discrete kernel cut off at 6 sigma, and at the grid's extent on each
    axis, and renormalized over the grid:
    out_k = p_k + sum_j w_jk (p_j - p_k) / sum_j w_jk. Sigma 0 is the
    identity and an exactly uniform map is preserved exactly. A negative or
    non-finite sigma raises ValueError.
    """
    sigma = float(sigma)
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"robot sigma must be finite and non-negative, found {sigma}")
    var = sigma * sigma  # 0 or inf where sigma ** 2 would raise
    if var == 0.0:
        return ARPlaceGrid(spec=grid.spec, probs=grid.probs.copy(), frame=grid.frame)
    h = grid.spec.cell_size
    p = grid.probs
    num = np.zeros_like(p)
    den = np.zeros_like(p)
    nx, ny = p.shape
    r = math.ceil(min(_TRUNCATE_SIGMAS * sigma / h, max(nx, ny)))
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
    out = p + num / den
    return ARPlaceGrid(spec=grid.spec, probs=np.clip(out, 0.0, 1.0), frame=grid.frame)


# ---------------------------------------------------------------------------
# map algebra
# ---------------------------------------------------------------------------

def merge(a: ARPlaceGrid, b: ARPlaceGrid) -> ARPlaceGrid:
    """Joint success map: cellwise product (independent grasps)."""
    if not a.same_geometry(b):
        raise ValueError("maps must share grid geometry and frame")
    return ARPlaceGrid(spec=a.spec, probs=a.probs * b.probs, frame=a.frame)


def resample_to(grid: ARPlaceGrid, spec: GridSpec) -> ARPlaceGrid:
    """Nearest-cell resampling onto another grid; cells outside the source
    extent take probability 0."""
    xs, ys = spec.centers()
    si = np.round((xs - grid.spec.origin_x) / grid.spec.cell_size).astype(int)
    sj = np.round((ys - grid.spec.origin_y) / grid.spec.cell_size).astype(int)
    probs = np.zeros((spec.nx, spec.ny))
    ok_i = (si >= 0) & (si < grid.spec.nx)
    ok_j = (sj >= 0) & (sj < grid.spec.ny)
    probs[np.ix_(ok_i, ok_j)] = grid.probs[np.ix_(si[ok_i], sj[ok_j])]
    return ARPlaceGrid(spec=spec, probs=probs, frame=grid.frame)


def union_edges(maps: list[ARPlaceGrid]) -> ARPlaceGrid:
    """Cellwise maximum over maps of one frame whose origins lie on a common
    lattice. Extents may differ; the result covers their union (missing
    cells count as probability 0)."""
    if not maps:
        raise ValueError("need at least one map")
    cell = maps[0].spec.cell_size
    frame = maps[0].frame
    for m in maps:
        if abs(m.spec.cell_size - cell) > 1e-12:
            raise ValueError("maps must share the cell size")
        if m.frame != frame:
            raise ValueError("maps must share the reference frame")
        rx = (m.spec.origin_x - maps[0].spec.origin_x) / cell
        ry = (m.spec.origin_y - maps[0].spec.origin_y) / cell
        if abs(rx - round(rx)) > 1e-9 or abs(ry - round(ry)) > 1e-9:
            raise ValueError("map origins must align on a common lattice")
    x0 = min(m.spec.origin_x for m in maps)
    y0 = min(m.spec.origin_y for m in maps)
    nx = max(int(round((m.spec.origin_x - x0) / cell)) + m.spec.nx for m in maps)
    ny = max(int(round((m.spec.origin_y - y0) / cell)) + m.spec.ny for m in maps)
    spec = GridSpec(x0, y0, cell, nx, ny)
    probs = np.maximum.reduce([resample_to(m, spec).probs for m in maps])
    return ARPlaceGrid(spec=spec, probs=probs, frame=frame)


def cost_map(grid: ARPlaceGrid, robot_xy: tuple[float, float],
             retry_penalty_s: float = 5.0, nav_speed_mps: float = 0.3) -> CostGrid:
    """Expected-cost map: (1 - P) * retry_penalty + distance / speed. A cost
    beyond the float range raises ValueError, as CostGrid refuses it."""
    if nav_speed_mps <= 0:
        raise ValueError("speed must be positive")
    pts = grid.spec.center_points()
    with np.errstate(over="ignore"):
        d = np.linalg.norm(pts - np.asarray(robot_xy, dtype=float), axis=1)
        costs = (1.0 - grid.probs) * retry_penalty_s + \
            d.reshape(grid.probs.shape) / nav_speed_mps
    return CostGrid(spec=grid.spec, costs=costs, frame=grid.frame)


def best_cell(grid: ARPlaceGrid, smooth_radius: float = 0.0) -> tuple[tuple[int, int], float]:
    """Cell of maximal probability and its value; ties break on the smallest
    (row, col) index.

    The argmax runs on apply_robot_uncertainty(grid, smooth_radius), which
    prefers the interior of plateaus over their corners: radius 0 is the map
    itself, and a negative radius raises ValueError. The returned
    probability is read from the unsmoothed map.
    """
    flat = int(np.argmax(apply_robot_uncertainty(grid, smooth_radius).probs))
    ij = divmod(flat, grid.spec.ny)
    return ij, float(grid.probs[ij])

