"""Success-probability place maps.

A map assigns each candidate robot cell the probability that a grasp from
there succeeds, given a Gaussian belief over the object pose. Maps are built
by Monte-Carlo sampling boundaries from the generalized success model, can be
conditioned on robot position uncertainty, and support merging (joint success
for several objects), cellwise maxima, resampling, and conversion to a
navigation cost map.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import wrap_angle
from .grids import ARPlaceGrid, CostGrid, GridSpec, check_frame
from .shapemodel import GSMModel

DEFAULT_N_SAMPLES = 100
# most samples of a map from the CLI's --samples or config n_samples: a 20-landmark
# map at this count peaks at 50 MB under tracemalloc. Library calls take any count.
MAX_MAP_SAMPLES = 2**17


@dataclass(frozen=True, eq=False)
class GaussianBelief:
    """Gaussian belief over object displacement (dx_obj, dy_obj, dpsi_obj):
    distance from the table edge, lateral position along it, orientation.

    The covariance is checked and factored by one eigendecomposition, shared
    by equal covariance bytes: root = evecs * sqrt(clip(evals, 0)), so
    semidefinite beliefs pass and root @ root.T is the covariance. mean, cov
    and root are read-only float arrays."""

    mean: np.ndarray  # (3,)
    cov: np.ndarray   # (3, 3)
    root: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float)
        cov = np.array(self.cov, dtype=float)
        if mean.shape != (3,) or cov.shape != (3, 3):
            raise ValueError("belief needs a 3-vector mean and 3x3 covariance")
        if not all(map(math.isfinite, mean.tolist())):
            raise ValueError("belief mean and covariance must be finite")
        for name, a in (("mean", mean), ("cov", cov), ("root", _factor(cov.tobytes()))):
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


@functools.lru_cache(maxsize=32)
def _factor(cov: bytes) -> np.ndarray:
    """Read-only root of the 3x3 covariance whose C-order bytes are cov,
    after checking that it is finite, symmetric and positive semidefinite;
    a refusal raises ValueError and is not cached."""
    c = np.frombuffer(cov).reshape(3, 3)
    if not np.isfinite(c).all():
        raise ValueError("belief mean and covariance must be finite")
    with np.errstate(over="ignore"):  # entries of opposite sign near the float limit
        if not np.allclose(c, c.T, atol=1e-12):
            raise ValueError("covariance must be symmetric")
    evals, evecs = np.linalg.eigh(c)
    if evals[0] < -1e-12:
        raise ValueError("covariance must be positive semidefinite")
    root = evecs * np.sqrt(np.clip(evals, 0.0, None))
    root.setflags(write=False)
    return root


_FILL_BLOCK = 256  # polygons rasterized together; bounds the working memory


def _fill_counts(polygons: np.ndarray, spec: GridSpec) -> np.ndarray:
    """(nx, ny) number of polygons containing each cell center.

    Even-odd scanline fill. Rows and columns are counted by one rule,
    searchsorted on the grid's own centers (the number of ys or xs strictly
    below a value): an edge crosses exactly the rows between the counts of
    its two end points, and each crossing, intersected with its row by the
    float expressions of classifier.points_in_polygon, becomes k, the number
    of centers strictly to its left. Sorted per (polygon, row), the
    crossings k1 <= k2 <= ... bound the inside spans [k1, k2), [k3, k4),
    ...; a difference array and a cumulative sum turn the spans into counts.
    Every membership decision equals points_in_polygon's on center_points(),
    for one row lookup per vertex and one column lookup per crossing. Each
    crossing's edge end points are gathered once, and a sorted key less its
    polygon's base is its cell in the difference array.
    """
    xs, ys = spec.centers()
    nx, ny = spec.nx, spec.ny
    width = nx + 1
    size = ny * width
    diff = np.zeros(size, dtype=np.int64)
    for start in range(0, len(polygons), _FILL_BLOCK):
        block = polygons[start:start + _FILL_BLOCK]
        nb, m = block.shape[:2]
        bx, by = block[:, :, 0].ravel(), block[:, :, 1].ravel()
        a = np.searchsorted(ys, by)
        # edge v runs to vertex nxt[v] and crosses the rows [lo, lo + span)
        nxt = np.arange(1, nb * m + 1)
        nxt[m - 1::m] -= m
        an = a[nxt]
        lo = np.minimum(a, an)
        span = np.abs(a - an)
        v = np.repeat(np.arange(nb * m), span)
        row = np.repeat(lo - (np.cumsum(span) - span), span) + np.arange(len(v))
        w = nxt[v]
        x0, y0 = bx[v], by[v]
        xint = x0 + (ys[row] - y0) * (bx[w] - x0) / (by[w] - y0)
        # sorting (polygon, row, k) keys puts each row's crossings in pairs; the
        # polygon v // m never decreases along v, so each polygon's keys keep
        # their stretch of the sorted array, and less base a key is its cell
        base = (v // m) * size
        keys = np.sort(base + row * width + np.searchsorted(xs, xint))
        keys -= base
        diff += np.bincount(keys[0::2], minlength=size)
        diff -= np.bincount(keys[1::2], minlength=size)
    return np.ascontiguousarray(np.cumsum(diff.reshape(ny, width), axis=1)[:, :nx].T)


def sample_boundaries(gsm: GSMModel, belief, n_samples: int, rng) -> np.ndarray:
    """Draw object poses from the belief and predict one boundary per draw.

    Returns polygons (n, m, 2): each is reconstructed in the object-relative
    frame and translated along the table edge by its draw's lateral
    displacement (y is the prediction plus the draw, x the prediction). Any
    belief object exposing ``sample(rng, n) -> (n, 3)`` works; Gaussian is
    the shipped form.

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
    polygons = gsm.predict_landmarks(dx, dpsi)
    polygons[:, :, 1] += draws[:, 1, None]
    return polygons


def compute_map(gsm: GSMModel, belief, grid_spec: GridSpec, n_samples: int = DEFAULT_N_SAMPLES,
                rng=0, frame: str = "gsm") -> ARPlaceGrid:
    """Monte-Carlo success map: each cell holds the fraction of sampled,
    translated boundaries that contain its center. A frame other than gsm or
    world raises ValueError before anything is drawn."""
    check_frame(frame)
    probs = _fill_counts(sample_boundaries(gsm, belief, n_samples, rng), grid_spec) / n_samples
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

    The sum runs only over the box of cells within the kernel's reach of a
    step of the map (a cell that compares unequal to its neighbour before it
    on either axis; for finite values that is a non-zero difference).
    Outside the box every p_j - p_k is +0.0, so those cells pass through as
    p_k + 0.0, the value the full sum gives; inside it each cell takes the
    same terms in the same order.
    """
    sigma = float(sigma)
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"robot sigma must be finite and non-negative, found {sigma}")
    var = sigma * sigma  # 0 or inf where sigma ** 2 would raise
    if var == 0.0:
        return ARPlaceGrid(spec=grid.spec, probs=grid.probs.copy(), frame=grid.frame)
    h = grid.spec.cell_size
    p = grid.probs
    nx, ny = p.shape
    r = math.ceil(min(_TRUNCATE_SIGMAS * sigma / h, max(nx, ny)))
    ri, rj = min(r, nx - 1), min(r, ny - 1)
    out = p + 0.0
    # the later cell of each pair of neighbours that differ: a cell whose reach
    # holds none of these sees one value in all of its reach
    step = np.zeros(p.shape, dtype=bool)
    step[1:] = p[1:] != p[:-1]
    step[:, 1:] |= p[:, 1:] != p[:, :-1]
    rows, cols = np.flatnonzero(step.any(axis=1)), np.flatnonzero(step.any(axis=0))
    if len(rows):
        # the box [i0, i1) x [j0, j1): every cell within reach of a step
        i0, i1 = max(rows[0] - ri, 0), min(rows[-1] + ri + 1, nx)
        j0, j1 = max(cols[0] - rj, 0), min(cols[-1] + rj + 1, ny)
        num = np.zeros((i1 - i0, j1 - j0))
        den = np.zeros_like(num)
        for di in range(-ri, ri + 1):
            for dj in range(-rj, rj + 1):
                w = math.exp(-0.5 * ((di * h) ** 2 + (dj * h) ** 2) / var)
                if w < 1e-13:
                    continue
                # destination cells of the box whose source lies on the grid
                a0, a1 = max(i0, -di), min(i1, nx - di)
                b0, b1 = max(j0, -dj), min(j1, ny - dj)
                dst = (slice(a0 - i0, a1 - i0), slice(b0 - j0, b1 - j0))
                num[dst] += w * (p[a0 + di:a1 + di, b0 + dj:b1 + dj] - p[a0:a1, b0:b1])
                den[dst] += w
        out[i0:i1, j0:j1] = p[i0:i1, j0:j1] + num / den
    return ARPlaceGrid(spec=grid.spec, probs=np.clip(out, 0.0, 1.0, out=out), frame=grid.frame)


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
    beyond the float range raises ValueError, as CostGrid refuses it, and so
    does a speed that is not finite and positive."""
    if not (math.isfinite(nav_speed_mps) and nav_speed_mps > 0):
        raise ValueError(f"speed must be positive and finite, found {nav_speed_mps}")
    pts = grid.spec.center_points()
    with np.errstate(over="ignore"):
        d = np.linalg.norm(pts - np.asarray(robot_xy, dtype=float), axis=1)
        costs = (1.0 - grid.probs) * retry_penalty_s + \
            d.reshape(grid.probs.shape) / nav_speed_mps
    return CostGrid(spec=grid.spec, costs=costs, frame=grid.frame)


def best_cell(grid: ARPlaceGrid, smooth_radius: float = 0.0) -> tuple[tuple[int, int], float]:
    """Cell of maximal probability and its value; ties break on the smallest
    (row, col) index.

    The cell is np.argmax of apply_robot_uncertainty(grid, smooth_radius),
    which prefers the interior of plateaus over their corners: radius 0 reads
    the map itself, uncopied, and a negative or non-finite radius raises
    ValueError. The returned probability is read from the unsmoothed map.
    """
    probs = grid.probs if smooth_radius == 0 else apply_robot_uncertainty(grid, smooth_radius).probs
    flat = int(np.argmax(probs))
    ij = divmod(flat, grid.spec.ny)
    return ij, float(grid.probs[ij])
