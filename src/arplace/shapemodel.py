"""Generalized success model: a point distribution model over per-pose
classification boundaries plus a quadratic regression from object features to
the deformation-mode coefficients.

Training stacks the N per-pose boundaries into a 2m x N landmark matrix,
extracts the principal deformation modes by PCA, and regresses each mode
coefficient on quadratic terms of (object distance, object orientation).
Querying reconstructs boundary polygons for arbitrary object features, one
at a time (boundary_for) or for a batch of draws (predict_landmarks).
"""

from __future__ import annotations

import json
import math
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .classifier import Boundary, SVMModel, extract_contour
from .geometry import ObjectFeatures
from .grids import GridSpec

MODEL_FORMAT_VERSION = 1
GSM_MODES = 2  # deformation modes of the model
# farthest landmark a model file may reach, in m; the map fill multiplies two
# coordinate differences, whose product then stays inside the float range
MAX_REACH = 1e100
# most landmarks of a model trained from the CLI's config n_landmarks, a bound on
# time: train on the seed-42 dataset takes about 10 s at this count and 58 s at 512
# (2 vCPUs); train_gsm's traced peak at 512 is 18 MB. Library calls take any count.
MAX_LANDMARKS = 256
# default landmark count, and the energy fraction the deformation modes must capture
DEFAULT_N_LANDMARKS = 20
DEFAULT_ENERGY_TARGET = 0.95
# rows of landmark polygons predicted together; bounds the working memory
_PREDICT_BLOCK = 256


class DegenerateShapeError(RuntimeError):
    pass


class RegressionRankError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# landmark matrix and distribution model
# ---------------------------------------------------------------------------

def assemble_H(landmarks) -> np.ndarray:
    """Stack N landmark polygons of m points each into the 2m x N matrix
    whose column j holds the x then the y coordinates of polygon j.
    Polygons of different landmark counts raise ValueError."""
    lms = np.asarray(landmarks, dtype=float)
    n, m, _ = lms.shape
    return lms.transpose(2, 1, 0).reshape(2 * m, n)


@dataclass
class PDM:
    """Point distribution model: mean landmark vector and the top deformation
    modes of the landmark covariance."""

    mean: np.ndarray          # (2m,)
    modes: np.ndarray         # (2m, d), orthonormal columns
    eigenvalues: np.ndarray   # (d,), non-increasing
    energy: float             # captured fraction of total variance

    @property
    def d(self) -> int:
        return self.modes.shape[1]

    @property
    def m(self) -> int:
        return len(self.mean) // 2

    def project(self, landmarks: np.ndarray) -> np.ndarray:
        """Mode coefficients of an (m, 2) landmark polygon."""
        return self.modes.T @ (assemble_H([landmarks])[:, 0] - self.mean)

    def landmarks_for(self, b: np.ndarray) -> np.ndarray:
        """(n, m, 2) landmark polygons for (n, d) mode coefficients.

        Built from elementwise products rather than a matrix product, so a
        row's polygon has the same bits whatever the number of rows: BLAS
        takes a different kernel for a single row than for many. Both
        coordinates of a block of rows are summed in place in the result, as
        mean + b_1 m_1 + b_2 m_2 + ..., so the working memory beyond it is one
        block's product.
        """
        mean = self.mean.reshape(2, self.m).T
        modes = self.modes.T.reshape(self.d, 2, self.m).transpose(0, 2, 1).copy()  # (d, m, 2)
        out = np.empty((len(b), self.m, 2))
        for start in range(0, len(b), _PREDICT_BLOCK):
            acc, rows = out[start:start + _PREDICT_BLOCK], b[start:start + _PREDICT_BLOCK]
            np.multiply(rows[:, 0, None, None], modes[0], out=acc)
            acc += mean  # b_1 m_1 + mean has the bits of mean + b_1 m_1
            for k in range(1, self.d):
                acc += rows[:, k, None, None] * modes[k]
        return out


def _pca(H, d: int, gram: bool = False):
    """(mean, D, eigenvalues, eigenvectors, top-d share) of the 2m x N
    landmark matrix H less its mean column, D: the eigenpairs of D D'/(N-1),
    or of D'D/(N-1) when gram, non-increasing, the eigenvalues clipped at 0.
    Raises what fit_pdm raises."""
    H = np.asarray(H, dtype=float)
    N = H.shape[1]
    if N < 2:
        raise ValueError("need at least two boundaries")
    if not (1 <= d <= min(H.shape[0], N - 1)):
        raise ValueError(f"d must lie in [1, {min(H.shape[0], N - 1)}]")
    mean = H.mean(axis=1)
    D = H - mean[:, None]
    evals, evecs = np.linalg.eigh(D.T @ D / (N - 1) if gram else D @ D.T / (N - 1))
    evals = np.clip(evals[::-1], 0.0, None)
    total = float(np.sum(evals))
    if total <= 1e-18:
        raise DegenerateShapeError("no variation in the boundaries")
    return mean, D, evals, evecs[:, ::-1], float(np.sum(evals[:d]) / total)


def fit_pdm(H, d: int) -> PDM:
    """PCA of the landmark matrix with 1/(N-1) covariance normalization.
    Eigenvector signs are fixed so the largest-magnitude component of each
    mode is positive. Fewer than 2 boundaries or a d outside
    [1, min(2m, N-1)] raise ValueError, no variation DegenerateShapeError."""
    mean, _, evals, evecs, energy = _pca(H, d)
    modes = evecs[:, :d].copy()
    for k in range(d):
        idx = int(np.argmax(np.abs(modes[:, k])))
        if modes[idx, k] < 0:
            modes[:, k] = -modes[:, k]
    return PDM(mean=mean, modes=modes, eigenvalues=evals[:d].copy(), energy=energy)


# ---------------------------------------------------------------------------
# landmark placement
# ---------------------------------------------------------------------------

class _ArcTable:
    """Arc-length parametrization of N closed polylines, padded to a common
    vertex count so that fractions are looked up on all of them at once.
    Each lookup takes the float expressions of a per-polyline searchsorted
    table."""

    def __init__(self, contours: list[np.ndarray]):
        closed = [np.vstack([c, c[:1]]) for c in contours]
        n, width = len(closed), max(len(c) for c in closed)
        self.closed = np.zeros((n, width, 2))
        self.arcs = np.full((n, width), np.inf)  # +inf pads past the end
        self.seg = np.ones((n, width - 1))
        for k, c in enumerate(closed):
            seg = np.linalg.norm(np.diff(c, axis=0), axis=1)
            self.closed[k, :len(c)] = c
            self.arcs[k, :len(c)] = np.concatenate([[0.0], np.cumsum(seg)])
            self.seg[k, :len(seg)] = np.where(seg > 0, seg, 1.0)
        last = np.array([len(c) - 2 for c in closed])  # index of the last segment
        self.total = self.arcs[np.arange(n), last + 1][:, None]
        self.last = last[:, None]
        self.rows = np.arange(n)[:, None]

    def at(self, fractions: np.ndarray) -> np.ndarray:
        """(N, len(fractions), 2) points at the given arc fractions."""
        t = (np.asarray(fractions) % 1.0) * self.total
        # the count of arcs <= t is searchsorted(arcs, t, side="right")
        right = (self.arcs[:, None, :] <= t[:, :, None]).sum(axis=2)
        idx = np.minimum(np.maximum(right - 1, 0), self.last)
        frac = (t - self.arcs[self.rows, idx]) / self.seg[self.rows, idx]
        start = self.closed[self.rows, idx]
        return start + frac[:, :, None] * (self.closed[self.rows, idx + 1] - start)


def placement_cost(landmarks: np.ndarray, d: int) -> tuple[float, float, float]:
    """Cost (2 - e) * l^2 of a landmark placement, the (N, m, 2) landmarks of
    N boundaries, where e is the energy in the first d modes and l the mean
    landmark reconstruction distance of the d-mode model. Returns
    (cost, energy, l), raising what fit_pdm raises.

    No model is built (Cootes & Taylor's PCA with fewer samples than
    dimensions): the Gram matrix D'D / (N - 1) of the centered landmark
    matrix D has the covariance's nonzero eigenvalues, so e is their top-d
    share, and with V_d its top-d eigenvectors each boundary's
    reconstruction error is its column of D - (D V_d) V_d'. For 16
    boundaries of 20 landmarks that is an eigh of 16 x 16, not 40 x 40.
    """
    _, D, _, V, energy = _pca(assemble_H(landmarks), d, gram=True)
    R = D - (D @ V[:, :d]) @ V[:, :d].T
    m = len(R) // 2
    l = float(np.mean(np.hypot(R[:m], R[m:])))
    return (2.0 - energy) * l * l, energy, l


def _gaps_ok(fractions: np.ndarray, min_gap: float) -> bool:
    """True when the cyclic ordering is preserved with all gaps >= min_gap
    (rules out the degenerate all-landmarks-coincide minimum of the cost).
    The gaps are taken on a list of Python floats, whose differences are
    numpy's: for m = 20 in a third of the time of array calls."""
    f = (fractions % 1.0).tolist()
    f.sort()
    f.append(f[0] + 1.0)
    return min(map(operator.sub, f[1:], f)) >= min_gap


def optimize_landmarks(contours: list[np.ndarray], m: int = DEFAULT_N_LANDMARKS,
                       energy_target: float = DEFAULT_ENERGY_TARGET
                       ) -> tuple[np.ndarray, int, float, np.ndarray]:
    """Greedy landmark placement: shared arc-length fractions start uniform
    and slide per landmark over candidate offsets (+-1, 2, 4 base steps),
    keeping moves that lower (2 - e) * l^2 while preserving cyclic order and
    a minimum spacing. Mode count d starts at 1 and is incremented (with
    re-optimization) until the captured energy exceeds the target; when
    GSM_MODES modes do not reach it, DegenerateShapeError is raised.

    At each d the 6m moves (landmark i by +4, -4, +2, -2, +1, -1 base
    steps) are tried in one cyclic sweep, each from the placement of the
    last move taken, and the sweep stops after 6m candidates in a row
    without a move: the placement is then a local minimum over every move.
    Candidates are scored by placement_cost, from the N x N Gram matrix; the
    energy returned, and compared with the target, is fit_pdm's for the
    final placement, the model's own.

    Returns ((N, m, 2) landmarked boundaries, d, energy, fractions).
    """
    if m < 4:
        raise ValueError("need at least 4 landmarks")
    table = _ArcTable(contours)
    base_step = 1.0 / (8 * m)
    min_gap = 1.0 / (2 * m)
    fractions = np.arange(m) / m
    landmarks = table.at(fractions)
    moves = [(i, sign * mult * base_step) for i in range(m)
             for mult in (4.0, 2.0, 1.0) for sign in (1.0, -1.0)]

    for d in range(1, GSM_MODES + 1):
        cost = placement_cost(landmarks, d)[0]
        k = last = 0  # candidates tried, and their count at the last move taken
        while k < last + len(moves):
            i, step = moves[k % len(moves)]
            k += 1
            trial = fractions.copy()
            trial[i] = (trial[i] + step) % 1.0
            if not _gaps_ok(trial, min_gap):
                continue
            moved = landmarks.copy()
            moved[:, i] = table.at(trial[i:i + 1])[:, 0]
            c2 = placement_cost(moved, d)[0]
            if c2 < cost - 1e-15:
                fractions, landmarks, cost, last = trial, moved, c2, k
        energy = fit_pdm(assemble_H(landmarks), d).energy
        if energy > energy_target:
            return landmarks, d, energy, fractions
    raise DegenerateShapeError(f"energy target {energy_target} unreachable with "
                               f"{GSM_MODES} modes (best {energy:.4f})")


# ---------------------------------------------------------------------------
# regression from object features to mode coefficients
# ---------------------------------------------------------------------------

def _quad_features(dx: np.ndarray, dpsi: np.ndarray) -> np.ndarray:
    """Design rows for the quadratic form q^T W q with q = [dx, dpsi, 1]:
    [dx^2, dx*dpsi, dpsi^2, dx, dpsi, 1]."""
    dx = np.asarray(dx, dtype=float)
    dpsi = np.asarray(dpsi, dtype=float)
    return np.column_stack([dx * dx, dx * dpsi, dpsi * dpsi, dx, dpsi,
                            np.ones_like(dx)])


def _weights_to_matrix(w: np.ndarray) -> np.ndarray:
    W = np.zeros((3, 3))
    W[0, 0], W[0, 1], W[1, 1], W[0, 2], W[1, 2], W[2, 2] = w
    return W


@dataclass
class RegressionModel:
    """Per-mode upper-triangular quadratic weights b_i = q^T W_i q and the
    training feature ranges used to flag extrapolation."""

    W: np.ndarray            # (d, 3, 3), upper triangular
    r_squared: np.ndarray    # (d,)
    training_bounds: dict    # {"dx_obj": [lo, hi], "dpsi_obj": [lo, hi]}

    @property
    def d(self) -> int:
        return self.W.shape[0]

    def predict(self, dx_obj: np.ndarray, dpsi_obj: np.ndarray) -> np.ndarray:
        """(n, d) mode coefficients q^T W_k q, q = [dx, dpsi, 1], for n
        feature rows, without a range check. Elementwise products only, so a
        row's coefficients do not depend on the number of rows."""
        q = np.ones((3, len(dx_obj)))
        q[0], q[1] = dx_obj, dpsi_obj
        # term 3i + j of mode k is (W[k, i, j] * q_i) * q_j, added in that order:
        # a sum over the term axis would let NumPy pair the terms another way
        terms = self.W[:, :, :, None] * q[:, None, :]
        terms *= q
        terms = terms.reshape(self.d, 9, -1)
        acc = np.zeros((self.d, len(dx_obj)))
        for t in range(9):
            acc += terms[:, t]
        return acc.T


def fit_regression(B: np.ndarray, features: list[ObjectFeatures]) -> RegressionModel:
    """Least-squares quadratic fit of each deformation mode (columns of the
    (N, d) matrix B) on the object features."""
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if B.shape[0] != len(features):
        raise ValueError("one feature row per boundary required")
    if len(features) < 6:
        raise ValueError("need at least 6 poses for a 2-variable quadratic")
    dx = np.array([f.dx_obj for f in features])
    dpsi = np.array([f.dpsi_obj for f in features])
    Phi = _quad_features(dx, dpsi)
    if np.linalg.matrix_rank(Phi) < Phi.shape[1]:
        raise RegressionRankError(
            "object poses do not span the quadratic feature space")
    d = B.shape[1]
    W = np.empty((d, 3, 3))
    r2 = np.empty(d)
    for k in range(d):
        w, *_ = np.linalg.lstsq(Phi, B[:, k], rcond=None)
        W[k] = _weights_to_matrix(w)
        resid = B[:, k] - Phi @ w
        ss_tot = float(np.sum((B[:, k] - B[:, k].mean()) ** 2))
        r2[k] = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    bounds = {"dx_obj": [float(dx.min()), float(dx.max())],
              "dpsi_obj": [float(dpsi.min()), float(dpsi.max())]}
    return RegressionModel(W=W, r_squared=r2, training_bounds=bounds)


# ---------------------------------------------------------------------------
# full model
# ---------------------------------------------------------------------------


@dataclass
class GSMModel:
    """Generalized success model: mean boundary, two deformation modes, and
    the regression mapping object features to mode coefficients."""

    pdm: PDM
    regression: RegressionModel
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.pdm.d != GSM_MODES:
            raise ValueError(f"model requires exactly {GSM_MODES} modes")

    @property
    def training_bounds(self) -> dict:
        return self.regression.training_bounds

    def predict_landmarks(self, dx_obj: np.ndarray, dpsi_obj: np.ndarray) -> np.ndarray:
        """(n, m, 2) boundary polygons for n object feature rows, without a
        range check; the one prediction path behind boundary_for and the
        Monte-Carlo maps."""
        return self.pdm.landmarks_for(self.regression.predict(dx_obj, dpsi_obj))

    def boundary_for(self, obj: ObjectFeatures, warn_extrapolation: bool = True) -> Boundary:
        """Boundary predicted for one object pose; features outside the
        training range are allowed but warn unless warn_extrapolation is
        False."""
        (lo_x, hi_x), (lo_p, hi_p) = (self.training_bounds[k] for k in ("dx_obj", "dpsi_obj"))
        if warn_extrapolation and not (lo_x <= obj.dx_obj <= hi_x and lo_p <= obj.dpsi_obj <= hi_p):
            warnings.warn("object features outside the training range; "
                          "deformation is extrapolated")
        return Boundary(self.predict_landmarks(np.array([obj.dx_obj]),
                                               np.array([obj.dpsi_obj]))[0])

    def to_dict(self) -> dict:
        return {
            "version": MODEL_FORMAT_VERSION,
            "m": self.pdm.m,
            "d": self.pdm.d,
            "grasp_type": "side",  # the one grasp the model describes
            "mean": self.pdm.mean.tolist(),
            "modes": self.pdm.modes.tolist(),
            "eigenvalues": self.pdm.eigenvalues.tolist(),
            "energy": self.pdm.energy,
            "W1": self.regression.W[0].tolist(),
            "W2": self.regression.W[1].tolist(),
            "r_squared": self.regression.r_squared.tolist(),
            "training_bounds": self.regression.training_bounds,
            "extras": self.extras,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GSMModel":
        """Model of a to_dict object, checked key by key: a missing key raises
        KeyError, a bad one ValueError or TypeError. A model whose landmarks
        could lie beyond MAX_REACH for a feature row that sampling can draw
        raises ValueError. Other keys, such as the "header" that save writes,
        are ignored."""
        if not isinstance(d, dict):
            raise TypeError(f"a model is a JSON object, not {type(d).__name__}")
        if isinstance(d.get("version"), bool) or d.get("version") != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model version {d.get('version')!r}")
        mean = _numbers(d, "mean", None)
        m = mean.size // 2
        _require(mean.shape == (2 * m,) and m >= 3, "mean", "hold 2m values, m >= 3")
        _require(d["m"] == m, "m", f"be {m}")
        _require(d["d"] == GSM_MODES, "d", f"be {GSM_MODES}")
        _require(d["grasp_type"] == "side", "grasp_type", "be 'side'")
        energy = float(_numbers(d, "energy", ()))
        _require(0.0 < energy <= 1.0, "energy", "lie in (0, 1]")
        bounds = d["training_bounds"]
        _require(isinstance(bounds, dict) and set(bounds) == {"dx_obj", "dpsi_obj"},
                 "training_bounds", "hold exactly 'dx_obj' and 'dpsi_obj'")
        bounds = {k: _numbers(bounds, k, (2,)).tolist() for k in ("dx_obj", "dpsi_obj")}
        _require(all(lo <= hi for lo, hi in bounds.values()), "training_bounds",
                 "hold [lo, hi] with lo <= hi")
        _require(isinstance(d.get("extras", {}), dict), "extras", "be an object")
        modes = _numbers(d, "modes", (2 * m, GSM_MODES))
        W = np.stack([_numbers(d, "W1", (3, 3)), _numbers(d, "W2", (3, 3))])
        # sampling clamps dx to [0, dx_hi] and wraps dpsi into (-pi, pi], so
        # each of q = [dx, dpsi, 1] is at most q_max and |b_k| <= sum|W_k| q_max^2
        q_max = max(math.pi, bounds["dx_obj"][1])
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan fail the test
            b_max = np.abs(W).sum(axis=(1, 2)) * (q_max * q_max)
            reach = np.abs(mean).max() + np.abs(modes).max(axis=0) @ b_max
        if not reach <= MAX_REACH:
            raise ValueError(f"model landmarks may lie {reach:.3g} m out, beyond {MAX_REACH:g} m")
        pdm = PDM(mean=mean, modes=modes, eigenvalues=_numbers(d, "eigenvalues", (GSM_MODES,)),
                  energy=energy)
        reg = RegressionModel(W=W, r_squared=_numbers(d, "r_squared", (GSM_MODES,)),
                              training_bounds=bounds)
        return cls(pdm=pdm, regression=reg, extras=d.get("extras", {}))

    def save(self, path, header: dict):
        """Write to_dict() and the header as one JSON object."""
        with open(path, "w") as f:
            json.dump({**self.to_dict(), "header": header}, f)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "GSMModel":
        with open(path) as f:
            return cls.from_dict(json.load(f))


def _require(ok: bool, key: str, what: str):
    if not ok:
        raise ValueError(f"model key {key!r} must {what}")


def _numbers(d: dict, key: str, shape: tuple | None) -> np.ndarray:
    return finite_numbers(d[key], f"model key {key!r}", shape)


def finite_numbers(value, what: str, shape: tuple | None = None) -> np.ndarray:
    """A JSON number, or nested lists of them, as a float array of the shape
    given if not None. A string, boolean, null, object or ragged list among
    them, or a number that is not finite as a float, raises ValueError naming
    what."""
    items = np.array(value, dtype=object)  # ragged lists give an array of lists
    a = None
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in items.flat):
        try:
            a = items.astype(float)
        except OverflowError:  # an integer beyond the float range
            pass
    if a is None or not np.all(np.isfinite(a)):
        raise ValueError(f"{what} must hold finite numbers")
    if shape is not None and a.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, not {a.shape}")
    return a


def train_gsm(svms: dict[ObjectFeatures, SVMModel], extraction_grid: GridSpec,
              n_landmarks: int = DEFAULT_N_LANDMARKS,
              energy_target: float = DEFAULT_ENERGY_TARGET) -> GSMModel:
    """Build the generalized model from per-pose classifiers: extract each
    decision boundary, place shared landmarks, fit the two-mode distribution
    model, and regress the mode coefficients on object features.

    Raises if two modes cannot capture the target energy fraction.
    """
    feats = list(svms.keys())
    contours = [extract_contour(svms[f], extraction_grid) for f in feats]
    lms, _, _, fractions = optimize_landmarks(contours, n_landmarks, energy_target)
    pdm = fit_pdm(assemble_H(lms), GSM_MODES)
    B = np.vstack([pdm.project(lm) for lm in lms])  # (N, d)
    reg = fit_regression(B, feats)
    return GSMModel(pdm=pdm, regression=reg,
                    extras={"landmark_fractions": fractions.tolist()})
