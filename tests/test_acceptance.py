"""End-to-end acceptance gate: one test per contract criterion, at the
stated tolerances, on the shared session pipeline (dataset seed 42)."""

import time

import numpy as np
import pytest

from arplace.cli import main
from arplace.evaluation import (SweepSpec, accuracy_curve, candidate_grid_spec,
                                chi_square, robustness_experiment,
                                transformation_benefit)
from arplace.geometry import ObjectFeatures
from arplace.grids import ARPlaceGrid, GridSpec
from arplace.placemap import (GaussianBelief, compute_map, cost_map, merge,
                              resample_to, union_edges)

from test_evaluation import CHI2_REFERENCES


def test_criterion_1_pipeline_budget_and_model_quality(pipeline):
    """Dataset + per-pose classifiers + generalized model in under 5 minutes,
    with a 2-mode model capturing at least 95% of the deformation energy."""
    assert pipeline["timings"]["total"] < 300.0
    gsm = pipeline["gsm"]
    assert gsm.pdm.d == 2
    assert gsm.pdm.energy >= 0.95


def test_criterion_2_capability_filter_accuracy_and_savings(world):
    """The reachability prefilter must cut executed trials by at least half
    while costing at most 0.02 held-out accuracy, with the full-size
    classifier at 0.90 accuracy or better."""
    obj = ObjectFeatures(0.14, 0.0)
    sizes = [20, 50, 100, 187, 300]
    filtered = accuracy_curve(world, obj, sizes, use_capability_filter=True,
                              seed=0)
    unfiltered = accuracy_curve(world, obj, sizes, use_capability_filter=False,
                                seed=0)
    assert filtered[-1].accuracy >= 0.90
    assert unfiltered[-1].accuracy >= 0.90
    assert abs(filtered[-1].accuracy - unfiltered[-1].accuracy) <= 0.02
    assert filtered[-1].executed <= 0.5 * unfiltered[-1].executed


def test_criterion_3_first_mode_regression_quality(gsm):
    """The quadratic regression must explain the dominant deformation mode
    with R^2 of at least 0.9."""
    assert gsm.regression.r_squared[0] >= 0.9


def test_criterion_4_monte_carlo_convergence_and_speed(gsm):
    """A 100-sample map must agree with a 10000-sample reference within 0.1
    on at least 95% of cells, and compute in under 2 seconds."""
    belief = GaussianBelief.isotropic((0.14, 0.0, 0.0), 0.02, 0.1)
    spec = candidate_grid_spec()
    t0 = time.perf_counter()
    fast = compute_map(gsm, belief, spec, n_samples=100, rng=0)
    elapsed = time.perf_counter() - t0
    ref = compute_map(gsm, belief, spec, n_samples=10_000, rng=1)
    close = np.abs(fast.probs - ref.probs) <= 0.1
    assert np.mean(close) >= 0.95
    assert elapsed < 2.0


def test_criterion_5_map_algebra_identities():
    """Merge / union / resample / cost obey their algebraic identities to
    1e-12."""
    spec = GridSpec(0.0, -0.5, 0.05, 12, 16)
    rng = np.random.default_rng(0)

    def g(p):
        return ARPlaceGrid(spec=spec, probs=p, frame="world")

    pa, pb, pc = (rng.uniform(0, 1, (12, 16)) for _ in range(3))
    a, b, c = g(pa), g(pb), g(pc)
    assert np.max(np.abs(merge(a, b).probs - pa * pb)) <= 1e-12
    assert np.max(np.abs(merge(a, b).probs - merge(b, a).probs)) <= 1e-12
    assert np.max(np.abs(merge(merge(a, b), c).probs
                         - merge(a, merge(b, c)).probs)) <= 1e-12
    u = union_edges([a, b, c])
    assert np.max(np.abs(u.probs - np.maximum(pa, np.maximum(pb, pc)))) <= 1e-12
    assert np.max(np.abs(union_edges([a, a]).probs - pa)) <= 1e-12
    assert np.max(np.abs(resample_to(a, spec).probs - pa)) <= 1e-12
    cg = cost_map(a, (1.0, 0.0), retry_penalty_s=5.0, nav_speed_mps=0.3)
    pts = spec.center_points()
    d = np.linalg.norm(pts - np.array([1.0, 0.0]), axis=1).reshape(12, 16)
    assert np.max(np.abs(cg.costs - ((1 - pa) * 5.0 + d / 0.3))) <= 1e-12


def test_criterion_6_robustness_to_perception_noise(gsm, world):
    """Map-based placement must beat the fixed-offset baseline significantly
    (chi-square p < 0.05) at sigma 0.05 and 0.10, both strategies staying at
    0.95 or better without noise, with the whole sweep under 10 minutes."""
    t0 = time.perf_counter()
    result = robustness_experiment(SweepSpec(), gsm, world, seed=7)
    elapsed = time.perf_counter() - t0
    by_sigma = {p.sigma_obj: p for p in result}
    clean = by_sigma[0.0]
    assert clean.rate("arplace") >= 0.95
    assert clean.rate("fixed") >= 0.95
    for sigma in (0.05, 0.10):
        point = by_sigma[sigma]
        assert point.rate("arplace") > point.rate("fixed")
        assert point.p_value < 0.05
    assert elapsed < 600.0


def test_criterion_7_merge_transformation_benefit(gsm, world):
    """Close cups: the merge transformation fires, keeps joint success above
    threshold, and cuts projected duration by at least 30% with absolute
    durations near the reference 48 s / 32 s (within 10%). Distant cups: no
    merge."""
    close = [0.20, 0.30, 0.40, 0.45]
    far = [0.50, 0.55, 0.60]
    result = transformation_benefit(close + far, gsm, world, seed=0)
    for p in result:
        if p.separation in close:
            assert p.merged, f"no merge at separation {p.separation}"
            assert p.merged_probability > 0.85
            assert p.reduction >= 0.30
            assert 48.0 * 0.9 <= p.duration_a <= 48.0 * 1.1
            assert 32.0 * 0.9 <= p.duration_b <= 32.0 * 1.1
        else:
            assert not p.merged, f"unexpected merge at {p.separation}"
            assert p.duration_b is None


def test_criterion_8_chi_square_reference_values():
    """The significance test must reproduce the frozen reference statistics
    and p-values to 1e-6, including the 90/100-vs-60/100 table."""
    for sa, na, sb, nb, stat_ref, p_ref in CHI2_REFERENCES:
        stat, p = chi_square(sa, na, sb, nb)
        assert abs(stat - stat_ref) <= 1e-6
        assert abs(p - p_ref) <= 1e-6


def test_criterion_9_cli_byte_reproducibility(tmp_path):
    """Identical seeds must give byte-identical CLI outputs."""
    d1, d2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    assert main(["gen-data", "--seed", "3", "--out", str(d1)]) == 0
    assert main(["gen-data", "--seed", "3", "--out", str(d2)]) == 0
    assert d1.read_bytes() == d2.read_bytes()

    model = tmp_path / "model.json"
    assert main(["train", "--data", str(d1), "--seed", "3",
                 "--out", str(model)]) == 0
    belief = tmp_path / "belief.json"
    belief.write_text('{"mean": [0.14, 0.0, 0.1], "sigma_xy": 0.02, '
                      '"sigma_psi": 0.1}')
    m1, m2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
    for out in (m1, m2):
        assert main(["map", "--model", str(model), "--belief", str(belief),
                     "--robot-sigma", "0.05", "--seed", "5",
                     "--out", str(out)]) == 0
    assert m1.read_bytes() == m2.read_bytes()
