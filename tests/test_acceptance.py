"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and then
asserts, so a red run still shows which criterion broke and by how much.
"""

import time

import numpy as np
import pytest
import scipy.stats

from lancaster_lab import (
    MarginalSpec,
    build_model,
    check_linear_regression,
    check_polynomial_regression,
    conditional_expectation,
    discretize_joint,
    discretize_model,
    maxcorr_ace,
    maxcorr_analytic,
    maxcorr_discrete_pmf,
    maxcorr_svd,
    orthonormality_residual,
    pearson,
    sample_joint,
    singular_spectrum,
    transpose_model,
)
from lancaster_lab.cli import main
from lancaster_lab.fixtures import FOURPOINT_PMF, resolve_fixture
from reference_routes import marginal_residual


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({detail})")


def test_criterion_1_counterexample_reproduction(ce_model):
    started = time.perf_counter()
    joint = discretize_model(ce_model, 200)
    rho = pearson(joint)
    analytic = maxcorr_analytic(ce_model)
    svd = maxcorr_svd(joint).R
    ace = maxcorr_ace(joint).R
    linear = check_linear_regression(ce_model)
    gap = svd - abs(rho)
    elapsed = time.perf_counter() - started
    ok = (
        abs(rho - 0.05) <= 1e-6
        and analytic == 0.15
        and abs(svd - 0.15) <= 1e-3
        and abs(ace - svd) <= 1e-3
        and linear.residual <= 1e-8
        and abs(linear.a1 - 0.05) <= 1e-8
        and abs(linear.b1 - 0.05) <= 1e-8
        and abs(gap - 0.10) <= 2e-3
        and elapsed < 30.0
    )
    _report(
        1,
        "counterexample reproduction",
        ok,
        f"pearson={rho:.8f} R_svd={svd:.8f} R_ace={ace:.8f} a1={linear.a1:.10f}"
        f" gap={gap:.6f} time={elapsed:.2f}s",
    )
    assert abs(rho - 0.05) <= 1e-6
    assert analytic == 0.15
    assert abs(svd - 0.15) <= 1e-3
    assert abs(ace - svd) <= 1e-3
    assert linear.residual <= 1e-8
    assert abs(linear.a1 - 0.05) <= 1e-8 and abs(linear.b1 - 0.05) <= 1e-8
    assert abs(gap - 0.10) <= 2e-3
    assert elapsed < 30.0


def test_criterion_2_uniform_disc():
    started = time.perf_counter()
    fixture = resolve_fixture("disc")
    joint = fixture.joint(400)
    svd = maxcorr_svd(joint).R
    rho = pearson(joint)
    elapsed = time.perf_counter() - started
    ok = abs(svd - 1.0 / 3.0) <= 0.01 and abs(rho) <= 1e-4 and elapsed < 60.0
    _report(2, "uniform disc R = 1/3", ok, f"R_svd={svd:.6f} pearson={rho:.2e} time={elapsed:.2f}s")
    assert abs(svd - 1.0 / 3.0) <= 0.01
    assert abs(rho) <= 1e-4
    assert elapsed < 60.0


def test_criterion_3_p_ball():
    diamond = maxcorr_svd(resolve_fixture("pball:1").joint()).R
    disc_via_pball = maxcorr_svd(resolve_fixture("pball:2").joint()).R
    ok = abs(diamond - 0.5) <= 0.01 and abs(disc_via_pball - 1.0 / 3.0) <= 0.01
    _report(3, "p-ball R = 1/(p+1)", ok, f"p=1: {diamond:.6f}, p=2: {disc_via_pball:.6f}")
    assert abs(diamond - 0.5) <= 0.01
    assert abs(disc_via_pball - 1.0 / 3.0) <= 0.01


def test_criterion_4_four_point_lattice():
    value = maxcorr_discrete_pmf(FOURPOINT_PMF)
    ok = abs(value - 1.0) <= 1e-9
    _report(4, "four-point lattice R = 1", ok, f"R={value:.12f}")
    assert abs(value - 1.0) <= 1e-9


def test_criterion_5_equality_when_maximum_is_at_degree_one(swapped_model):
    joint = discretize_model(swapped_model, 200)
    rho = pearson(joint)
    svd = maxcorr_svd(joint).R
    ok = abs(svd - abs(rho)) <= 2e-3
    _report(5, "R equals |pearson| when sup at n=1", ok, f"R_svd={svd:.8f} |pearson|={abs(rho):.8f}")
    assert abs(svd - abs(rho)) <= 2e-3


def test_criterion_6_trivial_regression_with_positive_R(trivial_regression_model):
    model = trivial_regression_model
    linear = check_linear_regression(model)
    joint = discretize_model(model, 200)
    rho = pearson(joint)
    svd = maxcorr_svd(joint).R
    ok = (
        abs(linear.a1) <= 1e-8
        and abs(linear.b1) <= 1e-8
        and abs(rho) <= 1e-6
        and abs(svd - 0.15) <= 1e-3
    )
    _report(
        6,
        "trivial regression with positive R",
        ok,
        f"a1={linear.a1:.2e} b1={linear.b1:.2e} pearson={rho:.2e} R_svd={svd:.8f}",
    )
    assert abs(linear.a1) <= 1e-8 and abs(linear.b1) <= 1e-8
    assert abs(rho) <= 1e-6
    assert abs(svd - 0.15) <= 1e-3


def _random_marginal(rng) -> MarginalSpec:
    kind = rng.choice(["uniform", "beta", "table"])
    lo = float(rng.uniform(-2.0, 1.0))
    width = float(rng.uniform(0.5, 3.0))
    support = (lo, lo + width)
    if kind == "uniform":
        return MarginalSpec("uniform", support)
    if kind == "beta":
        return MarginalSpec("beta", support, (float(rng.integers(1, 5)), float(rng.integers(1, 5))))
    mid = lo + width * float(rng.uniform(0.3, 0.7))
    peak = 2.0 / width
    return MarginalSpec("table", support, ((lo, mid, lo + width), (0.0, peak, 0.0)))


def _random_models(count: int = 20):
    from lancaster_lab import build_system

    rng = np.random.default_rng(20250810)
    models = []
    while len(models) < count:
        marginal_x = _random_marginal(rng)
        marginal_y = _random_marginal(rng)
        length = int(rng.integers(1, 5))
        raw = rng.uniform(-1.0, 1.0, size=length)
        if np.max(np.abs(raw)) < 1e-3:
            continue
        degree = max(5, length)
        c = build_system(marginal_x, degree).sup_norms[1 : length + 1]
        d = build_system(marginal_y, degree).sup_norms[1 : length + 1]
        mass = float(np.sum(np.abs(raw) * c * d))
        target = float(rng.uniform(0.2, 0.95))
        models.append(
            build_model(marginal_x, marginal_y, raw * (target / mass), max_degree=degree)
        )
    return models


def test_criterion_7_property_suites(uniform01, beta23):
    worst = {
        "ortho": 0.0,
        "eigen": 0.0,
        "leading": 0.0,
        "marginal": 0.0,
        "density_min": np.inf,
        "spectrum": 0.0,
    }
    # orthonormality across uniform and beta(2, 3), degrees <= 8
    from lancaster_lab import build_system

    for marginal in (uniform01, beta23):
        system = build_system(marginal, 8)
        worst["ortho"] = max(worst["ortho"], orthonormality_residual(system, marginal, 300))

    for model in _random_models(20):
        count = len(model.coeffs)
        for n in range(1, count + 1):
            for oriented in (model, transpose_model(model)):
                grid = np.linspace(*oriented.marginal_y.support, 103)[1:-1]
                lhs = conditional_expectation(
                    oriented, lambda t, n=n, m=oriented: m.system_x.evaluate(n, t), grid
                )
                rhs = oriented.coeffs.rho[n - 1] * oriented.system_y.evaluate(n, grid)
                worst["eigen"] = max(worst["eigen"], float(np.max(np.abs(lhs - rhs))))
        for n in range(1, 6):
            for result in check_polynomial_regression(model, n):
                scale = max(abs(result.target_leading), 1.0)
                worst["leading"] = max(
                    worst["leading"], abs(result.fitted_leading - result.target_leading) / scale
                )
        worst["marginal"] = max(worst["marginal"], *marginal_residual(model))
        xs = np.linspace(*model.marginal_x.support, 256)
        ys = np.linspace(*model.marginal_y.support, 256)
        worst["density_min"] = min(
            worst["density_min"], float(np.min(model.density(xs[:, None], ys[None, :])))
        )
        spectrum = singular_spectrum(discretize_model(model, 200))
        expected = np.sort(np.concatenate([[1.0], np.abs(model.coeffs.rho)]))[::-1]
        worst["spectrum"] = max(
            worst["spectrum"], float(np.max(np.abs(spectrum[: count + 1] - expected)))
        )

    ok = (
        worst["ortho"] <= 1e-10
        and worst["eigen"] <= 1e-8
        and worst["leading"] <= 1e-7
        and worst["marginal"] <= 1e-9
        and worst["density_min"] >= 0.0
        and worst["spectrum"] <= 1e-3
    )
    _report(
        7,
        "property suites on 20 randomized models",
        ok,
        f"ortho={worst['ortho']:.2e} eigen={worst['eigen']:.2e} leading={worst['leading']:.2e}"
        f" marginal={worst['marginal']:.2e} density_min={worst['density_min']:.2e}"
        f" spectrum={worst['spectrum']:.2e}",
    )
    assert worst["ortho"] <= 1e-10
    assert worst["eigen"] <= 1e-8
    assert worst["leading"] <= 1e-7
    assert worst["marginal"] <= 1e-9
    assert worst["density_min"] >= 0.0
    assert worst["spectrum"] <= 1e-3


def test_criterion_8_sampling(ce_model):
    samples, stats = sample_joint(ce_model, 100_000, seed=42, with_stats=True)
    critical = scipy.stats.kstwobign.isf(0.01) / np.sqrt(samples.shape[0])
    ks_x = scipy.stats.kstest(samples[:, 0], "uniform").statistic
    ks_y = scipy.stats.kstest(samples[:, 1], "uniform").statistic
    values = ce_model.system_x.evaluate(1, samples[:, 0]) * ce_model.system_y.evaluate(
        1, samples[:, 1]
    )
    stderr = float(np.std(values) / np.sqrt(values.size))
    moment_error = abs(float(np.mean(values)) - 0.05)
    floor = 1.0 / (1.0 + ce_model.coeffs.bound_value) - 0.02
    ok = (
        ks_x < critical
        and ks_y < critical
        and moment_error <= 3.0 * stderr
        and stats.acceptance_rate >= floor
    )
    _report(
        8,
        "sampling",
        ok,
        f"KS=({ks_x:.5f},{ks_y:.5f})<{critical:.5f} moment_err={moment_error:.5f}"
        f"<=3se={3 * stderr:.5f} acceptance={stats.acceptance_rate:.4f}>={floor:.4f}",
    )
    assert ks_x < critical and ks_y < critical
    assert moment_error <= 3.0 * stderr
    assert stats.acceptance_rate >= floor


def test_criterion_9_bench_determinism(tmp_path):
    first = tmp_path / "bench_a.csv"
    second = tmp_path / "bench_b.csv"
    assert main(["bench", "--out", str(first)]) == 0
    assert main(["bench", "--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    _report(9, "bench determinism", identical, f"{first.stat().st_size} bytes, byte-identical={identical}")
    assert identical
