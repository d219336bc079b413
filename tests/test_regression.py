import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import lancaster_lab
from lancaster_lab import regression
from lancaster_lab.lancaster import build_model, discretize_model, model_from_config, transpose_model
from lancaster_lab.orthopoly import MarginalSpec, OrthonormalityError, build_system
from lancaster_lab.quadrature import gauss_legendre_rule, integrate
from lancaster_lab.regression import (
    check_eigen_regression,
    check_linear_regression,
    check_polynomial_regression,
    conditional_expectation,
    counterexample_report,
)
from reference_routes import conditional_density_x_given_y


def report_on_grid(model, grid=200):
    """The counterexample report of a model on its joint at ``grid`` nodes per axis."""
    return counterexample_report(model, discretize_model(model, grid))


def quadrature_conditional_mean(model, h, y, nodes=512):
    """Independent route: integrate h against the conditional density directly."""
    lo, hi = model.marginal_x.support
    rule = gauss_legendre_rule(nodes, lo, hi)
    return integrate(lambda x: h(x) * conditional_density_x_given_y(model, x, y), rule)


class TestConditionalExpectation:
    def test_constant_integrates_to_one(self, ce_model):
        for y in (0.1, 0.4, 0.9):
            value = conditional_expectation(ce_model, lambda x: np.ones_like(x), y)
            assert isinstance(value, float)
            assert value == pytest.approx(1.0, abs=1e-10)

    def test_eigenfunction_value(self, ce_model):
        value = conditional_expectation(
            ce_model, lambda x: ce_model.system_x.evaluate(1, x), 0.3
        )
        expected = 0.05 * ce_model.system_y.evaluate(1, 0.3)
        assert value == pytest.approx(expected, abs=1e-9)

    def test_degree_beyond_truncation_vanishes(self, ce_model):
        value = conditional_expectation(
            ce_model, lambda x: ce_model.system_x.evaluate(3, x), 0.3
        )
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_agrees_with_direct_quadrature(self, ce_model):
        h = lambda x: x**3 - 0.2 * x
        for y in (0.25, 0.7):
            fast = conditional_expectation(ce_model, h, y)
            slow = quadrature_conditional_mean(ce_model, h, y)
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_sums_over_the_rule_the_model_was_verified_with(self, ce_model, monkeypatch):
        expected = conditional_expectation(ce_model, lambda x: x**3, 0.3)

        def no_rule(*args, **kwargs):
            raise AssertionError("a rule was rebuilt for a model that carries its own")

        monkeypatch.setattr(MarginalSpec, "quadrature_rule", no_rule)
        assert conditional_expectation(ce_model, lambda x: x**3, 0.3) == expected

    def test_rejects_a_non_finite_h(self, ce_model):
        with pytest.raises(ValueError, match="non-finite-evaluation"):
            conditional_expectation(ce_model, lambda x: np.where(x < 0.5, np.inf, x), 0.3)

    def test_rejects_unsupported_conditioning_point(self, ce_model, beta23):
        with pytest.raises(ValueError, match="unsupported-conditioning-point"):
            conditional_expectation(ce_model, lambda x: x, 1.7)
        model = build_model(MarginalSpec("uniform", (0.0, 1.0)), beta23, (0.02,))
        # the beta(2, 3) density vanishes at its endpoints
        with pytest.raises(ValueError, match="unsupported-conditioning-point"):
            conditional_expectation(model, lambda x: x, 0.0)


class TestEigenRegression:
    def test_independence_residual_tiny(self, independence_model):
        for_x, for_y = check_eigen_regression(independence_model, 1)
        assert for_x.max_residual <= 1e-9
        assert for_y.max_residual <= 1e-9
        assert for_x.target_leading == 0.0

    @pytest.mark.parametrize("n", [1, 2])
    def test_headline_model_identity(self, ce_model, n):
        for result in check_eigen_regression(ce_model, n):
            assert result.max_residual <= 1e-8

    def test_directions_are_labeled(self, ce_model):
        for_x, for_y = check_eigen_regression(ce_model, 1)
        assert for_x.direction == "x_given_y"
        assert for_y.direction == "y_given_x"

    def test_degree_out_of_range(self, ce_model):
        with pytest.raises(ValueError, match="degree-out-of-range"):
            check_eigen_regression(ce_model, 9)


class TestPolynomialRegression:
    def test_affine_case_slope_and_intercept(self, ce_model):
        # identical marginals make p_1 = q_1, so the slope is rho_1 itself and
        # taking means gives the intercept (1 - rho_1) / 2
        result, _ = check_polynomial_regression(ce_model, 1)
        intercept, slope = result.fitted_coeffs
        assert slope == pytest.approx(0.05, rel=1e-9)
        assert intercept == pytest.approx((1.0 - 0.05) / 2.0, rel=1e-9)

    def test_independence_has_constant_fit(self, independence_model):
        for n in (1, 2, 3):
            result, _ = check_polynomial_regression(independence_model, n)
            assert result.fitted_leading == pytest.approx(0.0, abs=1e-10)
            moment = conditional_expectation(independence_model, lambda x: x**n, 0.5)
            assert result.fitted_coeffs[0] == pytest.approx(moment, rel=1e-9)

    def test_degree_two_leading_coefficient(self, ce_model):
        result, _ = check_polynomial_regression(ce_model, 2)
        assert result.target_leading == pytest.approx(0.15, rel=1e-12)
        assert result.fitted_leading == pytest.approx(0.15, rel=1e-7)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_leading_coefficients_both_directions(self, ce_model, n):
        for result in check_polynomial_regression(ce_model, n):
            assert result.max_residual <= 1e-8
            scale = max(abs(result.target_leading), 1.0)
            assert abs(result.fitted_leading - result.target_leading) <= 1e-7 * scale

    def test_asymmetric_marginals_flip_the_ratio(self, uniform01, beta23):
        model = build_model(uniform01, beta23, (0.02, 0.04))
        given_y, given_x = check_polynomial_regression(model, 2)
        ratio = model.system_y.leading[2] / model.system_x.leading[2]
        assert given_y.target_leading == pytest.approx(0.04 * ratio, rel=1e-12)
        assert given_x.target_leading == pytest.approx(0.04 / ratio, rel=1e-12)
        for result in (given_y, given_x):
            assert abs(result.fitted_leading - result.target_leading) <= 1e-7 * max(
                abs(result.target_leading), 1.0
            )

    @pytest.mark.parametrize("check", [check_eigen_regression, check_polynomial_regression])
    def test_a_system_foreign_to_its_rule_raises(self, ce_model, beta23, check):
        # the beta(2, 3) system is not orthonormal on the uniform rule, so the
        # Gram matrix of the x-given-y pass is far off the identity
        foreign = dataclasses.replace(ce_model, system_y=build_system(beta23, ce_model.system_y.max_degree))
        with pytest.raises(OrthonormalityError, match="x_given_y"):
            check(foreign, 1)


class TestLinearRegression:
    def test_headline_model_slopes(self, ce_model):
        result = check_linear_regression(ce_model)
        assert result.a1 == pytest.approx(0.05, abs=1e-8)
        assert result.b1 == pytest.approx(0.05, abs=1e-8)
        assert result.a0 == pytest.approx(0.475, abs=1e-8)
        assert result.residual <= 1e-8
        assert result.strict

    def test_independence_is_constant_regression(self, independence_model):
        result = check_linear_regression(independence_model)
        assert result.a1 == pytest.approx(0.0, abs=1e-10)
        assert result.b1 == pytest.approx(0.0, abs=1e-10)
        assert not result.strict

    def test_trivial_regression_with_positive_maxcorr(self, trivial_regression_model):
        result = check_linear_regression(trivial_regression_model)
        assert result.a1 == pytest.approx(0.0, abs=1e-8)
        assert result.b1 == pytest.approx(0.0, abs=1e-8)
        assert not result.strict

    def test_slope_consistency_with_pearson(self, ce_model):
        # a1 = rho_1 q_1 / p_1 and the grid Pearson value is rho_1
        result = check_linear_regression(ce_model)
        expected = 0.05 * ce_model.system_y.leading[1] / ce_model.system_x.leading[1]
        assert result.a1 == pytest.approx(expected, abs=1e-8)


class TestCounterexampleReport:
    def test_a_report_needs_the_joint_it_measures(self, ce_model):
        with pytest.raises(TypeError, match="joint"):
            counterexample_report(ce_model)

    def test_headline_model_confirms(self, ce_model):
        report = report_on_grid(ce_model)
        assert report.correlation.gap == pytest.approx(0.10, abs=2e-3)
        assert report.linear.strict
        assert report.counterexample_confirmed
        assert not report.degenerate_comparison
        assert report.correlation.pearson == pytest.approx(0.05, abs=1e-6)
        assert report.bound_value == pytest.approx(0.9, abs=1e-9)

    def test_maximum_at_degree_one_closes_the_gap(self, swapped_model):
        report = report_on_grid(swapped_model)
        assert abs(report.correlation.gap) <= 2e-3
        assert not report.counterexample_confirmed
        assert report.linear.strict

    @pytest.mark.parametrize(
        "support_x,support_y",
        [((0.0, 1e-5), (0.0, 1e4)), ((0.0, 1e-9), (0.0, 1.0)), ((0.0, 1e9), (0.0, 1e9))],
        ids=["1e-5-by-1e4", "1e-9-by-1", "1e9-by-1e9"],
    )
    def test_strictness_does_not_depend_on_units(self, support_x, support_y):
        # a1 = rho_1 sd(X) / sd(Y) is 5e-11 on the first two, below 1e-10, but a1 b1 = rho_1^2;
        # on the third the degree-1 fits miss by ~6e-8, one ulp of a conditional mean near 5e8
        model = build_model(MarginalSpec("uniform", support_x), MarginalSpec("uniform", support_y), (0.05, 0.15))
        report = report_on_grid(model)
        assert report.linear.a1 * report.linear.b1 == pytest.approx(0.05**2, rel=1e-9)
        assert report.linear.strict
        assert report.counterexample_confirmed
        assert report.correlation.pearson == pytest.approx(0.05, abs=1e-6)
        assert report.maxcorr_analytic == 0.15

    @pytest.mark.parametrize("scale,confirmed", [(0.99, True), (1.01, False)])
    @pytest.mark.parametrize("direction", [0, 1], ids=["x_given_y", "y_given_x"])
    def test_each_degree_one_fit_is_gated_at_1e_8_sd(self, ce_model, monkeypatch, direction, scale, confirmed):
        original = regression.check_polynomial_regression
        system = (ce_model.system_x, ce_model.system_y)[direction]

        def one_fit_misses(model, n):
            fits = list(original(model, n))
            if n == 1:
                miss = scale * 1e-8 * system.offdiagonals[0]
                fits[direction] = dataclasses.replace(fits[direction], max_residual=miss)
            return tuple(fits)

        monkeypatch.setattr(regression, "check_polynomial_regression", one_fit_misses)
        report = report_on_grid(ce_model)
        assert report.linear.strict and report.gap_positive
        assert report.counterexample_confirmed is confirmed

    def test_trivial_regression_case(self, trivial_regression_model):
        report = report_on_grid(trivial_regression_model)
        assert not report.linear.strict
        assert not report.counterexample_confirmed
        assert report.correlation.maxcorr_svd == pytest.approx(0.15, abs=1e-3)
        assert report.correlation.pearson == pytest.approx(0.0, abs=1e-6)

    def test_independence_is_flagged_degenerate(self, independence_model):
        report = report_on_grid(independence_model)
        assert report.degenerate_comparison
        assert abs(report.correlation.gap) <= 2e-3

    def test_gap_characterization(self, uniform01):
        # the gap opens exactly when the coefficient maximum moves past degree 1
        opening = report_on_grid(build_model(uniform01, uniform01, (0.02, 0.1)))
        assert opening.correlation.gap > 5e-3
        closed = report_on_grid(build_model(uniform01, uniform01, (0.1, 0.02)))
        assert closed.correlation.gap < 2e-3

    def test_degree_checks_cover_the_sequence(self, ce_model):
        report = report_on_grid(ce_model)
        assert tuple(c.degree for c in report.degree_checks) == (1, 2)
        for checks in report.degree_checks:
            assert checks.eigen_x_given_y.max_residual <= 1e-8
            assert checks.poly_y_given_x.max_residual <= 1e-8

    @pytest.mark.parametrize("transposed", [False, True])
    def test_a_table_with_a_zero_density_gap_confirms(self, uniform01, transposed):
        # the table vanishes on [0.4, 0.6]: conditioning there is undefined,
        # and the checks condition only at rule nodes that carry mass
        values = tuple(v / 0.7 for v in (1.0, 1.0, 0.0, 0.0, 1.0, 1.0))
        gap_table = MarginalSpec("table", (0.0, 1.0), ((0.0, 0.3, 0.4, 0.6, 0.7, 1.0), values))
        model = build_model(gap_table, uniform01, (0.05, 0.1))
        report = report_on_grid(transpose_model(model) if transposed else model)
        assert report.counterexample_confirmed
        for checks in report.degree_checks:
            assert checks.eigen_x_given_y.max_residual <= 1e-8
            assert checks.eigen_y_given_x.max_residual <= 1e-8


@pytest.fixture(scope="module")
def asymmetric_model(uniform01, beta23):
    return build_model(beta23, uniform01, (0.01, 0.03))


class TestLinearRegressionReadsTheDegreeOneFits:
    @pytest.mark.parametrize(
        "name", ["ce_model", "swapped_model", "independence_model", "asymmetric_model"]
    )
    def test_coefficients_and_residual_are_the_degree_one_fits(self, request, name):
        model = request.getfixturevalue(name)
        fit_x, fit_y = check_polynomial_regression(model, 1)
        result = check_linear_regression(model)
        assert (result.a0, result.a1) == fit_x.fitted_coeffs
        assert (result.b0, result.b1) == fit_y.fitted_coeffs
        assert result.residual == max(fit_x.max_residual, fit_y.max_residual)


@pytest.fixture(scope="module")
def workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def deep_model(workloads):
    """Config (d) of the verify-models benchmark for seed 7: uniform x beta, N = 12, max_degree 16."""
    cfg = workloads.model_configs(lancaster_lab, np.random.default_rng(7))[3]
    assert cfg["rho_builder"]["N"] == 12 and cfg["max_degree"] == 16
    return model_from_config(cfg)


def test_leading_coefficients_of_the_benchmark_configs(workloads):
    # the 80 verify-models configs of seeds 1-20, both directions: degrees
    # 1-9 reach at worst 6.7e-8. Degrees 10-12 are not gated: the degree-n
    # part of E(X^n | Y) is tiny next to its mean, and the rounding of the
    # computed moments alone puts the fit up to 3.9e-4 off there
    for seed in range(1, 21):
        for cfg in workloads.model_configs(lancaster_lab, np.random.default_rng(seed)):
            model = model_from_config(cfg)
            for n in range(1, min(len(model.coeffs), 9) + 1):
                for result in check_polynomial_regression(model, n):
                    scale = max(abs(result.target_leading), 1.0)
                    assert abs(result.fitted_leading - result.target_leading) <= 1e-7 * scale, (seed, n)


def per_k_loop(model, h, y):
    """E(h(X) | Y = y) by the one-term-at-a-time series sum, for one scalar-valued h."""
    nodes = model.rule_x.nodes
    weights = model.rule_x.weights * model.marginal_x.density(nodes)
    h_vals = h(nodes)
    n = len(model.coeffs)
    phi = model.system_x.evaluate_all(nodes, upto=n)
    psi = model.system_y.evaluate_all(y, upto=n)
    result = float(weights @ h_vals) * np.ones_like(y)
    for k, r in enumerate(model.coeffs.rho, start=1):
        result = result + r * float(weights @ (h_vals * phi[k])) * psi[k]
    return result


def _assert_rows_close(stacked, reference, floor=0.0):
    # each row within 1e-15 of its own largest magnitude, plus an absolute floor
    scale = np.max(np.abs(reference), axis=-1, keepdims=True)
    assert np.all(np.abs(stacked - reference) <= 1e-15 * scale + floor)


class TestOneConditioningPassPerDirection:
    def test_a_report_conditions_once_per_direction(self, deep_model, monkeypatch):
        calls = []

        def spy(model, h, y):
            calls.append(model)
            return conditional_expectation(model, h, y)

        regression._conditioning_passes.cache_clear()
        monkeypatch.setattr(regression, "conditional_expectation", spy)
        report = report_on_grid(deep_model)
        assert len(calls) == 2
        assert calls[0] is deep_model
        assert calls[1].marginal_x is deep_model.marginal_y
        assert len(report.degree_checks) == 12

    def test_a_report_s_linear_result_is_its_two_degree_one_fits(self, deep_model):
        regression._conditioning_passes.cache_clear()
        report = report_on_grid(deep_model)
        fit_x, fit_y = report.degree_checks[0].poly_x_given_y, report.degree_checks[0].poly_y_given_x
        assert report.linear == (
            fit_x.fitted_coeffs[1],
            fit_x.fitted_coeffs[0],
            fit_y.fitted_coeffs[1],
            fit_y.fitted_coeffs[0],
            max(fit_x.max_residual, fit_y.max_residual),
        )

    def test_stacked_rows_match_single_calls_and_the_per_k_loop(self, deep_model):
        grid = np.linspace(*deep_model.marginal_y.support, 103)[1:-1]
        lo, hi = deep_model.marginal_x.support
        scalar_hs = [lambda t, n=n: t**n for n in range(1, 13)]
        scalar_hs += [np.exp, lambda t: np.cos(3.0 * (t - lo) / (hi - lo))]
        stacked = conditional_expectation(
            deep_model, lambda t: np.stack([h(t) for h in scalar_hs]), grid
        )
        assert stacked.shape == (len(scalar_hs), grid.size)
        single = np.stack([conditional_expectation(deep_model, h, grid) for h in scalar_hs])
        loop = np.stack([per_k_loop(deep_model, h, grid) for h in scalar_hs])
        _assert_rows_close(stacked, single)
        _assert_rows_close(stacked, loop)

    def test_eigen_rows_agree_to_the_orthogonality_noise(self, deep_model):
        # E(phi_n | Y) is rho_n psi_n: for small rho_n the row is tiny, and both
        # routes carry the rounding of the near-zero projections <phi_n, phi_k>
        # (up to about 1e-16 absolute), which no other summation order reproduces
        grid = np.linspace(*deep_model.marginal_y.support, 103)[1:-1]
        system = deep_model.system_x
        stacked = conditional_expectation(
            deep_model, lambda t: system.evaluate_all(t, upto=12)[1:], grid
        )
        loop = np.stack(
            [per_k_loop(deep_model, lambda t, n=n: system.evaluate(n, t), grid) for n in range(1, 13)]
        )
        _assert_rows_close(stacked, loop, floor=2e-16)

    def test_vector_h_at_one_point_gives_one_value_per_row(self, ce_model):
        value = conditional_expectation(ce_model, lambda t: np.stack([t, t * t]), 0.3)
        assert value.shape == (2,)
        assert value[0] == pytest.approx(conditional_expectation(ce_model, lambda t: t, 0.3), rel=1e-14)

    def test_alternating_models_get_their_own_checks(self, uniform01):
        first = build_model(uniform01, uniform01, (0.05, 0.15))
        second = build_model(uniform01, uniform01, (0.15, 0.05))
        regression._conditioning_passes.cache_clear()
        seen = []
        for _ in range(2):
            for model in (first, second):
                seen.append(
                    (
                        model,
                        check_eigen_regression(model, 2),
                        check_polynomial_regression(model, 1),
                        check_linear_regression(model),
                    )
                )
        assert seen[0][1][0].target_leading == 0.15
        assert seen[1][1][0].target_leading == 0.05
        assert seen[0][2][0].fitted_leading == pytest.approx(0.05, rel=1e-9)
        assert seen[1][2][0].fitted_leading == pytest.approx(0.15, rel=1e-9)
        for model, eigen, poly, linear in seen:
            regression._conditioning_passes.cache_clear()
            assert check_eigen_regression(model, 2) == eigen
            regression._conditioning_passes.cache_clear()
            assert check_polynomial_regression(model, 1) == poly
            regression._conditioning_passes.cache_clear()
            assert check_linear_regression(model) == linear


class TestIntegerDegrees:
    @pytest.mark.parametrize("degree", [1.5, 2.0, True, False, "2", None])
    @pytest.mark.parametrize("check", [check_eigen_regression, check_polynomial_regression])
    def test_non_integer_degrees_are_out_of_range(self, ce_model, check, degree):
        with pytest.raises(ValueError, match="degree-out-of-range"):
            check(ce_model, degree)

    @pytest.mark.parametrize("check", [check_eigen_regression, check_polynomial_regression])
    def test_numpy_integers_are_accepted(self, ce_model, check):
        results = check(ce_model, np.int64(2))
        assert results == check(ce_model, 2)
        assert all(type(result.degree) is int for result in results)
