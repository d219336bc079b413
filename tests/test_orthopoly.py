import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lancaster_lab.orthopoly import (
    DegenerateMarginalError,
    MarginalSpec,
    OrthonormalityError,
    _golden_section_max,
    build_system,
    orthonormality_residual,
    sup_norm,
)
from lancaster_lab.quadrature import integrate


def shifted_legendre(n, x):
    """Closed-form orthonormal polynomials of the uniform density on [0, 1]."""
    return np.sqrt(2 * n + 1) * np.polynomial.legendre.Legendre.basis(n)(2.0 * np.asarray(x) - 1.0)


class TestMarginalSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            MarginalSpec("gaussian", (0.0, 1.0))

    @pytest.mark.parametrize("support", [(1.0, 1.0), (2.0, 0.0), (0.0, np.inf)])
    def test_bad_support_rejected(self, support):
        with pytest.raises(ValueError):
            MarginalSpec("uniform", support)

    @pytest.mark.parametrize("support", [(0.0, 1.0, 2.0), (0.0,), ()])
    def test_support_needs_exactly_two_endpoints(self, support):
        message = r"must be a pair \[alpha, omega\], got " + re.escape(repr(support))
        with pytest.raises(ValueError, match=message):
            MarginalSpec("uniform", support)

    def test_support_whose_width_overflows_is_rejected(self):
        with pytest.raises(ValueError, match="support"):
            MarginalSpec("uniform", (-1e308, 1e308))

    def test_beta_parameters_below_one_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            MarginalSpec("beta", (0.0, 1.0), (0.5, 2.0))

    def test_uniform_density_values(self):
        m = MarginalSpec("uniform", (1.0, 3.0))
        assert m.density(2.0) == pytest.approx(0.5)
        assert m.density(0.5) == 0.0
        assert m.density(3.5) == 0.0

    def test_beta_density_normalizes(self):
        m = MarginalSpec("beta", (-1.0, 2.0), (2.0, 3.0))
        rule = m.quadrature_rule(128)
        assert integrate(m.density, rule) == pytest.approx(1.0, abs=1e-12)

    def test_table_renormalized_when_nearly_normalized(self):
        # trapezoid mass is 1 + 5e-7: inside the renormalization window
        values = (0.0, 1.0 + 5e-7, 0.0)
        m = MarginalSpec("table", (0.0, 2.0), ((0.0, 1.0, 2.0), values))
        rule = m.quadrature_rule(64)
        assert integrate(m.density, rule) == pytest.approx(1.0, abs=1e-12)

    def test_table_with_large_mass_error_rejected(self):
        with pytest.raises(ValueError, match="integrates"):
            MarginalSpec("table", (0.0, 2.0), ((0.0, 1.0, 2.0), (0.0, 1.1, 0.0)))

    def test_table_negative_values_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            MarginalSpec("table", (0.0, 2.0), ((0.0, 1.0, 2.0), (0.0, -1.0, 0.0)))

    def test_table_knots_must_match_support(self):
        with pytest.raises(ValueError, match="span"):
            MarginalSpec("table", (0.0, 3.0), ((0.0, 1.0, 2.0), (0.0, 1.0, 0.0)))


class TestBuildSystemClosedForms:
    def test_symmetric_uniform_degree_one(self):
        system = build_system(MarginalSpec("uniform", (-1.0, 1.0)), 3)
        # phi_1(x) = sqrt(3) x with leading coefficient sqrt(3)
        assert system.leading[1] == pytest.approx(np.sqrt(3.0), rel=1e-12)
        xs = np.linspace(-1.0, 1.0, 7)
        np.testing.assert_allclose(system.evaluate(1, xs), np.sqrt(3.0) * xs, atol=1e-12)
        assert system.evaluate(1, 0.5) == pytest.approx(np.sqrt(3.0) * 0.5, rel=1e-12)

    def test_unit_uniform_degree_two(self, uniform01):
        system = build_system(uniform01, 2)
        # phi_2(x) = sqrt(5)(6x^2 - 6x + 1), leading coefficient 6 sqrt(5)
        assert system.leading[2] == pytest.approx(6.0 * np.sqrt(5.0), rel=1e-12)
        xs = np.linspace(0.0, 1.0, 9)
        np.testing.assert_allclose(
            system.evaluate(2, xs), np.sqrt(5.0) * (6.0 * xs**2 - 6.0 * xs + 1.0), atol=1e-11
        )
        assert system.evaluate(2, 0.0) == pytest.approx(np.sqrt(5.0), rel=1e-12)

    def test_degree_zero_is_the_unit_constant(self, beta23):
        system = build_system(beta23, 4)
        assert system.evaluate(0, 0.37) == pytest.approx(1.0, rel=1e-12)
        assert system.leading[0] == pytest.approx(1.0, rel=1e-12)
        assert system.sup_norms[0] == 1.0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_reference_legendre_on_grid(self, uniform01, n):
        system = build_system(uniform01, 8)
        xs = np.linspace(0.0, 1.0, 33)
        np.testing.assert_allclose(system.evaluate(n, xs), shifted_legendre(n, xs), atol=1e-10)

    def test_recurrence_matches_analytic_legendre(self):
        # uniform on [a, b]: alpha_k = (a+b)/2, b_k = (b-a)/2 * k / sqrt(4k^2 - 1)
        a, b = -0.5, 2.0
        system = build_system(MarginalSpec("uniform", (a, b)), 8)
        np.testing.assert_allclose(system.recurrence_alpha, np.full(8, (a + b) / 2), atol=1e-10)
        k = np.arange(1, 8)
        expected = (b - a) / 2 * k / np.sqrt(4.0 * k**2 - 1.0)
        np.testing.assert_allclose(system.recurrence_beta, expected, atol=1e-10)


class TestOrthonormality:
    @pytest.mark.parametrize("kind", ["uniform", "beta", "table"])
    def test_residual_below_threshold(self, kind, uniform01, beta23, triangle_table):
        marginal = {"uniform": uniform01, "beta": beta23, "table": triangle_table}[kind]
        system = build_system(marginal, 8)
        assert orthonormality_residual(system, marginal, 300) <= 1e-10

    def test_leading_coefficients_strictly_positive(self, beta23):
        system = build_system(beta23, 8)
        assert np.all(system.leading > 0)

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_evaluate_agrees_with_degree_n_polynomial(self, uniform01, n):
        # (n+1)-th order finite differences of a degree-n polynomial vanish
        system = build_system(uniform01, 8)
        xs = np.linspace(0.2, 0.8, n + 2)
        values = system.evaluate(n, xs)
        assert abs(np.diff(values, n=n + 1)[0]) <= 1e-8 * (1.0 + np.max(np.abs(values)))

    def test_monomial_coefficients_reproduce_evaluation(self, beta23):
        system = build_system(beta23, 6)
        coeffs = system.monomial_coefficients(6)
        xs = np.linspace(0.1, 0.9, 11)
        for n in range(7):
            direct = system.evaluate(n, xs)
            via_coeffs = np.polyval(coeffs[n][::-1], xs)
            np.testing.assert_allclose(via_coeffs, direct, atol=1e-9)
        np.testing.assert_allclose(np.diag(coeffs), system.leading, rtol=1e-9)


class TestSupNorm:
    def test_unit_uniform_closed_forms(self, uniform01):
        system = build_system(uniform01, 8)
        assert sup_norm(system, 1) == pytest.approx(np.sqrt(3.0), rel=1e-8)
        assert sup_norm(system, 2) == pytest.approx(np.sqrt(5.0), rel=1e-8)
        # shifted Legendre attains its maximum modulus at the endpoints
        np.testing.assert_allclose(system.sup_norms[1:], np.sqrt(2 * np.arange(1, 9) + 1), rtol=1e-8)

    def test_never_below_one(self, beta23, triangle_table):
        for marginal in (beta23, triangle_table):
            system = build_system(marginal, 8)
            assert np.all(system.sup_norms >= 1.0)

    @pytest.mark.parametrize("n", [1, 3, 6, 8])
    def test_soundness_on_random_points(self, beta23, n):
        system = build_system(beta23, 8)
        rng = np.random.default_rng(n)
        xs = rng.uniform(0.0, 1.0, size=10_000)
        assert np.max(np.abs(system.evaluate(n, xs))) <= system.sup_norms[n] * (1.0 + 1e-8)

    def test_degree_out_of_range(self, uniform01):
        system = build_system(uniform01, 3)
        with pytest.raises(ValueError, match="degree-out-of-range"):
            sup_norm(system, 4)
        with pytest.raises(ValueError, match="degree-out-of-range"):
            system.evaluate(9, 0.5)


@pytest.fixture(
    scope="module",
    params=[(kind, degree) for kind in ("uniform01", "beta23", "triangle_table") for degree in (8, 16)],
    ids=lambda param: f"{param[0]}-{param[1]}",
)
def system_case(request):
    kind, degree = request.param
    return build_system(request.getfixturevalue(kind), degree)


def _array_path_sup_norm(system, n):
    """sup_norm with every golden-section step evaluated through evaluate_all."""
    lo, hi = system.support
    count = 64 * n
    grid = 0.5 * (lo + hi) - 0.5 * (hi - lo) * np.cos(np.linspace(0.0, np.pi, count))
    values = np.abs(system.evaluate_all(grid, upto=n)[n])
    j = int(np.argmax(values))
    refined = _golden_section_max(
        lambda t: abs(float(system.evaluate_all(np.asarray(t), upto=n)[n])),
        grid[max(j - 1, 0)],
        grid[min(j + 1, count - 1)],
        tol=(hi - lo) * 1e-12,
    )
    return max(float(values[j]), refined, 1.0)


class TestScalarEvaluation:
    def test_one_point_matches_the_array_path_bitwise(self, system_case):
        lo, hi = system_case.support
        points = [lo, hi] + np.random.default_rng(5).uniform(lo, hi, size=200).tolist()
        for n in range(system_case.max_degree + 1):
            scalar = np.array([system_case.evaluate(n, t) for t in points])
            array = np.array([system_case.evaluate_all(np.asarray(t), upto=n)[n] for t in points])
            assert scalar.tobytes() == array.tobytes(), f"degree {n}"

    def test_sup_norms_match_the_array_path_search_bitwise(self, system_case):
        degrees = range(1, system_case.max_degree + 1)
        expected = [1.0] + [_array_path_sup_norm(system_case, n) for n in degrees]
        assert system_case.sup_norms.tobytes() == np.array(expected).tobytes()

    def test_offdiagonals_are_stored_read_only(self, system_case):
        expected = np.append(system_case.recurrence_beta, system_case.leading[-2] / system_case.leading[-1])
        assert system_case.offdiagonals.tobytes() == expected.tobytes()
        assert not system_case.offdiagonals.flags.writeable
        with pytest.raises(ValueError):
            system_case.offdiagonals[0] = 1.0

    @pytest.mark.parametrize("x", [0.25, 0, np.float64(0.75)], ids=["float", "int", "float64"])
    def test_one_point_returns_a_python_float(self, uniform01, x):
        system = build_system(uniform01, 4)
        for n in range(5):
            assert type(system.evaluate(n, x)) is float


class TestDegenerateMarginal:
    def test_spike_table_cannot_carry_high_degrees(self):
        # density is a triangle of half-width 5e-7: effectively one support
        # point, so the degree-two recurrence coefficient collapses
        delta = 5e-7
        knots = (0.0, 0.5 - delta, 0.5, 0.5 + delta, 1.0)
        values = (0.0, 0.0, 1.0 / delta, 0.0, 0.0)
        spike = MarginalSpec("table", (0.0, 1.0), (knots, values))
        with pytest.raises(DegenerateMarginalError, match="degenerate-marginal"):
            build_system(spike, 3)

    def test_too_few_quadrature_nodes_rejected(self, uniform01):
        with pytest.raises(ValueError):
            build_system(uniform01, 8, quad_nodes=4)


@given(
    a=st.floats(-4.0, 3.0),
    width=st.floats(0.05, 8.0),
    degree=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=20)
def test_orthonormality_holds_on_random_uniform_supports(a, width, degree):
    marginal = MarginalSpec("uniform", (a, a + width))
    system = build_system(marginal, degree)
    assert orthonormality_residual(system, marginal, 150) <= 1e-10


@given(alpha=st.floats(1.0, 5.0), beta_param=st.floats(1.0, 5.0))
@settings(max_examples=15)
def test_sup_norm_soundness_for_integer_ish_beta(alpha, beta_param):
    marginal = MarginalSpec("beta", (0.0, 1.0), (round(alpha), round(beta_param)))
    system = build_system(marginal, 5)
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.0, 1.0, size=2_000)
    values = np.abs(system.evaluate_all(xs))
    bounds = system.sup_norms[:, None] * (1.0 + 1e-8)
    assert np.all(values <= bounds)


class TestSupportFarFromZero:
    def test_sup_norms_on_a_narrow_far_support(self):
        # the float spacing near 1e4 exceeds the search's relative tolerance
        system = build_system(MarginalSpec("uniform", (1e4, 1e4 + 1.0)), 2)
        assert system.sup_norms[1] == pytest.approx(np.sqrt(3.0), rel=1e-8)
        assert system.sup_norms[2] == pytest.approx(np.sqrt(5.0), rel=1e-8)

    def test_golden_section_ends_below_the_float_spacing(self):
        peak = _golden_section_max(lambda t: -abs(t - 0.3), 0.0, 1.0, tol=0.0)
        assert peak == pytest.approx(0.0, abs=1e-15)

    def test_overflowing_recurrence_names_the_overflow_without_warnings(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="stieltjes-overflow") as error:
                build_system(MarginalSpec("uniform", (1e308, 1.7e308)), 2)
        assert "1e+308" in str(error.value)
        assert not isinstance(error.value, DegenerateMarginalError)
        assert caught == []


class TestOrthonormalityFailure:
    @pytest.mark.parametrize(
        "marginal,degree",
        [
            (MarginalSpec("uniform", (1e5, 100001.0)), 8),
            (MarginalSpec("beta", (0.0, 1.0), (1.5, 1.5)), 4),
        ],
        ids=["uniform-far-from-zero", "beta-1.5"],
    )
    def test_failure_has_its_own_kind_and_names_its_context(self, marginal, degree):
        with pytest.raises(OrthonormalityError, match="orthonormality-failed") as error:
            build_system(marginal, degree)
        message = str(error.value)
        assert isinstance(error.value, ValueError)
        assert "Gram residual" in message and repr(marginal.support) in message
        assert f"max_degree {degree}" in message and "quad_nodes 128" in message
        assert "increase quad_nodes" not in message

    def test_a_larger_rule_does_not_rescue_a_support_far_from_zero(self):
        # rounding of x - a_k near 1e5, not the rule size, sets the residual
        with pytest.raises(OrthonormalityError, match="quad_nodes 512"):
            build_system(MarginalSpec("uniform", (1e5, 100001.0)), 8, quad_nodes=512)


class TestMassOnTheRule:
    def test_a_density_zero_on_every_node_is_degenerate(self):
        # beta(8296574, 3) underflows to 0 at all 128 nodes; the Stieltjes
        # step used to divide by its zero mass
        with pytest.raises(DegenerateMarginalError, match="zero on all 128 quadrature nodes"):
            build_system(MarginalSpec("beta", (0.0, 1.0), (8296574.0, 3.0)), 4)

    @pytest.mark.parametrize("params", [(2.56e305, 3.0), (1e308, 1e308)])
    def test_beta_parameters_whose_normalizer_overflows_are_rejected(self, params):
        with pytest.raises(ValueError, match="beta parameters too large"):
            MarginalSpec("beta", (0.0, 1.0), params)
