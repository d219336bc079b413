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
    OrthonormalSystem,
    build_system,
    orthonormality_residual,
    sup_norm,
)
from lancaster_lab.quadrature import integrate
from reference_routes import recurrence_allocating


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

    @pytest.mark.parametrize(
        "kind,support,params,message",
        [
            ("beta", (0, 1), ("2", True), "beta param 'a' must be a real number, got '2'"),
            ("beta", (0, 1), (2, True), "beta param 'b' must be a real number, got True"),
            ("table", (0, 2), ("012", (0, True, 0)), "table param 'x' must be a sequence of real numbers"),
            ("table", (0, 2), ((0, 1, 2), (0, True, 0)), "table param 'density' must be a real number"),
            ("table", (0, 2), ((0, 1, 2), 5), "table param 'density' must be a sequence of real numbers"),
            ("uniform", "01", (), "marginal support must be a sequence of real numbers"),
            ("uniform", (0, None), (), "marginal support must be a real number, got None"),
            ("uniform", (0, 10**400), (), "marginal support is too large for a float"),
            ("uniform", np.array(1.0), (), "marginal support must be a sequence of real numbers, got array(1.)"),
            ("table", (0, 2), (np.array(1.0), (0, 1, 2)), "table param 'x' must be a sequence of real numbers"),
            ("uniform", [0, [1, 2]], (), "marginal support must be a real number, got [1, 2]"),
        ],
        ids=["beta-a", "beta-b", "table-x", "table-density", "table-density-number", "support-string",
             "support-none", "support-huge-int", "support-0d-array", "table-x-0d-array", "support-ragged"],
    )
    def test_numbers_of_another_type_are_rejected_naming_the_field(self, kind, support, params, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            MarginalSpec(kind, support, params)

    def test_numpy_numbers_are_read_as_floats(self):
        m = MarginalSpec("beta", (np.int64(0), np.float32(1.0)), (np.int32(2), np.float64(3.0)))
        assert m.support == (0.0, 1.0) and m.params == (2.0, 3.0)
        assert all(type(v) is float for v in m.support + m.params)

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("uniform", (1.0,)),
            ("uniform", None),
            ("beta", (2.0,)),
            ("beta", (2.0, 3.0, 1.0)),
            ("table", ((0.0, 1.0),)),
        ],
    )
    def test_param_count_follows_the_kind(self, kind, params):
        with pytest.raises(ValueError, match=f"{kind} marginal needs params"):
            MarginalSpec(kind, (0.0, 1.0), params)

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

    @pytest.mark.parametrize("kind", ["uniform", "beta", "table"])
    def test_measure_is_the_rule_times_the_density(self, kind, uniform01, beta23, triangle_table):
        marginal = {"uniform": uniform01, "beta": beta23, "table": triangle_table}[kind]
        nodes, masses = marginal.measure(64)
        rule = marginal.quadrature_rule(64)
        assert nodes.tobytes() == rule.nodes.tobytes()
        assert masses.tobytes() == (rule.weights * marginal.density(rule.nodes)).tobytes()
        assert np.sum(masses) == pytest.approx(1.0, abs=1e-12)

    def test_table_knots_must_match_support(self):
        with pytest.raises(ValueError, match="span"):
            MarginalSpec("table", (0.0, 3.0), ((0.0, 1.0, 2.0), (0.0, 1.0, 0.0)))

    def test_table_knots_outside_a_narrow_support_are_rejected(self):
        # both knots lie outside [0, 1e-13], each by less than an absolute 1e-12
        with pytest.raises(ValueError, match="span"):
            MarginalSpec("table", (0.0, 1e-13), ((5e-13, 6e-13), (1e13, 1e13)))

    def test_table_knots_within_1e_12_of_the_width_are_clipped_to_the_support(self):
        table = MarginalSpec("table", (0.0, 1e13), ((-5.0, 1e13), (1e-13, 1e-13)))
        assert tuple(table.cdf_knots()) == (0.0, 1e13)


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
        k = np.arange(1, 9)
        expected = (b - a) / 2 * k / np.sqrt(4.0 * k**2 - 1.0)
        np.testing.assert_allclose(system.offdiagonals, expected, atol=1e-10)


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
        sups = sup_norm(system)
        assert sups.tobytes() == system.sup_norms.tobytes()
        assert sups[1] == pytest.approx(np.sqrt(3.0), rel=1e-8)
        assert sups[2] == pytest.approx(np.sqrt(5.0), rel=1e-8)
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

    def test_uniform_and_beta_maxima_sit_at_the_endpoints(self):
        # Szego, Orthogonal Polynomials, Thm 7.32.1: Jacobi weights with both
        # exponents >= -1/2 put the maximum of |phi_n| at an endpoint
        rng = np.random.default_rng(11)
        for trial in range(40):
            lo = float(rng.uniform(-3.0, 3.0))
            support = (lo, lo + float(rng.uniform(0.1, 5.0)))
            if trial % 2:
                marginal = MarginalSpec("uniform", support)
            else:
                params = tuple(float(p) for p in rng.integers(1, 5, size=2))
                marginal = MarginalSpec("beta", support, params)
            system = build_system(marginal, 16)
            ends = np.max(np.abs(system.evaluate_all(np.array(support))), axis=1)
            assert system.sup_norms[1:].tobytes() == ends[1:].tobytes(), marginal

    def test_table_with_an_interior_peak(self):
        knots, values = (0.0, 0.1, 0.9, 1.0), np.array([5.0, 0.5, 0.5, 5.0])
        values /= np.sum(0.5 * (values[1:] + values[:-1]) * np.diff(knots))
        system = build_system(MarginalSpec("table", (0.0, 1.0), (knots, tuple(values))), 8)
        xs = np.linspace(0.0, 1.0, 400_001)
        grid_max = np.max(np.abs(system.evaluate_all(xs)), axis=1)
        # degrees 2, 3, 4 and 7 peak inside, where the density is low
        ends = np.max(np.abs(system.evaluate_all(np.array([0.0, 1.0]))), axis=1)
        assert np.all(ends[[2, 3, 4, 7]] < grid_max[[2, 3, 4, 7]])
        assert np.all(grid_max <= system.sup_norms)
        assert np.all(system.sup_norms <= grid_max * (1.0 + 1e-8))

    def test_degree_out_of_range(self, uniform01):
        system = build_system(uniform01, 3)
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


class TestEvaluateAllIsTheRecurrence:
    """evaluate_all, which fills its rows in place, against the allocating recurrence, bit for bit."""

    SHAPES = [(), (7,), (5, 1), (1, 6), (4, 3)]

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_every_degree_and_shape(self, system_case, shape):
        lo, hi = system_case.support
        x = np.random.default_rng(len(shape)).uniform(lo, hi, shape)
        for upto in range(system_case.max_degree + 1):
            values = system_case.evaluate_all(x, upto=upto)
            assert values.shape == (upto + 1,) + shape
            assert values.tobytes() == recurrence_allocating(system_case, x, upto).tobytes()

    def test_python_floats_and_the_endpoints(self, system_case):
        for x in (*system_case.support, 0.3):
            assert system_case.evaluate_all(x).tobytes() == recurrence_allocating(
                system_case, x, system_case.max_degree
            ).tobytes()


class TestDerivedFields:
    def test_jacobi_and_derived_arrays_are_read_only(self, system_case):
        for name in ("recurrence_alpha", "offdiagonals", "leading", "sup_norms"):
            array = getattr(system_case, name)
            assert not array.flags.writeable, name
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_leading_is_the_diagonal_of_the_monomial_matrix(self, system_case):
        assert system_case.leading[0] == 1.0
        assert system_case.leading.shape == (system_case.max_degree + 1,)
        np.testing.assert_allclose(
            system_case.leading, np.diag(system_case.monomial_coefficients()), rtol=1e-14
        )

    def test_closed_form_jacobi_matrix_is_the_whole_input(self):
        # shifted Legendre on [0, 1]: a_k = 1/2, b_k = k / (2 sqrt(4k^2 - 1))
        k = np.arange(1, 9)
        system = OrthonormalSystem(np.full(8, 0.5), k / (2.0 * np.sqrt(4.0 * k**2 - 1.0)), (0.0, 1.0))
        assert system.max_degree == 8
        xs = np.linspace(0.0, 1.0, 33)
        for n in range(9):
            np.testing.assert_allclose(system.evaluate(n, xs), shifted_legendre(n, xs), atol=1e-12)
        np.testing.assert_allclose(system.sup_norms, np.sqrt(2 * np.arange(9) + 1), rtol=1e-13)

    @pytest.mark.parametrize(
        "alpha, offdiagonals",
        [([0.5, 0.5], [0.5]), ([], []), ([[0.5]], [[0.5]]), ([0.5, 0.5], [0.5, 0.0]), ([0.5], [np.nan])],
    )
    def test_rejects_a_malformed_jacobi_matrix(self, alpha, offdiagonals):
        with pytest.raises(ValueError, match="1-D|positive"):
            OrthonormalSystem(alpha, offdiagonals, (0.0, 1.0))


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

    @pytest.mark.parametrize("support", [(0.0, 1e-7), (-5e-7, 5e-7), (0.0, 1e-9)])
    def test_a_narrow_support_is_not_degenerate(self, support):
        # beta_k scales as the squared width, and so does the floor it is held to
        system = build_system(MarginalSpec("uniform", support), 8)
        np.testing.assert_allclose(system.sup_norms[1:4], np.sqrt([3.0, 5.0, 7.0]), rtol=1e-12)

    def test_a_vanishing_support_is_still_degenerate(self):
        with pytest.raises(DegenerateMarginalError, match="degenerate-marginal: recurrence coefficient beta_6 = 0.0"):
            build_system(MarginalSpec("uniform", (0.0, 1e-30)), 8)

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
        # near 1e4 the roots of phi_n' round to 1e4 times the float spacing;
        # the maxima sit at the endpoints, which are evaluated as given
        system = build_system(MarginalSpec("uniform", (1e4, 1e4 + 1.0)), 2)
        assert system.sup_norms[1] == pytest.approx(np.sqrt(3.0), rel=1e-8)
        assert system.sup_norms[2] == pytest.approx(np.sqrt(5.0), rel=1e-8)

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
