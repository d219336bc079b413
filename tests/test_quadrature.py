import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lancaster_lab import cli
from lancaster_lab.correlation import discretize_joint
from lancaster_lab.quadrature import (
    QuadratureRule,
    _count,
    _reference_rule,
    _values_on,
    composite_gauss_legendre,
    gauss_legendre_rule,
    integrate,
    integrate_2d,
)
from lancaster_lab.regression import conditional_expectation


class TestCount:
    @pytest.mark.parametrize(
        "value", [3, np.int64(3), np.uint64(3), np.int8(3)], ids=["int", "int64", "uint64", "int8"]
    )
    def test_integers_are_read_as_plain_ints(self, value):
        count = _count(value, "n", 1, 3)
        assert count == 3 and type(count) is int

    @pytest.mark.parametrize(
        "value",
        [True, np.bool_(True), 3.0, np.float64(3.0), 2.5, "3", None, [3], np.array(3)],
        ids=["bool", "np.bool_", "float", "np.float64", "fraction", "str", "None", "list", "0-d array"],
    )
    def test_anything_but_an_integer_is_rejected_naming_the_field(self, value):
        with pytest.raises(ValueError, match=r"^widgets must be an integer, got "):
            _count(value, "widgets", 0)

    def test_the_bounds_are_inclusive(self):
        assert _count(2, "n", 2, 5) == 2 and _count(5, "n", 2, 5) == 5
        with pytest.raises(ValueError, match=r"^n must be at least 2, got 1$"):
            _count(1, "n", 2, 5)
        with pytest.raises(ValueError, match=r"^n must be at most 5, got 6$"):
            _count(np.int64(6), "n", 2, 5)

    def test_no_upper_bound_without_high(self):
        assert _count(2**70, "seed", 0) == 2**70


class TestGaussLegendreRule:
    def test_one_point_rule_integrates_constant(self):
        rule = gauss_legendre_rule(1, 0.0, 1.0)
        assert integrate(lambda x: np.ones_like(x), rule) == pytest.approx(1.0, abs=1e-15)

    def test_two_point_rule_integrates_square_exactly(self):
        rule = gauss_legendre_rule(2, -1.0, 1.0)
        assert integrate(lambda x: x**2, rule) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_degree_exactness_at_the_edge(self):
        # 16 nodes are exact through degree 31; the closed form of the
        # monomial integral is the oracle: int_0^1 x^15 dx = 1/16
        rule = gauss_legendre_rule(16, 0.0, 1.0)
        assert integrate(lambda x: x**15, rule) == pytest.approx(1.0 / 16.0, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 64, 128, 257])
    def test_matches_reference_nodes_and_weights(self, n):
        # numpy's leggauss is an independent implementation of the same rule
        rule = gauss_legendre_rule(n, -2.0, 5.0)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        np.testing.assert_allclose(rule.nodes, 1.5 + 3.5 * ref_x, atol=1e-12)
        np.testing.assert_allclose(rule.weights, 3.5 * ref_w, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 9, 50])
    def test_rule_invariants(self, n):
        rule = gauss_legendre_rule(n, -0.5, 2.5)
        assert np.all(rule.weights > 0)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all((rule.nodes >= -0.5) & (rule.nodes <= 2.5))
        assert np.sum(rule.weights) == pytest.approx(3.0, abs=1e-12)

    def test_determinism_is_bitwise(self):
        first = gauss_legendre_rule(64, 0.0, 1.0)
        second = gauss_legendre_rule(64, 0.0, 1.0)
        assert np.array_equal(first.nodes, second.nodes)
        assert np.array_equal(first.weights, second.weights)

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True])
    def test_rejects_invalid_order(self, bad):
        with pytest.raises(ValueError, match="invalid-order"):
            gauss_legendre_rule(bad, 0.0, 1.0)

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, -1.0), (np.nan, 1.0), (0.0, np.inf)])
    def test_rejects_invalid_interval(self, a, b):
        with pytest.raises(ValueError, match="invalid-interval"):
            gauss_legendre_rule(4, a, b)

    @pytest.mark.parametrize("a,b", [(-1e308, 1e308), (-1.5e308, 0.5e308)])
    def test_rejects_interval_whose_width_overflows(self, a, b):
        with pytest.raises(ValueError, match="invalid-interval"):
            gauss_legendre_rule(8, a, b)

    def test_interval_whose_sum_overflows(self):
        # a + b overflows here, the width b - a does not
        a, b = 1e308, 1.7e308
        rule = gauss_legendre_rule(8, a, b)
        assert np.all((rule.nodes >= a) & (rule.nodes <= b))
        assert np.sum(rule.weights) == pytest.approx(b - a, rel=1e-12)


class TestReferenceRuleCache:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 128, 165, 400])
    def test_fresh_solve_matches_cached_rule_bitwise(self, n):
        cached = gauss_legendre_rule(n, -2.0, 5.0)
        _reference_rule.cache_clear()
        fresh = gauss_legendre_rule(n, -2.0, 5.0)
        assert _reference_rule.cache_info().misses == 1
        assert np.array_equal(fresh.nodes, cached.nodes)
        assert np.array_equal(fresh.weights, cached.weights)

    def test_writing_into_a_rule_leaves_the_next_rule_intact(self):
        first = gauss_legendre_rule(9, 0.0, 1.0)
        expected_nodes, expected_weights = first.nodes.copy(), first.weights.copy()
        first.nodes[:] = 0.5
        first.weights[:] = -1.0
        second = gauss_legendre_rule(9, 0.0, 1.0)
        assert np.array_equal(second.nodes, expected_nodes)
        assert np.array_equal(second.weights, expected_weights)

    def test_cached_reference_arrays_are_read_only(self):
        ref_nodes, ref_weights = _reference_rule(5)
        for array in (ref_nodes, ref_weights):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_python_and_numpy_integers_share_one_entry(self):
        _reference_rule.cache_clear()
        gauss_legendre_rule(7, 0.0, 1.0)
        gauss_legendre_rule(np.int64(7), -1.0, 3.0)
        info = _reference_rule.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_bench_solves_each_node_count_once(self, tmp_path):
        # bench builds rules of 128, 165, 200 and 400 nodes, most of them many times
        _reference_rule.cache_clear()
        assert cli.main(["bench", "--out", str(tmp_path / "bench.csv")]) == 0
        info = _reference_rule.cache_info()
        assert info.misses == 4
        assert info.hits > 0


class TestRuleConstruction:
    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError, match="positive"):
            QuadratureRule(np.array([0.25, 0.75]), np.array([1.0, -0.0]), (0.0, 1.0))

    def test_rejects_unsorted_nodes(self):
        with pytest.raises(ValueError, match="order"):
            QuadratureRule(np.array([0.75, 0.25]), np.array([0.5, 0.5]), (0.0, 1.0))

    @pytest.mark.parametrize(
        "nodes,weights,interval",
        [
            ([0.25, 0.75], [0.5, 0.6], (0.0, 1.0)),
            ([0.25e308, 0.75e308], [0.5e308, 0.6e308], (0.0, 1e308)),
            ([0.5e308, 1.5e308], [1e308, 1e308], (0.0, 1.7e308)),  # the plain sum overflows
            ([0.25, 0.75], [0.5, 0.5 + 1e-11], (0.0, 1.0)),
            # ten times the width: passed while the error was scaled by min(1, width)
            ([0.25e-13, 0.75e-13], [0.5e-12, 0.5e-12], (0.0, 1e-13)),
        ],
        ids=["unit", "wide", "sum-overflows", "unit-off-by-1e-11", "narrow-off-tenfold"],
    )
    def test_rejects_wrong_weight_sum_without_warnings(self, nodes, weights, interval):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="sum"):
                QuadratureRule(np.array(nodes), np.array(weights), interval)
        assert caught == []

    @pytest.mark.parametrize("interval", [(0.5, 0.5), (1.0, 0.0), (np.nan, 1.0)])
    def test_rejects_an_interval_without_a_below_b(self, interval):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="a < b"):
                QuadratureRule(np.array([0.5]), np.array([1.0]), interval)
        assert caught == []

    @pytest.mark.parametrize(
        "nodes,weights,message",
        [
            ([[0.5]], [[1.0]], "1-d arrays of equal nonzero length"),
            ([0.25, 0.75], [1.0], "1-d arrays of equal nonzero length"),
            ([], [], "1-d arrays of equal nonzero length"),
            ([0.5, 1.5], [0.5, 0.5], "inside the interval"),
            ([-0.5, 0.5], [0.5, 0.5], "inside the interval"),
        ],
        ids=["2-d", "unequal", "empty", "node-above", "node-below"],
    )
    def test_rejects_bad_shapes_and_nodes_outside_the_interval(self, nodes, weights, message):
        with pytest.raises(ValueError, match=message):
            QuadratureRule(np.array(nodes), np.array(weights), (0.0, 1.0))

    @pytest.mark.parametrize(
        "breakpoints", [[0.0], [0.0, 1.0, 1.0], [1.0, 0.0], [0.0, np.inf]], ids=["one", "repeated", "decreasing", "inf"]
    )
    def test_composite_rule_rejects_bad_breakpoints(self, breakpoints):
        with pytest.raises(ValueError, match="^invalid-interval: breakpoints"):
            composite_gauss_legendre(breakpoints, 8)

    def test_widest_interval_builds_without_warnings(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rule = gauss_legendre_rule(8, 0.0, 1.7976931348623155e308)
        assert caught == []
        assert np.sum(rule.weights / 1.7976931348623155e308) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize(
        "interval",
        [(0.0, 2e-9), (-1.0, 1.0), (1e6, 1e6 + 3.0), (-5e3, 5e3), (0.0, 1e300)],
        ids=["width-2e-9", "width-2", "width-3-at-1e6", "width-1e4", "width-1e300"],
    )
    def test_gauss_legendre_weights_sum_to_the_width_on_any_interval(self, interval):
        a, b = interval
        for n in (1, 2, 3, 8, 64, 200, 400, 1024, 2048):
            rule = gauss_legendre_rule(n, a, b)
            assert abs(float(np.sum(rule.weights / (b - a))) - 1.0) <= 1e-15

    def test_composite_rule_spans_breakpoints(self):
        rule = composite_gauss_legendre([0.0, 0.3, 1.0, 2.0], 8)
        assert rule.interval == (0.0, 2.0)
        assert np.sum(rule.weights) == pytest.approx(2.0, abs=1e-12)
        # exact on a function that is polynomial per segment
        segs = np.array([0.0, 0.3, 1.0, 2.0])
        f = lambda x: np.interp(x, segs, [0.0, 1.0, 0.5, 2.0])
        exact = np.trapezoid([0.0, 1.0, 0.5, 2.0], segs)
        assert integrate(f, rule) == pytest.approx(exact, abs=1e-14)


class TestIntegrate:
    def test_zero_function(self):
        rule = gauss_legendre_rule(12, -1.0, 3.0)
        assert integrate(lambda x: np.zeros_like(x), rule) == 0.0

    def test_uniform_density_normalizes(self):
        rule = gauss_legendre_rule(64, 0.0, 1.0)
        assert integrate(lambda x: np.ones_like(x), rule) == pytest.approx(1.0, abs=1e-12)

    def test_degree_one_orthonormal_polynomial_integrates_to_zero(self):
        # sqrt(3)(2x - 1) is orthogonal to constants under the uniform density
        rule = gauss_legendre_rule(64, 0.0, 1.0)
        value = integrate(lambda x: np.sqrt(3.0) * (2.0 * x - 1.0), rule)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_non_finite_evaluation_raises(self):
        rule = gauss_legendre_rule(8, 0.0, 1.0)
        with pytest.raises(ValueError, match="non-finite-evaluation"):
            integrate(lambda x: np.where(x > 0.5, np.nan, 1.0), rule)


# Every caller of the shared open-grid evaluation, fed a one-argument and a
# two-argument callable.
OPEN_GRID_ROUTES = {
    "integrate": lambda one, two, model: integrate(one, model.rule_x),
    "integrate_2d": lambda one, two, model: integrate_2d(two, model.rule_x, model.rule_y),
    "discretize_joint": lambda one, two, model: discretize_joint(
        two, ((0.0, 1.0), (0.0, 1.0)), 16
    ).masses,
    "conditional_expectation": lambda one, two, model: conditional_expectation(
        model, one, np.linspace(0.1, 0.9, 5)
    ),
}


@pytest.mark.parametrize("route", sorted(OPEN_GRID_ROUTES))
def test_a_callable_that_ignores_an_axis_matches_a_broadcasting_one(route, ce_model):
    compute = OPEN_GRID_ROUTES[route]
    # a constant one-argument callable ignores its only axis; the two-argument one ignores y
    ignoring = compute(lambda x: 2.5, lambda x, y: x * x + 1.0, ce_model)
    broadcasting = compute(
        lambda x: np.full(np.shape(x), 2.5), lambda x, y: x * x + 1.0 + 0.0 * y, ce_model
    )
    assert np.asarray(ignoring).tobytes() == np.asarray(broadcasting).tobytes()


@pytest.mark.parametrize("route", sorted(OPEN_GRID_ROUTES))
def test_a_scalar_only_callable_raises_its_own_error_after_one_call(route, ce_model):
    class RejectsArrays(TypeError):  # the error float() raises on an array
        pass

    calls = []

    def scalar_only(*args):
        calls.append(args)
        if any(np.ndim(arg) for arg in args):
            raise RejectsArrays
        return 1.0

    with pytest.raises(RejectsArrays):
        OPEN_GRID_ROUTES[route](scalar_only, scalar_only, ce_model)
    assert len(calls) == 1


@pytest.mark.parametrize("route", sorted(OPEN_GRID_ROUTES))
def test_stacked_components_are_read_only_by_conditional_expectation(route, ce_model):
    compute = OPEN_GRID_ROUTES[route]
    stacked = (lambda x: np.stack([x, x * x]), lambda x, y: np.stack([x + y, x * y]))
    if route != "conditional_expectation":
        with pytest.raises(ValueError, match=r"stacked-evaluation: .* shape \(2, "):
            compute(*stacked, ce_model)
        return
    apart = [compute(lambda x: x, None, ce_model), compute(lambda x: x * x, None, ce_model)]
    np.testing.assert_allclose(compute(*stacked, ce_model), np.stack(apart), rtol=1e-14, atol=1e-15)


class TestIntegrate2d:
    def test_constant_on_unit_square(self):
        rx = gauss_legendre_rule(8, 0.0, 1.0)
        ry = gauss_legendre_rule(8, 0.0, 1.0)
        value = integrate_2d(lambda x, y: np.ones_like(x), rx, ry)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_product_of_coordinates(self):
        rx = gauss_legendre_rule(8, 0.0, 1.0)
        ry = gauss_legendre_rule(8, 0.0, 1.0)
        assert integrate_2d(lambda x, y: x * y, rx, ry) == pytest.approx(0.25, abs=1e-12)

    def test_non_finite_evaluation_raises(self):
        rx = gauss_legendre_rule(16, 0.0, 1.0)
        ry = gauss_legendre_rule(16, 0.0, 1.0)
        with pytest.raises(ValueError, match="non-finite-evaluation"):
            integrate_2d(lambda x, y: np.where(x + y > 1.0, np.inf, 1.0), rx, ry)


def _poly_integral(coeffs, a, b):
    """Closed-form integral of sum_k coeffs[k] x^k over [a, b]."""
    antider = np.concatenate([[0.0], np.asarray(coeffs) / np.arange(1, len(coeffs) + 1)])
    return float(np.polyval(antider[::-1], b) - np.polyval(antider[::-1], a))


@given(
    n=st.integers(min_value=1, max_value=12),
    coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=24),
    a=st.floats(-5.0, 4.0),
    width=st.floats(0.1, 6.0),
)
@settings(max_examples=60)
def test_exactness_for_polynomials_up_to_degree_2n_minus_1(n, coeffs, a, width):
    coeffs = coeffs[: 2 * n]  # degree <= 2n - 1
    b = a + width
    rule = gauss_legendre_rule(n, a, b)
    value = integrate(lambda x: np.polyval(coeffs[::-1], x), rule)
    exact = _poly_integral(coeffs, a, b)
    assert abs(value - exact) <= 1e-10 * (1.0 + abs(exact))


@given(
    a=st.floats(-3.0, 2.0),
    width=st.floats(0.5, 4.0),
    coeffs=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=6),
)
@settings(max_examples=40)
def test_affine_covariance(a, width, coeffs):
    b = a + width
    f = lambda x: np.polyval(coeffs[::-1], x)
    direct = integrate(f, gauss_legendre_rule(24, a, b))
    pulled_back = integrate(
        lambda t: f(a + (b - a) * t) * (b - a), gauss_legendre_rule(24, 0.0, 1.0)
    )
    assert direct == pytest.approx(pulled_back, abs=1e-11 * (1.0 + abs(direct)))


class TestOpenGrid:
    def test_callable_receives_a_column_and_a_row(self):
        shapes = []

        def f(x, y):
            shapes.append((x.shape, y.shape))
            return x * y + x

        x, y = np.linspace(0.0, 1.0, 3), np.linspace(-1.0, 2.0, 5)
        values = _values_on(f, x, y)
        assert shapes == [((3, 1), (1, 5))]
        full = f(*np.meshgrid(x, y, indexing="ij"))
        assert values.tobytes() == full.tobytes()

    @pytest.mark.parametrize(
        "f, components",
        [
            (lambda x, y: np.asarray(x) * 2.0, ()),  # ignores y: a column comes back
            (lambda x, y: 3.0, ()),
            (lambda x, y: np.stack([x * 2.0, x + 1.0]), (2,)),  # two columns
        ],
        ids=["column", "scalar", "stacked-columns"],
    )
    def test_results_that_ignore_an_axis_are_broadcast_to_the_grid(self, f, components):
        x, y = np.linspace(0.0, 1.0, 4), np.linspace(2.0, 3.0, 6)
        if components:
            with pytest.raises(ValueError, match=r"stacked-evaluation: .* shape \(2, 4, 1\)"):
                _values_on(f, x, y)
            return
        values = _values_on(f, x, y)
        assert values.shape == components + (4, 6)
        full = np.broadcast_to(f(*np.meshgrid(x, y, indexing="ij")), components + (4, 6))
        assert values.tobytes() == full.tobytes()
