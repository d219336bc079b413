import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lancaster_lab import build_model, correlation, quadrature
from lancaster_lab.correlation import (
    AceConvergenceError,
    DiscretizedJoint,
    SpectralFailureError,
    correlation_report,
    discretize_joint,
    joint_from_pmf,
    maxcorr_ace,
    maxcorr_discrete_pmf,
    maxcorr_decomposition,
    maxcorr_svd,
    pearson,
    singular_spectrum,
)
from lancaster_lab.fixtures import BENCH_FIXTURES, resolve_fixture
from lancaster_lab.lancaster import discretize_model, maxcorr_analytic
from lancaster_lab.quadrature import gauss_legendre_rule
from lancaster_lab.regression import counterexample_report
from reference_routes import ace_three_products, discretize_by_index_grid

UNIT_BOX = ((-1.0, 1.0), (-1.0, 1.0))


def disc_density(x, y):
    return np.where(x * x + y * y < 1.0, 1.0 / np.pi, 0.0)


def diamond_density(x, y):
    return np.where(np.abs(x) + np.abs(y) < 1.0, 0.5, 0.0)


FOURPOINT = np.array([[0.0, 0.25, 0.0], [0.25, 0.0, 0.25], [0.0, 0.25, 0.0]])


def marginal_density(marginal, nodes, nodes_per_axis, interval):
    """A marginal's masses over the quadrature weights of the retained nodes."""
    rule = gauss_legendre_rule(nodes_per_axis, *interval)
    return marginal / rule.weights[np.isin(rule.nodes, nodes)]


@pytest.fixture(scope="module")
def ce_joint(ce_model):
    return discretize_model(ce_model, 200)


@pytest.fixture(scope="module")
def disc_joint():
    return discretize_joint(disc_density, UNIT_BOX, 400)


class TestDiscretizeJoint:
    def test_uniform_square_marginals(self):
        joint = discretize_joint(lambda x, y: np.ones_like(x), ((0.0, 1.0), (0.0, 1.0)), 64)
        for marginal, nodes in ((joint.marginal_x, joint.x_nodes), (joint.marginal_y, joint.y_nodes)):
            np.testing.assert_allclose(marginal_density(marginal, nodes, 64, (0.0, 1.0)), 1.0, atol=1e-10)

    def test_disc_marginal_matches_analytic_semicircle(self, disc_joint):
        expected = 2.0 * np.sqrt(np.clip(1.0 - disc_joint.x_nodes**2, 0.0, None)) / np.pi
        interior = np.abs(disc_joint.x_nodes) <= 0.95
        density = marginal_density(disc_joint.marginal_x, disc_joint.x_nodes, 400, (-1.0, 1.0))
        error = np.abs(density - expected)
        # boundary staircase dominates; interior nodes see only the O(1/n) jump error
        assert np.max(error[interior]) < 0.02

    def test_model_marginals_recovered_to_quadrature_accuracy(self, ce_model):
        joint = discretize_model(ce_model, 64)
        density = marginal_density(joint.marginal_x, joint.x_nodes, 64, ce_model.marginal_x.support)
        np.testing.assert_allclose(density, ce_model.marginal_x.density(joint.x_nodes), atol=1e-8)

    def test_total_mass_renormalized(self, disc_joint):
        assert float(np.sum(disc_joint.masses)) == pytest.approx(1.0, abs=1e-12)

    def test_dead_strip_nodes_are_dropped(self):
        # density supported on x >= 0.5 only: the left half of the grid goes away
        density = lambda x, y: np.where(x >= 0.5, 2.0, 0.0)
        joint = discretize_joint(density, ((0.0, 1.0), (0.0, 1.0)), 64)
        assert np.all(joint.x_nodes >= 0.5)
        assert np.all(joint.marginal_x > 0.0)

    def test_zero_mass_raises(self):
        with pytest.raises(ValueError, match="zero-mass"):
            discretize_joint(lambda x, y: np.zeros_like(x), UNIT_BOX, 32)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError, match="at least 16"):
            discretize_joint(disc_density, UNIT_BOX, 8)

    def test_grid_above_the_tensor_limit_is_rejected_before_any_rule(self, ce_model, monkeypatch):
        def no_rule(*args):
            raise AssertionError("a rule was built")

        monkeypatch.setattr(correlation, "gauss_legendre_rule", no_rule)
        for discretize in (
            lambda n: discretize_joint(disc_density, UNIT_BOX, n),
            lambda n: discretize_model(ce_model, n),
        ):
            with pytest.raises(ValueError, match="at most 2048"):
                discretize(quadrature._MAX_AXIS_NODES + 1)

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            discretize_joint(lambda x, y: x * y, ((0.0, 1.0), (-1.0, 1.0)), 32)

    @pytest.mark.parametrize(
        "density, drops",
        [(diamond_density, True), (disc_density, False)],
        ids=["pball:1", "disc"],
    )
    def test_masses_match_the_index_grid_reference_bitwise(self, density, drops):
        joint = discretize_joint(density, UNIT_BOX, 400)
        x_nodes, y_nodes, masses = discretize_by_index_grid(density, UNIT_BOX, 400)
        assert (joint.masses.size < 400 * 400) == drops
        assert joint.x_nodes.tobytes() == x_nodes.tobytes()
        assert joint.y_nodes.tobytes() == y_nodes.tobytes()
        assert joint.masses.tobytes() == masses.tobytes()
        # the kernel SVD reads the masses in memory order, so their layout is pinned too
        assert joint.masses.flags.c_contiguous


class TestDiscretizedJointChecks:
    @pytest.mark.parametrize(
        "masses, match",
        [
            (np.full((2, 3), 1.0 / 6.0), "shape"),
            ([[0.5, -0.1], [0.1, 0.5]], "finite and nonnegative"),
            ([[0.5, np.nan], [0.0, 0.5]], "finite and nonnegative"),
            ([[0.5, np.inf], [0.0, 0.5]], "finite and nonnegative"),
            ([[0.5, 0.5], [0.0, 0.0]], "positive mass"),
            ([[0.5, 0.0], [0.5, 0.0]], "positive mass"),
            ([[0.25, 0.25], [0.25, 0.25 + 2e-6]], "total mass"),
            ([[0.25, 0.25], [0.25, 0.25 - 2e-6]], "total mass"),
        ],
    )
    def test_rejects(self, masses, match):
        with pytest.raises(ValueError, match=match):
            DiscretizedJoint([0.0, 1.0], [0.0, 1.0], masses)

    def test_marginals_are_the_row_and_column_sums(self):
        joint = DiscretizedJoint([0.0, 1.0], [0.0, 1.0], [[0.1, 0.2], [0.3, 0.4 + 5e-7]])
        np.testing.assert_array_equal(joint.marginal_x, [0.1 + 0.2, 0.3 + (0.4 + 5e-7)])
        np.testing.assert_array_equal(joint.marginal_y, [0.1 + 0.3, 0.2 + (0.4 + 5e-7)])


class TestPearson:
    def test_independence_uncorrelated(self, independence_model):
        joint = discretize_model(independence_model, 64)
        assert pearson(joint) == pytest.approx(0.0, abs=1e-9)

    def test_expansion_model_correlation_is_the_first_coefficient(self, ce_joint):
        assert pearson(ce_joint) == pytest.approx(0.05, abs=1e-6)

    def test_disc_uncorrelated(self, disc_joint):
        assert pearson(disc_joint) == pytest.approx(0.0, abs=1e-6)

    def test_degenerate_variance_raises(self):
        joint = joint_from_pmf([[0.5, 0.5]], x_values=[0.0], y_values=[-1.0, 1.0])
        with pytest.raises(ValueError, match="degenerate-variance"):
            pearson(joint)

    def test_the_variance_floor_has_the_units_of_the_nodes(self, ce_joint):
        # the floor is relative to the squared node range, so a narrow joint is no
        # more degenerate than the same joint at unit scale
        scaled = DiscretizedJoint(ce_joint.x_nodes * 1e-8, ce_joint.y_nodes * 1e-8, ce_joint.masses)
        assert pearson(scaled) == pytest.approx(pearson(ce_joint), rel=1e-12)


class TestMaxcorrSvd:
    def test_disc_value(self, disc_joint):
        assert maxcorr_svd(disc_joint) == pytest.approx(1.0 / 3.0, abs=0.01)

    def test_diamond_value(self):
        joint = discretize_joint(diamond_density, UNIT_BOX, 400)
        assert maxcorr_svd(joint) == pytest.approx(0.5, abs=0.01)

    def test_expansion_model_value_and_spectrum(self, ce_joint):
        result = maxcorr_decomposition(ce_joint)
        assert result.R == pytest.approx(0.15, abs=1e-3)
        spectrum = singular_spectrum(ce_joint)
        np.testing.assert_allclose(spectrum[:3], [1.0, 0.15, 0.05], atol=1e-3)
        assert np.all(spectrum[3:] < 1e-6)

    def test_leading_singular_value_is_one(self, ce_joint, disc_joint):
        for joint in (ce_joint, disc_joint):
            assert singular_spectrum(joint)[0] == pytest.approx(1.0, abs=1e-9)

    def test_optimizers_are_standardized(self, ce_joint):
        result = maxcorr_decomposition(ce_joint)
        p = ce_joint.marginal_x
        assert float(p @ result.g1_values) == pytest.approx(0.0, abs=1e-9)
        assert float(p @ result.g1_values**2) == pytest.approx(1.0, rel=1e-9)

    def test_leading_value_off_one_is_a_spectral_failure(self, ce_joint, monkeypatch):
        svd = np.linalg.svd

        def leading_value_off_one(*args, **kwargs):
            left, spectrum, right_t = svd(*args, **kwargs)
            spectrum[0] += 1e-3
            return left, spectrum, right_t

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", leading_value_off_one)
            with pytest.raises(SpectralFailureError, match="spectral-failure"):
                maxcorr_decomposition(ce_joint)

        # the values-only route checks the constant pair K sqrt(q) = sqrt(p) itself
        kernel_products = correlation._kernel_products

        def products_off_by_1e_3(*args):
            apply, apply_t = kernel_products(*args)
            return (lambda v: apply(v) * (1.0 + 1e-3)), (lambda u: apply_t(u) * (1.0 + 1e-3))

        monkeypatch.setattr(correlation, "_kernel_products", products_off_by_1e_3)
        with pytest.raises(SpectralFailureError, match="spectral-failure: the constants are off"):
            maxcorr_svd(ce_joint)


class TestMaxcorrAce:
    def test_independence_converges_immediately(self, independence_model):
        joint = discretize_model(independence_model, 64)
        result = maxcorr_ace(joint, tol=1e-9)
        assert result.R == 0.0
        assert result.iterations <= 2

    def test_matches_svd_on_the_expansion_model(self, ce_joint):
        result = maxcorr_ace(ce_joint, tol=1e-9)
        assert result.R == pytest.approx(0.15, abs=1e-3)
        assert abs(result.R - maxcorr_svd(ce_joint)) <= 1e-6

    def test_optimizer_aligns_with_the_top_polynomial(self, ce_model, ce_joint):
        result = maxcorr_ace(ce_joint, tol=1e-12)
        psi2 = ce_model.system_y.evaluate(2, ce_joint.y_nodes)
        assert abs(float(ce_joint.marginal_y @ (result.g2_values * psi2))) >= 0.999

    def test_fourpoint_reaches_one(self):
        joint = joint_from_pmf(FOURPOINT, [-1, 0, 1], [-1, 0, 1])
        assert maxcorr_ace(joint).R == pytest.approx(1.0, abs=1e-9)

    def test_finds_r_when_the_linear_start_is_annihilated(self, trivial_regression_model):
        # rho_1 = 0: conditioning kills the identity direction, the enriched
        # start must still find the degree-two optimizer
        joint = discretize_model(trivial_regression_model, 64)
        assert maxcorr_ace(joint).R == pytest.approx(0.15, abs=1e-3)

    def test_no_convergence_raises_with_context(self, ce_joint):
        with pytest.raises(AceConvergenceError, match="no-convergence") as excinfo:
            maxcorr_ace(ce_joint, max_iters=1, tol=1e-30)
        assert excinfo.value.iterations == 1
        assert np.isfinite(excinfo.value.last_estimate)

    @pytest.mark.parametrize(
        "pmf,R,R_ace,iterations",
        [
            # the 2 x 2 law with R = 4 e, whose first conditional mean has sd R
            ([[0.25 + 1.25e-13, 0.25 - 1.25e-13], [0.25 - 1.25e-13, 0.25 + 1.25e-13]], 5e-13, 0.0, 1),
            ([[0.25 + 5e-13, 0.25 - 5e-13], [0.25 - 5e-13, 0.25 + 5e-13]], 2e-12, 2e-12, 2),
            # the sweep's g1 has sd just above 1e-12 and the g2 it gives rounds to just below
            ([[0.14441466124353752, 0.06550192007357994], [0.543547482276626, 0.24653593640625657]], 1e-12, 0.0, 1),
        ],
        ids=["sd-5e-13", "sd-2e-12", "g2-below-the-floor"],
    )
    def test_a_conditional_mean_with_sd_at_most_1e_12_is_constant(self, pmf, R, R_ace, iterations):
        joint = joint_from_pmf(pmf)
        result = maxcorr_ace(joint)
        assert result.R == pytest.approx(R_ace, rel=1e-3, abs=0.0)
        assert result.iterations == iterations
        assert maxcorr_svd(joint) == pytest.approx(R, rel=1e-3)

    def test_degenerate_start_raises(self):
        joint = joint_from_pmf([[0.5], [0.5]], x_values=[-1.0, 1.0], y_values=[0.5])
        with pytest.raises(ValueError, match="degenerate-start"):
            maxcorr_ace(joint)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan])
    def test_rejects_bad_tolerance(self, ce_joint, tol):
        # NaN compares false both ways: `tol <= 0` let it through to no-convergence
        with pytest.raises(ValueError, match="tol must be positive"):
            maxcorr_ace(ce_joint, max_iters=1, tol=tol)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan])
    def test_report_names_its_own_tolerance(self, ce_joint, tol):
        with pytest.raises(ValueError, match="^ace_tol must be positive"):
            correlation_report(ce_joint, ace_tol=tol)

    @pytest.mark.parametrize("name", BENCH_FIXTURES)
    def test_two_products_per_sweep_match_three_bitwise(self, name):
        joint = resolve_fixture(name).joint(64)
        result = maxcorr_ace(joint)
        assert (result.R, result.iterations) == ace_three_products(joint)


def brute_force_2x2(pmf):
    """For a 2x2 table every transformation pair is affine in the indicators,
    so the maximal correlation is |pearson| of the indicator pair."""
    p = np.asarray(pmf, dtype=float)
    px = p[1].sum()
    py = p[:, 1].sum()
    cov = p[1, 1] - px * py
    denom = np.sqrt(px * (1 - px) * py * (1 - py))
    return abs(cov) / denom


NAN_IN_A_TRIMMED_ROW = [[np.nan, 0.0, 0.0], [0.0, 0.25, 0.25], [0.0, 0.25, 0.25]]
NEGATIVE_IN_A_TRIMMED_COLUMN = [[-0.25, 0.25, 0.0], [0.0, 0.25, 0.25], [0.0, 0.25, 0.25]]


class TestJointFromPmf:
    @pytest.mark.parametrize("pmf", [[0.5, 0.5], [[[1.0]]], 1.0], ids=["vector", "3-d", "scalar"])
    def test_a_pmf_must_be_a_matrix(self, pmf):
        with pytest.raises(ValueError, match="pmf must be a matrix"):
            joint_from_pmf(pmf)

    @pytest.mark.parametrize(
        "pmf", [NAN_IN_A_TRIMMED_ROW, NEGATIVE_IN_A_TRIMMED_COLUMN], ids=["nan", "negative"]
    )
    def test_bad_entries_are_rejected_before_trimming(self, pmf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            joint_from_pmf(pmf)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            maxcorr_discrete_pmf(pmf)

    @pytest.mark.parametrize(
        "x_values, y_values",
        [
            ([0.0, 1.0, 2.0], [0.0, 1.0]),
            ([0.0], [0.0, 1.0]),
            ([0.0, 1.0], [0.0, 1.0, 2.0]),
            ([0.0, 1.0], [0.0]),
        ],
        ids=["x-longer", "x-shorter", "y-longer", "y-shorter"],
    )
    def test_value_lengths_must_match_the_pmf(self, x_values, y_values):
        with pytest.raises(ValueError, match=r"must match the pmf's shape \(2, 2\)"):
            joint_from_pmf([[0.3, 0.2], [0.2, 0.3]], x_values, y_values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_non_finite_node_values_are_rejected(self, bad, axis):
        values = {"x_values": [0.0, 1.0], "y_values": [0.0, 1.0]}
        values[f"{axis}_values"] = [0.0, bad]
        with pytest.raises(ValueError, match="must be finite"):
            joint_from_pmf([[0.25, 0.25], [0.25, 0.25]], **values)


class TestDiscretizedJointNodes:
    def test_node_vectors_must_be_one_dimensional(self):
        masses = np.full((2, 2), 0.25)
        with pytest.raises(ValueError, match="1-D"):
            DiscretizedJoint(np.array([[0.0, 1.0]]), np.array([0.0, 1.0]), masses)
        with pytest.raises(ValueError, match="1-D"):
            DiscretizedJoint(np.array([0.0, 1.0]), np.array([[0.0], [1.0]]), masses)


class TestTwoNodesPerAxis:
    @pytest.mark.parametrize("pmf", [[[0.5, 0.5]], [[0.5], [0.5]]], ids=["one-row", "one-column"])
    @pytest.mark.parametrize(
        "route",
        [
            lambda pmf: maxcorr_svd(joint_from_pmf(pmf)),
            lambda pmf: maxcorr_decomposition(joint_from_pmf(pmf)),
            maxcorr_discrete_pmf,
        ],
        ids=["svd", "decomposition", "discrete_pmf"],
    )
    def test_a_single_node_on_an_axis_is_rejected(self, route, pmf):
        with pytest.raises(ValueError, match="^degenerate-joint: an axis has a single support point"):
            route(pmf)


class TestOrientation:
    def test_an_optimizer_orthogonal_to_x_and_x2_is_signed_by_its_largest_entry(self, uniform01):
        # rho_3 is the largest coefficient, so g1 is phi_3: on uniform marginals it
        # scores ~1e-15 against both x and x^2, and the last fallback signs it
        model = build_model(uniform01, uniform01, (0.01, 0.0, 0.12))
        joint = discretize_model(model, 64)
        result = maxcorr_decomposition(joint)
        assert result.R == pytest.approx(0.12, abs=1e-3)
        weights = joint.marginal_x
        for reference in (joint.x_nodes, joint.x_nodes**2):
            score = float(weights @ (result.g1_values * correlation._standardize(reference, weights)))
            assert abs(score) <= 1e-9
        assert result.g1_values[np.argmax(np.abs(result.g1_values))] > 0.0
        # the pair is flipped together, so g1^T P g2 stays R
        assert float(result.g1_values @ joint.masses @ result.g2_values) == pytest.approx(result.R, abs=1e-12)


class TestMaxcorrDiscretePmf:
    def test_fourpoint_lattice(self):
        assert maxcorr_discrete_pmf(FOURPOINT) == pytest.approx(1.0, abs=1e-9)

    def test_product_pmf_is_independent(self):
        p = np.outer([0.2, 0.3, 0.5], [0.6, 0.4])
        assert maxcorr_discrete_pmf(p) <= 1e-12

    def test_two_by_two_closed_form(self):
        assert maxcorr_discrete_pmf([[0.3, 0.2], [0.2, 0.3]]) == pytest.approx(0.2, abs=1e-12)

    def test_degenerate_margin_rejected(self):
        with pytest.raises(ValueError, match="degenerate-joint"):
            maxcorr_discrete_pmf([[0.5, 0.5], [0.0, 0.0]])

    def test_wrong_total_mass_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            maxcorr_discrete_pmf([[0.5, 0.4], [0.05, 0.04]])

    def test_zero_rows_are_trimmed_first(self):
        padded = np.zeros((4, 3))
        padded[:3, :2] = [[0.3, 0.2], [0.0, 0.0], [0.2, 0.3]]
        assert maxcorr_discrete_pmf(padded) == pytest.approx(0.2, abs=1e-12)

    @given(
        cells=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
    )
    @settings(max_examples=50)
    def test_agrees_with_the_brute_force_oracle_on_2x2(self, cells):
        p = np.asarray(cells).reshape(2, 2)
        p = p / p.sum()
        assert maxcorr_discrete_pmf(p) == pytest.approx(brute_force_2x2(p), abs=1e-10)


class TestStructuralProperties:
    def test_dominance_over_pearson(self, ce_joint, disc_joint):
        for joint in (ce_joint, disc_joint):
            assert maxcorr_svd(joint) >= abs(pearson(joint)) - 2e-3

    @given(scale=st.floats(0.1, 10.0), shift=st.floats(-5.0, 5.0))
    @settings(max_examples=25)
    def test_invariant_under_affine_node_rescaling(self, ce_model, scale, shift):
        base = discretize_model(ce_model, 48)
        rescaled = DiscretizedJoint(scale * base.x_nodes + shift, base.y_nodes, base.masses)
        assert maxcorr_svd(rescaled) == pytest.approx(maxcorr_svd(base), abs=1e-9)
        assert pearson(rescaled) == pytest.approx(pearson(base), abs=1e-9)

    def test_estimates_live_in_the_unit_interval(self, ce_joint, disc_joint):
        for joint in (ce_joint, disc_joint):
            for value in (maxcorr_svd(joint), maxcorr_ace(joint).R):
                assert -1e-9 <= value <= 1.0 + 1e-9


class TestCorrelationReport:
    @pytest.mark.parametrize("grid", [200, 64])
    def test_expansion_model_report(self, ce_model, grid):
        # the report measures the joint it is given, as correlation_report does
        joint = discretize_model(ce_model, grid)
        report = counterexample_report(ce_model, joint)
        assert dataclasses.asdict(report.correlation) == dataclasses.asdict(correlation_report(joint))
        assert report.maxcorr_analytic == 0.15
        corr = report.correlation
        assert corr.pearson == pytest.approx(0.05, abs=1e-6)
        assert corr.gap == pytest.approx(0.10, abs=2e-3)
        assert abs(corr.maxcorr_ace - corr.maxcorr_svd) <= 1e-3

    def test_fixture_report_has_no_analytic_value(self, disc_joint):
        report = correlation_report(disc_joint)
        assert "maxcorr_analytic" not in {f.name for f in dataclasses.fields(report)}
        assert all(type(getattr(report, f.name)) is float for f in dataclasses.fields(report))
        assert report.maxcorr_svd == pytest.approx(1.0 / 3.0, abs=0.01)

    def test_analytic_route_is_the_coefficient_maximum(self, ce_model, swapped_model):
        assert maxcorr_analytic(ce_model) == 0.15
        assert maxcorr_analytic(swapped_model) == 0.15


@pytest.fixture(scope="module")
def bench_joints():
    return {name: resolve_fixture(name).joint() for name in BENCH_FIXTURES}


class TestValuesOnlySvd:
    def test_report_takes_R_from_the_values_only_spectrum(self, bench_joints):
        for name, joint in bench_joints.items():
            report = correlation_report(joint, ace_tol=1e-9)
            assert abs(report.maxcorr_svd - float(singular_spectrum(joint)[1])) <= 1e-15, name

    def test_values_only_result_has_no_vectors_and_no_spectrum(self, bench_joints, ce_joint):
        for joint in (*bench_joints.values(), ce_joint):
            result = maxcorr_svd(joint)
            assert type(result) is float
            assert abs(result - float(singular_spectrum(joint)[1])) <= 1e-15


class TestLanczosRoute:
    """The values-only route against the full spectrum, and its one fallback."""

    @pytest.fixture
    def no_fallback(self, monkeypatch):
        def forbidden(joint):
            raise AssertionError("the values-only route fell back to the full spectrum")

        monkeypatch.setattr(correlation, "singular_spectrum", forbidden)

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        calls = []

        def spy(joint):
            calls.append(joint)
            return singular_spectrum(joint)

        monkeypatch.setattr(correlation, "singular_spectrum", spy)
        return calls

    def test_random_pmfs_agree_with_the_full_spectrum(self, no_fallback):
        rng = np.random.default_rng(20261018)
        shapes = [tuple(int(k) for k in rng.integers(2, 301, size=2)) for _ in range(100)]
        for shape in shapes + [(5, 242), (242, 5), (2, 300), (300, 2)]:
            pmf = rng.random(shape) ** 3
            joint = joint_from_pmf(pmf / pmf.sum())
            reference = float(singular_spectrum(joint)[1])
            assert abs(maxcorr_svd(joint) - reference) <= 1e-15, shape

    @pytest.mark.parametrize(
        "rho",
        [(0.05, 0.05 + 1e-10), (0.05, -0.05), (1e-8,)],
        ids=["sigma2-near-sigma3", "opposite-signs", "near-independence"],
    )
    def test_models_agree_with_the_full_spectrum(self, uniform01, no_fallback, rho):
        joint = discretize_model(build_model(uniform01, uniform01, rho), 200)
        reference = float(singular_spectrum(joint)[1])
        assert abs(maxcorr_svd(joint) - reference) <= 1e-15

    def test_an_exhausted_krylov_space_stops_at_once(self):
        # D = -e1 e1^T annihilates every start vector orthogonal to e1: alpha_1 is exactly 0
        e1 = np.array([1.0, 0.0, 0.0])

        def zero(v):
            return np.zeros(3)

        assert correlation._lanczos_sigma2(zero, zero, e1, e1) == 0.0

    def test_step_cap_without_convergence_falls_back(self, disc_joint, fallbacks, monkeypatch):
        monkeypatch.setattr(correlation, "_LANCZOS_MAX_STEPS", 3)
        result = maxcorr_svd(disc_joint)
        assert len(fallbacks) == 1
        assert result == float(singular_spectrum(disc_joint)[1])

    def test_lower_bound_above_the_lanczos_value_falls_back(self, ce_joint, fallbacks, monkeypatch):
        lanczos = correlation._lanczos_sigma2
        monkeypatch.setattr(correlation, "_lanczos_sigma2", lambda *args: lanczos(*args) - 1e-6)
        missed = maxcorr_svd(ce_joint)
        assert not fallbacks
        report = correlation_report(ce_joint, ace_tol=1e-12)
        assert len(fallbacks) == 1
        assert report.maxcorr_svd == float(singular_spectrum(ce_joint)[1])
        assert report.maxcorr_svd - missed == pytest.approx(1e-6, abs=1e-12)
