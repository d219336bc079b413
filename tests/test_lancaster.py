import dataclasses
import hashlib
import importlib.util
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import lancaster_lab
from lancaster_lab import lancaster
from lancaster_lab.correlation import (
    correlation_report,
    discretize_joint,
    discretize_model,
    joint_from_pmf,
    maxcorr_ace,
    maxcorr_svd,
)
from lancaster_lab.fixtures import resolve_fixture
from lancaster_lab.lancaster import (
    BoundViolationError,
    build_model,
    build_sequence_linear,
    build_sequence_quadratic,
    model_from_config,
    model_to_config,
    sample_joint,
    transpose_model,
    validate_coefficients,
)
from lancaster_lab.orthopoly import MarginalSpec, build_system
from lancaster_lab.quadrature import _values_on, composite_gauss_legendre, gauss_legendre_rule, integrate_2d
from lancaster_lab.regression import check_eigen_regression, check_polynomial_regression
from reference_routes import (
    conditional_density_x_given_y,
    density_pointwise,
    marginal_residual,
    series_factor_pointwise,
)

UNIFORM_SUPS = np.sqrt(2.0 * np.arange(1, 9) + 1)  # c_n = sqrt(2n+1) on [0, 1]


class TestValidateCoefficients:
    def test_zero_sequence_is_independence(self):
        seq = validate_coefficients((0.0, 0.0, 0.0), UNIFORM_SUPS, UNIFORM_SUPS)
        assert seq.bound_value == 0.0

    def test_headline_sequence_bound(self, ce_model):
        # 0.05 * 3 + 0.15 * 5 = 0.9 with c_n = d_n = sqrt(2n+1)
        assert ce_model.coeffs.bound_value == pytest.approx(0.9, abs=1e-9)

    def test_violating_sequence_reports_its_bound(self):
        with pytest.raises(BoundViolationError) as excinfo:
            validate_coefficients((0.1, 0.3), UNIFORM_SUPS, UNIFORM_SUPS)
        assert excinfo.value.bound_value == pytest.approx(1.8, abs=1e-9)

    def test_needs_enough_sup_norms(self):
        with pytest.raises(ValueError, match="sup-norm"):
            validate_coefficients((0.1, 0.1, 0.1), UNIFORM_SUPS[:2], UNIFORM_SUPS[:2])

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            validate_coefficients((), UNIFORM_SUPS, UNIFORM_SUPS)

    @pytest.mark.parametrize("rho", [("0.05",), (0.05, False), (None,)])
    def test_coefficients_of_another_type_are_rejected(self, rho):
        with pytest.raises(ValueError, match="rho must be a real number"):
            validate_coefficients(rho, UNIFORM_SUPS, UNIFORM_SUPS)


class TestSequenceBuilders:
    def test_quadratic_first_coefficient(self):
        seq = build_sequence_quadratic(UNIFORM_SUPS, UNIFORM_SUPS, 1)
        assert seq.rho[0] == pytest.approx(6.0 / (np.pi**2 * 3.0), rel=1e-9)

    def test_quadratic_second_coefficient(self):
        seq = build_sequence_quadratic(UNIFORM_SUPS, UNIFORM_SUPS, 2)
        assert seq.rho[1] == pytest.approx(6.0 / (np.pi**2 * 4.0 * 5.0), rel=1e-9)

    @pytest.mark.parametrize("count", [1, 2, 4, 8])
    def test_quadratic_bound_strictly_below_one(self, count):
        seq = build_sequence_quadratic(UNIFORM_SUPS, UNIFORM_SUPS, count)
        assert seq.bound_value < 1.0

    def test_linear_at_the_boundary(self):
        lam = 1.0 / (UNIFORM_SUPS[0] ** 2)
        seq = build_sequence_linear(UNIFORM_SUPS, UNIFORM_SUPS, 1, lam)
        assert seq.bound_value == pytest.approx(1.0, abs=1e-12)

    def test_linear_two_terms(self):
        # sum n c_n d_n = 1 * 3 + 2 * 5 = 13, so lambda = 1/13 saturates the bound
        seq = build_sequence_linear(UNIFORM_SUPS, UNIFORM_SUPS, 2, 1.0 / 13.0)
        np.testing.assert_allclose(seq.rho, (1.0 / 13.0, 2.0 / 13.0), rtol=1e-12)
        assert seq.bound_value == pytest.approx(1.0, abs=1e-9)

    def test_linear_rejects_zero_lambda(self):
        with pytest.raises(ValueError, match="positive"):
            build_sequence_linear(UNIFORM_SUPS, UNIFORM_SUPS, 2, 0.0)

    @pytest.mark.parametrize("lam", ["0.01", True, 10**400])
    def test_linear_rejects_a_lambda_of_another_type(self, lam):
        with pytest.raises(ValueError, match="lambda (must be a real number|is too large)"):
            build_sequence_linear(UNIFORM_SUPS, UNIFORM_SUPS, 2, lam)

    def test_linear_rejects_oversized_lambda_and_quotes_maximum(self):
        with pytest.raises(ValueError, match="lambda-too-large") as excinfo:
            build_sequence_linear(UNIFORM_SUPS, UNIFORM_SUPS, 2, 0.2)
        assert "0.0769230769" in str(excinfo.value)


class TestDensity:
    def test_independence_is_the_marginal_product(self, independence_model):
        m = independence_model
        xs = np.linspace(0.0, 1.0, 13)
        expected = np.outer(m.marginal_x.density(xs), m.marginal_y.density(xs))
        np.testing.assert_allclose(m.density(xs[:, None], xs[None, :]), expected, atol=1e-15)

    def test_zero_outside_the_support_rectangle(self, ce_model):
        assert ce_model.density(-0.1, 0.5) == 0.0
        assert ce_model.density(0.5, 1.2) == 0.0
        assert ce_model.density(2.0, -3.0) == 0.0

    def test_corner_value_closed_form(self, ce_model):
        # phi_1(0) = psi_1(0) = -sqrt(3), phi_2(0) = psi_2(0) = sqrt(5):
        # 1 + 0.05 * 3 + 0.15 * 5 = 1.9
        assert ce_model.density(0.0, 0.0) == pytest.approx(1.9, rel=1e-10)

    def test_nonnegative_on_fine_grid(self, ce_model):
        xs = np.linspace(0.0, 1.0, 256)
        assert np.min(ce_model.density(xs[:, None], xs[None, :])) >= 0.0

    def test_total_mass_one(self, ce_model):
        mass = integrate_2d(ce_model.density, ce_model.rule_x, ce_model.rule_y)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_transpose_swaps_arguments(self, ce_model):
        swapped = transpose_model(ce_model)
        assert swapped.density(0.3, 0.8) == pytest.approx(ce_model.density(0.8, 0.3), rel=1e-14)

    def test_cross_moment_matrix_is_diagonal_with_the_coefficients(self, ce_model):
        # E[phi_m(X) psi_n(Y)] picks out rho_n exactly when m = n
        m = ce_model
        for deg_x in range(1, 3):
            for deg_y in range(1, 3):
                value = integrate_2d(
                    lambda x, y, a=deg_x, b=deg_y: m.density(x, y)
                    * m.system_x.evaluate(a, x)
                    * m.system_y.evaluate(b, y),
                    m.rule_x,
                    m.rule_y,
                )
                expected = m.coeffs.rho[deg_y - 1] if deg_x == deg_y else 0.0
                assert value == pytest.approx(expected, abs=1e-9)


class TestConditionalDensity:
    def test_reduces_to_marginal_under_independence(self, independence_model):
        xs = np.linspace(0.0, 1.0, 17)
        np.testing.assert_allclose(
            conditional_density_x_given_y(independence_model, xs, 0.7),
            independence_model.marginal_x.density(xs),
            atol=1e-14,
        )

    def test_normalizes_for_fixed_conditioning_point(self, ce_model):
        values = conditional_density_x_given_y(ce_model, ce_model.rule_x.nodes, 0.3)
        assert float(ce_model.rule_x.weights @ values) == pytest.approx(1.0, abs=1e-9)

    def test_corner_value(self, ce_model):
        assert conditional_density_x_given_y(ce_model, 0.0, 0.0) == pytest.approx(1.9, rel=1e-10)


class TestMarginalResidual:
    def test_independence_recovers_marginals_exactly(self, independence_model):
        res_x, res_y = marginal_residual(independence_model)
        assert res_x <= 1e-10 and res_y <= 1e-10

    def test_validated_model_within_tolerance(self, ce_model):
        res_x, res_y = marginal_residual(ce_model)
        assert res_x < 1e-9 and res_y < 1e-9

    def test_corrupted_pairing_is_detected(self, ce_model):
        # pairing phi_1 with the constant psi_0 breaks the x-marginal: the
        # correction no longer integrates to zero over y
        m = ce_model

        def corrupted(x, y):
            factor = 1.0 + m.coeffs.rho[0] * m.system_x.evaluate(1, np.asarray(x, dtype=float))
            return m.marginal_x.density(x) * m.marginal_y.density(y) * factor

        res_x, res_y = marginal_residual(m, density=corrupted)
        assert max(res_x, res_y) > 1e-3


class TestSampling:
    def test_same_seed_reproduces_samples(self, ce_model):
        first = sample_joint(ce_model, 3000, seed=42)
        second = sample_joint(ce_model, 3000, seed=42)
        assert np.array_equal(first, second)

    def test_different_seeds_differ(self, ce_model):
        a = sample_joint(ce_model, 1000, seed=1)
        b = sample_joint(ce_model, 1000, seed=2)
        assert not np.array_equal(a, b)

    def test_samples_live_in_the_support(self, ce_model):
        samples = sample_joint(ce_model, 5000, seed=3)
        assert np.all((samples >= 0.0) & (samples <= 1.0))

    def test_independence_accepts_every_proposal(self, independence_model):
        _, stats = sample_joint(independence_model, 2000, seed=5, with_stats=True)
        assert stats.acceptance_rate == 1.0

    def test_acceptance_rate_matches_envelope(self, ce_model):
        _, stats = sample_joint(ce_model, 50_000, seed=11, with_stats=True)
        assert stats.acceptance_rate == pytest.approx(1.0 / 1.9, abs=0.01)

    def test_cross_moment_matches_coefficient(self, ce_model):
        samples = sample_joint(ce_model, 50_000, seed=17)
        values = ce_model.system_x.evaluate(1, samples[:, 0]) * ce_model.system_y.evaluate(
            1, samples[:, 1]
        )
        stderr = np.std(values) / np.sqrt(values.size)
        assert abs(np.mean(values) - 0.05) <= 4.0 * stderr

    def test_rejects_nonpositive_count(self, ce_model):
        with pytest.raises(ValueError):
            sample_joint(ce_model, 0, seed=1)


class TestBatchCap:
    COUNT = 10_000

    @pytest.fixture
    def rounds(self, monkeypatch):
        """Cap rounds at 4096 proposals and record each round's (xs, ys)."""
        monkeypatch.setattr(lancaster, "_MAX_BATCH", 4096)
        seen = []
        series_factor = lancaster.LancasterModel.series_factor

        def spy(model, x, y):
            seen.append((x, y))
            return series_factor(model, x, y)

        monkeypatch.setattr(lancaster.LancasterModel, "series_factor", spy)
        return seen

    def test_count_and_proposals_across_rounds(self, ce_model, rounds):
        samples, stats = sample_joint(ce_model, self.COUNT, seed=5, with_stats=True)
        assert samples.shape == (self.COUNT, 2)
        sizes = [x.size for x, _ in rounds]
        assert len(sizes) >= 3 and max(sizes) <= 4096
        stream_x = np.concatenate([x for x, _ in rounds])
        stream_y = np.concatenate([y for _, y in rounds])
        assert sum(sizes[:-1]) < stats.proposals <= sum(sizes)
        assert stats.acceptance_rate == self.COUNT / stats.proposals
        # every draw is a proposal, in stream order, and the last one is the
        # proposal the count stops at
        position = {value: k for k, value in enumerate(stream_x.tolist())}
        taken = np.array([position[value] for value in samples[:, 0].tolist()])
        assert np.all(np.diff(taken) > 0)
        assert taken[-1] == stats.proposals - 1
        assert np.array_equal(stream_y[taken], samples[:, 1])

    def test_same_seed_reproduces_samples(self, ce_model, rounds):
        first = sample_joint(ce_model, self.COUNT, seed=9)
        second = sample_joint(ce_model, self.COUNT, seed=9)
        assert np.array_equal(first, second)

    def test_independence_proposes_exactly_count(self, independence_model, rounds):
        _, stats = sample_joint(independence_model, self.COUNT, seed=5, with_stats=True)
        assert stats.proposals == self.COUNT
        assert len(rounds) == 3


def _table_cdf(marginal: MarginalSpec):
    """Closed-form CDF of a piecewise-linear density: quadratic on each segment."""
    knots, values = (np.asarray(p) for p in marginal.params)
    width = np.diff(knots)
    at_knots = np.concatenate([[0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * width)])

    def cdf(x):
        x = np.asarray(x, dtype=float)
        k = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, knots.size - 2)
        t = x - knots[k]
        slope = (values[k + 1] - values[k]) / width[k]
        return at_knots[k] + values[k] * t + 0.5 * slope * t * t

    return cdf


_KINK_VALUES = np.array([0.0, 1.2, 0.4, 0.9, 0.0]) / 1.555  # trapezoid mass 1.555
KINKED_TABLE = MarginalSpec("table", (0.0, 2.5), ((0.0, 0.3, 1.0, 1.7, 2.5), tuple(_KINK_VALUES)))
UNIFORM_WIDE = MarginalSpec("uniform", (-3.0, 5.0))
RAMP_TABLE = MarginalSpec("table", (0.0, 1.0), ((0.0, 1.0), (0.5, 1.5)))  # one sloped segment
BETA23 = MarginalSpec("beta", (0.0, 1.0), (2.0, 3.0))


class TestExactInversion:
    """The sampler's inverse CDF against closed forms."""

    @pytest.mark.parametrize(
        "marginal, cdf",
        [(UNIFORM_WIDE, lambda x: (x + 3.0) / 8.0), (KINKED_TABLE, _table_cdf(KINKED_TABLE))],
        ids=["uniform", "table"],
    )
    def test_cdf_of_inverse_is_identity(self, marginal, cdf):
        inverse = lancaster._InverseCdfTable(marginal)
        u = np.random.default_rng(0).random(100_000)
        assert np.max(np.abs(cdf(inverse(u)) - u)) <= 1e-13
        knot_u = cdf(inverse.x)
        assert np.max(np.abs(cdf(inverse(knot_u)) - knot_u)) <= 1e-13

    @pytest.mark.parametrize(
        "marginal", [UNIFORM_WIDE, KINKED_TABLE, BETA23], ids=["uniform", "table", "beta"]
    )
    def test_draws_stay_in_their_segment_and_the_support(self, marginal):
        inverse = lancaster._InverseCdfTable(marginal)
        u = np.concatenate([[0.0], inverse.cdf[:-1], [np.nextafter(1.0, 0.0)]])
        x = inverse(u)
        k = np.clip(np.searchsorted(inverse.cdf, u, side="right") - 1, 0, inverse.x.size - 2)
        assert np.all((inverse.x[k] <= x) & (x <= inverse.x[k + 1]))
        lo, hi = marginal.support
        assert np.all((lo <= x) & (x <= hi))
        assert x[0] == lo

    @pytest.mark.parametrize(
        "marginal",
        [UNIFORM_WIDE, RAMP_TABLE, KINKED_TABLE, BETA23],
        ids=["uniform", "two-knot-table", "table", "beta"],
    )
    def test_inverse_matches_the_clipped_search_over_every_knot(self, marginal):
        inverse = lancaster._InverseCdfTable(marginal)
        u = np.concatenate(
            [
                [0.0, np.nextafter(1.0, 0.0)],
                inverse.cdf[1:-1],
                np.random.default_rng(2).random(10_000),
            ]
        )
        # the segment from a search over every knot, clipped into range, then the same arithmetic
        i = np.clip(np.searchsorted(inverse.cdf, u, side="right") - 1, 0, inverse.x.size - 2)
        r = u - inverse.cdf[i]
        f = inverse.pdf[i]
        root = f + np.sqrt(np.maximum(f * f + 2.0 * inverse.slope[i] * r, 0.0))
        t = 2.0 * r / np.where(root > 0.0, root, np.inf)
        expected = np.minimum(inverse.x[i] + t, inverse.x[i + 1])
        assert inverse(u).tobytes() == expected.tobytes()

    def test_beta_inverse_is_nondecreasing(self):
        inverse = lancaster._InverseCdfTable(BETA23)
        knot_u = inverse.cdf[:-1]
        u = np.concatenate(
            [
                np.random.default_rng(1).random(100_000),
                knot_u,
                np.nextafter(knot_u[1:], 0.0),
                [0.0, np.nextafter(1.0, 0.0)],
            ]
        )
        assert np.all(np.diff(inverse(np.sort(u))) >= 0.0)

    def test_independence_draws_pass_ks_against_exact_marginals(self):
        model = build_model(KINKED_TABLE, BETA23, (0.0,))
        samples = sample_joint(model, 100_000, seed=23)
        critical = scipy.stats.kstwobign.isf(0.01) / np.sqrt(samples.shape[0])
        assert scipy.stats.kstest(samples[:, 0], _table_cdf(KINKED_TABLE)).statistic < critical
        assert scipy.stats.kstest(samples[:, 1], scipy.stats.beta(2.0, 3.0).cdf).statistic < critical


BETA_TABLE_CONFIG = {
    "marginal_x": lancaster._marginal_to_config(BETA23),
    "marginal_y": lancaster._marginal_to_config(KINKED_TABLE),
    "rho_builder": {"type": "quadratic", "N": 4},
}


class TestPinnedDraws:
    """sample_joint's draws and proposal counts, pinned by digest.

    The digests were recorded from the sampler that transformed each round
    whole, before rounds were worked through in slices; every slice size
    must reproduce them.
    """

    # (model, count, seed, _MAX_BATCH): (sha256 of the samples' bytes, proposals)
    PINNED = {
        ("headline", 5, 2**40 + 7, 1 << 20): ("9ebd4caa99fa5c1e2c33457a6955fc1cf5858d5bd99d86a1870a4440e55efa8a", 10),
        ("headline", 20_000, 3, 1 << 20): ("8725150796f3ea707ff4904f17cd376f51f3ee1f4f8d287015664c1b9143cbeb", 38300),
        ("headline", 20_000, 3, 4096): ("c43961289a4eaa88ec1d6937c9387141189095e6328ccf2a31ab64356e50e990", 37768),
        ("beta-table", 5, 2**40 + 7, 1 << 20): ("ddc370fa05fe81f62280a7f01d6ffd0e1c369d861c6ec032f9b91bd1c95bb43b", 8),
        ("beta-table", 20_000, 3, 1 << 20): ("6b7a8ef320227de5c9cb025edef85d89b62b2a3bb6e8f72028e95d35c586532a", 37484),
        ("beta-table", 20_000, 3, 4096): ("e7835aef8e37068888d28c3854a9e73ed2f8ea0cfdcc59435d0a157bed786575", 37139),
        ("independence", 5, 2**40 + 7, 1 << 20): ("9fcd3c0f5ec5913635b4fe4d120aa7f18e44e2113cf5be2b1c6838f1829a6041", 5),
        ("independence", 20_000, 3, 1 << 20): ("af9e2afa1e9e2e8aaef97e83cd751afa4b5aa435ce0fdd1bb1414a3500cc50bc", 20000),
        ("independence", 20_000, 3, 4096): ("34d666823ea1e96a42f36ce873b29738f1e5d62f6d529d9660860f794a4344d4", 20000),
    }

    @pytest.fixture(scope="class")
    def models(self, ce_model, independence_model):
        return {
            "headline": ce_model,
            "beta-table": model_from_config(BETA_TABLE_CONFIG),
            "independence": independence_model,
        }

    @pytest.mark.parametrize("case", sorted(PINNED), ids=lambda case: "-".join(map(str, case)))
    @pytest.mark.parametrize("slice_size", [None, 1000, "round"], ids=["default", "1000", "round"])
    def test_draws_match_their_digest(self, monkeypatch, models, case, slice_size):
        name, count, seed, max_batch = case
        monkeypatch.setattr(lancaster, "_MAX_BATCH", max_batch)
        if slice_size is not None:
            # "round": a slice as large as any round, so each round is one slice
            size = max_batch if slice_size == "round" else slice_size
            monkeypatch.setattr(lancaster, "_SLICE_PROPOSALS", size)
        samples, stats = sample_joint(models[name], count, seed, with_stats=True)
        digest = hashlib.sha256(samples.tobytes()).hexdigest()
        assert (digest, stats.proposals) == self.PINNED[case]


def _whole_round_sampler(model, count, seed):
    """The sampler with each round's uniforms drawn whole: the reference for its stream.

    Round after round, ``batch`` x, y and acceptance uniforms come from three
    ``rng.random(batch)`` calls on ``np.random.default_rng(seed)``, and the
    whole round is transformed and tested at once.
    """
    rng = np.random.default_rng(seed)
    envelope = 1.0 + model.coeffs.bound_value
    inverse_x = lancaster._InverseCdfTable(model.marginal_x)
    inverse_y = lancaster._InverseCdfTable(model.marginal_y)
    parts, filled, proposed = [], 0, 0
    while filled < count:
        batch = min(lancaster._MAX_BATCH, max(4096, int((count - filled) * envelope * 1.2)))
        u_x, u_y, u_accept = rng.random(batch), rng.random(batch), rng.random(batch)
        xs, ys = inverse_x(u_x), inverse_y(u_y)
        idx = np.nonzero(u_accept * envelope < model.series_factor(xs, ys))[0][: count - filled]
        parts.append(np.column_stack([xs[idx], ys[idx]]))
        filled += idx.size
        proposed += int(idx[-1]) + 1 if filled == count else batch
    return np.concatenate(parts), lancaster.SampleStats(proposed, count / proposed)


class TestWholeRoundStream:
    """sample_joint against the whole-round reference, draw for draw.

    Unlike a digest, a mismatch here names the first draw that differs.
    """

    COUNTS = (1, 5, 4095, 20_000)
    SEEDS = (0, 3, 2**40 + 7)

    @pytest.fixture(scope="class")
    def models(self, ce_model, independence_model):
        return {
            "headline": ce_model,
            "beta-table": model_from_config(BETA_TABLE_CONFIG),
            "independence": independence_model,
        }

    @pytest.mark.parametrize("slice_size", [None, 1000, "round"], ids=["default", "1000", "round"])
    @pytest.mark.parametrize("max_batch", [4096, 5000, 1 << 20])
    @pytest.mark.parametrize("name", ["headline", "beta-table", "independence"])
    def test_draws_match_the_whole_round_sampler(self, monkeypatch, models, name, max_batch, slice_size):
        monkeypatch.setattr(lancaster, "_MAX_BATCH", max_batch)
        if slice_size is not None:
            size = max_batch if slice_size == "round" else slice_size
            monkeypatch.setattr(lancaster, "_SLICE_PROPOSALS", size)
        cases = [(count, seed) for count in self.COUNTS for seed in self.SEEDS]
        if max_batch == 1 << 20:
            # two rounds, the first of 2^20 proposals, on the headline and beta-table models
            cases.append((600_000, 0))
        for count, seed in cases:
            samples, stats = sample_joint(models[name], count, seed, with_stats=True)
            expected, expected_stats = _whole_round_sampler(models[name], count, seed)
            differ = np.flatnonzero(np.any(samples != expected, axis=1))
            assert differ.size == 0, f"count {count}, seed {seed}: draw {differ[0]} differs first"
            assert stats == expected_stats, f"count {count}, seed {seed}"


class TestSamplerMemory:
    def test_peak_is_the_samples_and_a_few_mib(self, ce_model):
        tracemalloc.start()
        try:
            samples = sample_joint(ce_model, 1_000_000, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= samples.nbytes + 4 * 2**20


class TestModelConfig:
    def test_round_trip_is_field_for_field_identical(self, ce_model):
        reloaded = model_from_config(model_to_config(ce_model))
        assert reloaded.marginal_x == ce_model.marginal_x
        assert reloaded.marginal_y == ce_model.marginal_y
        assert reloaded.coeffs.rho == ce_model.coeffs.rho
        assert reloaded.coeffs.bound_value == ce_model.coeffs.bound_value
        for name in ("recurrence_alpha", "offdiagonals", "leading", "sup_norms"):
            assert np.array_equal(
                getattr(reloaded.system_x, name), getattr(ce_model.system_x, name)
            )
        assert np.array_equal(reloaded.rule_x.nodes, ce_model.rule_x.nodes)

    def test_builder_configs(self, uniform01):
        cfg = {
            "marginal_x": {"kind": "uniform", "support": [0, 1]},
            "marginal_y": {"kind": "uniform", "support": [0, 1]},
            "rho_builder": {"type": "linear", "N": 2, "lambda": 1.0 / 13.0},
        }
        model = model_from_config(cfg)
        np.testing.assert_allclose(model.coeffs.rho, (1.0 / 13.0, 2.0 / 13.0), rtol=1e-12)
        cfg["rho_builder"] = {"type": "quadratic", "N": 3}
        model = model_from_config(cfg)
        assert model.coeffs.bound_value < 1.0

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda cfg: cfg.pop("marginal_x"),
            lambda cfg: cfg.update(rho_builder={"type": "linear", "N": 2, "lambda": 0.01}),
            lambda cfg: cfg.update(rho=[]),
            lambda cfg: cfg["marginal_x"].update(kind="cauchy"),
            lambda cfg: cfg["marginal_x"].update(support=[0, 1, 2]),
            lambda cfg: cfg.update(max_degree=1),
        ],
    )
    def test_bad_configs_rejected(self, ce_model, mutate):
        cfg = model_to_config(ce_model)
        mutate(cfg)
        with pytest.raises(ValueError):
            model_from_config(cfg)

    @pytest.mark.parametrize(
        "coefficients",
        [
            {"rho": [0.01, 0.02]},
            {"rho_builder": {"type": "quadratic", "N": 3}},
            {"rho_builder": {"type": "linear", "N": 2, "lambda": 0.01}},
        ],
    )
    def test_each_system_is_built_once(self, monkeypatch, coefficients):
        calls = []

        def counting_build_system(*args, **kwargs):
            calls.append(args[0].kind)
            return build_system(*args, **kwargs)

        monkeypatch.setattr(lancaster, "build_system", counting_build_system)
        model_from_config(
            {
                "marginal_x": {"kind": "uniform", "support": [0, 1]},
                "marginal_y": {"kind": "beta", "support": [0, 1], "params": {"a": 2, "b": 3}},
                **coefficients,
            }
        )
        assert calls == ["uniform", "beta"]

    def test_beta_and_table_marginals_round_trip(self, beta23, triangle_table):
        model = build_model(beta23, triangle_table, (0.005,))
        reloaded = model_from_config(model_to_config(model))
        assert reloaded.marginal_x == model.marginal_x
        assert reloaded.marginal_y == model.marginal_y


def _uniform_table(knots: int) -> MarginalSpec:
    """The uniform density on [0, 1] as a table of ``knots`` equispaced knots."""
    return MarginalSpec("table", (0.0, 1.0), (tuple(np.linspace(0.0, 1.0, knots)), (1.0,) * knots))


class TestBuildModelValidation:
    def test_max_degree_must_cover_the_sequence(self, uniform01):
        with pytest.raises(ValueError, match="max_degree"):
            build_model(uniform01, uniform01, (0.01,) * 9, max_degree=8)

    def test_bound_violation_propagates(self, uniform01):
        with pytest.raises(BoundViolationError):
            build_model(uniform01, uniform01, (0.5, 0.5))

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"quad_nodes": 20000}, "'quad_nodes' must be at most 2048"),
            ({"max_degree": 10**6}, "'max_degree' must be at most 64"),
            ({"marginal_x": _uniform_table(2000)}, "'marginal_x' makes a 31984-node rule at quad_nodes 128"),
            ({"marginal_y": _uniform_table(2000)}, "'marginal_y' makes a 31984-node rule at quad_nodes 128"),
            # a table's rule has 16 nodes per segment at any quad_nodes, so only the count can stop these
            ({"marginal_x": _uniform_table(3), "quad_nodes": 0}, "'quad_nodes' must be at least 1"),
            ({"marginal_x": _uniform_table(3), "quad_nodes": -5}, "'quad_nodes' must be at least 1"),
        ],
        ids=["quad_nodes", "max_degree", "table-x", "table-y", "table-quad_nodes-0", "table-quad_nodes-negative"],
    )
    def test_inputs_out_of_range_are_rejected_before_any_build(self, uniform01, monkeypatch, kwargs, message):
        def no_build(*args, **kwargs):
            raise AssertionError("a system was built from out-of-range inputs")

        monkeypatch.setattr(lancaster, "build_system", no_build)
        args = {"marginal_x": uniform01, "marginal_y": uniform01, "rho": (0.05, 0.15), **kwargs}
        with pytest.raises(ValueError, match=message):
            build_model(**args)

    @pytest.mark.parametrize(
        "rho,message",
        [
            (("0.05", False), "rho must be a real number, got '0.05'"),
            ((0.05, False), "rho must be a real number, got False"),
            ((10**400,), "rho is too large for a float"),
            (0.05, "rho must be a sequence of real numbers, got 0.05"),
            ("0.05", "rho must be a sequence of real numbers, got '0.05'"),
            (np.array(0.05), r"rho must be a sequence of real numbers, got array\(0.05\)"),
        ],
    )
    def test_coefficients_of_another_type_are_rejected_before_any_build(
        self, uniform01, monkeypatch, rho, message
    ):
        def no_build(*args, **kwargs):
            raise AssertionError("a system was built from a malformed coefficient")

        monkeypatch.setattr(lancaster, "build_system", no_build)
        with pytest.raises(ValueError, match=message):
            build_model(uniform01, uniform01, rho)

    def test_numpy_coefficients_are_read_as_floats(self, uniform01):
        model = build_model(uniform01, uniform01, (np.float32(0.05), np.int64(0)))
        assert model.coeffs.rho == (float(np.float32(0.05)), 0.0)
        assert all(type(r) is float for r in model.coeffs.rho)

    @pytest.mark.parametrize(
        "kwargs",
        [{"quad_nodes": 2048}, {"max_degree": 64}, {"marginal_x": _uniform_table(129)}],
        ids=["quad_nodes", "max_degree", "table-of-2048-nodes"],
    )
    def test_inputs_at_their_limit_reach_the_build(self, uniform01, monkeypatch, kwargs):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(lancaster, "build_system", reached)
        args = {"marginal_x": uniform01, "marginal_y": uniform01, "rho": (0.05, 0.15), **kwargs}
        with pytest.raises(Reached):
            build_model(**args)


@given(
    raw=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6).filter(
        lambda v: any(abs(x) > 1e-3 for x in v)
    ),
    target=st.floats(0.05, 0.999),
)
@settings(max_examples=40)
def test_scaled_sequences_validate_exactly_when_below_the_bound(raw, target):
    raw = np.asarray(raw)
    c = d = UNIFORM_SUPS[: raw.size]
    mass = float(np.sum(np.abs(raw) * c * d))
    admissible = raw * (target / mass)
    seq = validate_coefficients(admissible, c, d)
    assert seq.bound_value == pytest.approx(target, rel=1e-12)
    with pytest.raises(BoundViolationError):
        validate_coefficients(raw * (1.5 / mass), c, d)


def _verify_models_configs(seed: int) -> list[dict]:
    """The four configs of the verify-models benchmark workload for one seed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.model_configs(lancaster_lab, np.random.default_rng(seed))


def _density_grids(model):
    """The nonnegativity grid and the rule grid that model verification evaluates on."""
    return [
        (np.linspace(*model.marginal_x.support, 256), np.linspace(*model.marginal_y.support, 256)),
        (model.rule_x.nodes, model.rule_y.nodes),
    ]


class TestOpenGridDensity:
    """The density's one body on the two routes of ``series_factor``.

    On an open grid the series is one matrix product; every other shape keeps
    the term-by-term loop. Either way the density scales the series factor by
    f1, then by f2, and clamps it.
    """

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("slot", range(4))
    def test_open_grid_is_within_the_rounding_bound_of_the_pointwise_sums(self, seed, slot):
        self._check_rounding_bound(model_from_config(_verify_models_configs(seed)[slot]))

    @pytest.mark.parametrize("rho1", [0.2, -0.3])
    def test_an_n1_model_is_within_the_same_bound(self, uniform01, beta23, rho1):
        # N = 1 is an inner dimension of 1 in the open grid's product (the fgm fixtures)
        self._check_rounding_bound(build_model(uniform01, uniform01, (rho1,)))
        self._check_rounding_bound(build_model(beta23, uniform01, (rho1 / 4.0,)))

    @staticmethod
    def _check_rounding_bound(model):
        # Both routes add the same N + 1 terms, each at most f1 f2 |rho_n| c_n d_n, and scale
        # by f1 and f2: each is within (N + 3) eps f1 f2 (1 + bound) of the exact value
        # (Higham, Accuracy and Stability, section 3.1), so they are within twice that of each other.
        eps = np.finfo(float).eps
        for x, y in _density_grids(model):
            grid_x, grid_y = np.meshgrid(x, y, indexing="ij")
            unit = eps * model.marginal_x.density(grid_x) * model.marginal_y.density(grid_y)
            unit *= 1.0 + model.coeffs.bound_value
            open_grid = _values_on(model.density, x, y)
            pointwise = density_pointwise(model, grid_x, grid_y)
            assert open_grid.shape == pointwise.shape
            assert np.all(np.abs(open_grid - pointwise) <= 2 * (len(model.coeffs) + 3) * unit)

    @pytest.mark.parametrize("slot", range(4))
    def test_full_meshgrid_density_is_the_pointwise_route_bitwise(self, slot):
        model = model_from_config(_verify_models_configs(1)[slot])
        for x, y in _density_grids(model):
            grid = np.meshgrid(x, y, indexing="ij")
            assert model.density(*grid).tobytes() == density_pointwise(model, *grid).tobytes()

    @pytest.mark.parametrize("slot", range(4))
    def test_scattered_series_factor_is_the_pointwise_route_bitwise(self, slot):
        model = model_from_config(_verify_models_configs(1)[slot])
        rng = np.random.default_rng(slot)
        xs = rng.uniform(*model.marginal_x.support, 1000)
        ys = rng.uniform(*model.marginal_y.support, 1000)
        for x, y in [(xs, ys), (xs.reshape(10, 100), ys.reshape(10, 100)), (xs[0], ys[0])]:
            factor = np.asarray(model.series_factor(x, y))
            assert factor.tobytes() == np.asarray(series_factor_pointwise(model, x, y)).tobytes()


class TestQuadNodesRoundTrip:
    def test_non_default_count_is_written_back(self, beta23, uniform01):
        model = build_model(beta23, uniform01, (0.02, 0.05), quad_nodes=40)
        cfg = model_to_config(model)
        assert cfg["quad_nodes"] == 40
        reloaded = model_from_config(cfg)
        assert reloaded.quad_nodes == 40
        assert reloaded.rule_x.nodes.tobytes() == model.rule_x.nodes.tobytes()
        assert reloaded.system_x.sup_norms.tobytes() == model.system_x.sup_norms.tobytes()

    def test_default_count_is_left_out(self, ce_model):
        assert "quad_nodes" not in model_to_config(ce_model)
        assert transpose_model(ce_model).quad_nodes == ce_model.quad_nodes == 128


class TestIntegerSampleCounts:
    @pytest.mark.parametrize("count", [2.7, 2.0, True, "3", None])
    def test_non_integer_counts_are_rejected(self, ce_model, count):
        with pytest.raises(ValueError, match="count must be an integer,"):
            sample_joint(ce_model, count, 0)

    def test_numpy_integers_are_accepted(self, ce_model):
        samples = sample_joint(ce_model, np.int64(5), 0)
        assert samples.tobytes() == sample_joint(ce_model, 5, 0).tobytes()


class TestSampleSeeds:
    @pytest.mark.parametrize("seed", [True, False, -1, 2.0, "3", None, [1, 2]])
    def test_non_integer_or_negative_seeds_are_rejected(self, ce_model, seed):
        with pytest.raises(ValueError, match="seed must be (an integer,|at least 0,)"):
            sample_joint(ce_model, 5, seed)

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint64(2**64 - 1)], ids=["int64", "uint64-max"])
    def test_numpy_integers_are_accepted(self, ce_model, seed):
        samples = sample_joint(ce_model, 5, seed)
        assert samples.tobytes() == sample_joint(ce_model, 5, int(seed)).tobytes()


def _quadratic_config(count):
    uniform = {"kind": "uniform", "support": [0.0, 1.0]}
    return {"marginal_x": uniform, "marginal_y": uniform, "rho_builder": {"type": "quadratic", "N": count}}


# Each entry point that takes a count, a valid count for it, and the field its
# error names. Every one rejects a count that int() would turn into a valid one.
COUNT_ENTRY_POINTS = {
    "gauss_legendre_rule": (lambda m, u, count: gauss_legendre_rule(count, 0.0, 1.0), 8, "node count n"),
    "composite_gauss_legendre": (
        lambda m, u, count: composite_gauss_legendre((0.0, 0.5, 1.0), count),
        4,
        "nodes_per_segment",
    ),
    "rule_size": (lambda m, u, count: u.rule_size(count), 130, "n_nodes"),
    "quadrature_rule": (lambda m, u, count: u.quadrature_rule(count), 130, "n_nodes"),
    "measure": (lambda m, u, count: u.measure(count), 130, "n_nodes"),
    "build_system-max_degree": (lambda m, u, count: build_system(u, count), 2, "max_degree"),
    "build_system-quad_nodes": (lambda m, u, count: build_system(u, 4, count), 64, "quad_nodes"),
    "evaluate": (lambda m, u, count: m.system_x.evaluate(count, 0.5), 1, "degree"),
    "evaluate_all": (lambda m, u, count: m.system_x.evaluate_all(0.5, upto=count), 2, "degree"),
    "monomial_coefficients": (lambda m, u, count: m.system_x.monomial_coefficients(count), 2, "degree"),
    "build_model-max_degree": (
        lambda m, u, count: build_model(u, u, (0.05,), max_degree=count),
        8,
        "'max_degree'",
    ),
    "build_model-quad_nodes": (
        lambda m, u, count: build_model(u, u, (0.05,), quad_nodes=count),
        128,
        "'quad_nodes'",
    ),
    "model_from_config-N": (lambda m, u, count: model_from_config(_quadratic_config(count)), 2, "'N'"),
    "discretize_model": (lambda m, u, count: discretize_model(m, count), 16, "nodes_per_axis"),
    "fixture-joint": (lambda m, u, count: resolve_fixture("disc").joint(count), 16, "nodes_per_axis"),
    "build_sequence_quadratic": (
        lambda m, u, count: build_sequence_quadratic(UNIFORM_SUPS, UNIFORM_SUPS, count),
        2,
        "count",
    ),
    "build_sequence_linear": (
        lambda m, u, count: build_sequence_linear(UNIFORM_SUPS, UNIFORM_SUPS, count, 1e-3),
        2,
        "count",
    ),
    "sample_joint-count": (lambda m, u, count: sample_joint(m, count, 0), 5, "count"),
    "sample_joint-seed": (lambda m, u, count: sample_joint(m, 5, count), 3, "seed"),
    "maxcorr_ace": (
        lambda m, u, count: maxcorr_ace(discretize_model(m, 32), max_iters=count),
        50,
        "max_iters",
    ),
    "check_eigen_regression": (lambda m, u, count: check_eigen_regression(m, count), 2, "degree n"),
    "check_polynomial_regression": (
        lambda m, u, count: check_polynomial_regression(m, count),
        2,
        "degree n",
    ),
}

# Entry points whose count defaults to None: the top degree, the fixture's default grid.
NONE_MEANS_DEFAULT = {"evaluate_all", "monomial_coefficients", "fixture-joint"}


class TestIntegerCountsAtEveryEntryPoint:
    @pytest.mark.parametrize(
        "make_bad",
        [lambda n: n + 0.5, lambda n: np.float64(n), lambda n: True, lambda n: str(n)],
        ids=["float", "np.float64", "bool", "str"],
    )
    @pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
    def test_non_integer_counts_are_rejected(self, ce_model, uniform01, entry, make_bad):
        call, valid, field = COUNT_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got")):
            call(ce_model, uniform01, make_bad(valid))

    @pytest.mark.parametrize("entry", sorted(set(COUNT_ENTRY_POINTS) - NONE_MEANS_DEFAULT))
    def test_none_is_rejected_where_it_is_no_default(self, ce_model, uniform01, entry):
        call, _, field = COUNT_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got None")):
            call(ce_model, uniform01, None)

    @pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
    def test_numpy_integers_are_accepted(self, ce_model, uniform01, entry):
        call, valid, _ = COUNT_ENTRY_POINTS[entry]
        for numpy_type in (np.int64, np.uint16):
            call(ce_model, uniform01, numpy_type(valid))


# A 2 x 2 law with maximal correlation 0.2, for the entry points that take a joint.
SMALL_JOINT = joint_from_pmf([[0.3, 0.2], [0.2, 0.3]])

# Each entry point that takes a real number, a valid value for it, and the field
# its error names.
REAL_ENTRY_POINTS = {
    "maxcorr_ace-tol": (lambda value: maxcorr_ace(SMALL_JOINT, tol=value), 1e-9, "tol"),
    "correlation_report-ace_tol": (lambda value: correlation_report(SMALL_JOINT, ace_tol=value), 1e-9, "tol"),
    "maxcorr_svd-lower_bound": (lambda value: maxcorr_svd(SMALL_JOINT, lower_bound=value), 0.0, "lower_bound"),
    "gauss_legendre_rule-a": (lambda value: gauss_legendre_rule(8, value, 2.0), 0.0, "invalid-interval: a"),
    "gauss_legendre_rule-b": (lambda value: gauss_legendre_rule(8, 0.0, value), 1.0, "invalid-interval: b"),
    "composite_gauss_legendre": (
        lambda value: composite_gauss_legendre((0.0, value, 2.0), 4),
        0.5,
        "invalid-interval: breakpoints",
    ),
    "discretize_joint-support": (
        lambda value: discretize_joint(lambda x, y: 1.0, ((0.0, value), (0.0, 1.0)), 16),
        1.0,
        "support",
    ),
    "validate_coefficients-c": (lambda value: validate_coefficients([0.1], [value, 1.0], [1.0, 1.0]), 2.0, "c"),
    "validate_coefficients-d": (lambda value: validate_coefficients([0.1], [1.0, 1.0], [value, 1.0]), 2.0, "d"),
}


class TestRealNumbersAtEveryEntryPoint:
    @pytest.mark.parametrize("bad", ["x", True, None], ids=["str", "bool", "None"])
    @pytest.mark.parametrize("entry", sorted(REAL_ENTRY_POINTS))
    def test_non_real_values_are_rejected(self, entry, bad):
        call, _, field = REAL_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=re.escape(f"{field} must be a real number, got {bad!r}")):
            call(bad)

    @pytest.mark.parametrize("entry", sorted(REAL_ENTRY_POINTS))
    def test_numpy_reals_are_accepted(self, entry):
        call, valid, _ = REAL_ENTRY_POINTS[entry]
        for numpy_type in (np.float64, np.float32):
            call(numpy_type(valid))
        if float(valid).is_integer():
            call(np.int64(valid))


def _parseval_sum(model):
    """Tensor quadrature of f^2 / (f1 f2) on the model's own rules, over the nodes where f1 f2 > 0."""
    rule_x, rule_y = model.rule_x, model.rule_y
    f1 = model.marginal_x.density(rule_x.nodes)
    f2 = model.marginal_y.density(rule_y.nodes)
    keep_x, keep_y = f1 > 0.0, f2 > 0.0
    f = _values_on(model.density, rule_x.nodes[keep_x], rule_y.nodes[keep_y])
    return float(rule_x.weights[keep_x] @ (f * f / np.outer(f1[keep_x], f2[keep_y])) @ rule_y.weights[keep_y])


class TestParseval:
    """The integral of f^2 / (f1 f2) is 1 + sum rho_n^2 (Lancaster 1958), apart from the SVD and the sup norms."""

    GATE = 1e-13  # the worst error over the 80 verify-models configs of seeds 1-20 is 1.8e-15

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_the_squared_density_integrates_to_one_plus_the_squared_coefficients(self, seed):
        for cfg in _verify_models_configs(seed):
            model = model_from_config(cfg)
            expected = 1.0 + float(np.sum(np.square(model.coeffs.rho)))
            assert abs(_parseval_sum(model) - expected) <= self.GATE

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_coefficients_scaled_by_one_percent_miss_the_sum(self, seed):
        for cfg in _verify_models_configs(seed):
            model = model_from_config(cfg)
            expected = 1.0 + float(np.sum(np.square(model.coeffs.rho)))
            scaled = dataclasses.replace(model.coeffs, rho=tuple(1.01 * r for r in model.coeffs.rho))
            assert abs(_parseval_sum(dataclasses.replace(model, coeffs=scaled)) - expected) > self.GATE
