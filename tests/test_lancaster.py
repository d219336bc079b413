import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import lancaster_lab
from lancaster_lab import lancaster
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
from lancaster_lab.quadrature import _values_on, integrate_2d

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
                expected = m.rho[deg_y - 1] if deg_x == deg_y else 0.0
                assert value == pytest.approx(expected, abs=1e-9)


class TestConditionalDensity:
    def test_reduces_to_marginal_under_independence(self, independence_model):
        xs = np.linspace(0.0, 1.0, 17)
        np.testing.assert_allclose(
            independence_model.conditional_density_x_given_y(xs, 0.7),
            independence_model.marginal_x.density(xs),
            atol=1e-14,
        )

    def test_normalizes_for_fixed_conditioning_point(self, ce_model):
        values = ce_model.conditional_density_x_given_y(ce_model.rule_x.nodes, 0.3)
        assert float(ce_model.rule_x.weights @ values) == pytest.approx(1.0, abs=1e-9)

    def test_corner_value(self, ce_model):
        assert ce_model.conditional_density_x_given_y(0.0, 0.0) == pytest.approx(1.9, rel=1e-10)

    def test_rejects_conditioning_outside_the_support(self, ce_model, beta23):
        with pytest.raises(ValueError, match="unsupported-conditioning-point"):
            ce_model.conditional_density_x_given_y(0.5, 1.5)
        model = build_model(MarginalSpec("uniform", (0.0, 1.0)), beta23, (0.02,))
        # the beta(2, 3) density vanishes at its endpoints
        with pytest.raises(ValueError, match="unsupported-conditioning-point"):
            model.conditional_density_x_given_y(0.5, 0.0)


class TestMarginalResidual:
    def test_independence_recovers_marginals_exactly(self, independence_model):
        res_x, res_y = independence_model.marginal_residual()
        assert res_x <= 1e-10 and res_y <= 1e-10

    def test_validated_model_within_tolerance(self, ce_model):
        res_x, res_y = ce_model.marginal_residual()
        assert res_x < 1e-9 and res_y < 1e-9

    def test_corrupted_pairing_is_detected(self, ce_model):
        # pairing phi_1 with the constant psi_0 breaks the x-marginal: the
        # correction no longer integrates to zero over y
        m = ce_model

        def corrupted(x, y):
            factor = 1.0 + m.rho[0] * m.system_x.evaluate(1, np.asarray(x, dtype=float))
            return m.marginal_x.density(x) * m.marginal_y.density(y) * factor

        res_x, res_y = m.marginal_residual(joint_density=corrupted)
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


class TestBuildModelValidation:
    def test_max_degree_must_cover_the_sequence(self, uniform01):
        with pytest.raises(ValueError, match="max_degree"):
            build_model(uniform01, uniform01, (0.01,) * 9, max_degree=8)

    def test_bound_violation_propagates(self, uniform01):
        with pytest.raises(BoundViolationError):
            build_model(uniform01, uniform01, (0.5, 0.5))


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


class TestOpenGridDensity:
    @pytest.mark.parametrize("slot", range(4))
    def test_open_grid_matches_the_full_meshgrid_bitwise(self, slot):
        model = model_from_config(_verify_models_configs(1)[slot])
        grids = [
            (np.linspace(*model.marginal_x.support, 256), np.linspace(*model.marginal_y.support, 256)),
            (model.rule_x.nodes, model.rule_y.nodes),
        ]
        for x, y in grids:
            full = model.density(*np.meshgrid(x, y, indexing="ij"))
            assert _values_on(model.density, x, y).tobytes() == full.tobytes()


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
        with pytest.raises(ValueError, match="count must be a positive integer"):
            sample_joint(ce_model, count, 0)

    def test_numpy_integers_are_accepted(self, ce_model):
        samples = sample_joint(ce_model, np.int64(5), 0)
        assert samples.tobytes() == sample_joint(ce_model, 5, 0).tobytes()
