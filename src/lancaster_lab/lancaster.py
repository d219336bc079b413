"""Joint densities of the form f1(x) f2(y) (1 + sum_n rho_n phi_n(x) psi_n(y)).

phi_n and psi_n are the orthonormal polynomials of the two marginals. The
admissibility condition

    sum_n |rho_n| c_n d_n <= 1,

with c_n, d_n the sup norms of phi_n and psi_n over the supports, keeps the
correction series at or above -1 everywhere, so the product form is a genuine
bivariate density whose marginals are exactly f1 and f2. Models are immutable
once built; sampling draws from the independent product and accepts with the
series factor over the envelope 1 + bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .orthopoly import _DEFAULT_QUAD_NODES, MarginalSpec, OrthonormalSystem, build_system
from .quadrature import QuadratureRule, _values_on, integrate_2d

__all__ = [
    "BoundViolationError",
    "ModelVerificationError",
    "CoefficientSequence",
    "LancasterModel",
    "validate_coefficients",
    "build_sequence_quadratic",
    "build_sequence_linear",
    "build_model",
    "transpose_model",
    "sample_joint",
    "SampleStats",
    "model_to_config",
    "model_from_config",
]

# Permits hitting the admissibility bound exactly, up to float rounding.
_BOUND_SLACK = 1e-12

# Series values in (-1e-12, 0) are cancellation noise on a provably
# nonnegative density and are clamped to zero.
_NEGATIVE_CLAMP = 1e-12

_DEFAULT_MAX_DEGREE = 8

# Config limits, checked before any system is built. Model verification
# integrates on a quad_nodes x quad_nodes grid (8 n^2 bytes: 32 MiB at 2048),
# and the sup norms take one eigenvalue solve per degree (O(N^4) in all).
_MAX_QUAD_NODES = 2048
_MAX_DEGREE_LIMIT = 64

# The beta density is not piecewise linear: the sampler inverts its
# piecewise-linear interpolant on this many equispaced knots. Uniform and
# table marginals are inverted on their own knots, exactly.
_CDF_TABLE_KNOTS = 4096

# Proposals drawn per rejection round, at most: memory per round stays fixed
# whatever the requested count.
_MAX_BATCH = 1 << 20


class BoundViolationError(ValueError):
    """The coefficient mass exceeds the admissibility bound; the density may go negative."""

    def __init__(self, bound_value: float):
        self.bound_value = float(bound_value)
        super().__init__(
            f"bound-violated: sum |rho_n| c_n d_n = {bound_value:.17g} exceeds 1;"
            " the joint density is not guaranteed nonnegative"
        )


class ModelVerificationError(RuntimeError):
    """A built model fails its nonnegativity or unit-mass check despite a valid bound."""


@dataclass(frozen=True)
class CoefficientSequence:
    """A finite coefficient sequence rho_1..rho_N with its cached bound value."""

    rho: tuple[float, ...]
    bound_value: float

    def __post_init__(self):
        if len(self.rho) < 1:
            raise ValueError("coefficient sequence must have length >= 1")
        if not all(math.isfinite(r) for r in self.rho):
            raise ValueError("coefficients must be finite")

    def __len__(self) -> int:
        return len(self.rho)


def _sup_norm_slices(c, d, count: int) -> tuple[np.ndarray, np.ndarray]:
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    if c.size < count or d.size < count:
        raise ValueError(
            "need one sup-norm constant per coefficient on each side"
            f" (got {c.size} and {d.size} for {count} coefficients)"
        )
    return c[:count], d[:count]


def validate_coefficients(rho: Sequence[float], c, d) -> CoefficientSequence:
    """Check sum |rho_n| c_n d_n <= 1 and cache the bound value.

    c[i] and d[i] are the sup-norm constants for degree i + 1 on the two
    sides (pass ``system.sup_norms[1:]``). Raises BoundViolationError when
    the mass exceeds 1, in which case the joint density may go negative.
    """
    rho = tuple(float(r) for r in rho)
    cs, ds = _sup_norm_slices(c, d, len(rho))
    # a term or a sum past the float range is an infinite bound, which fails below
    with np.errstate(over="ignore"):
        bound = float(np.sum(np.abs(rho) * cs * ds))
    if bound > 1.0 + _BOUND_SLACK:
        raise BoundViolationError(bound)
    return CoefficientSequence(rho=rho, bound_value=bound)


def build_sequence_quadratic(c, d, count: int) -> CoefficientSequence:
    """rho_n = 6 / (pi^2 n^2 c_n d_n); always admissible since sum 1/n^2 < pi^2/6."""
    if int(count) < 1:
        raise ValueError("count must be >= 1")
    count = int(count)
    cs, ds = _sup_norm_slices(c, d, count)
    n = np.arange(1, count + 1, dtype=float)
    rho = 6.0 / (math.pi**2 * n**2 * cs * ds)
    return validate_coefficients(rho, cs, ds)


def build_sequence_linear(c, d, count: int, lam: float) -> CoefficientSequence:
    """rho_n = lambda * n for n <= count; admissible iff lambda <= 1 / sum n c_n d_n."""
    if int(count) < 1:
        raise ValueError("count must be >= 1")
    count = int(count)
    cs, ds = _sup_norm_slices(c, d, count)
    lam = float(lam)
    lam_max = 1.0 / float(np.sum(np.arange(1, count + 1) * cs * ds))
    if not (lam > 0.0):
        raise ValueError("lambda must be strictly positive")
    if lam > lam_max * (1.0 + _BOUND_SLACK):
        raise ValueError(
            f"lambda-too-large: maximum admissible lambda is {lam_max:.17g}, got {lam:.17g}"
        )
    rho = lam * np.arange(1, count + 1, dtype=float)
    return validate_coefficients(rho, cs, ds)


@dataclass(frozen=True, eq=False)
class LancasterModel:
    """Two marginals, their orthonormal systems, and a validated coefficient sequence.

    ``quad_nodes`` is the node count the systems and the rules were built with.
    """

    marginal_x: MarginalSpec
    marginal_y: MarginalSpec
    system_x: OrthonormalSystem
    system_y: OrthonormalSystem
    coeffs: CoefficientSequence
    rule_x: QuadratureRule
    rule_y: QuadratureRule
    quad_nodes: int

    @property
    def rho(self) -> tuple[float, ...]:
        return self.coeffs.rho

    def series_factor(self, x, y):
        """1 + sum_n rho_n phi_n(x) psi_n(y), broadcasting over array inputs."""
        n = len(self.coeffs)
        px = self.system_x.evaluate_all(np.asarray(x, dtype=float), upto=n)
        py = self.system_y.evaluate_all(np.asarray(y, dtype=float), upto=n)
        factor = 1.0
        for k, r in enumerate(self.coeffs.rho, start=1):
            factor = factor + r * px[k] * py[k]
        return factor

    def density(self, x, y):
        """Joint density; zero outside the support rectangle."""
        ax = np.asarray(x, dtype=float)
        ay = np.asarray(y, dtype=float)
        fx = self.marginal_x.density(ax)
        fy = self.marginal_y.density(ay)
        value = fx * fy * self.series_factor(ax, ay)
        value = np.where((value < 0.0) & (value > -_NEGATIVE_CLAMP), 0.0, value)
        return value if (ax.ndim or ay.ndim) else float(value)

    def conditional_density_x_given_y(self, x, y):
        """f1(x) (1 + sum rho_n phi_n(x) psi_n(y)); needs f2(y) > 0."""
        ay = np.asarray(y, dtype=float)
        fy = self.marginal_y.density(ay)
        if np.any(np.asarray(fy) <= 0.0):
            raise ValueError(
                "unsupported-conditioning-point: the conditioning marginal vanishes at y"
            )
        ax = np.asarray(x, dtype=float)
        value = self.marginal_x.density(ax) * self.series_factor(ax, ay)
        value = np.where((value < 0.0) & (value > -_NEGATIVE_CLAMP), 0.0, value)
        return value if (ax.ndim or ay.ndim) else float(value)

    def marginal_residual(self, joint_density: Callable | None = None) -> tuple[float, float]:
        """Sup over a 128-point grid of |integrated joint minus marginal|, both axes.

        ``joint_density`` overrides the model's own density; it exists so test
        suites can feed deliberately corrupted densities as negative controls.
        """
        f = self.density if joint_density is None else joint_density
        grid_x = np.linspace(*self.marginal_x.support, 128)
        grid_y = np.linspace(*self.marginal_y.support, 128)
        along_y = _values_on(f, grid_x, self.rule_y.nodes)
        res_x = np.max(np.abs(along_y @ self.rule_y.weights - self.marginal_x.density(grid_x)))
        along_x = _values_on(f, self.rule_x.nodes, grid_y)
        res_y = np.max(np.abs(self.rule_x.weights @ along_x - self.marginal_y.density(grid_y)))
        return float(res_x), float(res_y)


def transpose_model(model: LancasterModel) -> LancasterModel:
    """The same joint with the roles of the two coordinates swapped."""
    return LancasterModel(
        marginal_x=model.marginal_y,
        marginal_y=model.marginal_x,
        system_x=model.system_y,
        system_y=model.system_x,
        coeffs=model.coeffs,
        rule_x=model.rule_y,
        rule_y=model.rule_x,
        quad_nodes=model.quad_nodes,
    )


def build_model(
    marginal_x: MarginalSpec,
    marginal_y: MarginalSpec,
    rho: Sequence[float],
    max_degree: int = _DEFAULT_MAX_DEGREE,
    quad_nodes: int = _DEFAULT_QUAD_NODES,
) -> LancasterModel:
    """Validate and assemble a model from marginals and a coefficient sequence.

    Construction fails with BoundViolationError when the coefficient mass
    exceeds the admissibility bound. The finished model is verified on a
    256 x 256 grid (nonnegative density) and by tensor quadrature
    (total mass 1 within 1e-9).
    """
    rho = tuple(float(r) for r in rho)
    if len(rho) > int(max_degree):
        raise ValueError(
            f"max_degree ({max_degree}) must be at least the coefficient count ({len(rho)})"
        )
    system_x = build_system(marginal_x, int(max_degree), quad_nodes)
    system_y = build_system(marginal_y, int(max_degree), quad_nodes)
    coeffs = validate_coefficients(rho, system_x.sup_norms[1:], system_y.sup_norms[1:])
    return _assemble_model(marginal_x, marginal_y, system_x, system_y, coeffs, quad_nodes)


def _assemble_model(marginal_x, marginal_y, system_x, system_y, coeffs, quad_nodes) -> LancasterModel:
    model = LancasterModel(
        marginal_x=marginal_x,
        marginal_y=marginal_y,
        system_x=system_x,
        system_y=system_y,
        coeffs=coeffs,
        rule_x=marginal_x.quadrature_rule(quad_nodes),
        rule_y=marginal_y.quadrature_rule(quad_nodes),
        quad_nodes=int(quad_nodes),
    )
    _verify_model(model)
    return model


def _verify_model(model: LancasterModel) -> None:
    grid_x = np.linspace(*model.marginal_x.support, 256)
    grid_y = np.linspace(*model.marginal_y.support, 256)
    values = _values_on(model.density, grid_x, grid_y)
    if np.min(values) < 0.0:
        raise ModelVerificationError(
            f"density is negative ({np.min(values):.3e}) on the verification grid"
            " despite a validated coefficient bound"
        )
    mass = integrate_2d(model.density, model.rule_x, model.rule_y)
    if abs(mass - 1.0) > 1e-9:
        raise ModelVerificationError(f"joint density integrates to {mass!r}, expected 1 within 1e-9")


# -- sampling -------------------------------------------------------------


class SampleStats(NamedTuple):
    proposals: int
    acceptance_rate: float


def _density_knots(marginal: MarginalSpec) -> np.ndarray:
    """Knots on which the marginal's density is, or is taken to be, piecewise linear."""
    lo, hi = marginal.support
    if marginal.kind == "beta":
        return np.linspace(lo, hi, _CDF_TABLE_KNOTS)
    if marginal.kind == "table":
        # its end knots may lie up to 1e-12 outside the support
        return np.clip(marginal.params[0], lo, hi)
    return np.array([lo, hi])


class _InverseCdfTable:
    """Exact inverse CDF of the piecewise-linear density through the marginal's knots.

    The CDF is the trapezoid sum F_k at the knots and quadratic in between:
    F_k + f_k t + s_k t^2 / 2 at x_k + t, with f_k the density at x_k and s_k
    the segment's slope (inversion of piecewise-linear densities; Devroye,
    Non-Uniform Random Variate Generation, 1986, ch. II.2). Uniform and table
    marginals are inverted exactly; beta through its interpolant on
    ``_CDF_TABLE_KNOTS`` knots. Every draw stays inside its segment.
    """

    def __init__(self, marginal: MarginalSpec):
        self.x = _density_knots(marginal)
        pdf = marginal.density(self.x)
        width = np.diff(self.x)
        segments = 0.5 * (pdf[1:] + pdf[:-1]) * width
        cdf = np.concatenate([[0.0], np.cumsum(segments)])
        mass = cdf[-1]
        self.cdf = cdf / mass
        self.pdf = pdf[:-1] / mass
        self.slope = np.diff(pdf) / (width * mass)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        i = np.clip(np.searchsorted(self.cdf, u, side="right") - 1, 0, self.x.size - 2)
        r = u - self.cdf[i]
        f = self.pdf[i]
        # t = 2r / (f + sqrt(f^2 + 2 s r)) solves F_k + f t + s t^2 / 2 = u without
        # cancellation; a zero denominator means r = 0 and so t = 0
        root = f + np.sqrt(np.maximum(f * f + 2.0 * self.slope[i] * r, 0.0))
        t = 2.0 * r / np.where(root > 0.0, root, np.inf)
        return np.minimum(self.x[i] + t, self.x[i + 1])


def sample_joint(
    model: LancasterModel,
    count: int,
    seed: int,
    with_stats: bool = False,
):
    """``count`` iid draws from the joint by rejection from the marginal product.

    Proposals come from the exact inverse CDFs of the marginals (beta through
    its piecewise-linear interpolant); a proposal (x, y) is accepted with
    probability series_factor(x, y) / (1 + bound). Proposals are drawn in
    rounds of at most ``_MAX_BATCH``. ``count`` must be an integer (bool and
    other types are rejected). Output is deterministic for a fixed seed. With
    ``with_stats`` the samples come paired with the proposal count and
    realized acceptance rate.
    """
    if not isinstance(count, (int, np.integer)) or isinstance(count, bool) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    count = int(count)
    rng = np.random.default_rng(seed)
    envelope = 1.0 + model.coeffs.bound_value
    inverse_x = _InverseCdfTable(model.marginal_x)
    inverse_y = _InverseCdfTable(model.marginal_y)

    samples = np.empty((count, 2))
    filled = 0
    proposed = 0
    while filled < count:
        batch = min(_MAX_BATCH, max(4096, int((count - filled) * envelope * 1.2)))
        xs = inverse_x(rng.random(batch))
        ys = inverse_y(rng.random(batch))
        accept = rng.random(batch) * envelope < model.series_factor(xs, ys)
        accepted_at = np.nonzero(accept)[0]
        take = min(accepted_at.size, count - filled)
        idx = accepted_at[:take]
        samples[filled : filled + take, 0] = xs[idx]
        samples[filled : filled + take, 1] = ys[idx]
        filled += take
        # count proposals as a sequential sampler would: stop at the draw
        # that produced the last needed acceptance
        proposed += int(idx[-1]) + 1 if filled == count else batch
    if with_stats:
        return samples, SampleStats(proposals=proposed, acceptance_rate=count / proposed)
    return samples


# -- JSON-facing model configuration --------------------------------------


def _marginal_to_config(marginal: MarginalSpec) -> dict:
    cfg: dict = {"kind": marginal.kind, "support": list(marginal.support)}
    if marginal.kind == "beta":
        cfg["params"] = {"a": marginal.params[0], "b": marginal.params[1]}
    elif marginal.kind == "table":
        cfg["params"] = {"x": list(marginal.params[0]), "density": list(marginal.params[1])}
    return cfg


def _marginal_from_config(cfg: dict) -> MarginalSpec:
    if not isinstance(cfg, dict) or "kind" not in cfg or "support" not in cfg:
        raise ValueError("marginal config must be an object with 'kind' and 'support'")
    kind = cfg["kind"]
    support = tuple(float(v) for v in cfg["support"])
    params = cfg.get("params") or {}
    if kind == "uniform":
        return MarginalSpec("uniform", support)
    if kind == "beta":
        try:
            return MarginalSpec("beta", support, (float(params["a"]), float(params["b"])))
        except KeyError as exc:
            raise ValueError("beta marginal config needs params {'a': .., 'b': ..}") from exc
    if kind == "table":
        try:
            knots = tuple(float(v) for v in params["x"])
            values = tuple(float(v) for v in params["density"])
        except KeyError as exc:
            raise ValueError("table marginal config needs params {'x': [..], 'density': [..]}") from exc
        return MarginalSpec("table", support, (knots, values))
    raise ValueError(f"unknown marginal kind {kind!r}")


def model_to_config(model: LancasterModel) -> dict:
    """Serializable configuration that reloads to a field-for-field equal model.

    ``quad_nodes`` is written only when it differs from the default.
    """
    cfg = {
        "marginal_x": _marginal_to_config(model.marginal_x),
        "marginal_y": _marginal_to_config(model.marginal_y),
        "rho": list(model.coeffs.rho),
        "max_degree": model.system_x.max_degree,
    }
    if model.quad_nodes != _DEFAULT_QUAD_NODES:
        cfg["quad_nodes"] = model.quad_nodes
    return cfg


def _config_count(cfg: dict, key: str, default: int | None = None, limit: int | None = None) -> int:
    """The integer ``cfg[key]`` (``default`` when absent), at most ``limit``.

    Other types, bool included, are malformed.
    """
    value = cfg.get(key, default)
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"malformed model config: {key!r} must be an integer, got {value!r}")
    if limit is not None and value > limit:
        raise ValueError(f"model config {key!r} must be at most {limit}, got {value}")
    return int(value)


def model_from_config(cfg: dict) -> LancasterModel:
    """Build a model from its JSON configuration.

    Exactly one of ``rho`` (array of reals) or ``rho_builder``
    ({"type": "quadratic" | "linear", "N": int, "lambda": real for linear})
    must be present; ``max_degree`` defaults to max(8, coefficient count).
    Values of the wrong JSON type raise ValueError; ``N``, ``max_degree``
    and ``quad_nodes`` must be integers, ``max_degree`` at most 64 and
    ``quad_nodes`` at most 2048.
    """
    if not isinstance(cfg, dict):
        raise ValueError("model config must be a JSON object")
    for key in ("marginal_x", "marginal_y"):
        if key not in cfg:
            raise ValueError(f"model config is missing {key!r}")
    try:
        marginal_x = _marginal_from_config(cfg["marginal_x"])
        marginal_y = _marginal_from_config(cfg["marginal_y"])
        has_rho = "rho" in cfg
        if has_rho == ("rho_builder" in cfg):
            raise ValueError("model config needs exactly one of 'rho' or 'rho_builder'")
        if has_rho:
            rho = tuple(float(r) for r in cfg["rho"])
            if not rho:
                raise ValueError("'rho' must be a non-empty array")
            count = len(rho)
        else:
            builder = cfg["rho_builder"]
            if not isinstance(builder, dict) or "type" not in builder or "N" not in builder:
                raise ValueError("'rho_builder' must be an object with 'type' and 'N'")
            count = _config_count(builder, "N")
            if builder["type"] not in ("quadratic", "linear"):
                raise ValueError(f"unknown rho_builder type {builder['type']!r}")
            if builder["type"] == "linear":
                if "lambda" not in builder:
                    raise ValueError("linear rho_builder needs a 'lambda' value")
                lam = float(builder["lambda"])
        max_degree = _config_count(cfg, "max_degree", max(_DEFAULT_MAX_DEGREE, count), _MAX_DEGREE_LIMIT)
        quad_nodes = _config_count(cfg, "quad_nodes", _DEFAULT_QUAD_NODES, _MAX_QUAD_NODES)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed model config: {exc}") from exc

    if has_rho:
        return build_model(marginal_x, marginal_y, rho, max_degree=max_degree, quad_nodes=quad_nodes)
    # a builder derives rho from the sup norms, so the systems are built once, here
    system_x = build_system(marginal_x, max_degree, quad_nodes)
    system_y = build_system(marginal_y, max_degree, quad_nodes)
    c, d = system_x.sup_norms[1:], system_y.sup_norms[1:]
    if builder["type"] == "quadratic":
        coeffs = build_sequence_quadratic(c, d, count)
    else:
        coeffs = build_sequence_linear(c, d, count, lam)
    return _assemble_model(marginal_x, marginal_y, system_x, system_y, coeffs, quad_nodes)
