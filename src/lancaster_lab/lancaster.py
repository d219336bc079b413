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

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .correlation import DiscretizedJoint, discretize_joint
from .orthopoly import _DEFAULT_QUAD_NODES, MARGINAL_PARAMS, MarginalSpec, OrthonormalSystem, build_system
from .quadrature import _MAX_AXIS_NODES, QuadratureRule, _count, _real, _reals, _values_on, integrate_2d

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
    "maxcorr_analytic",
    "discretize_model",
    "sample_joint",
    "SampleStats",
    "model_to_config",
    "model_from_config",
]

# Permits hitting the admissibility bound exactly, up to float rounding.
_BOUND_SLACK = 1e-12

# Series-factor values in (-1e-12, 0) are cancellation noise on a factor the
# bound keeps >= 0; they are clamped before the unitless factor is scaled by f1 f2.
_NEGATIVE_CLAMP = 1e-12

_DEFAULT_MAX_DEGREE = 8

# Model limits, checked by every build before any rule or system. Model
# verification integrates on the tensor grid of the two rules, so each rule
# has at most quadrature._MAX_AXIS_NODES nodes, and the sup norms take one
# eigenvalue solve per degree (O(N^4) in all).
_MAX_DEGREE_LIMIT = 64

# Proposals per rejection round, at most. Each round takes its x, y and
# acceptance uniforms from three consecutive batch-long stretches of the seed's
# stream, so this cap and the round sizes it gives fix which uniform each draw
# uses.
_MAX_BATCH = 1 << 20

# Proposals drawn, transformed and tested at a time within a round. A slice's
# uniforms and the few buffers that its inversion, recurrence and series factor
# fill in place (128 KiB per float array) stay in a core's L2 cache, and a round
# stops at the slice that meets the count.
_SLICE_PROPOSALS = 1 << 14


class BoundViolationError(ValueError):
    """The coefficient mass exceeds the admissibility bound; the density may go negative."""

    def __init__(self, bound_value: float, detail: str | None = None):
        self.bound_value = float(bound_value)
        super().__init__(
            detail
            or f"bound-violated: sum |rho_n| c_n d_n = {bound_value:.17g} exceeds 1;"
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
    c = np.asarray(_reals(c, "c"))
    d = np.asarray(_reals(d, "d"))
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
    rho = _reals(rho, "rho")
    cs, ds = _sup_norm_slices(c, d, len(rho))
    # a term or a sum past the float range is an infinite bound, which fails below
    with np.errstate(over="ignore"):
        bound = float(np.sum(np.abs(rho) * cs * ds))
    if bound > 1.0 + _BOUND_SLACK:
        raise BoundViolationError(bound)
    return CoefficientSequence(rho=rho, bound_value=bound)


def build_sequence_quadratic(c, d, count: int) -> CoefficientSequence:
    """rho_n = 6 / (pi^2 n^2 c_n d_n); always admissible since sum 1/n^2 < pi^2/6."""
    count = _count(count, "count", 1)
    cs, ds = _sup_norm_slices(c, d, count)
    n = np.arange(1, count + 1, dtype=float)
    rho = 6.0 / (math.pi**2 * n**2 * cs * ds)
    return validate_coefficients(rho, cs, ds)


def build_sequence_linear(c, d, count: int, lam: float) -> CoefficientSequence:
    """rho_n = lambda * n for n <= count; admissible iff lambda <= 1 / sum n c_n d_n.

    A larger lambda raises BoundViolationError with the bound lambda * sum n c_n d_n.
    """
    count = _count(count, "count", 1)
    cs, ds = _sup_norm_slices(c, d, count)
    lam = _real(lam, "lambda")
    weighted = float(np.sum(np.arange(1, count + 1) * cs * ds))
    lam_max = 1.0 / weighted
    if not (lam > 0.0):
        raise ValueError("lambda must be strictly positive")
    if lam > lam_max * (1.0 + _BOUND_SLACK):
        raise BoundViolationError(
            lam * weighted,
            f"lambda-too-large: maximum admissible lambda is {lam_max:.17g}, got {lam:.17g}",
        )
    rho = lam * np.arange(1, count + 1, dtype=float)
    return validate_coefficients(rho, cs, ds)


@dataclass(frozen=True, eq=False)
class LancasterModel:
    """Two marginals, their orthonormal systems, and a validated coefficient sequence.

    ``quad_nodes`` built the systems and the rules that the mass check and regressions integrate on.
    """

    marginal_x: MarginalSpec
    marginal_y: MarginalSpec
    system_x: OrthonormalSystem
    system_y: OrthonormalSystem
    coeffs: CoefficientSequence
    rule_x: QuadratureRule
    rule_y: QuadratureRule
    quad_nodes: int

    def series_factor(self, x, y):
        """1 + sum_n rho_n phi_n(x) psi_n(y), broadcasting over array inputs.

        On an open tensor grid (x of shape (n, 1), y of shape (1, m)) the sum
        is one (n x N)(N x m) matrix product, which adds the N terms in
        another order than the term-by-term loop used for every other shape.
        """
        n = len(self.coeffs)
        ax = np.asarray(x, dtype=float)
        ay = np.asarray(y, dtype=float)
        if _is_open_grid(ax, ay):
            px = self.system_x.evaluate_all(ax[:, 0], upto=n)
            py = self.system_y.evaluate_all(ay[0], upto=n)
            # np.dot, not matmul: matmul leaves an inner dimension of 1 (N = 1) to a slow loop
            factor = np.dot(px[1:].T * self.coeffs.rho, py[1:])
            factor += 1.0
            return factor
        px = self.system_x.evaluate_all(ax, upto=n)
        py = self.system_y.evaluate_all(ay, upto=n)
        # term by term, n = 1 .. N, into two buffers of the broadcast shape
        shape = np.broadcast_shapes(ax.shape, ay.shape)
        factor = np.ones(shape)
        term = np.empty(shape)
        for k, r in enumerate(self.coeffs.rho, start=1):
            np.multiply(px[k], r, out=term)
            term *= py[k]
            factor += term
        return factor if factor.ndim else factor[()]

    def density(self, x, y):
        """Joint density; zero outside the support rectangle.

        For every shape of x and y the series factor's array is clamped, then
        scaled in place by f1, then by f2; 0-d input gives a float.
        """
        value = np.asarray(self.series_factor(x, y))
        np.copyto(value, 0.0, where=(value < 0.0) & (value > -_NEGATIVE_CLAMP))
        value *= self.marginal_x.density(x)
        value *= self.marginal_y.density(y)
        return value if value.ndim else float(value)


def _is_open_grid(x: np.ndarray, y: np.ndarray) -> bool:
    """True for the open ``ij`` grid of two node axes: x of shape (n, 1) and y of shape (1, m)."""
    return x.ndim == 2 and y.ndim == 2 and x.shape[1] == 1 and y.shape[0] == 1


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


def maxcorr_analytic(model: LancasterModel) -> float:
    """max_n |rho_n|: the closed-form maximal correlation of an expansion model."""
    return float(np.max(np.abs(model.coeffs.rho)))


def discretize_model(model: LancasterModel, nodes_per_axis: int) -> DiscretizedJoint:
    """The model's density on ``nodes_per_axis`` Gauss-Legendre nodes per axis over its support rectangle."""
    return discretize_joint(
        model.density,
        (model.marginal_x.support, model.marginal_y.support),
        nodes_per_axis,
    )


def build_model(
    marginal_x: MarginalSpec,
    marginal_y: MarginalSpec,
    rho: Sequence[float],
    max_degree: int | None = None,
    quad_nodes: int = _DEFAULT_QUAD_NODES,
) -> LancasterModel:
    """Validate and assemble a model from marginals and a coefficient sequence.

    ``max_degree`` None is max(8, coefficient count), as in a config. No
    coefficient, a ``max_degree`` above 64 or below the coefficient count, a
    ``quad_nodes`` below 1, or a rule above 2048 nodes fails before anything
    is built; a coefficient mass above the admissibility bound fails with
    BoundViolationError. The model is verified on a 256 x 256 grid
    (nonnegative density) and by tensor quadrature (total mass 1 within 1e-9).
    """
    rho = _reals(rho, "rho")
    coefficients = functools.partial(validate_coefficients, rho)
    return _build_model(marginal_x, marginal_y, len(rho), coefficients, max_degree, quad_nodes)


def _build_model(marginal_x, marginal_y, count, coefficients, max_degree, quad_nodes) -> LancasterModel:
    """Every model is built here; ``coefficients(c, d)`` makes ``count`` of them from the sup norms."""
    if count < 1:
        raise ValueError("coefficient sequence must have length >= 1")
    if max_degree is None:
        max_degree = max(_DEFAULT_MAX_DEGREE, count)
    max_degree = _count(max_degree, "'max_degree'", 1, _MAX_DEGREE_LIMIT)
    quad_nodes = _count(quad_nodes, "'quad_nodes'", 1, _MAX_AXIS_NODES)
    if count > max_degree:
        raise ValueError(f"max_degree ({max_degree}) must be at least the coefficient count ({count})")
    for name, marginal in (("marginal_x", marginal_x), ("marginal_y", marginal_y)):
        size = marginal.rule_size(quad_nodes)
        if size > _MAX_AXIS_NODES:
            raise ValueError(
                f"{name!r} makes a {size}-node rule at quad_nodes {quad_nodes}"
                f" (a table's rule grows with its knots); at most {_MAX_AXIS_NODES} nodes"
            )
    system_x = build_system(marginal_x, max_degree, quad_nodes)
    system_y = system_x if marginal_y == marginal_x else build_system(marginal_y, max_degree, quad_nodes)
    model = LancasterModel(
        marginal_x=marginal_x,
        marginal_y=marginal_y,
        system_x=system_x,
        system_y=system_y,
        coeffs=coefficients(system_x.sup_norms[1:], system_y.sup_norms[1:]),
        rule_x=marginal_x.quadrature_rule(quad_nodes),
        rule_y=marginal_y.quadrature_rule(quad_nodes),
        quad_nodes=quad_nodes,
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


class _InverseCdfTable:
    """Exact inverse CDF of the piecewise-linear density through the marginal's knots.

    The CDF is the trapezoid sum F_k at the knots and quadratic in between:
    F_k + f_k t + s_k t^2 / 2 at x_k + t, with f_k the density at x_k and s_k
    the segment's slope (inversion of piecewise-linear densities; Devroye,
    Non-Uniform Random Variate Generation, 1986, ch. II.2). Uniform and table
    marginals are inverted exactly; beta through its interpolant on the
    equispaced knots of ``MarginalSpec.cdf_knots``. Every draw stays inside
    its segment.

    A u in [0, 1) lies in segment k when cdf[k] <= u < cdf[k + 1]; one search
    of the interior knots finds k, and finds 0 when there are none. One flat
    segment (every uniform marginal) is inverted as min(x_0 + u / f, x_1), the
    quadratic formula bit for bit: cdf[0] = 0 makes r = u, sqrt(fl(f * f))
    == f in binary64 whenever f * f is normal, and 2r / (2f) rounds as r / f.
    """

    def __init__(self, marginal: MarginalSpec):
        self.x = marginal.cdf_knots()
        pdf = marginal.density(self.x)
        width = np.diff(self.x)
        segments = 0.5 * (pdf[1:] + pdf[:-1]) * width
        cdf = np.concatenate([[0.0], np.cumsum(segments)])
        mass = cdf[-1]
        self.cdf = cdf / mass
        self.pdf = pdf[:-1] / mass
        self.slope = np.diff(pdf) / (width * mass)
        f = float(self.pdf[0])
        self.flat = self.x.size == 2 and self.slope[0] == 0.0 and np.finfo(float).tiny <= f * f < math.inf

    def __call__(self, u: np.ndarray) -> np.ndarray:
        if self.flat:
            t = u / self.pdf[0]
            t += self.x[0]
            return np.minimum(t, self.x[1], out=t)
        # cdf[0] = 0 <= u and u < 1 = cdf[-1], so only the interior knots are searched
        i = np.searchsorted(self.cdf[1:-1], u, side="right")
        r = u - self.cdf[i]
        f = self.pdf[i]
        # t = 2r / (f + sqrt(f^2 + 2 s r)) solves F_k + f t + s t^2 / 2 = u without
        # cancellation; a zero denominator means r = 0 and so t = 0
        root = 2.0 * self.slope[i] * r
        root += f * f
        np.maximum(root, 0.0, out=root)
        np.sqrt(root, out=root)
        root += f
        root[~(root > 0.0)] = np.inf
        # t overwrites r
        r *= 2.0
        r /= root
        r += self.x[i]
        return np.minimum(r, self.x[i + 1], out=r)


def sample_joint(
    model: LancasterModel,
    count: int,
    seed: int,
    with_stats: bool = False,
):
    """``count`` iid draws from the joint by rejection from the marginal product.

    Proposals come from the exact inverse CDFs of the marginals (beta through
    its piecewise-linear interpolant); a proposal (x, y) is accepted with
    probability series_factor(x, y) / (1 + bound). Proposals come in rounds of
    at most ``_MAX_BATCH``. A round of ``batch`` proposals takes its x, y and
    acceptance uniforms from positions [0, batch), [batch, 2 batch) and
    [2 batch, 3 batch) onward of the seed's PCG64 stream (that of
    ``np.random.default_rng(seed)``). Three generators, one per stream, jump
    from the round's start to those positions and draw ``_SLICE_PROPOSALS``
    uniforms at a time; a whole round leaves the acceptance stream at 3 batch,
    where the next round starts. Each slice is transformed and tested at once,
    and the round stops at the slice that meets the count. Neither the jumps
    nor the slices change a draw or the proposal count. ``count`` and ``seed``
    must be integers (bool and other types are rejected), ``seed`` nonnegative.
    Output is deterministic for a fixed seed. With ``with_stats`` the samples
    come paired with the proposal count and realized acceptance rate.
    """
    count = _count(count, "count", 1)
    seed = _count(seed, "seed", 0)
    envelope = 1.0 + model.coeffs.bound_value
    inverse_x = _InverseCdfTable(model.marginal_x)
    inverse_y = _InverseCdfTable(model.marginal_y)

    # the x, y and acceptance streams, and the slice buffer they fill
    streams = [np.random.Generator(np.random.PCG64(seed)) for _ in range(3)]
    uniforms = np.empty((3, _SLICE_PROPOSALS))
    samples = np.empty((count, 2))
    filled = 0
    proposed = 0
    while filled < count:
        batch = min(_MAX_BATCH, max(4096, int((count - filled) * envelope * 1.2)))
        round_start = streams[2].bit_generator.state
        for k, stream in enumerate(streams):
            stream.bit_generator.state = round_start
            stream.bit_generator.advance(k * batch)
        for start in range(0, batch, _SLICE_PROPOSALS):
            size = min(_SLICE_PROPOSALS, batch - start)
            for stream, row in zip(streams, uniforms):
                stream.random(out=row[:size])
            u_x, u_y, u_accept = uniforms[:, :size]
            xs = inverse_x(u_x)
            ys = inverse_y(u_y)
            accept = u_accept * envelope < model.series_factor(xs, ys)
            idx = np.nonzero(accept)[0][: count - filled]
            samples[filled : filled + idx.size, 0] = xs[idx]
            samples[filled : filled + idx.size, 1] = ys[idx]
            filled += idx.size
            if filled == count:
                # count proposals as a sequential sampler would: stop at the
                # draw that produced the last needed acceptance
                proposed += start + int(idx[-1]) + 1
                break
        else:
            proposed += batch
    if with_stats:
        return samples, SampleStats(proposals=proposed, acceptance_rate=count / proposed)
    return samples


# -- JSON-facing model configuration --------------------------------------


def _marginal_to_config(marginal: MarginalSpec) -> dict:
    cfg: dict = {"kind": marginal.kind, "support": list(marginal.support)}
    if marginal.params:
        cfg["params"] = {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in zip(MARGINAL_PARAMS[marginal.kind], marginal.params)
        }
    return cfg


def _marginal_from_config(cfg: dict) -> MarginalSpec:
    if not isinstance(cfg, dict) or "kind" not in cfg or "support" not in cfg:
        raise ValueError("marginal config must be an object with 'kind' and 'support'")
    kind = cfg["kind"]
    names = MARGINAL_PARAMS.get(kind) if isinstance(kind, str) else None
    if names is None:
        raise ValueError(f"unknown marginal kind {kind!r}")
    params = cfg.get("params", {})
    if not isinstance(params, dict) or set(params) != set(names):
        raise ValueError(
            f"{kind} marginal config needs 'params' with exactly the keys {list(names)}, got {params!r}"
        )
    return MarginalSpec(kind, cfg["support"], tuple(params[name] for name in names))


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


def model_from_config(cfg: dict) -> LancasterModel:
    """Build a model from its JSON configuration.

    Exactly one of ``rho`` (array of reals) or ``rho_builder``
    ({"type": "quadratic" | "linear", "N": int, "lambda": real for linear})
    must be present; ``max_degree`` defaults to max(8, coefficient count), as
    in ``build_model``, and without it the coefficient count must be at most
    64. Values of the wrong JSON type raise ValueError: a number is an integer or a float
    (never a bool or a string), an array of numbers is an array, ``N``
    is an integer >= 1, read before anything is built, and a marginal's
    ``params`` is an object with exactly its kind's keys
    (``orthopoly.MARGINAL_PARAMS``). The model is built as ``build_model``
    builds it, under the same limits on ``max_degree``, ``quad_nodes`` and
    the rules.
    """
    if not isinstance(cfg, dict):
        raise ValueError("model config must be a JSON object")
    for key in ("marginal_x", "marginal_y"):
        if key not in cfg:
            raise ValueError(f"model config is missing {key!r}")
    marginal_x = _marginal_from_config(cfg["marginal_x"])
    marginal_y = _marginal_from_config(cfg["marginal_y"])
    has_rho = "rho" in cfg
    if has_rho == ("rho_builder" in cfg):
        raise ValueError("model config needs exactly one of 'rho' or 'rho_builder'")
    if has_rho:
        rho = cfg["rho"]
        if not isinstance(rho, list) or not rho:
            raise ValueError(f"malformed model config: 'rho' must be a non-empty array, got {rho!r}")
        count = len(rho)
    else:
        builder = cfg["rho_builder"]
        if not isinstance(builder, dict) or "type" not in builder or "N" not in builder:
            raise ValueError("'rho_builder' must be an object with 'type' and 'N'")
        count = _count(builder["N"], "rho_builder 'N'", 1)
        if builder["type"] == "quadratic":
            coefficients = functools.partial(build_sequence_quadratic, count=count)
        elif builder["type"] == "linear":
            if "lambda" not in builder:
                raise ValueError("linear rho_builder needs a 'lambda' value")
            lam = _real(builder["lambda"], "rho_builder 'lambda'")
            coefficients = functools.partial(build_sequence_linear, count=count, lam=lam)
        else:
            raise ValueError(f"unknown rho_builder type {builder['type']!r}")
    max_degree = cfg.get("max_degree")
    if "max_degree" in cfg and max_degree is None:  # null is no number; only an absent key is the default
        raise ValueError("'max_degree' must be an integer, got None")
    if max_degree is None and count > _MAX_DEGREE_LIMIT:
        source = "'rho' length" if has_rho else "rho_builder 'N'"
        raise ValueError(f"model config {source} must be at most {_MAX_DEGREE_LIMIT}, got {count}")
    quad_nodes = cfg.get("quad_nodes", _DEFAULT_QUAD_NODES)
    if has_rho:
        return build_model(marginal_x, marginal_y, rho, max_degree=max_degree, quad_nodes=quad_nodes)
    return _build_model(marginal_x, marginal_y, count, coefficients, max_degree, quad_nodes)
