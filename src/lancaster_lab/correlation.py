"""Pearson correlation and three independent routes to maximal correlation.

The maximal correlation of a pair (X, Y) is the largest Pearson correlation
achievable by square-integrable non-degenerate transformations g1(X), g2(Y).
It equals the operator norm of the conditional-expectation operator on
mean-zero functions. On a quadrature grid that operator becomes the matrix

    A_ij = f(x_i, y_j) sqrt(u_i v_j) / sqrt(m_i mu_j),

with u, v the quadrature weights and m, mu the discretized marginals. A has
largest singular value exactly 1, carried by the constants; the second
singular value is the maximal correlation and the corresponding singular
vectors are the optimizing transformations. ACE (alternating conditional
expectations) is power iteration on the same operator and serves as an
independent estimate; for polynomial-expansion models max_n |rho_n| gives a
third, closed-form value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .lancaster import LancasterModel
from .quadrature import _values_on, gauss_legendre_rule

__all__ = [
    "DiscretizedJoint",
    "CorrelationReport",
    "SpectralFailureError",
    "AceConvergenceError",
    "SvdResult",
    "AceResult",
    "discretize_joint",
    "discretize_model",
    "joint_from_pmf",
    "pearson",
    "maxcorr_analytic",
    "maxcorr_svd",
    "maxcorr_ace",
    "maxcorr_discrete_pmf",
    "singular_spectrum",
    "correlation_report",
]

# Grid nodes whose marginal falls below this are dropped at construction.
_MARGINAL_FLOOR = 1e-12

_MASS_TOL = 1e-6
_ZERO_MASS = 1e-9

DEFAULT_MODEL_GRID = 200
DEFAULT_CURVED_GRID = 400

# ACE sweeps allowed in a correlation report before it gives up.
_REPORT_ACE_MAX_ITERS = 2000


class SpectralFailureError(RuntimeError):
    """The discretized kernel violates its structural spectral guarantees."""


class AceConvergenceError(RuntimeError):
    """Alternating conditional expectations did not converge within max_iters."""

    def __init__(self, last_estimate: float, gap: float, iterations: int):
        self.last_estimate = float(last_estimate)
        self.gap = float(gap)
        self.iterations = int(iterations)
        super().__init__(
            f"no-convergence: after {iterations} iterations the estimate is"
            f" {last_estimate:.12g} with successive change {gap:.3e}"
        )


@dataclass(frozen=True, eq=False)
class DiscretizedJoint:
    """A bivariate density sampled on a tensor quadrature grid.

    joint_values[i, j] = f(x_nodes[i], y_nodes[j]); the marginal vectors hold
    the row and column quadrature sums. Invariants: nonnegative values, total
    weighted mass 1 within 1e-6, strictly positive marginals at every node.
    """

    x_nodes: np.ndarray
    x_weights: np.ndarray
    y_nodes: np.ndarray
    y_weights: np.ndarray
    joint_values: np.ndarray
    marginal_x_values: np.ndarray
    marginal_y_values: np.ndarray

    def __post_init__(self):
        for name in (
            "x_nodes",
            "x_weights",
            "y_nodes",
            "y_weights",
            "joint_values",
            "marginal_x_values",
            "marginal_y_values",
        ):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        nx, ny = self.x_nodes.size, self.y_nodes.size
        if self.joint_values.shape != (nx, ny):
            raise ValueError("joint_values must have shape (len(x_nodes), len(y_nodes))")
        if self.x_weights.shape != (nx,) or self.y_weights.shape != (ny,):
            raise ValueError("weight vectors must match their node vectors")
        if self.marginal_x_values.shape != (nx,) or self.marginal_y_values.shape != (ny,):
            raise ValueError("marginal vectors must match their node vectors")
        if np.any(self.joint_values < 0.0) or not np.all(np.isfinite(self.joint_values)):
            raise ValueError("joint_values must be finite and nonnegative")
        if np.any(self.marginal_x_values <= 0.0) or np.any(self.marginal_y_values <= 0.0):
            raise ValueError("marginal values must be strictly positive at every retained node")
        mass = float(self.x_weights @ self.joint_values @ self.y_weights)
        if abs(mass - 1.0) > _MASS_TOL:
            raise ValueError(f"total weighted mass is {mass!r}, expected 1 within {_MASS_TOL}")


def discretize_joint(
    density: Callable,
    support: tuple[tuple[float, float], tuple[float, float]],
    nodes_per_axis: int,
) -> DiscretizedJoint:
    """Sample a density on a Gauss-Legendre tensor grid over a rectangle.

    The density may vanish on part of the rectangle (curved regions are
    embedded in their bounding box). Mass is renormalized to 1 and nodes
    whose marginal falls below 1e-12 are dropped.
    """
    if int(nodes_per_axis) < 16:
        raise ValueError("nodes_per_axis must be at least 16")
    (ax, bx), (ay, by) = support
    rule_x = gauss_legendre_rule(int(nodes_per_axis), float(ax), float(bx))
    rule_y = gauss_legendre_rule(int(nodes_per_axis), float(ay), float(by))
    values = _values_on(density, rule_x.nodes, rule_y.nodes)
    if not np.all(np.isfinite(values)) or np.any(values < 0.0):
        raise ValueError("density must be finite and nonnegative on the grid")
    mass = float(rule_x.weights @ values @ rule_y.weights)
    if mass < _ZERO_MASS:
        raise ValueError(f"zero-mass: total mass on the grid is {mass!r}")

    marginal_x = values @ rule_y.weights / mass
    marginal_y = rule_x.weights @ values / mass
    keep_x = marginal_x >= _MARGINAL_FLOOR
    keep_y = marginal_y >= _MARGINAL_FLOOR
    values = values[keep_x][:, keep_y]
    x_nodes, x_weights = rule_x.nodes[keep_x], rule_x.weights[keep_x]
    y_nodes, y_weights = rule_y.nodes[keep_y], rule_y.weights[keep_y]

    mass = float(x_weights @ values @ y_weights)
    if mass < _ZERO_MASS:
        raise ValueError(f"zero-mass: total mass after node dropping is {mass!r}")
    values = values / mass
    return DiscretizedJoint(
        x_nodes=x_nodes,
        x_weights=x_weights,
        y_nodes=y_nodes,
        y_weights=y_weights,
        joint_values=values,
        marginal_x_values=values @ y_weights,
        marginal_y_values=x_weights @ values,
    )


def discretize_model(model: LancasterModel, nodes_per_axis: int = DEFAULT_MODEL_GRID) -> DiscretizedJoint:
    """Grid representation of a model's joint density over its support rectangle."""
    return discretize_joint(
        model.density,
        (model.marginal_x.support, model.marginal_y.support),
        nodes_per_axis,
    )


def joint_from_pmf(pmf, x_values=None, y_values=None) -> DiscretizedJoint:
    """Wrap a finite pmf matrix as a DiscretizedJoint with unit weights.

    Lets the spectral and ACE machinery run unchanged on discrete laws.
    Zero-probability rows and columns are trimmed.
    """
    p = np.asarray(pmf, dtype=float)
    if p.ndim != 2:
        raise ValueError("pmf must be a matrix")
    x = np.arange(p.shape[0], dtype=float) if x_values is None else np.asarray(x_values, dtype=float)
    y = np.arange(p.shape[1], dtype=float) if y_values is None else np.asarray(y_values, dtype=float)
    keep_x = p.sum(axis=1) > 0.0
    keep_y = p.sum(axis=0) > 0.0
    p = p[keep_x][:, keep_y]
    x, y = x[keep_x], y[keep_y]
    return DiscretizedJoint(
        x_nodes=x,
        x_weights=np.ones_like(x),
        y_nodes=y,
        y_weights=np.ones_like(y),
        joint_values=p,
        marginal_x_values=p.sum(axis=1),
        marginal_y_values=p.sum(axis=0),
    )


# -- Pearson ---------------------------------------------------------------


def pearson(joint: DiscretizedJoint) -> float:
    """Covariance over the product of standard deviations, by grid quadrature."""
    wx = joint.x_weights * joint.marginal_x_values
    wy = joint.y_weights * joint.marginal_y_values
    mean_x = float(wx @ joint.x_nodes)
    mean_y = float(wy @ joint.y_nodes)
    var_x = float(wx @ (joint.x_nodes - mean_x) ** 2)
    var_y = float(wy @ (joint.y_nodes - mean_y) ** 2)
    if var_x <= 1e-12 or var_y <= 1e-12:
        raise ValueError(
            "degenerate-variance: correlation is undefined for (nearly) constant coordinates"
        )
    cross = float(
        (joint.x_weights * (joint.x_nodes - mean_x))
        @ joint.joint_values
        @ (joint.y_weights * (joint.y_nodes - mean_y))
    )
    return cross / float(np.sqrt(var_x * var_y))


# -- spectral oracle ---------------------------------------------------------


def _kernel_matrix(joint: DiscretizedJoint) -> np.ndarray:
    root_x = np.sqrt(joint.x_weights / joint.marginal_x_values)
    root_y = np.sqrt(joint.y_weights / joint.marginal_y_values)
    return joint.joint_values * root_x[:, None] * root_y[None, :]


def _standardize(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    total = float(np.sum(weights))
    mean = float(weights @ values) / total
    centered = values - mean
    var = float(weights @ centered**2) / total
    return centered / np.sqrt(var)


def _orient_pair(g1, g2, joint: DiscretizedJoint):
    """Deterministic sign: g1 correlates nonnegatively with the identity.

    Falls back to the squared coordinate, then to the first sizable entry,
    when the inner product with the identity is itself zero (symmetric
    optimizers such as even functions on symmetric supports).
    """
    weights = joint.x_weights * joint.marginal_x_values
    for reference in (joint.x_nodes, joint.x_nodes**2):
        score = float(weights @ (g1 * _standardize(reference, weights)))
        if abs(score) > 1e-9:
            sign = np.sign(score)
            return g1 * sign, g2 * sign
    lead = g1[np.argmax(np.abs(g1))]
    sign = np.sign(lead) if lead != 0.0 else 1.0
    return g1 * sign, g2 * sign


class SvdResult(NamedTuple):
    R: float
    g1_values: np.ndarray | None
    g2_values: np.ndarray | None
    spectrum: np.ndarray


def singular_spectrum(joint: DiscretizedJoint) -> np.ndarray:
    """All singular values of the normalized kernel, descending."""
    return np.linalg.svd(_kernel_matrix(joint), compute_uv=False)


def maxcorr_svd(joint: DiscretizedJoint, vectors: bool = True) -> SvdResult:
    """Maximal correlation as the second singular value of the normalized kernel.

    The largest singular value belongs to the constants and must equal 1;
    a deviation beyond 1e-6 signals a broken discretization and raises
    SpectralFailureError. The optimizing transformations are returned as
    function samples with zero weighted mean and unit weighted variance,
    next to every singular value of the kernel, descending.

    ``vectors`` serves the two callers with different needs. The ``maxcorr``
    command prints R, the optimizers and the spectrum, and takes all of them
    from one full decomposition (the default). ``correlation_report`` reads
    only R and the constant check, so it passes ``vectors=False``: the
    spectrum then comes from ``singular_spectrum``, which skips the singular
    vectors (about 60 % of the time at 400 nodes per axis), and both
    optimizers are None.
    """
    if joint.x_nodes.size < 2 or joint.y_nodes.size < 2:
        raise ValueError("need at least two retained nodes per axis")
    if vectors:
        left, spectrum, right_t = np.linalg.svd(_kernel_matrix(joint), full_matrices=False)
    else:
        spectrum = singular_spectrum(joint)
    if abs(spectrum[0] - 1.0) > 1e-6:
        raise SpectralFailureError(
            f"spectral-failure: leading singular value is {spectrum[0]!r}, expected 1"
            " (constants); the discretization is inconsistent"
        )
    if not vectors:
        return SvdResult(R=float(spectrum[1]), g1_values=None, g2_values=None, spectrum=spectrum)
    wx = joint.x_weights * joint.marginal_x_values
    wy = joint.y_weights * joint.marginal_y_values
    g1 = _standardize(left[:, 1] / np.sqrt(wx), wx)
    g2 = _standardize(right_t[1] / np.sqrt(wy), wy)
    g1, g2 = _orient_pair(g1, g2, joint)
    return SvdResult(R=float(spectrum[1]), g1_values=g1, g2_values=g2, spectrum=spectrum)


# -- ACE ---------------------------------------------------------------------


class AceResult(NamedTuple):
    R: float
    g1_values: np.ndarray
    g2_values: np.ndarray
    iterations: int


def _ace_start(nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Deterministic start: the identity direction enriched with higher powers.

    A plain standardized identity is the degree-1 orthonormal polynomial of
    the marginal, which conditioning annihilates whenever the degree-1
    coefficient of the joint vanishes; mixing in powers up to 10 keeps a
    component on every low-degree singular function of either parity.
    """
    lo, hi = float(np.min(nodes)), float(np.max(nodes))
    if hi <= lo:
        raise ValueError("degenerate-start: initial transformation has zero variance")
    t = 2.0 * (nodes - lo) / (hi - lo) - 1.0
    mix = np.zeros_like(t)
    power = np.ones_like(t)
    for _ in range(min(10, nodes.size - 1)):
        power = power * t
        mix = mix + power
    total = float(np.sum(weights))
    centered = mix - float(weights @ mix) / total
    var = float(weights @ centered**2) / total
    if var <= 1e-24:
        raise ValueError("degenerate-start: initial transformation has zero variance")
    return centered / np.sqrt(var)


def maxcorr_ace(joint: DiscretizedJoint, max_iters: int = 1000, tol: float = 1e-9) -> AceResult:
    """Maximal correlation by alternating conditional expectations.

    Each sweep replaces g1 by E[g2(Y) | X], standardizes it, then updates g2
    symmetrically; the achieved correlation converges monotonically to the
    second singular value of the kernel (this is power iteration on the
    conditional-expectation operator). Stops when successive estimates move
    by at most tol; raises AceConvergenceError past max_iters. A conditional
    mean with (numerically) zero variance means the operator annihilates
    mean-zero functions, so the maximal correlation is 0.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if int(max_iters) < 1:
        raise ValueError("max_iters must be >= 1")
    values = joint.joint_values
    u, v = joint.x_weights, joint.y_weights
    m, mu = joint.marginal_x_values, joint.marginal_y_values
    wx, wy = u * m, v * mu
    # the weighted kernels are the same every sweep, so they are built once
    to_x = values * v[None, :]
    to_y = (values * u[:, None]).T
    g2 = _ace_start(joint.y_nodes, wy)

    estimate = None
    gap = float("nan")
    for iteration in range(1, int(max_iters) + 1):
        h1 = to_x @ g2 / m
        h1 = h1 - float(wx @ h1) / float(np.sum(wx))
        var1 = float(wx @ h1**2)
        if var1 <= 1e-26:
            zero = np.zeros_like(h1)
            return AceResult(R=0.0, g1_values=zero, g2_values=np.zeros_like(g2), iterations=iteration)
        g1 = h1 / np.sqrt(var1 / float(np.sum(wx)))
        h2 = to_y @ g1 / mu
        g2 = _standardize(h2, wy)
        new_estimate = float((u * g1) @ values @ (v * g2))
        if estimate is not None:
            gap = abs(new_estimate - estimate)
            if gap <= tol:
                g1, g2 = _orient_pair(g1, g2, joint)
                return AceResult(R=new_estimate, g1_values=g1, g2_values=g2, iterations=iteration)
        estimate = new_estimate
    raise AceConvergenceError(last_estimate=estimate, gap=gap, iterations=int(max_iters))


# -- discrete pmf ------------------------------------------------------------


def maxcorr_discrete_pmf(pmf) -> float:
    """Maximal correlation of a finite pmf matrix.

    The kernel SVD of ``joint_from_pmf(pmf)``: the second singular value of
    Q_ij = p_ij / sqrt(p_i+ p_+j) after trimming zero rows and columns.
    Undefined (degenerate-pmf) when either margin has a single support point.
    """
    p = np.asarray(pmf, dtype=float)
    if np.any(p < 0.0) or not np.all(np.isfinite(p)):
        raise ValueError("pmf entries must be finite and nonnegative")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"pmf must sum to 1 within 1e-12, got {total!r}")
    joint = joint_from_pmf(p)
    if joint.x_nodes.size < 2 or joint.y_nodes.size < 2:
        raise ValueError(
            "degenerate-pmf: a margin has a single support point, so maximal"
            " correlation is undefined"
        )
    return maxcorr_svd(joint).R


# -- closed-form route and combined report -----------------------------------


def maxcorr_analytic(model: LancasterModel) -> float:
    """max_n |rho_n|: the closed-form maximal correlation of an expansion model."""
    return float(np.max(np.abs(model.coeffs.rho)))


@dataclass(frozen=True, eq=False)
class CorrelationReport:
    """All correlation quantities of one joint."""

    pearson: float
    maxcorr_analytic: float | None
    maxcorr_svd: float
    maxcorr_ace: float
    gap: float


def correlation_report(
    joint: DiscretizedJoint,
    model: LancasterModel | None = None,
    ace_tol: float = 1e-9,
) -> CorrelationReport:
    """Pearson plus every available maximal-correlation estimate for a joint.

    The closed-form value is included when a model is supplied. Nothing here
    reads the optimizing transformations, so the kernel SVD runs without
    singular vectors (``maxcorr_svd(joint, vectors=False)``). Raises
    SpectralFailureError when the estimates violate structural guarantees
    (values outside [0, 1], or below |pearson| beyond oracle error: linear
    functions are always admissible transformations).
    """
    rho = pearson(joint)
    svd = maxcorr_svd(joint, vectors=False)
    ace = maxcorr_ace(joint, max_iters=_REPORT_ACE_MAX_ITERS, tol=ace_tol)
    analytic = maxcorr_analytic(model) if model is not None else None
    for label, value in (("svd", svd.R), ("ace", ace.R)):
        if not -1e-9 <= value <= 1.0 + 1e-9:
            raise SpectralFailureError(
                f"spectral-failure: maximal-correlation estimate ({label}) is {value!r}"
            )
    if svd.R < abs(rho) - 2e-3:
        raise SpectralFailureError(
            f"spectral-failure: maximal correlation {svd.R!r} fell below |pearson|"
            f" {abs(rho)!r}; the discretization is inconsistent"
        )
    return CorrelationReport(
        pearson=rho,
        maxcorr_analytic=analytic,
        maxcorr_svd=svd.R,
        maxcorr_ace=ace.R,
        gap=svd.R - abs(rho),
    )
