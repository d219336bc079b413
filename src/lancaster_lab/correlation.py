"""Pearson correlation and three independent routes to maximal correlation.

The maximal correlation of a pair (X, Y) is the largest Pearson correlation
achievable by square-integrable non-degenerate transformations g1(X), g2(Y).
It equals the operator norm of the conditional-expectation operator on
mean-zero functions. On a finite law of point masses P_ij (a density f on a
quadrature grid with weights u, v has P_ij = u_i f(x_i, y_j) v_j) that
operator becomes the matrix

    A_ij = P_ij / sqrt(p_i q_j),

with p, q the row and column sums of P, its marginals. A has
largest singular value exactly 1, carried by the constants; the second
singular value is the maximal correlation and the corresponding singular
vectors are the optimizing transformations. ACE (alternating conditional
expectations) is power iteration on the same operator and serves as an
independent estimate; for polynomial-expansion models max_n |rho_n| gives a
third, closed-form value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .lancaster import LancasterModel
from .quadrature import _MAX_AXIS_NODES, _count, _real, _reals, _values_on, gauss_legendre_rule

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
    "maxcorr_decomposition",
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
# Nodes per axis of a discretization, at least; at most quadrature._MAX_AXIS_NODES.
MIN_GRID = 16

# Golub-Kahan-Lanczos steps allowed, at most, before the values-only route
# falls back to the full spectrum. Below it the cap is min(m, n), not one less:
# D has rank at most min(m, n) - 1, and the start vector's component in D's
# null space takes one step more.
_LANCZOS_MAX_STEPS = 64
# A Ritz triple whose residual is at most this is accepted (the kernel's norm is 1).
_LANCZOS_TOL = 1e-15
# A lower bound on R above the Lanczos value by more than this means Lanczos
# missed the top singular value.
_LANCZOS_SLACK = 1e-12
# Start-vector phase: the golden angle 2 pi (1 - 1 / phi), so sin(k * phase)
# never repeats and has no zero entry.
_GOLDEN_ANGLE = 2.399963229728653


class SpectralFailureError(RuntimeError):
    """The discretized kernel violates its structural spectral guarantees."""


class AceConvergenceError(RuntimeError):
    """Alternating conditional expectations did not converge within max_iters."""

    def __init__(self, last_estimate: float, gap: float, iterations: int):
        self.last_estimate = float(last_estimate)
        self.gap = float(gap)
        self.iterations = iterations
        super().__init__(
            f"no-convergence: after {iterations} iterations the estimate is"
            f" {last_estimate:.12g} with successive change {gap:.3e}"
        )


@dataclass(frozen=True, eq=False)
class DiscretizedJoint:
    """A finite bivariate law: point masses on a tensor grid of nodes.

    masses[i, j] is the probability of (x_nodes[i], y_nodes[j]); for a density
    f sampled on a quadrature grid with weights u, v it is u_i f(x_i, y_j) v_j.
    The marginals are the row and column sums of the masses, computed here.
    Invariants: finite 1-D node vectors, finite nonnegative masses, total 1
    within 1e-6, positive mass in every row and column.
    """

    x_nodes: np.ndarray
    y_nodes: np.ndarray
    masses: np.ndarray
    marginal_x: np.ndarray = field(init=False)
    marginal_y: np.ndarray = field(init=False)

    def __post_init__(self):
        for name in ("x_nodes", "y_nodes", "masses"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.x_nodes.ndim != 1 or self.y_nodes.ndim != 1:
            raise ValueError("x_nodes and y_nodes must be 1-D")
        if not (np.all(np.isfinite(self.x_nodes)) and np.all(np.isfinite(self.y_nodes))):
            raise ValueError("x_nodes and y_nodes must be finite")
        if self.masses.shape != (self.x_nodes.size, self.y_nodes.size):
            raise ValueError("masses must have shape (len(x_nodes), len(y_nodes))")
        if np.any(self.masses < 0.0) or not np.all(np.isfinite(self.masses)):
            raise ValueError("masses must be finite and nonnegative")
        object.__setattr__(self, "marginal_x", self.masses.sum(axis=1))
        object.__setattr__(self, "marginal_y", self.masses.sum(axis=0))
        if np.any(self.marginal_x <= 0.0) or np.any(self.marginal_y <= 0.0):
            raise ValueError("every row and column of masses must carry positive mass")
        total = float(np.sum(self.marginal_x))
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"total mass is {total!r}, expected 1 within {_MASS_TOL}")


def discretize_joint(
    density: Callable,
    support: tuple[tuple[float, float], tuple[float, float]],
    nodes_per_axis: int,
) -> DiscretizedJoint:
    """Point masses of a density on a Gauss-Legendre tensor grid over a rectangle.

    The density is called once, on the open grid of the two node axes (see
    ``quadrature._values_on``), and may ignore an axis but not return stacked
    components. It may vanish on part of the rectangle (curved regions are
    embedded in their bounding box).
    Mass is renormalized to 1 and nodes whose marginal density falls below
    1e-12 are dropped. ``nodes_per_axis`` runs from 16 to 2048.
    """
    nodes_per_axis = _count(nodes_per_axis, "nodes_per_axis", MIN_GRID, _MAX_AXIS_NODES)
    (ax, bx), (ay, by) = (_reals(bounds, "support") for bounds in support)
    rule_x = gauss_legendre_rule(nodes_per_axis, ax, bx)
    rule_y = gauss_legendre_rule(nodes_per_axis, ay, by)
    values = _values_on(density, rule_x.nodes, rule_y.nodes)
    if not np.all(np.isfinite(values)) or np.any(values < 0.0):
        raise ValueError("density must be finite and nonnegative on the grid")
    # P is one new array, scaled in place from here on; dropping the density
    # values keeps a second n x n array from staying alive beside it
    masses = values * rule_x.weights[:, None]
    del values
    masses *= rule_y.weights
    mass = float(np.sum(masses))
    if mass < _ZERO_MASS:
        raise ValueError(f"zero-mass: total mass on the grid is {mass!r}")

    # a marginal density below the floor is a row (column) mass below floor * mass * weight
    keep_x = np.sum(masses, axis=1) >= _MARGINAL_FLOOR * mass * rule_x.weights
    keep_y = np.sum(masses, axis=0) >= _MARGINAL_FLOOR * mass * rule_y.weights
    # when no node is dropped, the masses and their sum stand as they are
    if not (np.all(keep_x) and np.all(keep_y)):
        masses = masses[np.ix_(keep_x, keep_y)]
        mass = float(np.sum(masses))
        if mass < _ZERO_MASS:
            raise ValueError(f"zero-mass: total mass after node dropping is {mass!r}")
    masses /= mass
    return DiscretizedJoint(rule_x.nodes[keep_x], rule_y.nodes[keep_y], masses)


def discretize_model(model: LancasterModel, nodes_per_axis: int = DEFAULT_MODEL_GRID) -> DiscretizedJoint:
    """Grid representation of a model's joint density over its support rectangle."""
    return discretize_joint(
        model.density,
        (model.marginal_x.support, model.marginal_y.support),
        nodes_per_axis,
    )


def joint_from_pmf(pmf, x_values=None, y_values=None) -> DiscretizedJoint:
    """Wrap a finite pmf matrix as a DiscretizedJoint.

    Lets the spectral and ACE machinery run unchanged on discrete laws.
    Entries are checked before zero-probability rows and columns are trimmed,
    so a bad entry cannot hide in a trimmed row.
    """
    p = np.asarray(pmf, dtype=float)
    if p.ndim != 2:
        raise ValueError("pmf must be a matrix")
    if np.any(p < 0.0) or not np.all(np.isfinite(p)):
        raise ValueError("pmf entries must be finite and nonnegative")
    x = np.arange(p.shape[0], dtype=float) if x_values is None else np.asarray(x_values, dtype=float)
    y = np.arange(p.shape[1], dtype=float) if y_values is None else np.asarray(y_values, dtype=float)
    if x.shape != p.shape[:1] or y.shape != p.shape[1:]:
        raise ValueError(
            f"x_values and y_values must match the pmf's shape {p.shape}, got {x.shape} and {y.shape}"
        )
    keep_x = p.sum(axis=1) > 0.0
    keep_y = p.sum(axis=0) > 0.0
    return DiscretizedJoint(x[keep_x], y[keep_y], p[np.ix_(keep_x, keep_y)])


# -- Pearson ---------------------------------------------------------------


def pearson(joint: DiscretizedJoint) -> float:
    """Covariance over the product of standard deviations, summed over the masses."""
    p, q = joint.marginal_x, joint.marginal_y
    mean_x = float(p @ joint.x_nodes)
    mean_y = float(q @ joint.y_nodes)
    var_x = float(p @ (joint.x_nodes - mean_x) ** 2)
    var_y = float(q @ (joint.y_nodes - mean_y) ** 2)
    if var_x <= 1e-12 or var_y <= 1e-12:
        raise ValueError(
            "degenerate-variance: correlation is undefined for (nearly) constant coordinates"
        )
    cross = float((joint.x_nodes - mean_x) @ joint.masses @ (joint.y_nodes - mean_y))
    return cross / float(np.sqrt(var_x * var_y))


# -- spectral oracle ---------------------------------------------------------


def _kernel_matrix(joint: DiscretizedJoint) -> np.ndarray:
    return joint.masses / np.sqrt(joint.marginal_x)[:, None] / np.sqrt(joint.marginal_y)


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
    weights = joint.marginal_x
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
    g1_values: np.ndarray
    g2_values: np.ndarray
    spectrum: np.ndarray


def _checked_kernel(joint: DiscretizedJoint) -> np.ndarray:
    if joint.x_nodes.size < 2 or joint.y_nodes.size < 2:
        raise ValueError("need at least two retained nodes per axis")
    return _kernel_matrix(joint)


def singular_spectrum(joint: DiscretizedJoint) -> np.ndarray:
    """All singular values of the normalized kernel, descending."""
    return np.linalg.svd(_kernel_matrix(joint), compute_uv=False)


def _lanczos_sigma2(kernel: np.ndarray, left: np.ndarray, right: np.ndarray) -> float | None:
    """Largest singular value of the deflated kernel D = K - left right^T.

    Golub-Kahan-Lanczos bidiagonalization with full reorthogonalization,
    started from a fixed dense vector orthogonal to ``right``. After k steps
    D V_k = U_k B_k and D^T U_k = V_k B_k^T + beta_k v_{k+1} e_k^T with B_k
    upper bidiagonal; the top Ritz triple (sigma, x, y) of B_k leaves the
    residual beta_k |x_k|. Returns sigma once that residual is at most 1e-15,
    or when an alpha or beta is 0 (the Krylov space is exhausted); returns
    None when min(m, n, 64) steps pass without either.
    """
    m, n = kernel.shape
    steps = min(m, n, _LANCZOS_MAX_STEPS)
    us = np.empty((steps, m))
    vs = np.empty((steps + 1, n))
    bidiagonal = np.zeros((steps, steps + 1))
    start = np.sin(np.arange(1, n + 1) * _GOLDEN_ANGLE)
    start -= right * float(right @ start)
    vs[0] = start / np.linalg.norm(start)
    beta = 0.0
    for k in range(steps):
        u = kernel @ vs[k] - left * float(right @ vs[k])
        if k:
            u -= beta * us[k - 1]
        u -= us[:k].T @ (us[:k] @ u)
        alpha = float(np.linalg.norm(u))
        bidiagonal[k, k] = alpha
        if alpha == 0.0:
            beta = 0.0
        else:
            us[k] = u / alpha
            r = kernel.T @ us[k] - right * float(left @ us[k]) - alpha * vs[k]
            r -= vs[: k + 1].T @ (vs[: k + 1] @ r)
            beta = float(np.linalg.norm(r))
        x, sigma, _ = np.linalg.svd(bidiagonal[: k + 1, : k + 1])
        if beta * abs(x[k, 0]) <= _LANCZOS_TOL:
            return float(sigma[0])
        bidiagonal[k, k + 1] = beta
        vs[k + 1] = r / beta
    return None


def maxcorr_svd(joint: DiscretizedJoint, lower_bound: float = 0.0) -> float:
    """Maximal correlation R alone, the second singular value of the normalized kernel K.

    ``maxcorr_decomposition`` gives the optimizers and the spectrum too. The
    constant pair is known exactly, K sqrt(q) = sqrt(p) and K^T sqrt(p) =
    sqrt(q), so it is checked directly: a defect beyond 1e-6 raises
    SpectralFailureError. R is then the norm of the deflated kernel
    D = K - a b^T (a, b the unit vectors along sqrt(p), sqrt(q)), found by
    Golub-Kahan-Lanczos. Why the value is the largest singular value of D: a
    Ritz value never exceeds sigma_max(D), and a converged residual puts it
    within 1e-15 of some singular value of D. The only way to be wrong is to
    converge to a lower one. ``lower_bound`` is a known lower bound on R, such
    as ACE's estimate g1^T P g2: with standardized mean-zero g1, g2 that is a
    Rayleigh quotient of D and so never above sigma_max(D). If it exceeds the
    Lanczos value by more than 1e-12, Lanczos missed the top value. That
    case, and hitting the step cap without converging, take R from
    ``singular_spectrum``.
    """
    lower_bound = _real(lower_bound, "lower_bound")
    kernel = _checked_kernel(joint)
    left, right = np.sqrt(joint.marginal_x), np.sqrt(joint.marginal_y)
    defect = max(float(np.linalg.norm(kernel @ right - left)), float(np.linalg.norm(kernel.T @ left - right)))
    if not defect <= 1e-6:
        raise SpectralFailureError(
            f"spectral-failure: the constants are off the kernel's leading pair by {defect!r},"
            " expected at most 1e-06; the discretization is inconsistent"
        )
    R = _lanczos_sigma2(kernel, left / np.linalg.norm(left), right / np.linalg.norm(right))
    if R is None or lower_bound > R + _LANCZOS_SLACK:
        R = float(singular_spectrum(joint)[1])
    return R


def maxcorr_decomposition(joint: DiscretizedJoint) -> SvdResult:
    """R, the optimizers and every singular value, from one full SVD of the kernel.

    The singular values come descending. The largest belongs to the constants
    and must equal 1; a deviation beyond 1e-6 signals a broken discretization
    and raises SpectralFailureError. The optimizers are function samples with
    zero weighted mean and unit weighted variance, oriented by ``_orient_pair``.
    """
    left, spectrum, right_t = np.linalg.svd(_checked_kernel(joint), full_matrices=False)
    if abs(spectrum[0] - 1.0) > 1e-6:
        raise SpectralFailureError(
            f"spectral-failure: leading singular value is {spectrum[0]!r}, expected 1"
            " (constants); the discretization is inconsistent"
        )
    p, q = joint.marginal_x, joint.marginal_y
    g1 = _standardize(left[:, 1] / np.sqrt(p), p)
    g2 = _standardize(right_t[1] / np.sqrt(q), q)
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


def maxcorr_ace(joint: DiscretizedJoint, max_iters: int = 2000, tol: float = 1e-9) -> AceResult:
    """Maximal correlation by alternating conditional expectations.

    Each sweep replaces g1 by E[g2(Y) | X], standardizes it, then updates g2
    symmetrically; the achieved correlation converges monotonically to the
    second singular value of the kernel (this is power iteration on the
    conditional-expectation operator). Stops when successive estimates move
    by at most tol; raises AceConvergenceError past max_iters (2000). A
    conditional mean with (numerically) zero variance means the operator
    annihilates mean-zero functions, so the maximal correlation is 0.
    """
    tol = _real(tol, "tol")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    max_iters = _count(max_iters, "max_iters", 1)
    masses = joint.masses
    p, q = joint.marginal_x, joint.marginal_y
    g2 = _ace_start(joint.y_nodes, q)

    estimate = None
    gap = float("nan")
    for iteration in range(1, max_iters + 1):
        h1 = masses @ g2 / p
        h1 = h1 - float(p @ h1) / float(np.sum(p))
        var1 = float(p @ h1**2)
        if var1 <= 1e-26:
            zero = np.zeros_like(h1)
            return AceResult(R=0.0, g1_values=zero, g2_values=np.zeros_like(g2), iterations=iteration)
        g1 = h1 / np.sqrt(var1 / float(np.sum(p)))
        h2 = g1 @ masses / q
        g2 = _standardize(h2, q)
        new_estimate = float(g1 @ masses @ g2)
        if estimate is not None:
            gap = abs(new_estimate - estimate)
            if gap <= tol:
                g1, g2 = _orient_pair(g1, g2, joint)
                return AceResult(R=new_estimate, g1_values=g1, g2_values=g2, iterations=iteration)
        estimate = new_estimate
    raise AceConvergenceError(last_estimate=estimate, gap=gap, iterations=max_iters)


# -- discrete pmf ------------------------------------------------------------


def maxcorr_discrete_pmf(pmf) -> float:
    """Maximal correlation of a finite pmf matrix.

    ``maxcorr_svd`` of ``joint_from_pmf(pmf)``: the second singular value of
    Q_ij = p_ij / sqrt(p_i+ p_+j) after trimming zero rows and columns, with
    no singular vectors computed.
    Undefined (degenerate-pmf) when either margin has a single support point.
    """
    p = np.asarray(pmf, dtype=float)
    total = float(p.sum())
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"pmf must sum to 1 within 1e-12, got {total!r}")
    joint = joint_from_pmf(p)
    if joint.x_nodes.size < 2 or joint.y_nodes.size < 2:
        raise ValueError(
            "degenerate-pmf: a margin has a single support point, so maximal"
            " correlation is undefined"
        )
    return maxcorr_svd(joint)


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
    reads the optimizing transformations or the spectrum, so R_svd comes from
    ``maxcorr_svd``, not ``maxcorr_decomposition``: Lanczos on the deflated
    kernel, with ACE's estimate, computed first, as its lower bound. Raises
    SpectralFailureError when the estimates violate structural guarantees
    (values outside [0, 1], or below |pearson| beyond oracle error: linear
    functions are always admissible transformations).
    """
    rho = pearson(joint)
    ace = maxcorr_ace(joint, tol=ace_tol)
    svd = maxcorr_svd(joint, lower_bound=ace.R)
    analytic = maxcorr_analytic(model) if model is not None else None
    for label, value in (("svd", svd), ("ace", ace.R)):
        if not -1e-9 <= value <= 1.0 + 1e-9:
            raise SpectralFailureError(
                f"spectral-failure: maximal-correlation estimate ({label}) is {value!r}"
            )
    if svd < abs(rho) - 2e-3:
        raise SpectralFailureError(
            f"spectral-failure: maximal correlation {svd!r} fell below |pearson|"
            f" {abs(rho)!r}; the discretization is inconsistent"
        )
    return CorrelationReport(
        pearson=rho,
        maxcorr_analytic=analytic,
        maxcorr_svd=svd,
        maxcorr_ace=ace.R,
        gap=svd - abs(rho),
    )
