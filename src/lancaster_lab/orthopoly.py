"""Orthonormal polynomial systems for densities on bounded intervals.

For a probability density f on [alpha, omega] there is a unique polynomial
family phi_0, phi_1, ... with integral of phi_m phi_n f equal to delta_mn
and strictly positive leading coefficients. Recurrence coefficients are
produced by the Stieltjes procedure (quadrature inner products against f,
one degree at a time); moment-matrix factorizations are avoided on purpose
because Hankel systems are hopelessly ill-conditioned past degree ~10.

The sup norms of the phi_n over the support are computed alongside the
recurrence: they gate how much coefficient mass a joint expansion built on
the system can carry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .quadrature import QuadratureRule, composite_gauss_legendre, gauss_legendre_rule

__all__ = [
    "MarginalSpec",
    "OrthonormalSystem",
    "DegenerateMarginalError",
    "OrthonormalityError",
    "build_system",
    "sup_norm",
    "orthonormality_residual",
]

MARGINAL_KINDS = ("uniform", "beta", "table")

# Piecewise-linear tables are renormalized if their integral is off by less
# than this; a larger deviation is treated as a real mistake, not rounding.
_TABLE_RENORM_TOL = 1e-6

_DEGENERATE_BETA = 1e-13
_DEFAULT_QUAD_NODES = 128

# A search that ends on its tolerance takes at most about 60 steps: the
# bracket starts no wider than the support and the tolerance is 1e-12 of it.
_GOLDEN_MAX_STEPS = 100


class DegenerateMarginalError(ValueError):
    """The marginal carries fewer effective support points than requested degrees."""


class OrthonormalityError(ValueError):
    """A built system misses its Gram check: a numerical failure, not a bad config.

    A ValueError still, so callers that catch ValueError keep working.
    """


@dataclass(frozen=True)
class MarginalSpec:
    """A univariate probability density with bounded support.

    kind "uniform":  params ()
    kind "beta":     params (a, b) with a, b >= 1; density proportional to
                     t**(a-1) * (1-t)**(b-1) after rescaling the support to t in [0, 1]
    kind "table":    params (knots, values); piecewise-linear density through
                     the given points, renormalized on load if nearly normalized
    """

    kind: str
    support: tuple[float, float]
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in MARGINAL_KINDS:
            raise ValueError(f"unknown marginal kind {self.kind!r}; expected one of {MARGINAL_KINDS}")
        if len(self.support) != 2:
            raise ValueError(f"marginal support must be a pair [alpha, omega], got {self.support!r}")
        lo, hi = (float(self.support[0]), float(self.support[1]))
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
            raise ValueError(f"support must be a bounded interval with alpha < omega, got {self.support!r}")
        if not math.isfinite(hi - lo):
            raise ValueError(f"support width omega - alpha overflows, got {self.support!r}")
        object.__setattr__(self, "support", (lo, hi))

        if self.kind == "uniform":
            if self.params not in ((), None):
                raise ValueError("uniform marginal takes no parameters")
            object.__setattr__(self, "params", ())
        elif self.kind == "beta":
            if len(self.params) != 2:
                raise ValueError("beta marginal needs params (a, b)")
            a, b = (float(self.params[0]), float(self.params[1]))
            if not (a >= 1.0 and b >= 1.0 and math.isfinite(a) and math.isfinite(b)):
                raise ValueError("beta parameters must be finite and >= 1 (bounded density)")
            # the density's normalizer needs log Gamma(a + b), the largest of its three terms
            try:
                normalizable = math.isfinite(math.lgamma(a + b))
            except OverflowError:
                normalizable = False
            if not normalizable:
                raise ValueError(
                    f"beta parameters too large: log Gamma(a + b) overflows at a + b = {a + b!r}"
                )
            object.__setattr__(self, "params", (a, b))
        else:
            knots, values = self.params
            knots = tuple(float(x) for x in knots)
            values = tuple(float(v) for v in values)
            if len(knots) != len(values) or len(knots) < 2:
                raise ValueError("table marginal needs matching knot and value sequences (length >= 2)")
            if any(k2 <= k1 for k1, k2 in zip(knots, knots[1:])):
                raise ValueError("table knots must be strictly increasing")
            if abs(knots[0] - lo) > 1e-12 or abs(knots[-1] - hi) > 1e-12:
                raise ValueError("table knots must span exactly the declared support")
            if any(v < 0.0 or not math.isfinite(v) for v in values):
                raise ValueError("table density values must be finite and nonnegative")
            x = np.asarray(knots)
            y = np.asarray(values)
            total = float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))
            if abs(total - 1.0) >= _TABLE_RENORM_TOL:
                raise ValueError(
                    f"table density integrates to {total!r}; deviations of"
                    f" {_TABLE_RENORM_TOL} or more from 1 are rejected"
                )
            if total <= 0.0:
                raise ValueError("table density has zero mass")
            values = tuple(v / total for v in values)
            object.__setattr__(self, "params", (knots, values))

    # -- evaluation ------------------------------------------------------

    def density(self, x):
        """Density value(s) at x; zero outside the support."""
        arr = np.asarray(x, dtype=float)
        lo, hi = self.support
        inside = (arr >= lo) & (arr <= hi)
        if self.kind == "uniform":
            out = np.where(inside, 1.0 / (hi - lo), 0.0)
        elif self.kind == "beta":
            a, b = self.params
            t = np.clip((arr - lo) / (hi - lo), 0.0, 1.0)
            norm = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)) * (hi - lo)
            out = np.where(inside, t ** (a - 1.0) * (1.0 - t) ** (b - 1.0) / norm, 0.0)
        else:
            knots, values = self.params
            out = np.where(inside, np.interp(arr, knots, values), 0.0)
        return out if arr.ndim else float(out)

    def quadrature_rule(self, n_nodes: int) -> QuadratureRule:
        """A rule exact for polynomials times this density.

        Table densities get a per-segment composite rule so the kinks at the
        knots never touch the quadrature error.
        """
        if self.kind == "table":
            knots = self.params[0]
            per_segment = max(16, -(-int(n_nodes) // (len(knots) - 1)))
            return composite_gauss_legendre(knots, per_segment)
        return gauss_legendre_rule(int(n_nodes), *self.support)


@dataclass(frozen=True, eq=False)
class OrthonormalSystem:
    """Recurrence data for the orthonormal polynomials of one marginal.

    recurrence_alpha holds a_0 .. a_{N-1} and recurrence_beta the positive
    off-diagonal entries b_1 .. b_{N-1} of the Jacobi matrix, so that

        b_{k+1} phi_{k+1}(x) = (x - a_k) phi_k(x) - b_k phi_{k-1}(x).

    ``leading`` holds the positive leading coefficients p_0 .. p_N (which
    supply the final off-diagonal entry b_N = p_{N-1} / p_N), and
    ``sup_norms`` the maxima c_0 .. c_N of |phi_n| over the support.
    ``offdiagonals`` is the read-only array b_1 .. b_N, derived once per system.
    """

    max_degree: int
    recurrence_alpha: np.ndarray
    recurrence_beta: np.ndarray
    leading: np.ndarray
    sup_norms: np.ndarray
    support: tuple[float, float]
    offdiagonals: np.ndarray = field(init=False, repr=False)
    # Python-float copies of a_0 .. a_{N-1} and b_1 .. b_N for one-point evaluation
    _alpha_floats: list = field(init=False, repr=False)
    _offdiagonal_floats: list = field(init=False, repr=False)

    def __post_init__(self):
        n = int(self.max_degree)
        if n < 1:
            raise ValueError("max_degree must be >= 1")
        alpha = np.asarray(self.recurrence_alpha, dtype=float)
        beta = np.asarray(self.recurrence_beta, dtype=float)
        lead = np.asarray(self.leading, dtype=float)
        sups = np.asarray(self.sup_norms, dtype=float)
        if alpha.shape != (n,) or beta.shape != (max(n - 1, 0),):
            raise ValueError("recurrence coefficient arrays have inconsistent lengths")
        if lead.shape != (n + 1,) or sups.shape != (n + 1,):
            raise ValueError("leading and sup_norms must have max_degree + 1 entries")
        if np.any(beta <= 0.0) or np.any(lead <= 0.0):
            raise ValueError("off-diagonal and leading coefficients must be positive")
        if abs(sups[0] - 1.0) > 1e-12 or np.any(sups < 1.0 - 1e-9):
            raise ValueError("sup norms must start at 1 and never fall below 1")
        object.__setattr__(self, "max_degree", n)
        object.__setattr__(self, "recurrence_alpha", alpha)
        object.__setattr__(self, "recurrence_beta", beta)
        object.__setattr__(self, "leading", lead)
        object.__setattr__(self, "sup_norms", sups)
        # the final off-diagonal entry comes from the leading-coefficient ratio
        offdiagonals = np.append(beta, lead[-2] / lead[-1])
        offdiagonals.flags.writeable = False
        object.__setattr__(self, "offdiagonals", offdiagonals)
        object.__setattr__(self, "_alpha_floats", alpha.tolist())
        object.__setattr__(self, "_offdiagonal_floats", offdiagonals.tolist())

    def evaluate_all(self, x, upto: int | None = None) -> np.ndarray:
        """Stack phi_0 .. phi_upto evaluated at x along the first axis."""
        n = self.max_degree if upto is None else int(upto)
        if not 0 <= n <= self.max_degree:
            raise ValueError(f"degree-out-of-range: {n} not in [0, {self.max_degree}]")
        arr = np.asarray(x, dtype=float)
        b = self.offdiagonals
        out = np.empty((n + 1,) + arr.shape)
        prev = np.zeros_like(arr)
        cur = np.ones_like(arr)
        out[0] = cur
        for k in range(n):
            nxt = (arr - self.recurrence_alpha[k]) * cur
            if k > 0:
                nxt = nxt - b[k - 1] * prev
            nxt = nxt / b[k]
            out[k + 1] = nxt
            prev, cur = cur, nxt
        return out

    def evaluate(self, n: int, x):
        """phi_n at x via the three-term recurrence.

        A single point is evaluated in Python floats and returned as a float:
        the steps are the IEEE operations of ``evaluate_all`` in the same
        order, so the value is bit-identical without numpy's per-call cost.
        An array goes through ``evaluate_all``.
        """
        if not 0 <= int(n) <= self.max_degree:
            raise ValueError(f"degree-out-of-range: {n} not in [0, {self.max_degree}]")
        n = int(n)
        arr = np.asarray(x, dtype=float)
        if arr.ndim:
            return self.evaluate_all(arr, upto=n)[n]
        t = float(arr)
        a, b = self._alpha_floats, self._offdiagonal_floats
        prev, cur = 0.0, 1.0
        for k in range(n):
            nxt = (t - a[k]) * cur
            if k > 0:
                nxt = nxt - b[k - 1] * prev
            prev, cur = cur, nxt / b[k]
        return cur

    def monomial_coefficients(self, n: int | None = None) -> np.ndarray:
        """Lower-triangular matrix C with C[k, j] the coefficient of x**j in phi_k."""
        n = self.max_degree if n is None else int(n)
        if not 0 <= n <= self.max_degree:
            raise ValueError(f"degree-out-of-range: {n} not in [0, {self.max_degree}]")
        b = self.offdiagonals
        coeff = np.zeros((n + 1, n + 1))
        coeff[0, 0] = 1.0
        for k in range(n):
            row = np.zeros(n + 1)
            row[1 : k + 2] = coeff[k, : k + 1]
            row -= self.recurrence_alpha[k] * coeff[k]
            if k > 0:
                row -= b[k - 1] * coeff[k - 1]
            coeff[k + 1] = row / b[k]
        return coeff


def _golden_section_max(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """Maximum value of f on [lo, hi] by golden-section search.

    Stops at a bracket no wider than ``tol`` or after ``_GOLDEN_MAX_STEPS``
    steps, since far from 0 the float spacing can exceed ``tol``.
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    steps = 0
    while (b - a) > tol and steps < _GOLDEN_MAX_STEPS:
        steps += 1
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return max(fc, fd)


def sup_norm(system: OrthonormalSystem, n: int) -> float:
    """Maximum of |phi_n| over the system's support.

    A Chebyshev-distributed scan with 64 n points (polynomial extrema cluster
    at the ends) is refined by golden-section search around the grid winner,
    which evaluates phi_n one point at a time in Python floats;
    no derivative root-finding is needed. The result is never below 1: the
    weighted mean square of phi_n is 1.
    """
    if not 1 <= int(n) <= system.max_degree:
        raise ValueError(f"degree-out-of-range: {n} not in [1, {system.max_degree}]")
    n = int(n)
    lo, hi = system.support
    count = 64 * n
    theta = np.linspace(0.0, np.pi, count)
    grid = 0.5 * (lo + hi) - 0.5 * (hi - lo) * np.cos(theta)
    values = np.abs(system.evaluate_all(grid, upto=n)[n])
    j = int(np.argmax(values))
    bracket_lo = grid[max(j - 1, 0)]
    bracket_hi = grid[min(j + 1, count - 1)]
    refined = _golden_section_max(
        lambda t: abs(float(system.evaluate(n, t))), bracket_lo, bracket_hi, tol=(hi - lo) * 1e-12
    )
    return max(float(values[j]), refined, 1.0)


def orthonormality_residual(
    system: OrthonormalSystem, marginal: MarginalSpec, quad_nodes: int
) -> float:
    """Largest deviation of the Gram matrix of phi_0..phi_N from the identity."""
    rule = marginal.quadrature_rule(quad_nodes)
    weights = rule.weights * marginal.density(rule.nodes)
    basis = system.evaluate_all(rule.nodes)
    gram = (basis * weights) @ basis.T
    return float(np.max(np.abs(gram - np.eye(system.max_degree + 1))))


def build_system(
    marginal: MarginalSpec, max_degree: int, quad_nodes: int | None = None
) -> OrthonormalSystem:
    """Build the orthonormal polynomial system of a marginal up to max_degree.

    Runs the Stieltjes procedure on a quadrature grid: each recurrence
    coefficient is a ratio of inner products of the current monic iterates
    against the density. The returned system is checked for orthonormality
    on an independent, finer rule and raises OrthonormalityError when its
    Gram matrix is off the identity by more than 1e-10. The cause may be a
    rule too small for the degrees, a rough marginal, or rounding on a
    support far from 0, where a larger rule does not help.
    """
    if int(max_degree) < 1:
        raise ValueError("max_degree must be >= 1")
    max_degree = int(max_degree)
    if quad_nodes is None:
        quad_nodes = max(_DEFAULT_QUAD_NODES, 4 * max_degree)
    rule = marginal.quadrature_rule(quad_nodes)
    if len(rule) < max_degree + 1:
        raise ValueError("quad_nodes too small for the requested max_degree")
    x = rule.nodes
    w = rule.weights * marginal.density(x)

    pi_prev = np.zeros_like(x)
    pi_cur = np.ones_like(x)
    norm2 = [float(np.sum(w))]
    if not norm2[0] > 0.0:
        raise DegenerateMarginalError(
            f"degenerate-marginal: the {marginal.kind} density is zero on all {len(rule)}"
            " quadrature nodes; the marginal is too concentrated for its rule"
        )
    alphas: list[float] = []
    betas_monic: list[float] = []
    # far from 0 the monic iterates overflow; the finiteness check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(max_degree):
            a_k = float(np.sum(w * x * pi_cur * pi_cur)) / norm2[k]
            alphas.append(a_k)
            nxt = (x - a_k) * pi_cur
            if k > 0:
                nxt = nxt - betas_monic[k - 1] * pi_prev
            pi_prev, pi_cur = pi_cur, nxt
            n2 = float(np.sum(w * pi_cur * pi_cur))
            beta_next = n2 / norm2[k]
            if not math.isfinite(beta_next):
                raise ValueError(
                    f"stieltjes-overflow: the recurrence overflows at degree {k + 1} on the"
                    f" support {marginal.support!r}; shift the support nearer to 0 or narrow it"
                )
            if beta_next <= _DEGENERATE_BETA:
                raise DegenerateMarginalError(
                    f"degenerate-marginal: recurrence coefficient beta_{k + 1} = {beta_next!r};"
                    " the marginal supports fewer polynomial degrees than requested"
                )
            betas_monic.append(beta_next)
            norm2.append(n2)

    leading = 1.0 / np.sqrt(np.asarray(norm2))
    beta_orthonormal = np.sqrt(np.asarray(betas_monic[: max_degree - 1]))
    system = OrthonormalSystem(
        max_degree=max_degree,
        recurrence_alpha=np.asarray(alphas),
        recurrence_beta=beta_orthonormal,
        leading=leading,
        sup_norms=np.ones(max_degree + 1),
        support=marginal.support,
    )
    sups = np.ones(max_degree + 1)
    for n in range(1, max_degree + 1):
        sups[n] = sup_norm(system, n)
    system = replace(system, sup_norms=sups)

    residual = orthonormality_residual(system, marginal, quad_nodes + 37)
    if residual > 1e-10:
        raise OrthonormalityError(
            f"orthonormality-failed: Gram residual {residual:.3e} exceeds 1e-10 for the"
            f" {marginal.kind} marginal on {marginal.support!r} at max_degree {max_degree}"
            f" with quad_nodes {quad_nodes}"
        )
    return system
