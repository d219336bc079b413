"""Orthonormal polynomial systems for densities on bounded intervals.

For a probability density f on [alpha, omega] there is a unique polynomial
family phi_0, phi_1, ... with integral of phi_m phi_n f equal to delta_mn
and strictly positive leading coefficients. Recurrence coefficients are
produced by the Stieltjes procedure (quadrature inner products against f,
one degree at a time); moment-matrix factorizations are avoided on purpose
because Hankel systems are hopelessly ill-conditioned past degree ~10.

A system is stored as its Jacobi matrix alone. The leading coefficients
and the sup norms of the phi_n over the support are derived from it; the
sup norms gate how much coefficient mass a joint expansion built on the
system can carry. Each is the largest |phi_n| at the endpoints and at the
real roots of phi_n', which are the eigenvalues of a comrade matrix built
from the same recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

    def measure(self, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and point masses of the quadrature rule times this density.

        Integrating g against the marginal is ``masses @ g(nodes)``.
        """
        rule = self.quadrature_rule(n_nodes)
        return rule.nodes, rule.weights * self.density(rule.nodes)


@dataclass(frozen=True, eq=False)
class OrthonormalSystem:
    """The orthonormal polynomials of one marginal, given by their Jacobi matrix.

    ``recurrence_alpha`` holds the diagonal a_0 .. a_{N-1} and ``offdiagonals``
    the positive entries b_1 .. b_N, so that

        b_{k+1} phi_{k+1}(x) = (x - a_k) phi_k(x) - b_k phi_{k-1}(x),  phi_0 = 1.

    Everything else is derived once, as read-only arrays: ``max_degree`` is N,
    ``leading`` holds the leading coefficients p_n = 1 / (b_1 ... b_n) of
    phi_0 .. phi_N, and ``sup_norms`` the maxima c_0 .. c_N of |phi_n| over
    the support (see ``sup_norm``).
    """

    recurrence_alpha: np.ndarray
    offdiagonals: np.ndarray
    support: tuple[float, float]
    max_degree: int = field(init=False)
    leading: np.ndarray = field(init=False, repr=False)
    sup_norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        alpha = np.array(self.recurrence_alpha, dtype=float)
        b = np.array(self.offdiagonals, dtype=float)
        if alpha.ndim != 1 or alpha.shape != b.shape or alpha.size < 1:
            raise ValueError("recurrence_alpha and offdiagonals must be 1-D with the same length >= 1")
        if not np.all(b > 0.0):
            raise ValueError("off-diagonal entries must be positive")
        leading = 1.0 / np.cumprod(np.concatenate(([1.0], b)))
        for name, value in (("recurrence_alpha", alpha), ("offdiagonals", b), ("leading", leading)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "max_degree", alpha.size)
        sups = sup_norm(self)
        sups.flags.writeable = False
        object.__setattr__(self, "sup_norms", sups)

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
        """phi_n at x via the three-term recurrence."""
        return self.evaluate_all(x, upto=n)[n]

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


def sup_norm(system: OrthonormalSystem) -> np.ndarray:
    """The maxima c_0 .. c_N of |phi_n| over the system's support.

    A maximum of |phi_n| sits at an endpoint or at a real root of phi_n'.
    Differentiating the recurrence gives

        b_{k+1} phi_{k+1}' = phi_k + (x - a_k) phi_k' - b_k phi_{k-1}',

    so each phi_n' is a series in phi_0 .. phi_{n-1}; one pass builds them all.
    The roots of phi_n' are the eigenvalues of its comrade matrix, the Jacobi
    matrix with its last row corrected by that series (Barnett, Linear Algebra
    Appl. 12, 1975). phi_n is evaluated at their real parts, clipped to the
    support, and at both endpoints. No c_n is below 1: the weighted mean
    square of phi_n is 1.
    """
    n_max = system.max_degree
    a, b = system.recurrence_alpha, system.offdiagonals
    lo, hi = system.support
    # x times a series in phi_0 .. phi_{N-2} is jacobi @ series
    jacobi = np.diag(a) + np.diag(b[:-1], 1) + np.diag(b[:-1], -1)
    # deriv[n, k] is the coefficient of phi_k in phi_n'
    deriv = np.zeros((n_max + 1, n_max))
    for k in range(n_max):
        row = jacobi @ deriv[k] - a[k] * deriv[k]
        row[k] += 1.0
        if k > 0:
            row -= b[k - 1] * deriv[k - 1]
        deriv[k + 1] = row / b[k]
    sups = np.ones(n_max + 1)
    for n in range(1, n_max + 1):
        m = n - 1  # the degree of phi_n'
        comrade = jacobi[:m, :m].copy()
        if m:
            comrade[m - 1] -= b[m - 1] * deriv[n, :m] / deriv[n, m]
        roots = np.clip(np.linalg.eigvals(comrade).real, lo, hi)
        values = system.evaluate(n, np.concatenate(([lo, hi], roots)))
        sups[n] = max(float(np.max(np.abs(values))), 1.0)
    return sups


def orthonormality_residual(
    system: OrthonormalSystem, marginal: MarginalSpec, quad_nodes: int
) -> float:
    """Largest deviation of the Gram matrix of phi_0..phi_N from the identity."""
    nodes, masses = marginal.measure(quad_nodes)
    basis = system.evaluate_all(nodes)
    gram = (basis * masses) @ basis.T
    return float(np.max(np.abs(gram - np.eye(system.max_degree + 1))))


def build_system(
    marginal: MarginalSpec, max_degree: int, quad_nodes: int = _DEFAULT_QUAD_NODES
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
    max_degree = int(max_degree)
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    x, w = marginal.measure(quad_nodes)
    if x.size < max_degree + 1:
        raise ValueError("quad_nodes too small for the requested max_degree")

    pi_prev = np.zeros_like(x)
    pi_cur = np.ones_like(x)
    norm2 = [float(np.sum(w))]
    if not norm2[0] > 0.0:
        raise DegenerateMarginalError(
            f"degenerate-marginal: the {marginal.kind} density is zero on all {x.size}"
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

    system = OrthonormalSystem(np.asarray(alphas), np.sqrt(np.asarray(betas_monic)), marginal.support)

    residual = orthonormality_residual(system, marginal, quad_nodes + 37)
    if residual > 1e-10:
        raise OrthonormalityError(
            f"orthonormality-failed: Gram residual {residual:.3e} exceeds 1e-10 for the"
            f" {marginal.kind} marginal on {marginal.support!r} at max_degree {max_degree}"
            f" with quad_nodes {quad_nodes}"
        )
    return system
