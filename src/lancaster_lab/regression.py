"""Conditional-expectation identities of polynomial-expansion joints.

For a model with coefficients rho_n the orthonormal polynomials are
eigenfunctions of conditioning:

    E(phi_n(X) | Y) = rho_n psi_n(Y),    E(psi_n(Y) | X) = rho_n phi_n(X).

Monomial conditional moments inherit the structure: E(X^n | Y) is a
polynomial of degree n in Y whose leading coefficient is rho_n q_n / p_n
(q_n, p_n the leading coefficients of the two systems), and symmetrically
with the ratio inverted. The n = 1 case says both regressions are affine
with slopes that vanish exactly when rho_1 does, which is what makes a
model with |rho_1| < max_{n>=2} |rho_n| a counterexample: the regressions
stay strictly linear while the maximal correlation exceeds |pearson|.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .correlation import DEFAULT_ACE_TOL, CorrelationReport, DiscretizedJoint, correlation_report
from .lancaster import LancasterModel, maxcorr_analytic, transpose_model
from .orthopoly import _GRAM_TOLERANCE, OrthonormalityError
from .quadrature import _count

__all__ = [
    "RegressionCheckResult",
    "LinearRegressionResult",
    "DegreeChecks",
    "CounterexampleReport",
    "conditional_expectation",
    "check_eigen_regression",
    "check_polynomial_regression",
    "check_linear_regression",
    "counterexample_report",
]

# A correlation below this is quadrature noise, not evidence of rho_1 != 0: the
# two slopes are strict when a1 b1 exceeds its square.
STRICTNESS_THRESHOLD = 1e-10

# A regression is affine when its degree-1 fit misses the conditional mean by at
# most this times the sd of the coordinate it predicts.
_AFFINE_TOLERANCE = 1e-8


@dataclass(frozen=True)
class RegressionCheckResult:
    """Outcome of one conditional-moment identity check.

    For polynomial-moment checks ``fitted_coeffs`` holds the monomial
    coefficients (ascending) of the weighted least-squares fit, so the
    entries below the top are the lower-order polynomial remainder; for
    eigenfunction checks no fit is involved and it is None. ``max_residual``
    is the largest identity defect over the conditioning nodes.
    """

    degree: int
    direction: str
    target_leading: float
    fitted_coeffs: tuple[float, ...] | None
    max_residual: float

    @property
    def fitted_leading(self) -> float | None:
        return None if self.fitted_coeffs is None else self.fitted_coeffs[-1]


class LinearRegressionResult(NamedTuple):
    a1: float
    a0: float
    b1: float
    b0: float
    residual: float

    @property
    def strict(self) -> bool:
        """Both regressions have a genuinely nonzero slope: |a1 b1| > STRICTNESS_THRESHOLD**2.

        When both regressions are linear, a1 = rho_1 sd(X) / sd(Y) and
        b1 = rho_1 sd(Y) / sd(X), so a1 b1 = rho_1^2 whatever the units of X
        and Y; a test on either slope alone would depend on them.
        """
        return abs(self.a1 * self.b1) > STRICTNESS_THRESHOLD**2


def conditional_expectation(model: LancasterModel, h: Callable, y) -> float | np.ndarray:
    """E(h(X) | Y = y) by quadrature on ``model.rule_x`` against the conditional density.

    Expands the conditional density in the polynomial system, so the result
    is the marginal mean of h plus sum_n rho_n <h, phi_n> psi_n(y); vectorized
    over y. ``h`` may be vector-valued: when its values on the n rule nodes
    have shape (k, n), the k conditional expectations come back stacked along
    the first axis. h is called once, on the array of nodes; a scalar result
    is a constant, and a callable that rejects arrays raises its own error.
    All projections <h, phi_n> and the series sum are two matrix products.
    Requires the conditioning marginal to be positive at y.
    """
    y_arr = np.asarray(y, dtype=float)
    density_y = np.asarray(model.marginal_y.density(y_arr))
    if np.any(density_y <= 0.0):
        raise ValueError(
            "unsupported-conditioning-point: the conditioning marginal vanishes at y"
        )
    nodes = model.rule_x.nodes
    masses = model.rule_x.weights * model.marginal_x.density(nodes)
    h_vals = np.asarray(h(nodes), dtype=float)
    h_vals = np.broadcast_to(h_vals, h_vals.shape[:-1] + nodes.shape)
    if not np.all(np.isfinite(h_vals)):
        raise ValueError("non-finite-evaluation: h is not finite on the support")

    n = len(model.coeffs)
    phi = model.system_x.evaluate_all(nodes, upto=n)
    psi = model.system_y.evaluate_all(y_arr, upto=n).reshape(n + 1, -1)
    # projections <h, phi_k> for k = 0 .. n; the k = 0 one is the marginal mean
    projections = (h_vals * masses) @ phi.T
    factors = np.concatenate(([1.0], model.coeffs.rho))
    result = ((projections * factors) @ psi).reshape(h_vals.shape[:-1] + y_arr.shape)
    return result if result.ndim else float(result)


def _rho_at(model: LancasterModel, n: int) -> float:
    # coefficients beyond the truncation are zero
    return model.coeffs.rho[n - 1] if n <= len(model.coeffs) else 0.0


class _Conditioning(NamedTuple):
    """One direction's conditioning pass, on a model oriented so that X is given Y.

    It conditions at the nodes of ``model.rule_y`` with positive mass
    m_j = w_j f2(y_j), the measure M that built psi_0 .. psi_top. Rows n - 1
    of ``eigen`` and ``powers`` hold E(phi_n(X) | Y) and E(X^n | Y) there for
    n = 1 .. top; ``psi`` holds psi_0 .. psi_top and ``monomials`` their
    monomial coefficients. ``gram`` is Psi M Psi^T and row n - 1 of
    ``projections`` holds <E(X^n | Y) - means[n - 1], psi_k> on M.
    """

    model: LancasterModel
    direction: str
    psi: np.ndarray
    monomials: np.ndarray
    eigen: np.ndarray
    powers: np.ndarray
    gram: np.ndarray
    means: np.ndarray
    projections: np.ndarray


def _condition(model: LancasterModel, direction: str) -> _Conditioning:
    top = min(model.system_x.max_degree, model.system_y.max_degree)
    masses = model.rule_y.weights * model.marginal_y.density(model.rule_y.nodes)
    nodes, masses = model.rule_y.nodes[masses > 0.0], masses[masses > 0.0]

    def moments_of(t):
        return np.concatenate(
            [model.system_x.evaluate_all(t, upto=top)[1:], [t**n for n in range(1, top + 1)]]
        )

    moments = conditional_expectation(model, moments_of, nodes)
    powers = moments[top:]
    # each E(X^n | Y) is its mean plus a small variation: projecting only the
    # variation keeps the mean's rounding out of the projections on psi_k
    means = powers @ masses
    psi = model.system_y.evaluate_all(nodes, upto=top)
    gram = (psi * masses) @ psi.T
    defect = float(np.max(np.abs(gram - np.eye(top + 1))))
    if defect > _GRAM_TOLERANCE:
        raise OrthonormalityError(
            f"orthonormality-failed: {direction} Gram residual {defect:.3e} exceeds {_GRAM_TOLERANCE:.0e}"
        )
    return _Conditioning(
        model=model,
        direction=direction,
        psi=psi,
        monomials=model.system_y.monomial_coefficients(top),
        eigen=moments[:top],
        powers=powers,
        gram=gram,
        means=means,
        projections=((powers - means[:, None]) * masses) @ psi.T,
    )


@functools.lru_cache(maxsize=1)
def _conditioning_passes(model: LancasterModel) -> tuple[_Conditioning, _Conditioning]:
    """The (X given Y, Y given X) conditioning passes of the model checked last.

    Every degree's eigen and polynomial checks read their rows from these, so
    a report conditions once per direction, with one ``conditional_expectation``
    call each, up to top = min(max_degree_x, max_degree_y). Models are
    immutable and hash by identity, so one entry holds the passes of the
    model a report is checking.
    """
    return (
        _condition(model, "x_given_y"),
        _condition(transpose_model(model), "y_given_x"),
    )


def _eigen_check_one(passes: _Conditioning, n: int) -> RegressionCheckResult:
    rho_n = _rho_at(passes.model, n)
    return RegressionCheckResult(
        degree=n,
        direction=passes.direction,
        target_leading=float(rho_n),
        fitted_coeffs=None,
        max_residual=float(np.max(np.abs(passes.eigen[n - 1] - rho_n * passes.psi[n]))),
    )


def check_eigen_regression(
    model: LancasterModel, n: int
) -> tuple[RegressionCheckResult, RegressionCheckResult]:
    """Defect of E(phi_n(X) | Y) = rho_n psi_n(Y) over the conditioning nodes.

    Both conditioning directions are evaluated; the results come back as the
    (X given Y, Y given X) pair.
    """
    n = _require_degree(model, n)
    return tuple(_eigen_check_one(passes, n) for passes in _conditioning_passes(model))


def _poly_check_one(passes: _Conditioning, n: int) -> RegressionCheckResult:
    model = passes.model
    # weighted least squares in the orthonormal basis on the rule's own
    # measure; convert to monomial coefficients only for reporting
    coeff_ortho = np.linalg.solve(passes.gram[: n + 1, : n + 1], passes.projections[n - 1, : n + 1])
    coeff_ortho[0] += passes.means[n - 1]  # psi_0 is 1
    fit_residual = float(np.max(np.abs(coeff_ortho @ passes.psi[: n + 1] - passes.powers[n - 1])))
    monomial = coeff_ortho @ passes.monomials[: n + 1, : n + 1]
    target = _rho_at(model, n) * model.system_y.leading[n] / model.system_x.leading[n]
    return RegressionCheckResult(
        degree=n,
        direction=passes.direction,
        target_leading=float(target),
        fitted_coeffs=tuple(float(c) for c in monomial),
        max_residual=fit_residual,
    )


def check_polynomial_regression(
    model: LancasterModel, n: int
) -> tuple[RegressionCheckResult, RegressionCheckResult]:
    """Least-squares fit of E(X^n | Y) against psi_0(Y) .. psi_n(Y), both directions.

    The fit is weighted by the masses of the conditioning nodes, the measure
    the system was built on, so its normal equations are a Gram system near
    the identity. The fitted degree-n coefficient should equal
    rho_n q_n / p_n (X given Y) and rho_n p_n / q_n (Y given X); callers
    compare ``fitted_leading`` with ``target_leading``. The remaining entries
    of ``fitted_coeffs`` are the lower-degree remainder polynomial.
    """
    n = _require_degree(model, n)
    return tuple(_poly_check_one(passes, n) for passes in _conditioning_passes(model))


def _require_degree(model: LancasterModel, n: int) -> int:
    """``n`` as an int; it must be an integer (bool excluded) in [1, top]."""
    top = min(model.system_x.max_degree, model.system_y.max_degree)
    return _count(n, "degree-out-of-range: degree n", 1, top)


def check_linear_regression(model: LancasterModel) -> LinearRegressionResult:
    """Affine coefficients of both conditional means and their affinity defect.

    Returns (a1, a0, b1, b0, residual) for E(X|Y) = a1 Y + a0 and
    E(Y|X) = b1 X + b0: the coefficients are the two degree-1 fits of
    ``check_polynomial_regression`` and residual is the larger of their
    sup-norm defects. The ``strict`` property flags a1 b1 = rho_1^2 above
    noise, which happens exactly when rho_1 does not vanish.
    """
    fit_x, fit_y = check_polynomial_regression(model, 1)
    a0, a1 = fit_x.fitted_coeffs
    b0, b1 = fit_y.fitted_coeffs
    return LinearRegressionResult(
        a1=a1, a0=a0, b1=b1, b0=b0, residual=max(fit_x.max_residual, fit_y.max_residual)
    )


@dataclass(frozen=True)
class DegreeChecks:
    degree: int
    eigen_x_given_y: RegressionCheckResult
    eigen_y_given_x: RegressionCheckResult
    poly_x_given_y: RegressionCheckResult
    poly_y_given_x: RegressionCheckResult


@dataclass(frozen=True, eq=False)
class CounterexampleReport:
    """Everything needed to decide whether a model beats the naive equality.

    ``correlation`` holds what was measured on the joint the report was given,
    and only on it; ``maxcorr_analytic`` (max_n |rho_n|) and ``bound_value``
    are the model's closed forms beside it. ``counterexample_confirmed`` holds
    when both regressions are affine with strictly nonzero slopes
    (``linear.strict``) yet the maximal correlation strictly exceeds
    |pearson|. Affine means each degree-1 fit misses its conditional mean by
    at most 1e-8 times the sd of the coordinate it predicts, b_1 of that
    coordinate's system (phi_1 = (x - a_0) / b_1 has unit norm), on any
    units; ``linear.residual`` is the larger miss as it is.
    ``degenerate_comparison`` flags the uninformative case where both sides
    vanish.
    """

    correlation: CorrelationReport
    maxcorr_analytic: float
    bound_value: float
    linear: LinearRegressionResult
    degree_checks: tuple[DegreeChecks, ...]
    gap_positive: bool
    degenerate_comparison: bool
    counterexample_confirmed: bool


def counterexample_report(
    model: LancasterModel, joint: DiscretizedJoint, ace_tol: float = DEFAULT_ACE_TOL
) -> CounterexampleReport:
    """Run the full verification chain on one model and a joint of it.

    Measures Pearson and both maximal-correlation estimates on ``joint``
    (``correlation_report``; the caller chooses the joint, such as
    ``discretize_model(model, 200)``) and puts the model's closed forms,
    max_n |rho_n| and the bound value, beside them. Adds the affine regression
    coefficients and the per-degree eigenfunction and polynomial-moment
    identities. The gap field of the embedded correlation report is positive
    exactly when |rho_1| falls below max_{n >= 2} |rho_n|.
    """
    corr = correlation_report(joint, ace_tol=ace_tol)
    linear = check_linear_regression(model)
    checks = tuple(
        DegreeChecks(n, *check_eigen_regression(model, n), *check_polynomial_regression(model, n))
        for n in range(1, len(model.coeffs) + 1)
    )
    gap_positive = corr.gap > 5e-3
    degenerate = corr.maxcorr_svd < 2e-3 and abs(corr.pearson) < 1e-6
    first = checks[0]
    affine = all(
        fit.max_residual <= _AFFINE_TOLERANCE * system.offdiagonals[0]
        for fit, system in ((first.poly_x_given_y, model.system_x), (first.poly_y_given_x, model.system_y))
    )
    confirmed = linear.strict and gap_positive and affine
    return CounterexampleReport(
        correlation=corr,
        maxcorr_analytic=maxcorr_analytic(model),
        bound_value=model.coeffs.bound_value,
        linear=linear,
        degree_checks=checks,
        gap_positive=gap_positive,
        degenerate_comparison=degenerate,
        counterexample_confirmed=confirmed,
    )
