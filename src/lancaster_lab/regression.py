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

from .correlation import DEFAULT_MODEL_GRID, CorrelationReport, correlation_report, discretize_model
from .lancaster import LancasterModel, transpose_model
from .quadrature import _values_on

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

# Equispaced interior conditioning points; endpoints are excluded because
# marginals may vanish there and conditionals become undefined.
_GRID_POINTS = 101

_CONDITION_LIMIT = 1e10

# Slopes below this are quadrature noise, not evidence of rho_1 != 0.
STRICTNESS_THRESHOLD = 1e-10


@dataclass(frozen=True)
class RegressionCheckResult:
    """Outcome of one conditional-moment identity check.

    For polynomial-moment checks ``fitted_coeffs`` holds the monomial
    coefficients (ascending) of the fitted conditional expectation, so the
    entries below the top are the lower-order polynomial remainder; for
    eigenfunction checks no fit is involved and it is None. ``max_residual``
    is the sup over the conditioning grid of the identity defect.
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
        """Both regressions have a genuinely nonzero slope."""
        return abs(self.a1) > STRICTNESS_THRESHOLD and abs(self.b1) > STRICTNESS_THRESHOLD


def _conditioning_grid(support: tuple[float, float], count: int = _GRID_POINTS) -> np.ndarray:
    return np.linspace(*support, count + 2)[1:-1]


def conditional_expectation(model: LancasterModel, h: Callable, y) -> float | np.ndarray:
    """E(h(X) | Y = y) by quadrature against the conditional density.

    Expands the conditional density in the polynomial system, so the result
    is the marginal mean of h plus sum_n rho_n <h, phi_n> psi_n(y); vectorized
    over y. ``h`` may be vector-valued: when its values on the n rule nodes
    have shape (k, n), the k conditional expectations come back stacked along
    the first axis. All projections <h, phi_n> and the series sum are two
    matrix products. A callable that only takes scalars is evaluated node by
    node. Requires the conditioning marginal to be positive at y.
    """
    y_arr = np.asarray(y, dtype=float)
    density_y = np.asarray(model.marginal_y.density(y_arr))
    if np.any(density_y <= 0.0):
        raise ValueError(
            "unsupported-conditioning-point: the conditioning marginal vanishes at y"
        )
    nodes, masses = model.marginal_x.measure(model.quad_nodes)
    h_vals = _values_on(h, nodes)
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

    Rows n - 1 of ``eigen`` and ``powers`` hold E(phi_n(X) | Y) and
    E(X^n | Y) on the conditioning grid for n = 1 .. top; ``psi`` holds
    psi_0 .. psi_top on the grid and ``monomials`` their monomial coefficients.
    """

    model: LancasterModel
    direction: str
    psi: np.ndarray
    monomials: np.ndarray
    eigen: np.ndarray
    powers: np.ndarray


def _condition(model: LancasterModel, direction: str) -> _Conditioning:
    top = min(model.system_x.max_degree, model.system_y.max_degree)
    grid = _conditioning_grid(model.marginal_y.support)

    def moments_of(t):
        return np.concatenate(
            [model.system_x.evaluate_all(t, upto=top)[1:], [t**n for n in range(1, top + 1)]]
        )

    moments = conditional_expectation(model, moments_of, grid)
    return _Conditioning(
        model=model,
        direction=direction,
        psi=model.system_y.evaluate_all(grid, upto=top),
        monomials=model.system_y.monomial_coefficients(top),
        eigen=moments[:top],
        powers=moments[top:],
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
    """Defect of E(phi_n(X) | Y) = rho_n psi_n(Y) over the conditioning grid.

    Both conditioning directions are evaluated; the results come back as the
    (X given Y, Y given X) pair.
    """
    n = _require_degree(model, n)
    return tuple(_eigen_check_one(passes, n) for passes in _conditioning_passes(model))


def _checked_lstsq(design: np.ndarray, targets: np.ndarray) -> np.ndarray:
    solution, _, _, svals = np.linalg.lstsq(design, targets, rcond=None)
    condition = float(svals[0] / svals[-1]) if svals[-1] > 0.0 else float("inf")
    if condition > _CONDITION_LIMIT:
        raise ValueError(
            f"ill-conditioned-fit: design condition number {condition:.3e} exceeds"
            f" {_CONDITION_LIMIT:.0e}; raise the grid size or orthogonalize"
        )
    return solution


def _poly_check_one(passes: _Conditioning, n: int) -> RegressionCheckResult:
    model = passes.model
    moments = passes.powers[n - 1]
    # fit in the orthonormal basis (monomial normal equations degrade fast),
    # convert to monomial coefficients only for reporting
    design = passes.psi[: n + 1].T
    coeff_ortho = _checked_lstsq(design, moments)
    fit_residual = float(np.max(np.abs(design @ coeff_ortho - moments)))
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
    """Least-squares fit of E(X^n | Y) against 1, Y, ..., Y^n, both directions.

    The fitted degree-n coefficient should equal rho_n q_n / p_n (X given Y)
    and rho_n p_n / q_n (Y given X); callers compare ``fitted_leading`` with
    ``target_leading``. The remaining entries of ``fitted_coeffs`` are the
    lower-degree remainder polynomial.
    """
    n = _require_degree(model, n)
    return tuple(_poly_check_one(passes, n) for passes in _conditioning_passes(model))


def _require_degree(model: LancasterModel, n: int) -> int:
    """``n`` as an int; it must be an integer (bool excluded) in [1, top]."""
    top = min(model.system_x.max_degree, model.system_y.max_degree)
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or not 1 <= n <= top:
        raise ValueError(f"degree-out-of-range: {n!r} is not an integer in [1, {top}]")
    return int(n)


def check_linear_regression(model: LancasterModel) -> LinearRegressionResult:
    """Affine coefficients of both conditional means and their affinity defect.

    Returns (a1, a0, b1, b0, residual) for E(X|Y) = a1 Y + a0 and
    E(Y|X) = b1 X + b0: the coefficients are the two degree-1 fits of
    ``check_polynomial_regression`` and residual is the larger of their
    sup-norm defects. The ``strict`` property flags a1 b1 != 0, which happens
    exactly when rho_1 does not vanish.
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

    ``counterexample_confirmed`` holds when both regressions are affine with
    strictly nonzero slopes yet the maximal correlation strictly exceeds
    |pearson|; ``degenerate_comparison`` flags the uninformative case where
    both sides vanish.
    """

    correlation: CorrelationReport
    bound_value: float
    linear: LinearRegressionResult
    degree_checks: tuple[DegreeChecks, ...]
    strict_linear: bool
    gap_positive: bool
    degenerate_comparison: bool
    counterexample_confirmed: bool

    @property
    def gap(self) -> float:
        return self.correlation.gap


def counterexample_report(
    model: LancasterModel,
    grid: int = DEFAULT_MODEL_GRID,
    ace_tol: float = 1e-9,
) -> CounterexampleReport:
    """Run the full verification chain on one model.

    Computes Pearson and all three maximal-correlation estimates on a grid
    discretization, the affine regression coefficients, and the per-degree
    eigenfunction and polynomial-moment identities. The gap field of the
    embedded correlation report is positive exactly when |rho_1| falls below
    max_{n >= 2} |rho_n|.
    """
    joint = discretize_model(model, grid)
    corr = correlation_report(joint, model=model, ace_tol=ace_tol)
    linear = check_linear_regression(model)
    checks = []
    for n in range(1, len(model.coeffs) + 1):
        eigen_xy, eigen_yx = check_eigen_regression(model, n)
        poly_xy, poly_yx = check_polynomial_regression(model, n)
        checks.append(
            DegreeChecks(
                degree=n,
                eigen_x_given_y=eigen_xy,
                eigen_y_given_x=eigen_yx,
                poly_x_given_y=poly_xy,
                poly_y_given_x=poly_yx,
            )
        )
    strict = abs(model.coeffs.rho[0]) > STRICTNESS_THRESHOLD
    gap_positive = corr.gap > 5e-3
    degenerate = corr.maxcorr_svd < 2e-3 and abs(corr.pearson) < 1e-6
    confirmed = strict and gap_positive and linear.residual <= 1e-8
    return CounterexampleReport(
        correlation=corr,
        bound_value=model.coeffs.bound_value,
        linear=linear,
        degree_checks=tuple(checks),
        strict_linear=strict,
        gap_positive=gap_positive,
        degenerate_comparison=degenerate,
        counterexample_confirmed=confirmed,
    )
