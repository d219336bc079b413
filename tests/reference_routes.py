"""Reference routes that the test suites compute on their own, outside the library."""

import numpy as np

from lancaster_lab.correlation import _ace_start, _standardize
from lancaster_lab.quadrature import gauss_legendre_rule


def conditional_density_x_given_y(model, x, y):
    """f(x, y) / f2(y), the density of X given Y = y; f2(y) must be positive."""
    return model.density(x, y) / model.marginal_y.density(y)


def marginal_residual(model, density=None):
    """Sup over 128 points per axis of |the joint integrated over the other axis - the marginal|.

    ``density`` replaces the model's own, so that a deliberately corrupted
    density can serve as a negative control.
    """
    f = model.density if density is None else density
    grid_x = np.linspace(*model.marginal_x.support, 128)
    grid_y = np.linspace(*model.marginal_y.support, 128)
    along_y = f(grid_x[:, None], model.rule_y.nodes[None, :]) @ model.rule_y.weights
    along_x = model.rule_x.weights @ f(model.rule_x.nodes[:, None], grid_y[None, :])
    res_x = np.max(np.abs(along_y - model.marginal_x.density(grid_x)))
    res_y = np.max(np.abs(along_x - model.marginal_y.density(grid_y)))
    return float(res_x), float(res_y)


def recurrence_allocating(system, x, upto):
    """phi_0 .. phi_upto at x by the three-term recurrence, with a new array at every step.

    ``((x - a_k) phi_k - b_k phi_{k-1}) / b_{k+1}`` from phi_{-1} = 0 and phi_0 = 1,
    each step a chain of whole-array expressions; stacked along the first axis.
    """
    arr = np.asarray(x, dtype=float)
    a, b = system.recurrence_alpha, system.offdiagonals
    prev = np.zeros_like(arr)
    cur = np.ones_like(arr)
    rows = [cur]
    for k in range(upto):
        nxt = (arr - a[k]) * cur
        if k > 0:
            nxt = nxt - b[k - 1] * prev
        nxt = nxt / b[k]
        rows.append(nxt)
        prev, cur = cur, nxt
    return np.stack(rows)


def inverse_cdf_quadratic(table, u):
    """A ``lancaster._InverseCdfTable``'s inverse by the quadratic formula on every segment.

    The segment k comes from a search over every knot, clipped into range. In
    it, t = 2r / (f + sqrt(f^2 + 2 s r)) with r = u - cdf[k], f the density at
    x_k and s the slope; a zero denominator gives t = 0.
    """
    i = np.clip(np.searchsorted(table.cdf, u, side="right") - 1, 0, table.x.size - 2)
    r = u - table.cdf[i]
    f = table.pdf[i]
    root = f + np.sqrt(np.maximum(f * f + 2.0 * table.slope[i] * r, 0.0))
    t = 2.0 * r / np.where(root > 0.0, root, np.inf)
    return np.minimum(table.x[i] + t, table.x[i + 1])


def series_factor_pointwise(model, x, y):
    """1 + sum_n rho_n phi_n(x) psi_n(y), added point by point in the order n = 1 .. N.

    phi_n and psi_n come from ``recurrence_allocating``, not from the library.
    """
    n = len(model.coeffs)
    px = recurrence_allocating(model.system_x, x, n)
    py = recurrence_allocating(model.system_y, y, n)
    factor = 1.0
    for k, r in enumerate(model.coeffs.rho, start=1):
        factor = factor + r * px[k] * py[k]
    return factor


def density_pointwise(model, x, y):
    """``series_factor_pointwise`` times f1(x), then times f2(y), with values in (-1e-12, 0) set to 0."""
    value = series_factor_pointwise(model, x, y) * model.marginal_x.density(x) * model.marginal_y.density(y)
    return np.where((value < 0.0) & (value > -1e-12), 0.0, value)


def discretize_by_index_grid(density, support, nodes_per_axis):
    """Point masses as ``correlation.discretize_joint`` defines them, with dropped nodes cut by ``np.ix_``.

    Returns (x_nodes, y_nodes, masses).
    """
    (ax, bx), (ay, by) = support
    rule_x = gauss_legendre_rule(nodes_per_axis, ax, bx)
    rule_y = gauss_legendre_rule(nodes_per_axis, ay, by)
    values = density(rule_x.nodes[:, None], rule_y.nodes[None, :])
    masses = values * rule_x.weights[:, None] * rule_y.weights
    mass = np.sum(masses)
    keep_x = np.sum(masses, axis=1) >= 1e-12 * mass * rule_x.weights
    keep_y = np.sum(masses, axis=0) >= 1e-12 * mass * rule_y.weights
    masses = masses[np.ix_(keep_x, keep_y)]
    return rule_x.nodes[keep_x], rule_y.nodes[keep_y], masses / np.sum(masses)


def ace_three_products(joint, max_iters=2000, tol=1e-9):
    """ACE as ``correlation.maxcorr_ace`` defines it, with g1 P formed twice a sweep.

    Each sweep takes three products with P: P g2, g1 P for the new g2, and
    g1 P g2 for the estimate. The start and the standardization are the
    library's, so the two loops differ only in how often g1 P is formed.
    Returns (R, iterations), or None past max_iters.
    """
    masses, p, q = joint.masses, joint.marginal_x, joint.marginal_y
    g2 = _ace_start(joint.y_nodes, q)
    estimate = None
    for iteration in range(1, max_iters + 1):
        g1 = _standardize(masses @ g2 / p, p)
        g2 = None if g1 is None else _standardize(g1 @ masses / q, q)
        if g2 is None:
            return 0.0, iteration
        new_estimate = float(g1 @ masses @ g2)
        if estimate is not None and abs(new_estimate - estimate) <= tol:
            return new_estimate, iteration
        estimate = new_estimate
    return None
