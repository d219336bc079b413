"""Reference routes that the test suites compute on their own, outside the library."""

import numpy as np

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


def series_factor_pointwise(model, x, y):
    """1 + sum_n rho_n phi_n(x) psi_n(y), added point by point in the order n = 1 .. N."""
    n = len(model.coeffs)
    px = model.system_x.evaluate_all(np.asarray(x, dtype=float), upto=n)
    py = model.system_y.evaluate_all(np.asarray(y, dtype=float), upto=n)
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
