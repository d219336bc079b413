"""Reference routes that the test suites compute on their own, outside the library."""

import numpy as np


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
