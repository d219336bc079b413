"""Built-in benchmark joints with known maximal correlations.

These are code-defined rather than loaded from files: their reference values
are part of the test contract and must not drift with user edits.

    disc        uniform on the open unit disc          R = 1/3
    pball:p     uniform on |x|^p + |y|^p < 1 (p > 0)   R = 1/(p+1)
    fourpoint   uniform on {(0, +-1), (+-1, 0)}        R = 1
    fgm:r       expansion model with uniform marginals
                and the single coefficient rho_1 = r   R = |r|

The disc is pball:2. A p-ball is discretized as exact cell masses: on m x m
equal cells over [-1, 1]^2, each cell carries its exact share of the ball's
area, at the cell's centre. The maximal correlation of (cell(X), cell(Y))
never exceeds R (Renyi, Acta Math. Hung. 10, 1959) and approaches it as
O(1/m^2) from below.

A cell's share comes by inclusion-exclusion from the area A(u, v) of the ball
in the rectangle [0, u] x [0, v], which is u v when the corner (u, v) lies
inside and otherwise

    A(u, v) = v h(v) + H(u) - H(h(v)),   h(t) = (1 - t^p)^(1/p),

with H(x) the integral of h over [0, x]. h is its own inverse, so past the
diagonal point d = 2^(-1/p) H is read as H(x) = Q - H(h(x)) + x h(x), where Q
is the quarter area, and quadrature only meets h on [0, d], where it is
smooth but at 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .correlation import DEFAULT_CURVED_GRID, DEFAULT_MODEL_GRID, MIN_GRID, DiscretizedJoint, joint_from_pmf
from .lancaster import LancasterModel, build_model, discretize_model, maxcorr_analytic
from .orthopoly import MarginalSpec
from .quadrature import _MAX_AXIS_NODES, _count, gauss_legendre_rule

__all__ = ["Fixture", "model_fixture", "resolve_fixture", "BENCH_FIXTURES"]

BENCH_FIXTURES = ("disc", "pball:1", "pball:2", "fourpoint", "fgm:0.2")

FOURPOINT_VALUES = (-1.0, 0.0, 1.0)
FOURPOINT_PMF = np.array(
    [
        [0.0, 0.25, 0.0],
        [0.25, 0.0, 0.25],
        [0.0, 0.25, 0.0],
    ]
)

# Gauss-Legendre nodes per panel of the quadrature for H, and the panels graded
# toward each point where h is singular, 0 and 1, each half as wide as the
# next: no panel is wider than its distance from 0 or 1, and 10 nodes give H
# to a few units in 1e-16.
_PANEL_NODES = 10
_GRADED_PANELS = 64


@dataclass(frozen=True, eq=False)
class Fixture:
    """A joint that a command reads, with its reference maximal correlation.

    ``discretize(grid)`` builds the joint at ``grid`` nodes per axis, which
    for a p-ball are its cells (a pmf fixture ignores it). ``model`` is the
    expansion model behind a ``model_fixture`` (every fgm fixture and
    ``--model`` config), else None.
    """

    reference_maxcorr: float
    discretize: Callable[[int | None], DiscretizedJoint]
    default_grid: int | None = None
    model: LancasterModel | None = None

    def joint(self, grid: int | None = None) -> DiscretizedJoint:
        """The joint at ``grid`` nodes (cells) per axis; None, and only None, means ``default_grid``."""
        return self.discretize(self.default_grid if grid is None else grid)


def model_fixture(model: LancasterModel) -> Fixture:
    """An expansion model as a Fixture: R = max_n |rho_n|, at DEFAULT_MODEL_GRID nodes by default."""
    discretize = functools.partial(discretize_model, model)
    return Fixture(maxcorr_analytic(model), discretize, DEFAULT_MODEL_GRID, model)


def _pball(p: float) -> Fixture:
    """Uniform on |x|^p + |y|^p < 1 as exact cell masses, at DEFAULT_CURVED_GRID cells by default."""
    try:
        area = 4.0 * math.gamma(1.0 + 1.0 / p) ** 2 / math.gamma(1.0 + 2.0 / p)
    except OverflowError:
        area = math.inf
    if not math.isfinite(area):
        raise ValueError(
            f"pball exponent {p!r} is too small: the area 4 Gamma(1 + 1/p)^2 / Gamma(1 + 2/p)"
            " is not representable"
        )
    return Fixture(1.0 / (p + 1.0), functools.partial(_pball_cells, p, area / 4.0), DEFAULT_CURVED_GRID)


def _boundary(t: np.ndarray, p: float) -> np.ndarray:
    """h(t) = (1 - t^p)^(1/p), the ball's boundary over [0, 1] and its own inverse."""
    return (1.0 - t**p) ** (1.0 / p)


def _boundary_integral(x: np.ndarray, p: float) -> np.ndarray:
    """H(x), the integral of h over [0, x], for points 0 <= x <= 2^(-1/p).

    One composite Gauss-Legendre sum over the panels between the sorted
    points and the graded breakpoints; H at each point is a cumulative sum.
    """
    diagonal = 0.5 ** (1.0 / p)
    halvings = 0.5 ** np.arange(1, _GRADED_PANELS + 1)
    toward_one = 1.0 - (1.0 - diagonal) / halvings
    toward_one = toward_one[(0.0 < toward_one) & (toward_one < diagonal)]
    breaks = np.unique(np.concatenate(((0.0, diagonal), diagonal * halvings, toward_one, x)))
    rule = gauss_legendre_rule(_PANEL_NODES, 0.0, 1.0)
    width = np.diff(breaks)
    panels = _boundary(breaks[:-1, None] + width[:, None] * rule.nodes, p) @ rule.weights * width
    return np.concatenate(([0.0], np.cumsum(panels)))[np.searchsorted(breaks, x)]


def _pball_cells(p: float, quarter_area: float, cells_per_axis: int) -> DiscretizedJoint:
    """The p-ball on m x m equal cells over [-1, 1]^2, each with its exact share of the area.

    The masses of the cells in [0, 1]^2 are the second differences of A on
    the edges there; the other three quadrants mirror them.
    """
    m = _count(cells_per_axis, "nodes_per_axis", MIN_GRID, _MAX_AXIS_NODES)
    # the edges in [0, 1]; an odd m's middle cell straddles 0 and counts twice its half
    u = np.concatenate(([0.0], np.arange(2 - m % 2, m + 1, 2) / m))
    hu = _boundary(u, p)
    below = u <= hu  # u is at most the diagonal point
    h_low = _boundary_integral(np.where(below, u, hu), p)
    h_u = np.where(below, h_low, quarter_area - h_low + u * hu)
    # A(u, v) = H(u) + (v h(v) - H(h(v))) where the corner (u, v) is outside
    corners = np.add.outer(h_u, np.where(below, h_low - quarter_area, u * hu - h_low))
    inside = u[:, None] < hu
    np.multiply.outer(u, u, out=corners, where=inside)
    quarter = np.diff(np.diff(corners, axis=0), axis=1)
    # a cell whose inner corner is outside is empty; rounding can leave a sliver below 0
    quarter *= inside[:-1, :-1]
    np.maximum(quarter, 0.0, out=quarter)
    fold = np.abs(2 * np.arange(m) + 1 - m) // 2
    masses = quarter[np.ix_(fold, fold)]
    if m % 2:
        masses[m // 2] *= 2.0
        masses[:, m // 2] *= 2.0
    masses /= np.sum(masses)
    centres = (2 * np.arange(m) + 1 - m) / m
    return DiscretizedJoint(centres, centres, masses)


def resolve_fixture(name: str) -> Fixture:
    """Look up a built-in fixture by name; parameterized names use 'name:value'."""
    kind, colon, text = name.partition(":")
    # the parameterized fixtures, and what a parse error calls their value
    parameter = {"pball": "exponent", "fgm": "coefficient"}.get(kind) if colon else None
    if parameter is not None:
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"cannot parse {parameter} in fixture name {name!r}") from None
        if kind == "fgm":
            uniform = MarginalSpec("uniform", (0.0, 1.0))
            return model_fixture(build_model(uniform, uniform, (value,)))
        if not (value > 0.0 and math.isfinite(value)):
            raise ValueError("pball exponent must be a positive finite number")
        return _pball(value)
    if name == "disc":
        return _pball(2.0)
    if name == "fourpoint":
        return Fixture(1.0, lambda grid: joint_from_pmf(FOURPOINT_PMF, FOURPOINT_VALUES, FOURPOINT_VALUES))
    raise ValueError(f"unknown fixture {name!r}; expected disc, pball:p, fourpoint or fgm:rho1")
