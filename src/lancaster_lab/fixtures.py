"""Built-in benchmark joints with known maximal correlations.

These are code-defined rather than loaded from files: their reference values
are part of the test contract and must not drift with user edits.

    disc        uniform on the open unit disc          R = 1/3
    pball:p     uniform on |x|^p + |y|^p < 1 (p > 0)   R = 1/(p+1)
    fourpoint   uniform on {(0, +-1), (+-1, 0)}        R = 1
    fgm:r       expansion model with uniform marginals
                and the single coefficient rho_1 = r   R = |r|
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .correlation import (
    DEFAULT_CURVED_GRID,
    DEFAULT_MODEL_GRID,
    DiscretizedJoint,
    discretize_joint,
    joint_from_pmf,
)
from .lancaster import LancasterModel, build_model, discretize_model, maxcorr_analytic
from .orthopoly import MarginalSpec

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


@dataclass(frozen=True, eq=False)
class Fixture:
    """A joint that a command reads, with its reference maximal correlation.

    ``discretize(grid)`` builds the joint at ``grid`` nodes per axis (a pmf
    fixture ignores it). ``model`` is the expansion model behind a
    ``model_fixture`` (every fgm fixture and ``--model`` config), else None.
    """

    reference_maxcorr: float
    discretize: Callable[[int | None], DiscretizedJoint]
    default_grid: int | None = None
    model: LancasterModel | None = None

    def joint(self, grid: int | None = None) -> DiscretizedJoint:
        """The joint at ``grid`` nodes per axis; None, and only None, means ``default_grid``."""
        return self.discretize(self.default_grid if grid is None else grid)


def model_fixture(model: LancasterModel) -> Fixture:
    """An expansion model as a Fixture: R = max_n |rho_n|, at DEFAULT_MODEL_GRID nodes by default."""
    discretize = functools.partial(discretize_model, model)
    return Fixture(maxcorr_analytic(model), discretize, DEFAULT_MODEL_GRID, model)


def _curved(reference_maxcorr: float, density: Callable) -> Fixture:
    """A density on the box [-1, 1]^2, at DEFAULT_CURVED_GRID nodes by default."""
    discretize = functools.partial(discretize_joint, density, ((-1.0, 1.0), (-1.0, 1.0)))
    return Fixture(reference_maxcorr, discretize, DEFAULT_CURVED_GRID)


def _pball_density(p: float) -> Callable:
    try:
        area = 4.0 * math.gamma(1.0 + 1.0 / p) ** 2 / math.gamma(1.0 + 2.0 / p)
    except OverflowError:
        area = math.inf
    if not math.isfinite(area):
        raise ValueError(
            f"pball exponent {p!r} is too small: the area 4 Gamma(1 + 1/p)^2 / Gamma(1 + 2/p)"
            " is not representable"
        )

    def density(x, y):
        inside = np.abs(x) ** p + np.abs(y) ** p < 1.0
        return np.where(inside, 1.0 / area, 0.0)

    return density


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
        return _curved(1.0 / (value + 1.0), _pball_density(value))
    if name == "disc":
        return _curved(1.0 / 3.0, lambda x, y: np.where(x * x + y * y < 1.0, 1.0 / math.pi, 0.0))
    if name == "fourpoint":
        return Fixture(1.0, lambda grid: joint_from_pmf(FOURPOINT_PMF, FOURPOINT_VALUES, FOURPOINT_VALUES))
    raise ValueError(f"unknown fixture {name!r}; expected disc, pball:p, fourpoint or fgm:rho1")
