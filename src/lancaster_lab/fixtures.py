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
from .lancaster import LancasterModel, build_model, discretize_model
from .orthopoly import MarginalSpec

__all__ = ["Fixture", "resolve_fixture", "BENCH_FIXTURES"]

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
    """One named benchmark: its joint at a grid size, and its reference value.

    ``joint(grid)`` discretizes at ``grid`` nodes per axis, or at the
    fixture's default when ``grid`` is None; a pmf fixture ignores it.
    ``model`` is the expansion model behind an fgm fixture, None otherwise.
    """

    name: str
    reference_maxcorr: float
    joint: Callable[..., DiscretizedJoint]
    model: LancasterModel | None = None


def _gridded(discretize: Callable[[int], DiscretizedJoint], default_grid: int) -> Callable:
    def joint(grid: int | None = None) -> DiscretizedJoint:
        return discretize(default_grid if grid is None else grid)

    return joint


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


def _curved(density: Callable) -> Callable:
    """joint(grid) of a density on the box [-1, 1]^2."""
    box = ((-1.0, 1.0), (-1.0, 1.0))
    return _gridded(lambda nodes: discretize_joint(density, box, nodes), DEFAULT_CURVED_GRID)


def resolve_fixture(name: str) -> Fixture:
    """Look up a built-in fixture by name; parameterized names use 'name:value'."""
    if name == "disc":
        return Fixture(
            name=name,
            reference_maxcorr=1.0 / 3.0,
            joint=_curved(lambda x, y: np.where(x * x + y * y < 1.0, 1.0 / math.pi, 0.0)),
        )
    if name == "fourpoint":
        return Fixture(
            name=name,
            reference_maxcorr=1.0,
            joint=lambda grid=None: joint_from_pmf(FOURPOINT_PMF, FOURPOINT_VALUES, FOURPOINT_VALUES),
        )
    if name.startswith("pball:"):
        try:
            p = float(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"cannot parse exponent in fixture name {name!r}") from None
        if not (p > 0.0 and math.isfinite(p)):
            raise ValueError("pball exponent must be a positive finite number")
        return Fixture(name=name, reference_maxcorr=1.0 / (p + 1.0), joint=_curved(_pball_density(p)))
    if name.startswith("fgm:"):
        try:
            rho1 = float(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"cannot parse coefficient in fixture name {name!r}") from None
        uniform = MarginalSpec("uniform", (0.0, 1.0))
        model = build_model(uniform, uniform, (rho1,))
        return Fixture(
            name=name,
            reference_maxcorr=abs(rho1),
            joint=_gridded(lambda nodes: discretize_model(model, nodes), DEFAULT_MODEL_GRID),
            model=model,
        )
    raise ValueError(f"unknown fixture {name!r}; expected disc, pball:p, fourpoint or fgm:rho1")
