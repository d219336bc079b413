"""Gauss-Legendre quadrature on bounded intervals and rectangles.

Every moment, inner product and conditional expectation in this package
reduces to a weighted sum over a fixed node set, so rules are built once
and reused. Rules are immutable and integration is a pure function, which
makes concurrent use safe without coordination.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from collections.abc import Iterable
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadratureRule",
    "gauss_legendre_rule",
    "composite_gauss_legendre",
    "integrate",
    "integrate_2d",
]

# Nodes per axis of any tensor grid (a model's rules, a discretization), at
# most: one n x n float array is 8 n^2 bytes, 32 MiB at 2048.
_MAX_AXIS_NODES = 2048

_NEWTON_TOL = 1e-15
_NEWTON_MAX_STEPS = 100
_REFERENCE_CACHE_SIZE = 64


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Ordered nodes and positive weights for integration over ``interval``."""

    nodes: np.ndarray
    weights: np.ndarray
    interval: tuple[float, float]

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        a, b = self.interval
        if not a < b:
            raise ValueError(f"interval must have a < b, got {self.interval!r}")
        if nodes.ndim != 1 or nodes.shape != weights.shape or nodes.size == 0:
            raise ValueError("nodes and weights must be 1-d arrays of equal nonzero length")
        if np.any(nodes < a) or np.any(nodes > b):
            raise ValueError("all nodes must lie inside the interval")
        if np.any(weights <= 0.0):
            raise ValueError("all weights must be positive")
        if np.any(np.diff(nodes) < 0.0):
            raise ValueError("nodes must be in ascending order")
        # the weights are summed as fractions of the width: the tolerance is
        # relative on any interval, and the sum cannot overflow
        if abs(float(np.sum(weights / (b - a))) - 1.0) > 1e-12:
            raise ValueError("weights must sum to the interval length")

    def __len__(self) -> int:
        return self.nodes.size


def _legendre_and_derivative(z: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Value and derivative of the degree-n Legendre polynomial on (-1, 1)."""
    p_cur = np.ones_like(z)
    p_prev = np.zeros_like(z)
    for j in range(1, n + 1):
        p_cur, p_prev = ((2 * j - 1) * z * p_cur - (j - 1) * p_prev) / j, p_cur
    deriv = n * (z * p_cur - p_prev) / (z * z - 1.0)
    return p_cur, deriv


@functools.lru_cache(maxsize=_REFERENCE_CACHE_SIZE)
def _reference_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Nodes are Legendre roots found by Newton iteration started from the
    Chebyshev angles, so construction is deterministic and dependency-free.
    """
    m = (n + 1) // 2
    z = np.cos(np.pi * (np.arange(m) + 0.75) / (n + 0.5))
    for _ in range(_NEWTON_MAX_STEPS):
        value, deriv = _legendre_and_derivative(z, n)
        step = value / deriv
        z = z - step
        if np.all(np.abs(step) <= _NEWTON_TOL):
            break
    if n % 2 == 1:
        z[-1] = 0.0  # the middle root is exactly zero; keeps the rule symmetric
    value, deriv = _legendre_and_derivative(z, n)
    w_half = 2.0 / ((1.0 - z * z) * deriv * deriv)

    ref_nodes = np.concatenate([-z, z[::-1][n % 2 :]])
    ref_weights = np.concatenate([w_half, w_half[::-1][n % 2 :]])
    ref_nodes.flags.writeable = False
    ref_weights.flags.writeable = False
    return ref_nodes, ref_weights


def _count(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an int when it is a Python or numpy integer in [low, high].

    ``high`` None leaves the count unbounded above. A bool, a float, a string
    or any other type, and an integer out of range, raise ValueError naming
    ``name``; nothing is rounded or truncated.
    """
    if type(value) is not int and not isinstance(value, np.integer):  # a bool's type is bool
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be at most {high}, got {value}")
    return int(value)


def _real(value, name: str) -> float:
    """``value`` as a float when it is a Python or numpy integer or float.

    A bool, a string or any other type, and an integer too large for a float,
    raise ValueError naming ``name``.
    """
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None


def _reals(values, name: str) -> tuple[float, ...]:
    """A sequence of real numbers as a tuple of floats, each read by ``_real``.

    A string, a non-iterable and a 0-d array raise ValueError naming ``name``.
    """
    zero_dim = isinstance(values, np.ndarray) and values.ndim == 0
    if isinstance(values, str) or not isinstance(values, Iterable) or zero_dim:
        raise ValueError(f"{name} must be a sequence of real numbers, got {values!r}")
    return tuple(_real(value, name) for value in values)


def gauss_legendre_rule(n: int, a: float, b: float) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [a, b]; exact through degree 2n - 1.

    The Newton solve for the roots and weights runs once per node count, on
    [-1, 1], and each call maps that reference rule affinely onto [a, b].
    The reference rules of the 64 most recently used node counts are kept.
    """
    n = _count(n, "invalid-order: node count n", 1)
    a, b = _real(a, "invalid-interval: a"), _real(b, "invalid-interval: b")
    if not (math.isfinite(a) and math.isfinite(b)) or a >= b:
        raise ValueError(f"invalid-interval: need finite a < b, got [{a!r}, {b!r}]")
    if not math.isfinite(b - a):
        raise ValueError(f"invalid-interval: the width b - a overflows, got [{a!r}, {b!r}]")

    ref_nodes, ref_weights = _reference_rule(n)
    mid = 0.5 * a + 0.5 * b  # a + b can overflow where the width does not
    half = 0.5 * (b - a)
    return QuadratureRule(mid + half * ref_nodes, half * ref_weights, (a, b))


def composite_gauss_legendre(breakpoints: Sequence[float], nodes_per_segment: int) -> QuadratureRule:
    """Gauss-Legendre rule applied per segment of a strictly increasing partition.

    Exact for integrands that are polynomial on each segment (degree up to
    2 * nodes_per_segment - 1), which is what piecewise-linear densities need.
    """
    nodes_per_segment = _count(nodes_per_segment, "invalid-order: nodes_per_segment", 1)
    pts = np.asarray(_reals(breakpoints, "invalid-interval: breakpoints"))
    if pts.size < 2 or not np.all(np.isfinite(pts)) or np.any(np.diff(pts) <= 0):
        raise ValueError("invalid-interval: breakpoints must be finite and strictly increasing")
    parts = [gauss_legendre_rule(nodes_per_segment, lo, hi) for lo, hi in zip(pts[:-1], pts[1:])]
    nodes = np.concatenate([p.nodes for p in parts])
    weights = np.concatenate([p.weights for p in parts])
    return QuadratureRule(nodes, weights, (float(pts[0]), float(pts[-1])))


def _values_on(f: Callable, *axes: np.ndarray) -> np.ndarray:
    """f on the ``ij`` tensor grid of one or two node axes, from one call.

    f receives the open grid: with two axes of n and m nodes, arrays of shapes
    (n, 1) and (1, m). Its result is broadcast to the grid, (n, m), so f may
    ignore an axis or return a scalar; a broadcast result is copied out, so its
    sums match those of a full one bit for bit. A result with more axes than
    the grid (stacked components) raises ValueError; a callable that rejects
    arrays raises its own error.
    """
    shape = tuple(axis.size for axis in axes)
    values = np.asarray(f(*np.meshgrid(*axes, indexing="ij", sparse=True)), dtype=float)
    if values.ndim > len(shape):
        raise ValueError(
            f"stacked-evaluation: the callable's values have shape {values.shape} on a grid of"
            f" shape {shape}; one value per grid point is expected"
        )
    return values if values.shape == shape else np.broadcast_to(values, shape).copy()


def integrate(f: Callable, rule: QuadratureRule) -> float:
    """Weighted sum of f over the rule's nodes.

    f is called once, on the array of nodes; a scalar result is a constant,
    and stacked components raise ValueError.
    """
    values = _values_on(f, rule.nodes)
    if not np.all(np.isfinite(values)):
        bad = rule.nodes[~np.isfinite(values)][0]
        raise ValueError(f"non-finite-evaluation: integrand is not finite at node {bad!r}")
    return float(np.dot(rule.weights, values))


def integrate_2d(f: Callable, rule_x: QuadratureRule, rule_y: QuadratureRule) -> float:
    """Tensor-product quadrature of f(x, y) over the rectangle of the two rules.

    f is called once, on the open grid of the two node axes (see ``_values_on``),
    and may ignore an axis; stacked components raise ValueError.
    """
    values = _values_on(f, rule_x.nodes, rule_y.nodes)
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite-evaluation: integrand is not finite on the grid")
    return float(rule_x.weights @ values @ rule_y.weights)
