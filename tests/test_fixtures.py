"""The p-ball fixtures as exact cell masses: the law, its lower bound on R and H."""

import math
import tracemalloc

import numpy as np
import pytest

from lancaster_lab.correlation import maxcorr_svd
from lancaster_lab.fixtures import _boundary_integral, resolve_fixture

EXPONENTS = (0.5, 1.0, 1.5, 2.0, 3.0, 8.0)
CELL_COUNTS = (16, 17, 50, 100, 200, 401)

# reference - R <= C h^2 with h = 2/m, for every m in CELL_COUNTS. Measured
# (reference - R) / h^2 rises with m toward 4/9 on the disc (0.4442 at m = 401)
# and toward 3/4 on pball:1 (0.7499 at m = 400), from below.
ERROR_CONSTANTS = {"disc": 0.445, "pball:1": 0.75}


def _joint(p, m):
    return resolve_fixture(f"pball:{p}").joint(m)


@pytest.mark.parametrize("m", (16, 17, 200))
@pytest.mark.parametrize("p", EXPONENTS)
def test_masses_are_a_symmetric_law(p, m):
    masses = _joint(p, m).masses
    assert np.all(masses >= 0.0)
    assert abs(math.fsum(masses.ravel()) - 1.0) <= 1e-14
    for mirrored in (masses[::-1], masses[:, ::-1], masses.T):
        assert np.max(np.abs(mirrored - masses)) <= 1e-15


@pytest.mark.parametrize("m", (16, 17, 64))
def test_diamond_masses_are_the_polygon_areas(m):
    # the area of [0, u] x [0, v] below x + y = 1, in closed form, for u, v in [0, 1]
    edges = np.abs(2.0 * np.arange(m + 1) - m) / m
    u, v = edges[:, None], edges[None, :]
    quarter = u * v - np.maximum(u + v - 1.0, 0.0) ** 2 / 2.0
    # signed quadrants: the corner (u, v) with the signs of the edges
    signs = np.sign(2.0 * np.arange(m + 1) - m)
    corners = quarter * signs[:, None] * signs[None, :]
    cells = np.diff(np.diff(corners, axis=0), axis=1) / 2.0
    np.testing.assert_allclose(_joint(1, m).masses, cells, rtol=0.0, atol=1e-16)


@pytest.mark.parametrize("m", CELL_COUNTS)
@pytest.mark.parametrize("p", EXPONENTS)
def test_R_never_exceeds_the_reference(p, m):
    assert maxcorr_svd(_joint(p, m)) <= 1.0 / (p + 1.0) + 1e-12


@pytest.mark.parametrize("m", (16, 17, 50, 100))
@pytest.mark.parametrize("p", EXPONENTS)
def test_R_does_not_decrease_under_halving(p, m):
    # the edges of m cells are edges of 2m cells, so the finer law refines the coarser
    assert maxcorr_svd(_joint(p, 2 * m)) >= maxcorr_svd(_joint(p, m))


@pytest.mark.parametrize("m", CELL_COUNTS)
@pytest.mark.parametrize("name", sorted(ERROR_CONSTANTS))
def test_error_is_second_order_in_the_cell_width(name, m):
    fixture = resolve_fixture(name)
    error = fixture.reference_maxcorr - maxcorr_svd(fixture.joint(m))
    assert 0.0 <= error <= ERROR_CONSTANTS[name] * (2.0 / m) ** 2


def test_default_grid_is_within_1e_4_of_the_reference_from_below():
    for name in ("disc", "pball:1", "pball:2", "pball:1.5"):
        fixture = resolve_fixture(name)
        error = fixture.reference_maxcorr - maxcorr_svd(fixture.joint())
        assert 0.0 <= error <= 1e-4, name


@pytest.mark.parametrize(
    "p, closed_form",
    [
        (1.0, lambda x: x - x * x / 2.0),
        (2.0, lambda x: (x * np.sqrt(1.0 - x * x) + np.arcsin(x)) / 2.0),
        (0.5, lambda x: x - 4.0 / 3.0 * x**1.5 + x * x / 2.0),
    ],
    ids=["p=1", "p=2", "p=0.5"],
)
def test_H_matches_its_closed_form(p, closed_form):
    x = np.linspace(0.0, 0.5 ** (1.0 / p), 1001)
    assert np.max(np.abs(_boundary_integral(x, p) - closed_form(x))) <= 1e-14


@pytest.mark.parametrize("p", (0.3, 1.5, 3.0, 8.0, 200.0))
def test_H_at_the_diagonal_point_is_half_the_quarter_area_and_square(p):
    # h(d) = d, so H(d) = Q - H(d) + d^2 with Q the quarter area
    quarter_area = math.gamma(1.0 + 1.0 / p) ** 2 / math.gamma(1.0 + 2.0 / p)
    diagonal = 0.5 ** (1.0 / p)
    value = _boundary_integral(np.array([diagonal]), p)[0]
    assert value == pytest.approx((quarter_area + diagonal**2) / 2.0, rel=1e-14)


def test_disc_is_pball_2():
    assert resolve_fixture("disc").joint(33).masses.tobytes() == _joint(2, 33).masses.tobytes()


def test_nodes_are_the_cell_centres():
    joint = _joint(2, 17)
    centres = np.linspace(-1.0, 1.0, 18)[:-1] + 1.0 / 17.0
    np.testing.assert_allclose(joint.x_nodes, centres, rtol=0.0, atol=1e-15)
    assert joint.x_nodes.tobytes() == joint.y_nodes.tobytes()
    assert np.array_equal(joint.x_nodes, -joint.x_nodes[::-1])


def test_tiny_exponent_is_a_config_error():
    with pytest.raises(ValueError, match=r"^pball exponent 0\.01 is too small: the area"):
        resolve_fixture("pball:0.01")


def test_a_row_of_cells_without_mass_in_floating_point_is_rejected():
    fixture = resolve_fixture("pball:0.05")
    with pytest.raises(ValueError, match="^every row and column of masses must carry positive mass"):
        fixture.joint()


def test_the_largest_grid_holds_at_most_two_grids_of_floats():
    fixture = resolve_fixture("disc")
    tracemalloc.start()
    try:
        fixture.joint(2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * 2048**2
