import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filmlab.grid import (
    BoxRegion,
    GridCell,
    GridSpec,
    boundary_grid,
    box_cells,
    cell_from_label,
    cell_in_bounds,
    chain_of,
    empty_chain,
    lattice_box,
    mass_grid,
    restrict_grid,
)

from filmlab.dipolyhedra import chain_boundary

from conftest import make_grid, random_grid_chain


def test_cell_validation():
    with pytest.raises(ValueError):
        GridCell((0, 0, 0), (0, 0))  # repeated axis
    with pytest.raises(ValueError):
        GridCell((0, 0, 0), (2, 1))  # axes must ascend
    with pytest.raises(ValueError):
        GridCell((0, 0, 0), (3,))  # unknown axis
    assert GridCell((0, 0, 0), (0, 2)).axes_label() == "xz"
    assert cell_from_label((1, 2, 3), "yz") == GridCell((1, 2, 3), (1, 2))


def test_grid_validation():
    origin = (Fraction(0), Fraction(0), Fraction(0))
    with pytest.raises(ValueError):
        GridSpec(Fraction(1), origin, (-1, 1, 1))
    with pytest.raises(ValueError):
        GridSpec(Fraction(0), origin, (1, 1, 1))


def test_face_boundary_is_four_edges():
    grid = make_grid((2, 2, 1))
    face = GridCell((0, 0, 0), (0, 1))
    edges = boundary_grid(chain_of(grid, 2, [face]))
    assert len(edges) == 4
    assert edges.cells == frozenset(
        {
            GridCell((0, 0, 0), (0,)),
            GridCell((0, 1, 0), (0,)),
            GridCell((0, 0, 0), (1,)),
            GridCell((1, 0, 0), (1,)),
        }
    )


def test_boundary_squared_vanishes_on_generators():
    grid = make_grid((2, 2, 2))
    for k in (2, 3):
        for cell in grid.cells(k):
            bb = boundary_grid(boundary_grid(chain_of(grid, k, [cell])))
            assert bb.is_zero()
    # k = 1 bottoms out in the empty (-1)-chain via the generic wrapper
    for cell in grid.cells(1):
        bb = chain_boundary(chain_boundary(chain_of(grid, 1, [cell])))
        assert bb.is_zero() and bb.k == -1


def test_boundary_grid_refuses_zero_chains():
    grid = make_grid((1, 1, 1))
    points = chain_of(grid, 0, [GridCell((0, 0, 0), ())])
    with pytest.raises(ValueError):
        boundary_grid(points)
    assert chain_boundary(points).is_zero()


def test_boundary_additive_mod2():
    grid = make_grid((2, 2, 1))
    rng = random.Random(7)
    a = random_grid_chain(grid, 2, rng)
    b = random_grid_chain(grid, 2, rng)
    assert boundary_grid(a + b) == boundary_grid(a) + boundary_grid(b)


def test_mass_scales_with_spacing_power():
    grid = make_grid((2, 2, 2), eps=Fraction(1, 2))
    edge = chain_of(grid, 1, [GridCell((0, 0, 0), (0,))])
    face = chain_of(grid, 2, [GridCell((0, 0, 0), (0, 1))])
    cube = chain_of(grid, 3, [GridCell((0, 0, 0), (0, 1, 2))])
    assert mass_grid(edge) == Fraction(1, 2)
    assert mass_grid(face) == Fraction(1, 4)
    assert mass_grid(cube) == Fraction(1, 8)


def test_chain_addition_cancels():
    grid = make_grid((1, 1, 1))
    e = chain_of(grid, 1, [GridCell((0, 0, 0), (0,))])
    assert (e + e).is_zero()
    assert mass_grid(e + e) == 0


def test_chain_of_rejects_out_of_range():
    grid = make_grid((1, 1, 1))
    with pytest.raises(ValueError):
        chain_of(grid, 1, [GridCell((5, 0, 0), (0,))])
    with pytest.raises(ValueError):
        chain_of(grid, 2, [GridCell((0, 0, 0), (0,))])  # dim mismatch


def test_restrict_partitions_chain():
    grid = make_grid((3, 3, 1))
    rng = random.Random(3)
    chain = random_grid_chain(grid, 2, rng, density=0.5)
    box = BoxRegion((0, 0, 0), (2, 2, 1))
    inside, outside = restrict_grid(chain, box)
    assert inside + outside == chain
    assert all(box.contains_cell(c) for c in inside.cells)
    assert not any(box.contains_cell(c) for c in outside.cells)
    assert mass_grid(inside) + mass_grid(outside) == mass_grid(chain)


def test_world_coordinates():
    grid = make_grid((2, 2, 2), origin=(-1, -1, 0), eps=Fraction(1, 2))
    assert grid.world((1, 0, 2)) == (Fraction(-1, 2), Fraction(-1), Fraction(1))


def test_grid_cells_count():
    grid = make_grid((2, 2, 1))
    # vertices / edges / faces / cubes of a 2x2x1 box
    assert len(list(grid.cells(0))) == 3 * 3 * 2
    assert len(list(grid.cells(1))) == 2 * 3 * 2 + 3 * 2 * 2 + 3 * 3 * 1
    assert len(list(grid.cells(2))) == 2 * 2 * 2 + 2 * 3 + 3 * 2
    assert len(list(grid.cells(3))) == 4


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(0, 3), density=st.floats(0, 0.3))
def test_lattice_box_is_the_least_box_around_the_cells(seed, k, density):
    grid = make_grid((3, 2, 2))
    chain = random_grid_chain(grid, k, random.Random(seed), density=density)
    lo, hi = lattice_box(chain, empty_chain(grid, k))
    if chain.is_zero():
        assert (lo, hi) == ((0, 0, 0), (0, 0, 0))
        return
    corners = [v for cell in chain.cells for v in cell.corners()]
    assert lo == tuple(min(v[a] for v in corners) for a in range(3))
    assert hi == tuple(max(v[a] for v in corners) for a in range(3))
    # box_cells lists exactly the grid's cells in the box, in the grid's order
    for j in range(4):
        inside = [cell for cell in grid.cells(j) if cell_in_bounds(cell, lo, hi)]
        assert list(box_cells(lo, hi, j)) == inside
    assert chain.cells <= set(box_cells(lo, hi, k))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 3))
def test_boundary_squared_random(seed, k):
    grid = make_grid((2, 2, 2))
    chain = random_grid_chain(grid, k, random.Random(seed))
    assert chain_boundary(chain_boundary(chain)).is_zero()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_support_matches_cells(seed):
    grid = make_grid((2, 2, 1))
    chain = random_grid_chain(grid, 1, random.Random(seed))
    assert frozenset(chain.sorted_cells()) == chain.cells
    assert chain.sorted_cells() == sorted(chain.cells, key=lambda c: (c.base, c.axes))
