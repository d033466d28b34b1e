"""Shared builders for grids, curves, and seeded random chains."""

import random
from fractions import Fraction

import pytest

from filmlab.geom import closed_cycle, polygon_is_simple, primitive_direction, shoelace_twice, vsub
from filmlab.grid import GridCell, GridChain, GridSpec, chain_of
from filmlab.simplicial import simplicial_chain


def make_grid(dims, origin=(0, 0, 0), eps=1):
    return GridSpec(
        origin=tuple(Fraction(o) for o in origin),
        epsilon=Fraction(eps),
        dims=tuple(dims),
    )


def square_curve(grid, z, lo, hi):
    """Boundary of the lattice square [lo,hi]^2 at height index z."""
    cells = []
    for i in range(lo, hi):
        cells += [
            GridCell((i, lo, z), (0,)),
            GridCell((i, hi, z), (0,)),
            GridCell((lo, i, z), (1,)),
            GridCell((hi, i, z), (1,)),
        ]
    return chain_of(grid, 1, cells)


def centred_grid(dims):
    origin = tuple(-Fraction(d, 2) for d in dims)
    return GridSpec(epsilon=Fraction(1), origin=origin, dims=tuple(dims))


def polygon_curve(points, dims):
    """Grid 1-chain of a closed polygon of unit axis steps on the centred
    dims^3 grid; lattice indices are the world points less the origin,
    truncated."""
    grid = centred_grid((dims,) * 3)
    cells = []
    for a, b in zip(points, points[1:] + points[:1]):
        (axis,) = [i for i in range(3) if a[i] != b[i]]
        lo = min(a, b, key=lambda p: p[axis])
        cells.append(GridCell(tuple(int(c - o) for c, o in zip(lo, grid.origin)), (axis,)))
    return chain_of(grid, 1, cells)


def refine_polygon(points, factor):
    """The polygon scaled by factor, with every side cut into unit steps."""
    return [
        tuple(factor * (x + (y - x) * Fraction(t, factor)) for x, y in zip(a, b))
        for a, b in zip(points, points[1:] + points[:1])
        for t in range(factor)
    ]


_H = Fraction(1, 2)
# skew hexagon on the edges of the unit cube, and two unit faces folded
# along a shared edge through the origin
HEX = [(_H, -_H, -_H), (_H, _H, -_H), (-_H, _H, -_H), (-_H, _H, _H), (-_H, -_H, _H), (_H, -_H, _H)]
FOLD = [(-_H, 0, 1), (-_H, 0, 0), (-_H, 1, 0), (_H, 1, 0), (_H, 0, 0), (_H, 0, 1)]


def unit_steps(corners):
    """The closed polygon through the corners, each side cut into unit steps."""
    points = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        (axis,) = [i for i in range(3) if a[i] != b[i]]
        step = 1 if b[axis] > a[axis] else -1
        points += [
            tuple(c + step * t if i == axis else c for i, c in enumerate(a))
            for t in range(abs(b[axis] - a[axis]))
        ]
    return points


# lifted staircase polygons with an admissible direction but no injective one
STAIR22 = [
    (-2, -2, -2), (-2, 1, -2), (-2, 1, 0), (-1, 1, 0), (-1, 1, -1), (0, 1, -1), (0, 1, 0),
    (0, -1, 0), (0, -1, -1), (1, -1, -1), (1, -1, 0), (1, -2, 0), (1, -2, -2), (-1, -2, -2),
    (-1, -2, -1), (-2, -2, -1),
]
STAIR44 = [
    (-3, -3, -1), (-3, -2, -1), (-3, -2, -3), (-3, -1, -3), (-3, -1, -1), (-3, 0, -1),
    (-3, 0, 0), (-3, 1, 0), (-3, 1, -3), (-2, 1, -3), (-2, 1, -1), (-2, 0, -1), (-2, 0, -2),
    (-2, -1, -2), (-2, -1, -1), (-1, -1, -1), (-1, -1, -3), (0, -1, -3), (0, -1, -1),
    (0, -2, -1), (1, -2, -1), (1, -2, -3), (2, -2, -3), (2, -2, -1), (2, -3, -1), (2, -3, -3),
    (0, -3, -3), (0, -3, -2), (-2, -3, -2), (-2, -3, 0), (-3, -3, 0),
]


def stair22():
    return polygon_curve(unit_steps(STAIR22), 10)


def stair44():
    return polygon_curve(unit_steps(STAIR44), 14)


def random_grid_chain(grid, k, rng, density=0.3):
    cells = [c for c in grid.cells(k) if rng.random() < density]
    return chain_of(grid, k, cells)


def rational(rng, span=2, den=4):
    return Fraction(rng.randint(-span * den, span * den), den)


def random_point(rng, span=2, den=4):
    return tuple(rational(rng, span, den) for _ in range(3))


def random_simplicial_chain(k, rng, count=3, span=2, den=4):
    """Nonempty by retry; degenerate simplices vanish on construction."""
    for _ in range(32):
        simplices = [
            [random_point(rng, span, den) for _ in range(k + 1)] for _ in range(count)
        ]
        chain = simplicial_chain(k, simplices)
        if chain.simplices:
            return chain
    raise AssertionError("could not build a nonempty random chain")


def world_edges(chain):
    """World end points of the edges of a grid or simplicial 1-chain."""
    if not isinstance(chain, GridChain):
        return [(s[0], s[1]) for s in chain.simplices]
    out = []
    for cell in chain.cells:
        (a,) = cell.axes
        q = list(cell.base)
        q[a] += 1
        out.append((chain.grid.world(cell.base), chain.grid.world(tuple(q))))
    return out


def world_shadow(curve, proj):
    """(ok, reason, projected segments, region area) of a curve along proj,
    all in the world coordinates of ProjectionDir.project2.

    Admissible means no edge parallel to the direction and a projection
    that is one simple closed polygon; the area is |u||v| times the
    shoelace area in (s, t).
    """
    segs3 = world_edges(curve)
    if not segs3:
        return False, "empty curve", [], None
    axis_dir = primitive_direction(proj.direction)
    if any(primitive_direction(vsub(q, p)) == axis_dir for p, q in segs3):
        return False, "curve segment parallel to projection direction", [], None
    segs2 = [(proj.project2(p), proj.project2(q)) for p, q in segs3]
    cycle, failure = closed_cycle(segs2)
    if failure == "degree":
        return False, "projected curve is not a single closed curve", segs2, None
    if failure == "connectivity":
        return False, "projected curve is not connected", segs2, None
    if not polygon_is_simple(cycle):
        return False, "projected curve self-intersects", segs2, None
    return True, "ok", segs2, proj.area_scale() * (abs(shoelace_twice(cycle)) / 2)


@pytest.fixture
def rng():
    return random.Random("filmlab-tests")
