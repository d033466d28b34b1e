"""The shared closed-curve path against copies of the hand-written tests it replaced.

Spanning admissibility, projected areas and curve validation answer one
question (does this edge set bound a simple closed plane curve?) through
geom.closed_cycle and geom.polygon_is_simple.  The reference functions
below are copies of the per-caller code that answered it before: a
degree check, a DFS and a pairwise segment test for admissibility, and
polygon_is_simple without its bounding-box reject.  The references
project world points with ProjectionDir.project2, while the code
projects through the integer frame, so results are compared where they
do not depend on coordinates: admissible or not, why not, and region
areas.  Inputs are random grid curves seen along random directions and
random lattice vertex cycles, which are full of collinear overlaps,
touches and crossings.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filmlab.dipolyhedra import ProjectionDir, SpanningContext, default_directions
from filmlab.geom import (
    closed_cycle,
    polygon_is_simple,
    primitive_direction,
    segments_properly_intersect,
    shoelace_twice,
    vsub,
)
from filmlab.grid import GridCell, boundary_grid, chain_of
from filmlab.plateau import plateau_problem
from filmlab.simplicial import simplicial_chain

from conftest import make_grid, world_edges

F = Fraction


# ---------------------------------------------------------------------------
# reference copies of the replaced code


def _ref_segments_share_ground(a, b, shared):
    def orient(p, q, r):
        d = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        return (d > 0) - (d < 0)

    def within(p, q, r):
        return (
            min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
            and min(p[1], q[1]) <= r[1] <= max(p[1], q[1])
        )

    (a1, a2), (b1, b2) = a, b
    if shared == 1:
        common = ({a1, a2} & {b1, b2}).pop()
        ao = a2 if a1 == common else a1
        bo = b2 if b1 == common else b1
        if orient(common, ao, bo) != 0:
            return False
        dot = (ao[0] - common[0]) * (bo[0] - common[0]) + (ao[1] - common[1]) * (
            bo[1] - common[1]
        )
        return dot > 0
    o1, o2 = orient(a1, a2, b1), orient(a1, a2, b2)
    o3, o4 = orient(b1, b2, a1), orient(b1, b2, a2)
    if o1 != o2 and o3 != o4:
        return True
    for p, q, r in ((a1, a2, b1), (a1, a2, b2), (b1, b2, a1), (b1, b2, a2)):
        if orient(p, q, r) == 0 and within(p, q, r):
            return True
    return False


def ref_admissibility(gamma, proj):
    segs3 = world_edges(gamma)
    if not segs3:
        return False, "empty curve", []
    axis_dir = primitive_direction(proj.direction)
    for p, q in segs3:
        if primitive_direction(vsub(q, p)) == axis_dir:
            return False, "curve segment parallel to projection direction", []
    segs2 = [(proj.project2(p), proj.project2(q)) for p, q in segs3]
    degree = {}
    for a, b in segs2:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    if any(d != 2 for d in degree.values()):
        return False, "projected curve is not a single closed curve", segs2
    adjacency = {}
    for a, b in segs2:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    start = next(iter(adjacency))
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if len(seen) != len(adjacency):
        return False, "projected curve is not connected", segs2
    for i in range(len(segs2)):
        for j in range(i + 1, len(segs2)):
            shared = len(set(segs2[i]) & set(segs2[j]))
            if shared == 2:
                return False, "projected curve self-intersects", segs2
            if _ref_segments_share_ground(segs2[i], segs2[j], shared):
                return False, "projected curve self-intersects", segs2
    return True, "ok", segs2


def ref_cycle_area(segs2, scale):
    adjacency = {}
    for a, b in segs2:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    start = min(adjacency)
    cycle = [start]
    prev = None
    cur = start
    while True:
        nxt = [p for p in adjacency[cur] if p != prev]
        step = nxt[0] if nxt else prev
        if step == start:
            break
        cycle.append(step)
        prev, cur = cur, step
    return scale * (abs(shoelace_twice(cycle)) / 2)


def ref_polygon_is_simple(vertices):
    n = len(vertices)
    if n < 3:
        return False
    if len(set(vertices)) != n:
        return False
    edges = [(vertices[i], vertices[(i + 1) % n]) for i in range(n)]
    for a, b in edges:
        if a == b:
            return False
    for i in range(n):
        for j in range(i + 1, n):
            adjacent = j == i + 1 or (i == 0 and j == n - 1)
            p1, p2 = edges[i]
            q1, q2 = edges[j]
            if adjacent:
                shared = {p1, p2} & {q1, q2}
                if len(shared) != 1:
                    return False
                if segments_properly_intersect(p1, p2, q1, q2):
                    return False
            else:
                if segments_properly_intersect(p1, p2, q1, q2):
                    return False
                if {p1, p2} & {q1, q2}:
                    return False
    return True


# ---------------------------------------------------------------------------
# inputs

# lattice directions make projected grid edges collinear or meeting at
# vertices; the seeded rational ones are the spanning check's defaults
_LATTICE_DIRS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0), (1, 0, 1), (0, 1, 1),
                 (1, 1, 1), (1, 2, 0), (2, 1, 1), (1, -1, 2)]


def _directions(seed):
    lattice = [ProjectionDir.from_direction(d) for d in _LATTICE_DIRS]
    return lattice + default_directions(seed, extra=4)[3:]


def _grid_curve(rng, kind):
    """Boundary of a random face patch: in one plane, on a block surface, or anywhere
    (or, for "scatter", of faces scattered over the horizontal planes).

    The patch grows from one face by faces sharing an edge with it, so its
    boundary is often a single closed curve, bent in space unless planar.
    """
    origin = (rng.choice([0, -1, F(-3, 2)]),) * 3
    grid = make_grid((3, 3, 3), origin=origin, eps=rng.choice([1, F(1, 2)]))
    if kind == "scatter":
        faces = [cell for cell in grid.cells(2) if cell.axes == (0, 1) and rng.random() < 0.2]
        return boundary_grid(chain_of(grid, 2, faces))
    if kind == "plane":
        z = rng.randint(0, 3)
        pool = [GridCell((i, j, z), (0, 1)) for i in range(3) for j in range(3)]
    elif kind == "surface":
        pool = [
            cell
            for cell in grid.cells(2)
            if any(cell.base[a] in (0, 3) for a in range(3) if a not in cell.axes)
        ]
    else:
        pool = list(grid.cells(2))
    patch = {rng.choice(pool)}
    for _ in range(rng.randint(0, 6)):
        edges = {e for face in patch for e in face.facets()}
        grow = sorted(c for c in pool if c not in patch and edges & set(c.facets()))
        if grow:
            patch.add(rng.choice(grow))
    return boundary_grid(chain_of(grid, 2, patch))


def _vertex_cycle_curve(rng):
    """Simplicial 1-chain of a closed polygon through random lattice points."""
    m = rng.randint(3, 7)
    pts = [(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1)) for _ in range(m)]
    return simplicial_chain(1, [[pts[i], pts[(i + 1) % m]] for i in range(m)])


# ---------------------------------------------------------------------------
# differential tests


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), kind=st.sampled_from(["plane", "scatter", "surface", "any", "cycle"]))
def test_admissibility_matches_pairwise_rule(seed, kind):
    rng = random.Random(seed)
    gamma = _vertex_cycle_curve(rng) if kind == "cycle" else _grid_curve(rng, kind)
    for proj, ok, reason, area, _ in SpanningContext(gamma, _directions(seed)).directions:
        ref_ok, ref_reason, segs2 = ref_admissibility(gamma, proj)
        assert (ok, reason) == (ref_ok, ref_reason)
        assert area == (ref_cycle_area(segs2, proj.area_scale()) if ok else None)


_coords = st.sampled_from([F(0), F(1), F(2), F(3), F(1, 2), F(3, 2)])


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_coords, _coords), min_size=1, max_size=9))
def test_polygon_box_reject_matches_all_pairs(vertices):
    assert polygon_is_simple(vertices) == ref_polygon_is_simple(vertices)


@pytest.mark.parametrize(
    "vertices",
    [
        # a vertex on a non-adjacent edge: the boxes meet along one side only
        [(0, 0), (2, 0), (2, 2), (1, 0), (0, 2)],
        # non-adjacent edges overlapping along a shared line
        [(0, 0), (2, 0), (2, 1), (3, 1), (3, 0), (1, 0), (1, -1), (0, -1)],
        # adjacent edges folding back onto each other
        [(0, 0), (2, 0), (1, 0), (1, 1)],
    ],
)
def test_polygon_touching_boxes_are_compared(vertices):
    vertices = [(F(x), F(y)) for x, y in vertices]
    assert not polygon_is_simple(vertices)
    assert not ref_polygon_is_simple(vertices)


def test_closed_cycle_orders_and_classifies():
    square = [((0, 0), (1, 0)), ((1, 1), (1, 0)), ((0, 1), (1, 1)), ((0, 0), (0, 1))]
    assert closed_cycle(square) == ([(0, 0), (1, 0), (1, 1), (0, 1)], None)
    assert closed_cycle(square[:3]) == ([], "degree")
    far = [((a + 5, b), (c + 5, d)) for (a, b), (c, d) in square]
    assert closed_cycle(square + far) == ([], "connectivity")
    # a doubled edge is a closed walk of two vertices, which no polygon test accepts
    cycle, failure = closed_cycle([((0, 0), (1, 0)), ((1, 0), (0, 0))])
    assert failure is None and not polygon_is_simple(cycle)
    assert closed_cycle([]) == ([], None)


def test_curve_validation_messages():
    grid = make_grid((5, 5, 1))
    arc = chain_of(grid, 1, [GridCell((0, 0, 0), (0,))])
    with pytest.raises(ValueError, match=r"^the curve must be simple and closed \(every vertex of degree 2\)$"):
        plateau_problem(arc)
    ring = boundary_grid(chain_of(grid, 2, [GridCell((0, 0, 0), (0, 1)), GridCell((3, 3, 0), (0, 1))]))
    with pytest.raises(ValueError, match="^the curve must be connected$"):
        plateau_problem(ring)
    face = chain_of(grid, 2, [GridCell((0, 0, 0), (0, 1))])
    with pytest.raises(ValueError, match="^the curve must be a grid 1-chain$"):
        plateau_problem(face)
