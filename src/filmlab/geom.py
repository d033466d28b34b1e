"""Exact geometric predicates and constructions over rational coordinates.

Points are 3-tuples of Fraction.  A k-simplex is a tuple of k+1 points.
Everything here is deterministic and division-safe; degeneracy is detected
by exact rank/measure tests, never by epsilon thresholds.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence

from .exact import RadicalSum, det3, radical_zero

Point = tuple[Fraction, Fraction, Fraction]
Simplex = tuple[Point, ...]


def as_point(coords: Sequence) -> Point:
    x, y, z = coords
    return (Fraction(x), Fraction(y), Fraction(z))


def vsub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def vadd(a: Point, b: Point) -> Point:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def vscale(t: Fraction, a: Point) -> Point:
    return (t * a[0], t * a[1], t * a[2])


def vdot(a: Point, b: Point) -> Fraction:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def vcross(a: Point, b: Point) -> Point:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def vnorm_sq(a: Point) -> Fraction:
    return vdot(a, a)


def sup_norm(a: Point) -> Fraction:
    return max(abs(a[0]), abs(a[1]), abs(a[2]))


# -- canonical integer directions ------------------------------------------


def primitive_direction(v: Point) -> tuple[int, int, int]:
    """Scale a nonzero rational vector to a canonical coprime integer triple.

    The first nonzero entry is positive, making the key orientation-free for
    line and plane identification.
    """
    if v == (0, 0, 0):
        raise ValueError("zero vector has no direction")
    denom_lcm = 1
    for c in v:
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in v]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    ints = [c // g for c in ints]
    for c in ints:
        if c != 0:
            if c < 0:
                ints = [-x for x in ints]
            break
    return (ints[0], ints[1], ints[2])


def line_key(p: Point, q: Point):
    """Canonical key of the line through distinct points p, q.

    (primitive direction, foot of the origin's perpendicular) identifies the
    line independently of the presentation of the segment.
    """
    d = primitive_direction(vsub(q, p))
    dd = Fraction(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
    df = (Fraction(d[0]), Fraction(d[1]), Fraction(d[2]))
    t = vdot(p, df) / dd
    anchor = vsub(p, vscale(t, df))
    return d, anchor


def plane_key(a: Point, b: Point, c: Point):
    """Canonical key (primitive normal, offset) of the plane through a, b, c."""
    n = vcross(vsub(b, a), vsub(c, a))
    if n == (0, 0, 0):
        raise ValueError("collinear points do not span a plane")
    dn = primitive_direction(n)
    nf = (Fraction(dn[0]), Fraction(dn[1]), Fraction(dn[2]))
    return dn, vdot(nf, a)


# -- simplex measure --------------------------------------------------------


def simplex_measure_sq(simplex: Simplex) -> Fraction:
    """Squared k-volume times (k!)^2, i.e. the Gram determinant."""
    k = len(simplex) - 1
    if k == 0:
        return Fraction(1)
    edges = [vsub(v, simplex[0]) for v in simplex[1:]]
    if k == 1:
        return vnorm_sq(edges[0])
    if k == 2:
        g00 = vnorm_sq(edges[0])
        g11 = vnorm_sq(edges[1])
        g01 = vdot(edges[0], edges[1])
        return g00 * g11 - g01 * g01
    if k == 3:
        d = det3(edges)
        return d * d
    raise ValueError(f"unsupported simplex dimension {k}")


_FACTORIALS = (1, 1, 2, 6)


def simplex_measure(simplex: Simplex) -> RadicalSum:
    """Exact k-volume: sqrt(Gram)/k!.  Rational whenever the Gram is square."""
    k = len(simplex) - 1
    gram = simplex_measure_sq(simplex)
    if gram == 0:
        return radical_zero()
    return RadicalSum.sqrt(gram) / _FACTORIALS[k]


def is_degenerate(simplex: Simplex) -> bool:
    return simplex_measure_sq(simplex) == 0


# -- point-to-simplex squared distance --------------------------------------


def point_segment_dist_sq(p: Point, a: Point, b: Point) -> Fraction:
    ab = vsub(b, a)
    denom = vnorm_sq(ab)
    if denom == 0:
        return vnorm_sq(vsub(p, a))
    t = vdot(vsub(p, a), ab) / denom
    t = min(max(t, Fraction(0)), Fraction(1))
    closest = vadd(a, vscale(t, ab))
    return vnorm_sq(vsub(p, closest))


def point_triangle_dist_sq(p: Point, a: Point, b: Point, c: Point) -> Fraction:
    n = vcross(vsub(b, a), vsub(c, a))
    nn = vnorm_sq(n)
    if nn == 0:
        return min(
            point_segment_dist_sq(p, a, b),
            point_segment_dist_sq(p, b, c),
            point_segment_dist_sq(p, a, c),
        )
    # Orthogonal projection of p onto the triangle plane, in barycentric form.
    ap = vsub(p, a)
    h = vdot(ap, n)
    foot = vsub(p, vscale(h / nn, n))
    # barycentric coordinates of foot with respect to (a, b, c)
    v0 = vsub(b, a)
    v1 = vsub(c, a)
    v2 = vsub(foot, a)
    d00 = vnorm_sq(v0)
    d01 = vdot(v0, v1)
    d11 = vnorm_sq(v1)
    d20 = vdot(v2, v0)
    d21 = vdot(v2, v1)
    denom = d00 * d11 - d01 * d01
    beta = (d11 * d20 - d01 * d21) / denom
    gamma = (d00 * d21 - d01 * d20) / denom
    if beta >= 0 and gamma >= 0 and beta + gamma <= 1:
        return h * h / nn
    return min(
        point_segment_dist_sq(p, a, b),
        point_segment_dist_sq(p, b, c),
        point_segment_dist_sq(p, a, c),
    )


def point_simplex_dist_sq(p: Point, simplex: Simplex) -> Fraction:
    k = len(simplex) - 1
    if k == 0:
        return vnorm_sq(vsub(p, simplex[0]))
    if k == 1:
        return point_segment_dist_sq(p, simplex[0], simplex[1])
    if k == 2:
        return point_triangle_dist_sq(p, simplex[0], simplex[1], simplex[2])
    # distance to a tetrahedron: zero inside, else distance to the faces
    if _point_in_tetra(p, simplex):
        return Fraction(0)
    return min(
        point_triangle_dist_sq(p, *face)
        for face in (
            (simplex[0], simplex[1], simplex[2]),
            (simplex[0], simplex[1], simplex[3]),
            (simplex[0], simplex[2], simplex[3]),
            (simplex[1], simplex[2], simplex[3]),
        )
    )


def _point_in_tetra(p: Point, t: Simplex) -> bool:
    a, b, c, d = t
    edges = [vsub(b, a), vsub(c, a), vsub(d, a)]
    rhs = vsub(p, a)
    # barycentric solve by Cramer's rule, one edge vector per row: a
    # determinant is invariant under transposition
    d0 = det3(edges)
    if d0 == 0:
        return False
    coords = [det3([rhs if r == i else edges[r] for r in range(3)]) / d0 for i in range(3)]
    return all(c >= 0 for c in coords) and sum(coords) <= 1


# -- halfspace splitting ----------------------------------------------------


class Plane:
    """Oriented rational plane  {x : <n, x> = b}."""

    __slots__ = ("n", "b")

    def __init__(self, n: Point, b: Fraction):
        self.n = (Fraction(n[0]), Fraction(n[1]), Fraction(n[2]))
        self.b = Fraction(b)

    def eval(self, p: Point) -> Fraction:
        return vdot(self.n, p) - self.b

    @staticmethod
    def through(c: Point, u: Point, v: Point) -> "Plane":
        """Plane containing point c with directions u, v."""
        n = vcross(u, v)
        if n == (0, 0, 0):
            raise ValueError("degenerate plane directions")
        return Plane(n, vdot(n, c))

    def __repr__(self):
        return f"Plane(n={self.n}, b={self.b})"


def split_simplex(simplex: Simplex, plane: Plane):
    """Partition a simplex by a plane into (negative, on, positive) simplices.

    Splits recursively at plane-crossing edges, so output pieces are honest
    simplices with pairwise disjoint interiors whose union is the input.
    Pieces whose affine hull lies inside the plane go to the 'on' bucket.
    A degenerate simplex that the plane crosses yields no pieces.  That is
    decided once, on the input: a child swaps one end of a crossing edge
    for an interior point of it, which scales the measure by t or 1 - t
    with 0 < t < 1, so children are degenerate exactly when the input is.
    """
    neg: list[Simplex] = []
    on: list[Simplex] = []
    pos: list[Simplex] = []
    stack = [tuple(simplex)]
    root = True
    while stack:
        s = stack.pop()
        signs = [plane.eval(v) for v in s]
        crossing = None
        for i in range(len(s)):
            for j in range(i + 1, len(s)):
                if (signs[i] > 0 and signs[j] < 0) or (signs[i] < 0 and signs[j] > 0):
                    crossing = (i, j)
                    break
            if crossing:
                break
        if crossing is None:
            if all(v == 0 for v in signs):
                on.append(s)
            elif any(v > 0 for v in signs):
                pos.append(s)
            else:
                neg.append(s)
            continue
        if root:
            if is_degenerate(s):
                break
            root = False
        i, j = crossing
        t = signs[i] / (signs[i] - signs[j])
        m = vadd(s[i], vscale(t, vsub(s[j], s[i])))
        stack.append(tuple(m if idx == j else v for idx, v in enumerate(s)))
        stack.append(tuple(m if idx == i else v for idx, v in enumerate(s)))
    return neg, on, pos


def split_chain_pieces(pieces: Iterable[Simplex], plane: Plane):
    neg: list[Simplex] = []
    on: list[Simplex] = []
    pos: list[Simplex] = []
    for s in pieces:
        a, b, c = split_simplex(s, plane)
        neg.extend(a)
        on.extend(b)
        pos.extend(c)
    return neg, on, pos


def split_by_planes(pieces: Iterable[Simplex], planes: Iterable[Plane]) -> list[Simplex]:
    """Cut pieces by each plane in turn, regrouped as negative, on, positive.

    Every output piece lies on one side of (or in) each plane, and the
    pieces partition the input.
    """
    pieces = list(pieces)
    for plane in planes:
        neg, on, pos = split_chain_pieces(pieces, plane)
        pieces = neg + on + pos
    return pieces


def centroid(simplex: Simplex) -> Point:
    n = len(simplex)
    return (
        sum(v[0] for v in simplex) / n,
        sum(v[1] for v in simplex) / n,
        sum(v[2] for v in simplex) / n,
    )


# -- planar (2D) helpers ----------------------------------------------------

Point2 = tuple[Fraction, Fraction]


def closed_cycle(edges: Iterable[tuple]) -> tuple[list, Optional[str]]:
    """Order an edge set into one closed vertex cycle.

    Returns (cycle, None) when every vertex meets exactly two edges and
    the edges are connected: the cycle starts at the least vertex and
    follows that vertex's first edge.  Otherwise returns ([], "degree")
    when some vertex does not meet exactly two edges, or
    ([], "connectivity") when the edges form more than one cycle.  The
    empty edge set gives the empty cycle.  Vertices may be any hashable,
    mutually ordered values (plane points, lattice indices).
    """
    adjacency: dict = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    if any(len(nbrs) != 2 for nbrs in adjacency.values()):
        return [], "degree"
    if not adjacency:
        return [], None
    start = min(adjacency)
    cycle = [start]
    prev, cur = start, adjacency[start][0]
    while cur != start:
        cycle.append(cur)
        a, b = adjacency[cur]
        prev, cur = cur, (b if a == prev else a)
    if len(cycle) != len(adjacency):
        return [], "connectivity"
    return cycle, None


def shoelace_twice(polygon: Sequence[Point2]) -> Fraction:
    """Twice the signed area of a closed polygon given by its vertex cycle."""
    total = Fraction(0)
    n = len(polygon)
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total


def segments_properly_intersect(p1: Point2, p2: Point2, q1: Point2, q2: Point2) -> bool:
    """True iff the open segments share a point not explainable by a shared endpoint."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True

    def on_segment(a, b, c):
        # c collinear with ab and strictly inside
        if orient(a, b, c) != 0:
            return False
        return (
            min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
            and c != a
            and c != b
        )

    return (
        on_segment(q1, q2, p1)
        or on_segment(q1, q2, p2)
        or on_segment(p1, p2, q1)
        or on_segment(p1, p2, q2)
    )


def polygon_is_simple(vertices: Sequence[Point2]) -> bool:
    """Exact simplicity test for a closed polygon (distinct vertices, and
    no two edges meeting outside the endpoint adjacent edges share).

    Edges whose bounding boxes are disjoint can neither cross nor touch,
    so only pairs with meeting boxes reach the orientation tests.
    """
    n = len(vertices)
    if n < 3 or len(set(vertices)) != n:
        return False
    edges = [(vertices[i], vertices[(i + 1) % n]) for i in range(n)]
    boxes = [
        (min(a[0], b[0]), max(a[0], b[0]), min(a[1], b[1]), max(a[1], b[1])) for a, b in edges
    ]
    for i in range(n):
        x_lo, x_hi, y_lo, y_hi = boxes[i]
        p1, p2 = edges[i]
        for j in range(i + 1, n):
            u_lo, u_hi, v_lo, v_hi = boxes[j]
            if u_lo > x_hi or x_lo > u_hi or v_lo > y_hi or y_lo > v_hi:
                continue
            # distinct vertices: adjacent edges share exactly one endpoint,
            # others none, so any further contact is a crossing or overlap
            if segments_properly_intersect(p1, p2, *edges[j]):
                return False
    return True


def point_in_polygon_parity(point: Point2, vertices: Sequence[Point2]) -> bool:
    """Even-odd crossing parity of a point against a closed polygon.

    The caller must ensure the point avoids the polygon's edges; generic
    sample points (half-lattice offsets against lattice polygons) satisfy
    this by construction.
    """
    x, y = point
    inside = False
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        if (y1 > y) != (y2 > y):
            t = (y - y1) / (y2 - y1)
            xi = x1 + t * (x2 - x1)
            if xi > x:
                inside = not inside
    return inside
