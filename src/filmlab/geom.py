"""Exact geometric predicates and constructions over rational coordinates.

Points are 3-tuples of Fraction.  A k-simplex is a tuple of k+1 points.
Everything here is deterministic and division-safe; degeneracy is detected
by exact rank/measure tests, never by epsilon thresholds.

The hot kernels (the plane split, the Gram measure and the point-to-simplex
distance) run on homogeneous integer points instead: (X, Y, Z, W) with
W > 0 and gcd(X, Y, Z, W) = 1 stands for (X/W, Y/W, Z/W).  The map from reduced Fraction triples is one
to one, so a kernel that converts at its boundary returns the very points
a Fraction computation would, without a Fraction in between.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .exact import RadicalSum, _split_square, det3

Point = tuple[Fraction, Fraction, Fraction]
Simplex = tuple[Point, ...]
HPoint = tuple[int, int, int, int]
HSimplex = tuple[HPoint, ...]


def as_point(coords: Sequence) -> Point:
    x, y, z = coords
    return (Fraction(x), Fraction(y), Fraction(z))


def vsub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


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


def _primitive(x: int, y: int, z: int) -> tuple[int, int, int]:
    """The nonzero integer vector divided by its gcd, first nonzero entry positive."""
    g = gcd(x, y, z)
    if x < 0 or (x == 0 and (y < 0 or (y == 0 and z < 0))):
        g = -g
    return x // g, y // g, z // g


def primitive_direction(v: Point) -> tuple[int, int, int]:
    """Scale a nonzero rational vector to a canonical coprime integer triple.

    The first nonzero entry is positive, making the key orientation-free for
    line and plane identification.
    """
    if v == (0, 0, 0):
        raise ValueError("zero vector has no direction")
    return _primitive(*homogeneous(v)[:3])


# -- homogeneous integer points ---------------------------------------------


def homogeneous(p: Point) -> HPoint:
    """Integer numerators of a rational point over its least common denominator.

    For reduced coordinates no prime divides the denominator and all three
    numerators, so the tuple is the point's unique homogeneous form.
    """
    x, y, z = p
    dx, dy, dz = x.denominator, y.denominator, z.denominator
    if dx == dy == dz == 1:
        return x.numerator, y.numerator, z.numerator, 1
    den = lcm(dx, dy, dz)
    return x.numerator * (den // dx), y.numerator * (den // dy), z.numerator * (den // dz), den


def _normal(c: HPoint, p: HPoint, q: HPoint) -> tuple[int, int, int]:
    """A positive multiple of (p - c) x (q - c), in integers."""
    cx, cy, cz, cw = c
    ux, uy, uz = p[0] * cw - cx * p[3], p[1] * cw - cy * p[3], p[2] * cw - cz * p[3]
    vx, vy, vz = q[0] * cw - cx * q[3], q[1] * cw - cy * q[3], q[2] * cw - cz * q[3]
    return uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx


def affine(h: HPoint) -> Point:
    x, y, z, w = h
    return (Fraction(x, w), Fraction(y, w), Fraction(z, w))


def reduced(x: int, y: int, z: int, w: int) -> HPoint:
    """The homogeneous form of (x, y, z)/w for any nonzero w."""
    if w < 0:
        x, y, z, w = -x, -y, -z, -w
    g = gcd(x, y, z, w)
    return x // g, y // g, z // g, w // g


# -- simplex measure --------------------------------------------------------


def _gram(simplex: HSimplex) -> tuple[int, int]:
    """(G, D): the Gram determinant of a homogeneous simplex is G / D^(2k).

    The edges are integer vectors over D, the least common denominator of
    the vertices; G is zero exactly when the simplex is degenerate.
    """
    k = len(simplex) - 1
    if k == 0:
        return 1, 1
    x0, y0, z0, w0 = simplex[0]
    d = w0
    for v in simplex[1:]:
        if v[3] != d:
            d = lcm(d, v[3])
    a0 = d // w0
    x0, y0, z0 = x0 * a0, y0 * a0, z0 * a0
    edges = []
    for x, y, z, w in simplex[1:]:
        a = d // w
        edges.append((x * a - x0, y * a - y0, z * a - z0))
    if k == 1:
        ex, ey, ez = edges[0]
        return ex * ex + ey * ey + ez * ez, d
    if k == 2:
        # |u x v|^2 = |u|^2 |v|^2 - (u . v)^2
        (ux, uy, uz), (vx, vy, vz) = edges
        cx, cy, cz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
        return cx * cx + cy * cy + cz * cz, d
    if k == 3:
        det = det3(edges)
        return det * det, d
    raise ValueError(f"unsupported simplex dimension {k}")


def simplex_measure_sq(simplex: Simplex) -> Fraction:
    """Squared k-volume times (k!)^2, i.e. the Gram determinant."""
    g, d = _gram(tuple(map(homogeneous, simplex)))
    return Fraction(g, d ** (2 * len(simplex) - 2))


_FACTORIALS = (1, 1, 2, 6)


def gram_mass(grams: Iterable[tuple[int, int]], k: int) -> RadicalSum:
    """Exact total k-volume of k-simplices given by their _gram pairs (G, D):
    the sum of sqrt(G) / (D^k k!), one RadicalSum.

    The roots are summed in integers per core and D, and then as one
    Fraction per D into each core's coefficient.
    """
    by_core: dict = {}
    for g, d in grams:
        if g:
            s, core = _split_square(g)
            dens = by_core.setdefault(core, {})
            dens[d] = dens.get(d, 0) + s
    f = _FACTORIALS[k]
    return RadicalSum(
        (core, sum(Fraction(n, d**k * f) for d, n in dens.items())) for core, dens in by_core.items()
    )


def homogeneous_mass(simplices: Iterable[HSimplex], k: int) -> RadicalSum:
    """Exact total k-volume of homogeneous k-simplices (gram_mass)."""
    return gram_mass(map(_gram, simplices), k)


def simplex_measure(simplex: Simplex) -> RadicalSum:
    """Exact k-volume: sqrt(Gram)/k!.  Rational whenever the Gram is square."""
    return homogeneous_mass([tuple(map(homogeneous, simplex))], len(simplex) - 1)


def is_degenerate(simplex: Simplex) -> bool:
    return _gram(tuple(map(homogeneous, simplex)))[0] == 0


# -- point-to-simplex squared distance --------------------------------------


def _segment_dist_sq(ap: tuple, ab: tuple) -> tuple[int, int]:
    """Squared distance from a + ap to the segment [a, a + ab] of integer
    vectors, as (num, den)."""
    t = vdot(ap, ab)
    if t <= 0:
        return vnorm_sq(ap), 1
    ee = vnorm_sq(ab)
    if t >= ee:
        return vnorm_sq(vsub(ap, ab)), 1
    return vnorm_sq(ap) * ee - t * t, ee


def homogeneous_dist_sq(p: HPoint, s: HSimplex) -> tuple[int, int]:
    """Exact squared distance from p to the point, segment or triangle s,
    as integers (num, den) with den > 0.

    p and the vertices are brought to one common denominator, and the
    triangle's closest feature is found by the region tests of Ericson,
    Real-Time Collision Detection (2004), 5.1.5, in integer dot and cross
    products.  A degenerate triangle is as near as the nearer of its two
    edges from the first vertex, which cover it.
    """
    if len(s) > 3:
        raise ValueError("distances are to points, segments and triangles only")
    d = lcm(p[3], *(v[3] for v in s))
    p, a, *rest = [(x * (d // w), y * (d // w), z * (d // w)) for x, y, z, w in (p, *s)]
    num, den = _region_dist_sq(vsub(p, a), [vsub(v, a) for v in rest])
    return num, den * d * d


def _region_dist_sq(ap: tuple, edges: list) -> tuple[int, int]:
    """Squared distance from a + ap to the simplex a + [0, edges], as
    (num, den): Ericson's closest-feature walk for a triangle."""
    if not edges:
        return vnorm_sq(ap), 1
    ab = edges[0]
    if len(edges) == 1:
        return _segment_dist_sq(ap, ab)
    ac = edges[1]
    n = vcross(ab, ac)
    if n == (0, 0, 0):
        # collinear vertices: the edges from a cover the others
        sides = [_segment_dist_sq(ap, ab), _segment_dist_sq(ap, ac)]
        return min(sides, key=lambda nd: Fraction(*nd))
    d1, d2 = vdot(ab, ap), vdot(ac, ap)
    if d1 <= 0 and d2 <= 0:
        return vnorm_sq(ap), 1
    bp = vsub(ap, ab)
    d3, d4 = vdot(ab, bp), vdot(ac, bp)
    if d3 >= 0 and d4 <= d3:
        return vnorm_sq(bp), 1
    if d1 * d4 - d3 * d2 <= 0 and d1 >= 0 and d3 <= 0:
        return _segment_dist_sq(ap, ab)
    cp = vsub(ap, ac)
    d5, d6 = vdot(ab, cp), vdot(ac, cp)
    if d6 >= 0 and d5 <= d6:
        return vnorm_sq(cp), 1
    if d5 * d2 - d1 * d6 <= 0 and d2 >= 0 and d6 <= 0:
        return _segment_dist_sq(ap, ac)
    if d3 * d6 - d5 * d4 <= 0 and d4 >= d3 and d5 >= d6:
        return _segment_dist_sq(bp, vsub(ac, ab))
    # the foot of the perpendicular lies inside the triangle
    h = vdot(n, ap)
    return h * h, vnorm_sq(n)


# -- halfspace splitting ----------------------------------------------------


class Plane:
    """Oriented rational plane  {x : <n, x> = b}.

    Stored as the primitive integer (n, b) of the same orientation, so the
    side of a homogeneous point (X, W) is the sign of <n, X> - b W.
    """

    __slots__ = ("n", "b")

    def __init__(self, n: Sequence, b):
        """n and b are ints or Fractions."""
        coeffs = (*n, b)
        den = lcm(*(c.denominator for c in coeffs))
        ints = [c.numerator * (den // c.denominator) for c in coeffs]
        g = gcd(*ints) or 1
        self.n = (ints[0] // g, ints[1] // g, ints[2] // g)
        self.b = ints[3] // g

    def __repr__(self):
        return f"Plane(n={self.n}, b={self.b})"


def _split_into(simplex: HSimplex, plane: Plane, neg: list, on: list, pos: list) -> None:
    """Partition a homogeneous simplex by a plane into the three buckets.

    Splits recursively at plane-crossing edges, so output pieces are honest
    simplices with pairwise disjoint interiors whose union is the input.
    Pieces whose affine hull lies inside the plane go to 'on'.  A
    degenerate simplex that the plane crosses yields no pieces.  That is
    decided once, on the input: a child swaps one end of a crossing edge
    for an interior point of it, which scales the measure by t or 1 - t
    with 0 < t < 1, so children are degenerate exactly when the input is.
    """
    n0, n1, n2 = plane.n
    b = plane.b
    stack = [simplex]
    root = True
    while stack:
        s = stack.pop()
        signs = [n0 * x + n1 * y + n2 * z - b * w for x, y, z, w in s]
        crossing = None
        for i in range(len(s)):
            for j in range(i + 1, len(s)):
                if (signs[i] > 0 and signs[j] < 0) or (signs[i] < 0 and signs[j] > 0):
                    crossing = (i, j)
                    break
            if crossing:
                break
        if crossing is None:
            if not any(signs):
                on.append(s)
            elif max(signs) > 0:
                pos.append(s)
            else:
                neg.append(s)
            continue
        if root:
            if _gram(s)[0] == 0:
                return
            root = False
        # the crossing point (E_i s_j - E_j s_i) / (E_i W_j - E_j W_i)
        i, j = crossing
        ea, eb = signs[i], signs[j]
        xa, ya, za, wa = s[i]
        xb, yb, zb, wb = s[j]
        m = reduced(ea * xb - eb * xa, ea * yb - eb * ya, ea * zb - eb * za, ea * wb - eb * wa)
        stack.append(tuple(m if idx == j else v for idx, v in enumerate(s)))
        stack.append(tuple(m if idx == i else v for idx, v in enumerate(s)))


def split_homogeneous(pieces: Iterable[HSimplex], planes: Iterable[Plane]) -> list[HSimplex]:
    """Cut homogeneous pieces by each plane in turn, regrouped as
    negative, on, positive.

    Every output piece lies on one side of (or in) each plane, and the
    pieces partition the input.
    """
    pieces = list(pieces)
    for plane in planes:
        neg: list[HSimplex] = []
        on: list[HSimplex] = []
        pos: list[HSimplex] = []
        for s in pieces:
            _split_into(s, plane, neg, on, pos)
        pieces = neg + on + pos
    return pieces


def homogeneous_pieces(pieces: Iterable[Simplex]) -> list[HSimplex]:
    """Homogeneous pieces of Fraction ones; each point object converts once
    (a chain shares its points between simplices)."""
    pieces = list(pieces)  # holds every point, so an id names one point throughout
    points = {id(p): p for s in pieces for p in s}
    memo = {i: homogeneous(p) for i, p in points.items()}
    return [tuple(memo[id(p)] for p in s) for s in pieces]


def affine_pieces(pieces: list[HSimplex], points: dict) -> list[Simplex]:
    """Fraction pieces of homogeneous ones; points caches the conversions."""
    for h in {h for s in pieces for h in s} - points.keys():
        points[h] = affine(h)
    return [tuple(map(points.__getitem__, s)) for s in pieces]


def split_by_planes(pieces: Iterable[Simplex], planes: Iterable[Plane]) -> list[Simplex]:
    """Cut pieces by each plane in turn, regrouped as negative, on, positive.

    Every output piece lies on one side of (or in) each plane, and the
    pieces partition the input.
    """
    pieces = list(pieces)
    hs = [tuple(map(homogeneous, s)) for s in pieces]
    points = {h: p for hp, s in zip(hs, pieces) for h, p in zip(hp, s)}
    return affine_pieces(split_homogeneous(hs, planes), points)


def centroid(simplex: Simplex) -> Point:
    return tuple(sum(v[a] for v in simplex) / len(simplex) for a in (0, 1, 2))


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
