import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filmlab.exact import RadicalSum, det3, radical_sum
from filmlab.geom import (
    Plane,
    affine_pieces,
    homogeneous,
    homogeneous_dist_sq,
    is_degenerate,
    gram_mass,
    homogeneous_mass,
    polygon_is_simple,
    primitive_direction,
    shoelace_twice,
    simplex_measure,
    simplex_measure_sq,
    split_by_planes,
    sup_norm,
    vcross,
    vdot,
    vsub,
    _split_into,
)

from references import point_simplex_dist_sq, simplex_measure_reference

F = Fraction
O = (F(0), F(0), F(0))
EX = (F(1), F(0), F(0))
EY = (F(0), F(1), F(0))
EZ = (F(0), F(0), F(1))


def split_simplex(simplex, plane):
    """Partition a simplex by a plane into (negative, on, positive) simplices:
    split_homogeneous's loop on one piece and one plane, its buckets kept apart."""
    h = tuple(map(homogeneous, simplex))
    points = dict(zip(h, simplex))
    buckets = ([], [], [])
    _split_into(h, plane, *buckets)
    return tuple(affine_pieces(b, points) for b in buckets)


def _value(plane, v):
    """<n, v> - b for the plane's stored (n, b): a positive multiple of the
    value for the (n, b) it was built from."""
    return vdot(plane.n, v) - plane.b


def test_measure_sq_edge_and_triangle():
    # squared measure carries the (k!)^2 Gram normalization
    assert simplex_measure_sq((O, EX)) == 1
    assert simplex_measure_sq((O, EX, EY)) == 1  # (2! * 1/2)^2
    assert simplex_measure((O, EX, EY)) * 2 == 1  # area 1/2 after /k!


def test_measure_scales_with_edge_length():
    long_edge = (O, (F(3), F(4), F(0)))
    assert simplex_measure_sq(long_edge) == 25
    assert simplex_measure(long_edge) == 5


def test_degenerate_simplices():
    assert is_degenerate((O, O))
    assert is_degenerate((O, EX, (F(2), F(0), F(0))))
    assert not is_degenerate((O, EX, EY))
    assert is_degenerate((O, EX, EY, (F(1), F(1), F(0))))


def test_primitive_direction_normalizes():
    cases = [
        ((F(2), F(-4), F(6)), (1, -2, 3)),
        ((F(-2), F(4), F(-6)), (1, -2, 3)),  # the opposite direction agrees
        ((F(-3), F(6), F(9)), (1, -2, -3)),
        ((F(0), F(-3), F(6)), (0, 1, -2)),
        ((F(0), F(0), F(-5, 7)), (0, 0, 1)),
        ((F(1, 2), F(-1, 3), F(1, 4)), (6, -4, 3)),
        ((F(-2, 3), F(0), F(4, 9)), (3, 0, -2)),
    ]
    for v, expected in cases:
        assert primitive_direction(v) == expected, v
    with pytest.raises(ValueError, match="zero vector"):
        primitive_direction((F(0), F(0), F(0)))


def dist_sq(p, simplex):
    """homogeneous_dist_sq of Fraction points, as a Fraction."""
    num, den = homogeneous_dist_sq(homogeneous(p), tuple(map(homogeneous, simplex)))
    assert den > 0
    return F(num, den)


def test_point_simplex_distance():
    tri = (O, EX, EY)
    assert dist_sq((F(1, 4), F(1, 4), F(0)), tri) == 0
    assert dist_sq((F(1, 4), F(1, 4), F(2)), tri) == 4
    assert dist_sq((F(2), F(0), F(0)), tri) == 1
    edge = (O, EX)
    assert dist_sq((F(1, 2), F(3), F(4)), edge) == 25
    assert dist_sq((F(-3), F(0), F(4)), edge) == 25


def test_distance_to_a_tetrahedron_is_refused():
    with pytest.raises(ValueError):
        homogeneous_dist_sq(homogeneous(O), tuple(map(homogeneous, (O, EX, EY, EZ))))


def test_split_simplex_partitions_measure():
    tri = (O, (F(2), F(0), F(0)), (F(0), F(2), F(0)))
    plane = Plane((F(1), F(0), F(0)), F(1))
    neg, on, pos = split_simplex(tri, plane)
    total = sum(simplex_measure(s) for s in neg + on + pos)
    assert total == simplex_measure(tri)
    assert all(_value(plane, v) <= 0 for s in neg for v in s)
    assert all(_value(plane, v) >= 0 for s in pos for v in s)
    assert neg and pos


def test_split_simplex_keeps_coplanar_pieces():
    tri = (O, EX, EY)
    plane = Plane((F(0), F(0), F(1)), F(0))
    neg, on, pos = split_simplex(tri, plane)
    assert on == [tri] and not neg and not pos


def test_sup_norm():
    assert sup_norm((F(-3), F(2), F(1, 2))) == 3


def test_shoelace_and_parity():
    square = [(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))]
    assert abs(shoelace_twice(square)) == 2
    assert polygon_is_simple(square)
    bowtie = [(F(0), F(0)), (F(1), F(1)), (F(1), F(0)), (F(0), F(1))]
    assert not polygon_is_simple(bowtie)


@st.composite
def points(draw, span=3, den=4):
    f = st.fractions(min_value=-span, max_value=span, max_denominator=den)
    return (draw(f), draw(f), draw(f))


@settings(max_examples=40, deadline=None)
@given(a=points(), b=points(), c=points(), n=points(), b0=st.fractions(min_value=-2, max_value=2, max_denominator=3))
def test_split_preserves_measure_random(a, b, c, n, b0):
    if is_degenerate((a, b, c)) or n == (0, 0, 0):
        return
    plane = Plane(n, b0)
    neg, on, pos = split_simplex((a, b, c), plane)
    total = sum(simplex_measure(s) for s in neg + on + pos)
    assert total == simplex_measure((a, b, c))


@settings(max_examples=40, deadline=None)
@given(a=points(), b=points(), p=points())
def test_point_segment_distance_bounds(a, b, p):
    if a == b:
        return
    d2 = dist_sq(p, (a, b))
    for end in (a, b):
        gap = tuple(x - y for x, y in zip(p, end))
        assert d2 <= vdot(gap, gap)
    assert d2 >= 0


@st.composite
def distance_cases(draw):
    """A rational point and a point, segment or triangle: in general
    position, in the triangle's plane (inside, on an edge, at a vertex, or
    outside), and against collinear triangles and repeated vertices."""
    a, b, c, p = (draw(points()) for _ in range(4))
    kinds = ("point", "segment", "triangle", "inside", "edge", "vertex", "plane", "collinear")
    kind = draw(st.sampled_from(kinds + ("repeated",)))
    if kind == "point":
        return p, (a,)
    if kind == "segment":
        return p, (a, b)
    weight = st.fractions(min_value=0, max_value=1, max_denominator=6)
    u, v = draw(weight), draw(weight)
    if kind == "collinear":
        c = tuple(x + 2 * (u - v) * (y - x) for x, y in zip(a, b))
    elif kind == "repeated":
        b = a
    else:
        if kind == "inside":
            v = v * (1 - u)
        elif kind == "edge":
            v = 0
        elif kind == "vertex":
            u = v = 0
        elif kind == "plane":
            u, v = 4 * u - 2, 4 * v - 2
        if kind != "triangle":
            p = tuple(x + u * (y - x) + v * (z - x) for x, y, z in zip(a, b, c))
    return p, tuple(draw(st.permutations((a, b, c))))


@settings(max_examples=400, deadline=None)
@given(case=distance_cases())
def test_integer_distance_matches_fraction_reference(case):
    p, simplex = case
    assert dist_sq(p, simplex) == point_simplex_dist_sq(p, simplex)


def test_cross_orthogonality():
    n = vcross(EX, EY)
    assert n == EZ
    assert vdot(n, EX) == 0 and vdot(n, EY) == 0


def _fraction_measure_sq(simplex):
    """Reference: the Gram determinant in Fraction arithmetic."""
    k = len(simplex) - 1
    if k == 0:
        return F(1)
    edges = [vsub(v, simplex[0]) for v in simplex[1:]]
    if k == 1:
        return vdot(edges[0], edges[0])
    if k == 2:
        g00, g11, g01 = vdot(edges[0], edges[0]), vdot(edges[1], edges[1]), vdot(*edges)
        return g00 * g11 - g01 * g01
    d = det3(edges)
    return d * d


def _fraction_split(simplex, n, b, every_child=False):
    """Reference: the split loop on Fraction points for the plane <n, x> = b.

    Degeneracy is tested on the input only, as split_simplex does, or on
    every child with every_child."""
    neg, on, pos = [], [], []
    stack = [tuple(simplex)]
    root = True
    while stack:
        s = stack.pop()
        signs = [vdot(n, v) - b for v in s]
        crossing = next(
            ((i, j) for i in range(len(s)) for j in range(i + 1, len(s)) if signs[i] * signs[j] < 0),
            None,
        )
        if crossing is None:
            if all(v == 0 for v in signs):
                on.append(s)
            elif any(v > 0 for v in signs):
                pos.append(s)
            else:
                neg.append(s)
            continue
        if root and not every_child:
            if _fraction_measure_sq(s) == 0:
                break
            root = False
        i, j = crossing
        t = signs[i] / (signs[i] - signs[j])
        m = tuple(a + t * (c - a) for a, c in zip(s[i], s[j]))
        for child in (
            tuple(m if idx == j else v for idx, v in enumerate(s)),
            tuple(m if idx == i else v for idx, v in enumerate(s)),
        ):
            if not every_child or _fraction_measure_sq(child) != 0:
                stack.append(child)
    return neg, on, pos


def _fraction_split_by_planes(pieces, cuts):
    """Reference: split_by_planes through _fraction_split."""
    pieces = list(pieces)
    for n, b in cuts:
        neg, on, pos = [], [], []
        for s in pieces:
            a, c, d = _fraction_split(s, n, b)
            neg += a
            on += c
            pos += d
        pieces = neg + on + pos
    return pieces


@st.composite
def maybe_degenerate_simplices(draw, k=None):
    """k-simplices (1 <= k <= 3 when not given); about half have a vertex
    on the hull of the others."""
    if k is None:
        k = draw(st.integers(1, 3))
    verts = [draw(points(span=2, den=2)) for _ in range(k + 1)]
    if draw(st.booleans()):
        a, b = verts[0], verts[-2]
        t = draw(st.fractions(min_value=-1, max_value=2, max_denominator=3))
        verts[-1] = tuple(x + t * (y - x) for x, y in zip(a, b))
    return tuple(verts)


@settings(max_examples=150, deadline=None)
@given(
    s=maybe_degenerate_simplices(),
    n=points(span=2, den=1),
    b0=st.fractions(min_value=-2, max_value=2, max_denominator=2),
)
def test_split_simplex_matches_per_child_degeneracy_rule(s, n, b0):
    if n == (0, 0, 0):
        return
    assert split_simplex(s, Plane(n, b0)) == _fraction_split(s, n, b0, every_child=True)


@st.composite
def pieces_of_one_dimension(draw):
    """One to four k-simplices for one k in 1..3, some degenerate."""
    k = draw(st.integers(1, 3))
    return draw(st.lists(maybe_degenerate_simplices(k), min_size=1, max_size=4))


@settings(max_examples=100, deadline=None)
@given(
    pieces=pieces_of_one_dimension(),
    cuts=st.lists(
        st.tuples(points(span=2, den=1), st.fractions(min_value=-2, max_value=2, max_denominator=2)),
        min_size=1,
        max_size=3,
    ),
)
def test_split_by_planes_sides_and_measure(pieces, cuts):
    planes = [Plane(n, b0) for n, b0 in cuts if n != (0, 0, 0)]
    out = split_by_planes(pieces, planes)
    for piece in out:
        for plane in planes:
            values = [_value(plane, v) for v in piece]
            assert all(x >= 0 for x in values) or all(x <= 0 for x in values)
    assert radical_sum(simplex_measure(s) for s in out) == radical_sum(
        simplex_measure(s) for s in pieces
    )


# -- the integer kernels against the Fraction references ---------------------

# small, large, prime and mixed denominators
_DENOMINATORS = st.one_of(
    st.integers(1, 8),
    st.integers(1, 10**9),
    st.sampled_from([9973, 999_983, 2**31 - 1, 3**19, 10**12 + 39]),
)


@st.composite
def rationals(draw, span=3):
    den = draw(_DENOMINATORS)
    return F(draw(st.integers(-span * den, span * den)), den)


@st.composite
def rational_points(draw, span=3):
    return tuple(draw(rationals(span)) for _ in range(3))


@st.composite
def rational_planes(draw):
    """(n, b) with n != 0, as rationals."""
    n = draw(rational_points(span=2))
    if n == (0, 0, 0):
        n = (F(1), n[1], n[2])
    return n, draw(rationals(span=2))


def _onto_plane(p, n, b):
    """The foot of p on the plane <n, x> = b."""
    t = (b - vdot(n, p)) / vdot(n, n)
    return tuple(x + t * c for x, c in zip(p, n))


@st.composite
def rational_simplices(draw, k, planes=()):
    """k-simplices with rational vertices; some vertices are moved onto one
    of the planes, and some simplices are degenerate: a vertex repeated or
    an affine combination of the others."""
    verts = [draw(rational_points()) for _ in range(k + 1)]
    for i in range(k + 1):
        if planes and draw(st.integers(0, 2)) == 0:
            n, b = draw(st.sampled_from(planes))
            verts[i] = _onto_plane(verts[i], n, b)
    if k >= 1 and draw(st.integers(0, 2)) == 0:
        weights = [draw(rationals(span=2)) for _ in range(k - 1)]
        last = verts[0]
        for w, v in zip(weights, verts[1:k]):
            last = tuple(x + w * (y - z) for x, y, z in zip(last, v, verts[0]))
        verts[k] = last
    return tuple(verts)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), k=st.integers(0, 3))
def test_measure_sq_matches_fraction_gram(data, k):
    s = data.draw(rational_simplices(k))
    gram = _fraction_measure_sq(s)
    assert simplex_measure_sq(s) == gram
    assert is_degenerate(s) == (gram == 0)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), k=st.integers(0, 3), cut=rational_planes())
def test_split_simplex_matches_fraction_split(data, k, cut):
    n, b = cut
    s = data.draw(rational_simplices(k, planes=[cut]))
    assert split_simplex(s, Plane(n, b)) == _fraction_split(s, n, b)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    k=st.integers(0, 3),
    cuts=st.lists(rational_planes(), min_size=1, max_size=3),
)
def test_split_by_planes_matches_fraction_split(data, k, cuts):
    pieces = data.draw(st.lists(rational_simplices(k, planes=cuts), min_size=1, max_size=3))
    planes = [Plane(n, b) for n, b in cuts]
    assert split_by_planes(pieces, planes) == _fraction_split_by_planes(pieces, cuts)


@settings(max_examples=100, deadline=None)
@given(p=rational_points(span=50))
def test_homogeneous_points_are_primitive(p):
    x, y, z, w = homogeneous(p)
    assert w > 0 and math.gcd(x, y, z, w) == 1
    assert (F(x, w), F(y, w), F(z, w)) == p


@settings(max_examples=200, deadline=None)
@given(
    num=st.one_of(st.just(0), st.integers(1, 10**9), st.integers(1, 10**4).map(lambda n: n * n)),
    den=st.one_of(st.integers(1, 10**6), st.integers(1, 10**3).map(lambda n: n * n)),
    k=st.integers(0, 3),
)
def test_gram_mass_is_one_radical(num, den, k):
    """sqrt(G) / (D^k k!) summed in integers is sqrt(G / D^(2k)) / k!: equal,
    hashing and converting alike, and term for term when no prime of D
    passes the trial limit."""
    got = gram_mass([(num, den)], k)
    want = RadicalSum.sqrt(F(num, den ** (2 * k))) / math.factorial(k)
    assert got == want and hash(got) == hash(want) and float(got) == float(want)
    rough = den
    for p in range(2, 10**4):
        while rough % p == 0:
            rough //= p
    if rough == 1:
        assert got._terms == want._terms


def _small_point(rng):
    # denominators of small primes only, so both paths split every radicand
    return tuple(F(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 5, 6, 9, 10, 12))) for _ in range(3))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 100_000), k=st.integers(1, 3))
def test_gram_mass_matches_simplex_measures(seed, k):
    """One kernel sums the masses the per-simplex path summed, term for
    term: mixed denominators, repeated simplices and degenerate ones
    (which weigh nothing) included."""
    rng = random.Random(seed)
    pool = [_small_point(rng) for _ in range(k + 3)]
    simplices = []
    for _ in range(rng.randint(0, 8)):
        s = tuple(rng.sample(pool, k + 1))
        if rng.random() < 0.2:
            s = s[:-1] + (s[0],)  # a repeated vertex
        elif rng.random() < 0.2 and k > 1:
            s = s[:-1] + (tuple((2 * x - y) for x, y in zip(s[0], s[1])),)  # collinear
        simplices.append(s)
    simplices += [s for s in simplices if rng.random() < 0.3]
    want = radical_sum(simplex_measure_reference(s) for s in simplices)
    got = homogeneous_mass([tuple(map(homogeneous, s)) for s in simplices], k)
    assert got._terms == want._terms
