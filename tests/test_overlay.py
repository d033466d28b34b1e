import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filmlab import overlay as ov
from filmlab.geom import affine, homogeneous, is_degenerate
from filmlab.overlay import (
    chains_equal_mod2,
    is_zero_geometric,
    overlay_leftover,
    overlay_vanishes,
    reduce_1chain,
)
from filmlab.simplicial import boundary_simplicial, simplicial_chain

from conftest import random_simplicial_chain
from references import fraction_overlay_leftover, fraction_plane_key

F = Fraction


def seg(a, b):
    return (
        tuple(F(x) for x in a),
        tuple(F(x) for x in b),
    )


def test_overlay_cancels_split_segment():
    # one long segment vs. the same segment in two halves
    whole = [seg((0, 0, 0), (2, 0, 0))]
    halves = [seg((0, 0, 0), (1, 0, 0)), seg((1, 0, 0), (2, 0, 0))]
    assert overlay_leftover(whole + halves) == []


def test_overlay_keeps_uncovered_part():
    left = overlay_leftover([seg((0, 0, 0), (2, 0, 0)), seg((0, 0, 0), (1, 0, 0))])
    assert left == [seg((1, 0, 0), (2, 0, 0))]


def test_overlay_triple_cover_parity():
    s = seg((0, 0, 0), (1, 0, 0))
    assert overlay_leftover([s, s, s]) == [s]


def test_reduce_1chain_canonicalizes():
    chain = simplicial_chain(
        1, [seg((0, 0, 0), (1, 0, 0)), seg((1, 0, 0), (2, 0, 0))]
    )
    reduced = reduce_1chain(chain)
    assert reduced.simplices == frozenset({seg((0, 0, 0), (2, 0, 0))})


def test_zero_geometric_across_presentations():
    # square split along the two different diagonals: equal as sets
    a = simplicial_chain(
        2,
        [
            (seg((0, 0, 0), (1, 0, 0)) + ((F(1), F(1), F(0)),)),
            (seg((0, 0, 0), (1, 1, 0)) + ((F(0), F(1), F(0)),)),
        ],
    )
    b = simplicial_chain(
        2,
        [
            (seg((0, 0, 0), (1, 0, 0)) + ((F(0), F(1), F(0)),)),
            (seg((1, 0, 0), (1, 1, 0)) + ((F(0), F(1), F(0)),)),
        ],
    )
    assert is_zero_geometric(a + b)
    cert = chains_equal_mod2(a, b)
    assert cert.equal and cert.mode == "exact"


def test_unequal_chains_detected():
    a = simplicial_chain(2, [(seg((0, 0, 0), (1, 0, 0)) + ((F(0), F(1), F(0)),))])
    b = simplicial_chain(2, [(seg((0, 0, 0), (1, 0, 0)) + ((F(0), F(0), F(1)),))])
    assert not chains_equal_mod2(a, b).equal
    assert not is_zero_geometric(a + b)


def test_split_triangle_equals_whole():
    tri_whole = seg((0, 0, 0), (2, 0, 0)) + ((F(0), F(2), F(0)),)
    mid = (F(1), F(0), F(0))
    a = simplicial_chain(2, [tri_whole])
    b = simplicial_chain(
        2,
        [
            (tri_whole[0], mid, tri_whole[2]),
            (mid, tri_whole[1], tri_whole[2]),
        ],
    )
    assert chains_equal_mod2(a, b).equal


def test_equality_has_no_size_limit():
    """A segment against its 20 001-piece subdivision is decided exactly,
    and so is the same subdivision with one piece missing."""
    n = 20_001
    whole = simplicial_chain(1, [seg((0, 0, 0), (1, 0, 0))])
    pieces = [seg((F(i, n), 0, 0), (F(i + 1, n), 0, 0)) for i in range(n)]
    cert = chains_equal_mod2(whole, simplicial_chain(1, pieces))
    assert cert.equal and cert.mode == "exact"
    del pieces[n // 2]
    cert = chains_equal_mod2(whole, simplicial_chain(1, pieces))
    assert not cert.equal and cert.mode == "exact"


def test_dimension_mismatch_raises():
    a = simplicial_chain(1, [seg((0, 0, 0), (1, 0, 0))])
    b = simplicial_chain(2, [])
    with pytest.raises(ValueError):
        chains_equal_mod2(a, b)


def test_zero_geometric_3chain_via_boundary():
    tet = simplicial_chain(
        3,
        [
            (
                (F(0), F(0), F(0)),
                (F(1), F(0), F(0)),
                (F(0), F(1), F(0)),
                (F(0), F(0), F(1)),
            )
        ],
    )
    assert not is_zero_geometric(tet)
    assert is_zero_geometric(tet + tet)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000), k=st.integers(1, 2))
def test_chain_equals_itself_re_presented(seed, k):
    chain = random_simplicial_chain(k, random.Random(seed))
    assert chains_equal_mod2(chain, chain).equal
    assert is_zero_geometric(chain + chain)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_boundary_of_boundary_zero_geometric(seed):
    chain = random_simplicial_chain(2, random.Random(seed))
    bb = boundary_simplicial(boundary_simplicial(chain))
    assert bb.is_zero_presentation()


def _midpoint_scan_overlay(segments):
    """Reference: the per-interval midpoint coverage scan the sweep replaced."""
    from filmlab.geom import vdot, vscale, vsub
    from references import line_key, vadd

    groups = {}
    for p, q in segments:
        if p == q:
            continue
        d, anchor = line_key(p, q)
        groups.setdefault((d, anchor), []).append((p, q))
    out = []
    for (d, anchor), segs in sorted(groups.items()):
        df = (F(d[0]), F(d[1]), F(d[2]))
        dd = vdot(df, df)

        def param(x):
            return vdot(vsub(x, anchor), df) / dd

        def at(t):
            return vadd(anchor, vscale(t, df))

        intervals = []
        for p, q in segs:
            t1, t2 = sorted((param(p), param(q)))
            intervals.append((t1, t2))
        cuts = sorted({t for iv in intervals for t in iv})
        run_start = prev_end = None
        for a, b in zip(cuts, cuts[1:]):
            mid = (a + b) / 2
            if sum(1 for t1, t2 in intervals if t1 < mid < t2) % 2:
                if run_start is None:
                    run_start = a
                prev_end = b
            elif run_start is not None:
                out.append((at(run_start), at(prev_end)))
                run_start = None
        if run_start is not None:
            out.append((at(run_start), at(prev_end)))
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_overlay_sweep_matches_midpoint_scan(seed):
    rng = random.Random(seed)
    # a few rational lines; segments pick endpoints from a small shared
    # pool of parameters so shared endpoints and duplicates are common
    lines = []
    for _ in range(rng.randint(1, 3)):
        base = tuple(F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(3))
        direction = (0, 0, 0)
        while direction == (0, 0, 0):
            direction = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3))
        lines.append((base, direction))
    pool = [F(rng.randint(-12, 12), rng.choice((1, 2, 3, 4))) for _ in range(rng.randint(2, 7))]
    segments = []
    for _ in range(rng.randint(0, 14)):
        base, direction = lines[rng.randrange(len(lines))]
        t1, t2 = rng.choice(pool), rng.choice(pool)
        p = tuple(b + t1 * d for b, d in zip(base, direction))
        q = tuple(b + t2 * d for b, d in zip(base, direction))
        segments.append((p, q))
        if rng.random() < 0.2:
            segments.append((q, p) if rng.random() < 0.5 else (p, q))
    assert overlay_leftover(segments) == _midpoint_scan_overlay(segments)



@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 100_000), cancel=st.sampled_from(["none", "reverse", "split"]))
def test_overlay_vanishes_iff_leftover_empty(seed, cancel):
    # the generator of test_overlay_sweep_matches_midpoint_scan; then every
    # segment once more, reversed or split at a pool point, so that empty
    # leftovers are common, and integral coordinates as plain ints
    rng = random.Random(seed)
    lines = []
    for _ in range(rng.randint(1, 3)):
        base = tuple(F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(3))
        direction = (0, 0, 0)
        while direction == (0, 0, 0):
            direction = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3))
        lines.append((base, direction))
    pool = [F(rng.randint(-12, 12), rng.choice((1, 2, 3, 4))) for _ in range(rng.randint(2, 7))]

    def at(line, t):
        base, direction = line
        return tuple(b + t * d for b, d in zip(base, direction))

    segments = []
    for _ in range(rng.randint(0, 14)):
        line = lines[rng.randrange(len(lines))]
        t1, t2 = rng.choice(pool), rng.choice(pool)
        p, q = at(line, t1), at(line, t2)
        segments.append((p, q))
        if cancel == "reverse":
            segments.append((q, p))
        elif cancel == "split":
            tm = rng.choice(pool)
            segments += [(p, at(line, tm)), (at(line, tm), q)]
        if rng.random() < 0.2:
            segments.append((q, p) if rng.random() < 0.5 else (p, q))
    segments = [
        tuple(tuple(int(c) if c.denominator == 1 else c for c in x) for x in seg)
        for seg in segments
    ]
    assert overlay_vanishes(segments) == (overlay_leftover(segments) == [])


def _collinear_segments(rng, cancel):
    """Segments on a few rational lines with endpoints from a shared pool of
    parameters; with cancel, every segment once more, reversed or split at
    a pool point, so that sets that vanish are common."""
    lines = []
    for _ in range(rng.randint(1, 3)):
        base = tuple(F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(3))
        direction = (0, 0, 0)
        while direction == (0, 0, 0):
            direction = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3))
        lines.append((base, direction))
    pool = [F(rng.randint(-12, 12), rng.choice((1, 2, 3, 4))) for _ in range(rng.randint(2, 7))]

    def at(line, t):
        return tuple(b + t * d for b, d in zip(*line))

    segments = []
    for _ in range(rng.randint(0, 14)):
        line = lines[rng.randrange(len(lines))]
        t1, t2 = rng.choice(pool), rng.choice(pool)
        segments.append((at(line, t1), at(line, t2)))
        if cancel:
            tm = rng.choice(pool)
            segments += [(at(line, t2), at(line, tm)), (at(line, tm), at(line, t1))]
    return segments


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 100_000), cancel=st.booleans())
def test_integer_overlay_matches_fraction_overlay(seed, cancel):
    """The integer cores give the leftover segments and the verdict the
    Fraction overlay gave, and the public entry points pass them on."""
    segments = _collinear_segments(random.Random(seed), cancel)
    expected = fraction_overlay_leftover(segments)
    if cancel:
        assert expected == []
    hsegs = [tuple(map(homogeneous, s)) for s in segments]
    lines = sorted(ov._leftover(hsegs))
    assert [(affine(p), affine(q)) for _, runs in lines for p, q in runs] == expected
    assert overlay_leftover(segments) == expected
    assert ov._segments_vanish(hsegs) == overlay_vanishes(segments) == (expected == [])
    assert ov._vanishes(1, hsegs) == (expected == [])


def _coplanar_triangles(rng):
    """Triangles on two or three rational planes; some come with a reversed
    copy or cut in two at an edge midpoint, which the whole then cancels."""
    triangles = []
    for _ in range(rng.randint(2, 3)):
        o, u, v = (tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3)) for _ in "ouv")
        for _ in range(rng.randint(1, 4)):
            tri = tuple(
                tuple(oi + F(a, 2) * ui + F(b, 2) * vi for oi, ui, vi in zip(o, u, v))
                for a, b in ((rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(3))
            )
            if is_degenerate(tri):
                continue
            triangles.append(tri)
            kind = rng.random()
            if kind < 0.3:
                triangles.append(tuple(reversed(tri)))
            elif kind < 0.6:
                m = tuple((x + y) / 2 for x, y in zip(tri[1], tri[2]))
                triangles += [(tri[0], tri[1], m), (tri[0], m, tri[2])]
    return triangles


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_integer_plane_groups_match_fraction_plane_keys(seed):
    """Integer plane keys group triangles as the Fraction plane keys did,
    and each plane's verdict is the Fraction overlay's of its edges."""
    triangles = _coplanar_triangles(random.Random(seed))
    by_fraction = {}
    for i, t in enumerate(triangles):
        by_fraction.setdefault(fraction_plane_key(*t), []).append(i)
    homog = [tuple(map(homogeneous, t)) for t in triangles]
    index = {id(h): i for i, h in enumerate(homog)}
    groups = ov._plane_groups(homog)
    got = sorted(sorted(index[id(t)] for t in tris) for tris in groups.values())
    assert got == sorted(by_fraction.values())
    verdicts = []
    for tris in groups.values():
        edges = [(affine(a), affine(b)) for a, b, c in tris for a, b in ((a, b), (a, c), (b, c))]
        verdicts.append(fraction_overlay_leftover(edges) == [])
        assert ov._plane_vanishes(tris) == verdicts[-1]
    assert ov._vanishes(2, homog) == all(verdicts)
