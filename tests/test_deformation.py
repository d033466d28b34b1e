import contextlib
import hashlib
import math
import os
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filmlab import deformation as dm
from filmlab import io_formats as iof
from filmlab.deformation import (
    DeformConfig,
    deform_chain,
    deform_dipolyhedron,
    snap_parity,
)
from filmlab.dipolyhedra import Dipolyhedron, energy
from filmlab.exact import RadicalSum, radical_sum
from filmlab.geom import (
    affine,
    homogeneous,
    homogeneous_dist_sq,
    is_degenerate,
    gram_mass,
    simplex_measure,
    simplex_measure_sq,
    vcross,
    vdot,
    vsub,
)
from filmlab.grid import GridCell, GridSpec, boundary_grid, chain_of, mass_grid
from filmlab.overlay import chains_equal_mod2
from filmlab.pairs import make_dipole
from filmlab.plateau import initial_cone_solution, plateau_problem
from filmlab.simplicial import (
    SimplicialChain,
    boundary_simplicial,
    embed_grid_chain,
    mass_simplicial,
    simplicial_chain,
)

from conftest import HEX, make_grid, polygon_curve, random_simplicial_chain, square_curve
from references import (
    fraction_center_candidates,
    fraction_track_chain,
    point_simplex_dist_sq,
    simplex_measure_reference,
    sqrt_enclosure,
    unskipped_facet_parts,
    wedge_edges,
    wedge_project_cell_pieces,
    wedge_split,
)

F = Fraction
FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def small_config(eps=1, **kw):
    kw.setdefault("candidate_centers", 4)
    return DeformConfig(epsilon=F(eps), **kw)


def _identity_holds(A, result, grid):
    lhs = A + embed_grid_chain(result.P)
    rhs = result.Q + boundary_simplicial(result.R)
    return chains_equal_mod2(lhs, rhs).equal


def test_config_validation():
    with pytest.raises(ValueError):
        DeformConfig(epsilon=0)
    with pytest.raises(ValueError):
        DeformConfig(epsilon=1, tau=F(1, 2))
    with pytest.raises(ValueError):
        DeformConfig(epsilon=1, candidate_centers=0)
    with pytest.raises(ValueError):
        DeformConfig(epsilon=1, c_max=0)


def test_epsilon_mismatch_rejected():
    grid = make_grid((2, 2, 2))
    chain = simplicial_chain(
        1, [((F(0), F(0), F(0)), (F(1), F(0), F(0)))]
    )
    with pytest.raises(ValueError):
        deform_chain(chain, grid, small_config(eps=F(1, 2)))


def test_grid_aligned_face_is_fixed_point():
    grid = make_grid((2, 2, 2))
    face = chain_of(grid, 2, [GridCell((0, 0, 0), (0, 1))])
    A = embed_grid_chain(face)
    result = deform_chain(A, grid, small_config())
    assert result.P == face
    assert mass_simplicial(result.Q).is_zero()
    assert mass_simplicial(result.R).is_zero()
    assert result.identity.equal
    assert result.support.within_6eps


def test_aligned_edge_is_fixed_point():
    grid = make_grid((2, 2, 2))
    edge = chain_of(grid, 1, [GridCell((1, 1, 0), (2,))])
    A = embed_grid_chain(edge)
    result = deform_chain(A, grid, small_config())
    assert result.P == edge
    assert mass_simplicial(result.R).is_zero()


def test_small_triangle_inside_one_cube():
    grid = make_grid((2, 2, 2), origin=(-1, -1, -1))
    tri = simplicial_chain(
        2,
        [
            (
                (F(1, 8), F(1, 8), F(1, 8)),
                (F(3, 8), F(1, 8), F(1, 4)),
                (F(1, 8), F(3, 8), F(1, 3)),
            )
        ],
    )
    result = deform_chain(tri, grid, small_config())
    assert _identity_holds(tri, result, grid)
    # a subcell triangle may vanish entirely or land on few faces
    assert mass_grid(result.P) in (0, 1, 2, 3)
    assert result.support.within_6eps
    assert all(result.bounds_ok.values())


def test_tilted_curve_deforms_with_certificate():
    grid = make_grid((3, 3, 3), origin=(-1, -1, -1))
    curve = simplicial_chain(
        1,
        [
            ((F(0), F(0), F(0)), (F(1), F(1, 3), F(1, 2))),
            ((F(1), F(1, 3), F(1, 2)), (F(1, 2), F(1), F(1))),
            ((F(1, 2), F(1), F(1)), (F(0), F(0), F(0))),
        ],
    )
    result = deform_chain(curve, grid, small_config())
    assert result.identity.equal
    assert _identity_holds(curve, result, grid)
    # P inherits the cycle structure: dP must equal d(A + Q + dR) parity
    assert result.support.within_6eps
    assert all(result.bounds_ok.values())


def test_constants_shrink_reasonably_under_refinement():
    tri = simplicial_chain(
        2,
        [
            (
                (F(0), F(0), F(0)),
                (F(1, 2), F(0), F(1, 6)),
                (F(1, 8), F(1, 2), F(1, 4)),
            )
        ],
    )
    ratios = {}
    for eps in (F(1), F(1, 2)):
        factor = int(1 / eps)
        grid = make_grid((2 * factor, 2 * factor, 2 * factor), origin=(-1, -1, -1), eps=eps)
        result = deform_chain(tri, grid, small_config(eps=eps))
        ratios[eps] = result.measured
        assert result.identity.equal
        assert all(result.bounds_ok.values())
    for key in ("cP", "cdP", "cQ", "cR"):
        coarse = ratios[F(1)][key]
        fine = ratios[F(1, 2)][key]
        assert fine <= 2 * max(coarse, 1.0)


def test_snap_parity_whole_face():
    grid = make_grid((1, 1, 1))
    face = chain_of(grid, 2, [GridCell((0, 0, 0), (0, 1))])
    residue = embed_grid_chain(face)
    assert snap_parity(residue, grid) == face


def test_snap_parity_cancelling_presentation():
    grid = make_grid((1, 1, 1))
    face = chain_of(grid, 2, [GridCell((0, 0, 0), (0, 1))])
    residue = embed_grid_chain(face) + embed_grid_chain(face)
    assert snap_parity(residue, grid).is_zero()
    # doubled but differently-triangulated face also cancels
    sq = [
        (F(0), F(0), F(0)),
        (F(1), F(0), F(0)),
        (F(1), F(1), F(0)),
        (F(0), F(1), F(0)),
    ]
    other = simplicial_chain(2, [(sq[0], sq[1], sq[2]), (sq[0], sq[2], sq[3])])
    assert snap_parity(embed_grid_chain(face) + other, grid).is_zero()


# -- Fraction references for the integer carrier and parity snap -------------

OUT, IN, ON = 0, 1, 2


def _point_segment_status(p, s):
    a, b = s
    ab = vsub(b, a)
    ap = vsub(p, a)
    if vdot(ab, ab) == 0:
        return OUT
    # collinearity
    if vcross(ab, ap) != (0, 0, 0):
        return OUT
    t = vdot(ap, ab) / vdot(ab, ab)
    if t < 0 or t > 1:
        return OUT
    if t == 0 or t == 1:
        return ON
    return IN


def _point_triangle_status(p, s):
    a, b, c = s
    n = vcross(vsub(b, a), vsub(c, a))
    if vdot(n, vsub(p, a)) != 0:
        return OUT
    v0 = vsub(b, a)
    v1 = vsub(c, a)
    v2 = vsub(p, a)
    d00 = vdot(v0, v0)
    d01 = vdot(v0, v1)
    d11 = vdot(v1, v1)
    d20 = vdot(v2, v0)
    d21 = vdot(v2, v1)
    denom = d00 * d11 - d01 * d01
    beta = (d11 * d20 - d01 * d21) / denom
    gamma = (d00 * d21 - d01 * d20) / denom
    alpha = 1 - beta - gamma
    coords = (alpha, beta, gamma)
    if any(c < 0 for c in coords):
        return OUT
    if any(c == 0 for c in coords):
        return ON
    return IN


def _point_status(p, s):
    """OUT, IN or ON for a point against a segment or triangle."""
    if len(s) == 2:
        return _point_segment_status(p, s)
    return _point_triangle_status(p, s)


def _fraction_carrier(grid, s):
    """Reference: the carrier from Fraction lattice coordinates."""
    base, axes = [0, 0, 0], []
    for a in (0, 1, 2):
        vals = [(v[a] - grid.origin[a]) / grid.epsilon for v in s]
        first = vals[0]
        if all(v == first for v in vals) and first.denominator == 1:
            base[a] = int(first)
            continue
        i = math.floor(min(vals))
        if max(vals) > i + 1:
            raise ValueError("piece spans more than one grid cell")
        base[a] = i
        axes.append(a)
    return GridCell(tuple(base), tuple(axes))


def _snap_draws(cell, seed):
    """The lattice coordinates of a cell's sample points, in drawing order."""
    rng = random.Random(f"filmlab-snap:{seed}:{cell.axes_label()}:{cell.base}")
    while True:
        yield tuple(
            cell.base[a] + (F(rng.randint(1, 9972), 9973) if a in cell.axes else 0)
            for a in (0, 1, 2)
        )


def _fraction_snap(residue, grid, seed):
    """Reference: the parity snap in Fraction arithmetic, and how many
    sample points it redrew."""
    by_cell = {}
    for s in residue.simplices:
        cell = _fraction_carrier(grid, s)
        assert cell.dim == residue.k
        by_cell.setdefault(cell, []).append(s)
    cells, redraws = [], 0
    for cell in sorted(by_cell):
        for _, lattice in zip(range(64), _snap_draws(cell, seed)):
            point = grid.world(lattice)
            status = [_point_status(point, s) for s in by_cell[cell]]
            if ON not in status:
                break
            redraws += 1
        else:
            raise RuntimeError("no generic sample point found for parity snap")
        if status.count(IN) % 2:
            cells.append(cell)
    return chain_of(grid, residue.k, cells), redraws


def _random_grid(rng):
    origin = tuple(F(rng.randint(-8, 8), rng.choice((1, 2, 3, 4))) for _ in range(3))
    return make_grid((2, 2, 2), origin=origin, eps=F(rng.randint(1, 4), rng.choice((1, 2, 3, 5))))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), k=st.sampled_from((1, 2)))
def test_integer_snap_matches_fraction_snap(seed, k):
    """Random k-pieces in a few k-cells of a rational grid.  Half the cells
    get a fan of pieces around their first sample point, whose shared
    edges (or ends) put that point on a boundary and force a redraw; the
    integer core also sees the pieces before the mod-2 cancellation."""
    rng = random.Random(seed)
    grid = _random_grid(rng)
    pieces, firsts = [], set()
    for cell in rng.sample(list(grid.cells(k)), 3):
        lattice = [
            tuple(
                cell.base[a] + (F(rng.randint(0, 8), 8) if a in cell.axes else 0)
                for a in (0, 1, 2)
            )
            for _ in range(rng.randint(k + 1, 5))
        ]
        if rng.random() < 0.5:
            first = next(_snap_draws(cell, 0))
            firsts.add(grid.world(first))
            if k == 1:
                pieces += [(first, q) for q in lattice]
            else:
                pieces += [(first, q, r) for q, r in zip(lattice, lattice[1:])]
        pieces += [tuple(rng.sample(lattice, k + 1)) for _ in range(rng.randint(1, 4))]
    pieces += [p[::-1] for p in pieces if rng.random() < 0.2]
    pieces = [tuple(map(grid.world, p)) for p in pieces]
    residue = simplicial_chain(k, pieces)
    expected, redraws = _fraction_snap(residue, grid, 0)
    assert snap_parity(residue, grid) == expected
    assert dm._snap(grid, k, [tuple(map(homogeneous, p)) for p in pieces], 0) == expected
    if any(v in firsts for s in residue.simplices for v in s):
        assert redraws > 0


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_integer_carrier_matches_fraction_carrier(seed):
    """Vertices on lattice planes, inside one cell, or, now and then, two
    cells apart along an axis, where both raise."""
    rng = random.Random(seed)
    grid = _random_grid(rng)
    modes = [rng.choice(("plane", "cell", "cell", "span")) for _ in range(3)]
    base = [rng.randint(0, 1) for _ in range(3)]
    s = []
    for _ in range(rng.randint(1, 4)):
        lattice = []
        for a, mode in enumerate(modes):
            if mode == "plane":
                lattice.append(F(base[a]))
            elif mode == "cell":
                lattice.append(base[a] + F(rng.randint(0, 8), 8))
            else:
                lattice.append(F(rng.randint(0, 16), 8))
        s.append(grid.world(tuple(lattice)))

    def outcome(carrier, piece):
        try:
            return carrier(grid, piece)
        except ValueError as err:
            return str(err)

    got = outcome(dm._carrier, tuple(map(homogeneous, s)))
    assert got == outcome(_fraction_carrier, tuple(s))


def test_snap_parity_rejects_off_skeleton_residue():
    grid = make_grid((2, 2, 2))
    tilted = simplicial_chain(
        2,
        [
            (
                (F(1, 4), F(1, 4), F(1, 4)),
                (F(3, 4), F(1, 4), F(1, 4)),
                (F(1, 4), F(3, 4), F(3, 4)),
            )
        ],
    )
    with pytest.raises(ValueError):
        snap_parity(tilted, grid)


def test_snap_parity_dimension_guard():
    grid = make_grid((1, 1, 1))
    pts = simplicial_chain(0, [((F(0), F(0), F(0)),)])
    with pytest.raises(ValueError):
        snap_parity(pts, grid)


# -- the integer chain R against the Fraction references ----------------------


def _random_tracks(rng, k):
    """k-simplices on a small pool of rational points, so that tracks share
    vertices and facets; with repeated vertices, flat tracks (a vertex on
    the line or plane of the others) and repeats that cancel, in any
    vertex order."""
    pool = [
        tuple(F(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(3))
        for _ in range(rng.randint(k + 1, 7))
    ]
    tracks = []
    for _ in range(rng.randint(1, 12)):
        kind = rng.random()
        if kind < 0.15:
            t = [rng.choice(pool) for _ in range(k + 1)]  # may repeat a vertex
        elif kind < 0.3 and k >= 2:
            t = rng.sample(pool, k)  # the last vertex on the line of the first two
            u = F(rng.randint(-2, 3), 2)
            t.append(tuple(x + u * (y - x) for x, y in zip(t[0], t[1])))
        else:
            t = rng.sample(pool, k + 1)
        tracks.append(tuple(t))
    tracks += [tuple(rng.sample(t, len(t))) for t in tracks if rng.random() < 0.3]
    rng.shuffle(tracks)
    return tracks


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 100_000), k=st.sampled_from((1, 2, 3)))
def test_integer_track_chain_matches_fraction_chain(seed, k):
    """R, dR, M(R) and the vertices of R from integer keys are
    simplicial_chain of the affine tracks, its boundary, mass and vertices,
    and R is the one the Fraction-keyed assembly built."""
    tracks = _random_tracks(random.Random(seed), k)
    homog = [tuple(map(homogeneous, t)) for t in tracks]
    grams = dm._track_chain(homog)
    R = dm._fraction_chain(k, grams)
    mR = gram_mass(grams.values(), k)
    expected = simplicial_chain(k, tracks)
    assert R == expected
    assert dm._fraction_chain(k - 1, dm._boundary(grams)) == boundary_simplicial(expected)
    assert mR == mass_simplicial(expected)
    assert sorted(map(affine, {h for s in grams for h in s})) == expected.vertices()
    reference, _ = fraction_track_chain(k, homog)
    assert R == reference
    assert mR._terms == radical_sum(
        simplex_measure_reference(s) for s in reference.simplices
    )._terms


def test_deform_dipolyhedron_aligned_fixed_point():
    grid = make_grid((2, 2, 1), origin=(-1, -1, 0))
    patch = chain_of(
        grid,
        2,
        [
            GridCell((0, 0, 0), (0, 1)),
            GridCell((0, 1, 0), (0, 1)),
            GridCell((1, 0, 0), (0, 1)),
            GridCell((1, 1, 0), (0, 1)),
        ],
    )
    gamma = square_curve(grid, 0, 0, 2)
    A = make_dipole(patch)
    D, Q, R, report = deform_dipolyhedron(A, gamma, grid, small_config())
    assert D.B == patch
    assert D.C.is_zero()
    assert energy(D).energy == 4
    assert report.film.P == patch and report.mass.P.is_zero()
    assert all(report.bounds_ok.values())
    del Q, R


def test_deform_dipolyhedron_tilted_film():
    grid = make_grid((4, 4, 4), origin=(-2, -2, -2))
    tri = simplicial_chain(
        2,
        [
            (
                (F(0), F(0), F(0)),
                (F(1), F(0), F(1, 3)),
                (F(1, 4), F(1), F(1, 2)),
            )
        ],
    )
    gamma = boundary_simplicial(tri)
    A = make_dipole(tri)
    D, Q, R, report = deform_dipolyhedron(A, gamma, grid, small_config())
    assert all(report.bounds_ok.values())
    assert report.film.identity.equal and report.mass.identity.equal
    # re-check the assembled film row independently
    from filmlab.dipolyhedra import boundary_dip

    dR = boundary_dip(R)
    lhs = tri + embed_grid_chain(D.B)
    rhs = Q.B + dR.B
    assert chains_equal_mod2(lhs, rhs).equal


def test_deform_dipolyhedron_precondition_errors():
    grid = make_grid((2, 2, 2), origin=(-1, -1, -1))
    tri = simplicial_chain(
        2,
        [
            (
                (F(0), F(0), F(0)),
                (F(1, 2), F(0), F(0)),
                (F(0), F(1, 2), F(0)),
            )
        ],
    )
    A = make_dipole(tri)
    open_arc = simplicial_chain(
        1, [((F(0), F(0), F(0)), (F(1, 2), F(0), F(0)))]
    )
    with pytest.raises(ValueError):
        deform_dipolyhedron(A, open_arc, grid, small_config())
    # mass part that is not a cycle
    bad = Dipolyhedron(tri, open_arc)
    with pytest.raises(ValueError):
        deform_dipolyhedron(bad, boundary_simplicial(tri), grid, small_config())


def test_deform_rejects_dimension_three():
    grid = make_grid((1, 1, 1))
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
    with pytest.raises(ValueError):
        deform_chain(tet, grid, small_config())


# a report's sha256 is pinned twice, (facet-cone projection, wedge-split
# reference): the second is what every PR before the cone projection
# printed, and must not move a byte with the projection sent back to the
# reference (references.wedge_split)
_TILTED_PINS = {
    # eps: (candidate centres, P cells, chosen centres, report sha256s)
    F(1): (
        16,
        [],
        [("15/16", "53/64", "53/64")],
        (
            "7086d84ada13828fd587d3c82ad67e5f1e618552ff31722752a53631593751aa",
            "812b3e09514766d6b238478c8a0b2e3b18faa06ef25924dc277e6b94d0717d35",
        ),
    ),
    F(1, 2): (
        4,
        [
            ((1, 1, 1), (0, 1)), ((1, 1, 1), (0, 2)), ((1, 2, 1), (0, 2)),
            ((1, 2, 2), (0, 1)), ((2, 1, 1), (1, 2)), ((2, 1, 2), (0, 1)),
        ],
        [
            ("1/32", "43/128", "15/32"), ("3/32", "55/64", "13/32"),
            ("81/128", "19/128", "13/128"), ("13/16", "77/128", "29/64"),
        ],
        (
            "1db0fa38a1708122608a3a3efca7a7871027b71a529cff803c5e69194d4cb99c",
            "2a332a919ee1f837795b03c3f75570ac2c918c0b13b9e845484bde7f242ea643",
        ),
    ),
    F(1, 4): (
        4,
        [
            ((1, 1, 1), (0, 1)), ((1, 1, 1), (0, 2)), ((1, 2, 1), (0, 2)),
            ((2, 1, 1), (1, 2)), ((2, 1, 2), (0, 1)), ((2, 2, 2), (0, 1)),
            ((2, 3, 2), (0, 2)), ((2, 3, 2), (1, 2)), ((2, 3, 3), (0, 1)),
            ((3, 1, 2), (0, 1)), ((3, 2, 2), (0, 1)), ((3, 3, 2), (1, 2)),
        ],
        [
            ("1/64", "43/256", "15/64"), ("5/256", "179/256", "75/256"),
            ("11/256", "255/256", "89/256"), ("3/64", "55/128", "13/64"),
            ("17/256", "69/256", "23/64"), ("35/128", "39/128", "83/256"),
            ("35/128", "99/256", "5/128"), ("81/256", "19/256", "13/256"),
            ("99/256", "5/64", "95/256"), ("7/16", "211/256", "119/256"),
            ("29/64", "135/256", "67/256"), ("5/8", "21/128", "87/256"),
            ("87/128", "11/64", "5/64"), ("87/128", "97/256", "111/256"),
            ("45/64", "87/128", "103/256"), ("201/256", "113/256", "51/128"),
            ("127/128", "13/64", "113/256"),
        ],
        (
            "8c7f60c618192e745d916fb3a2de431c351d2a238c5d11367b5e9fdfcd7946cf",
            "5f712da7e7e2590690fc2f12618731898c34b54bf8660e291fe863814cbdb27b",
        ),
    ),
}


@pytest.mark.parametrize("eps", sorted(_TILTED_PINS, reverse=True), ids=str)
def test_tilted_triangle_choices_pinned(eps):
    """The centre choice and the whole report of the tilted-triangle fixture
    do not move when the way the centre is found changes."""
    centers, cells, apexes, digests = _TILTED_PINS[eps]
    doc = iof.load_document(os.path.join(FIXTURES, "tilted_triangle.json"))
    tri = iof.parse_input(doc)
    n = int(1 / eps) + 2
    grid = make_grid((n, n, n), origin=(-eps, -eps, -eps), eps=eps)
    cfg = DeformConfig(epsilon=eps, candidate_centers=centers)
    runs = _both_projections(lambda: deform_chain(tri, grid, cfg))
    # the benchmark's tri_e1_c16 and tri_e2_c4 shapes
    _assert_same_deformation(runs, whole=eps != F(1, 4))
    _assert_pinned(runs, digests)
    result = runs[0][0]
    assert sorted((c.base, c.axes) for c in result.P.cells) == cells
    # a track's apex is its cell's centre: the R vertices that are
    # candidate centres of the 2- or 3-cell they sit in
    chosen = set()
    for v in {v for s in result.R.simplices for v in s}:
        cell = dm._carrier(grid, (homogeneous(v),))
        if cell.dim >= 2 and homogeneous(v) in dm._center_candidates(grid, cell, cfg):
            chosen.add(v)
    assert sorted(chosen) == sorted(tuple(F(x) for x in a) for a in apexes)


# report sha256s of the benchmark's other deform shapes; the wedge-split
# ones are what the Fraction kernels produced with the ratios read off the
# exact masses: exact integer kernels must not move a byte
_SHAPE_PINS = {
    # the tilted triangle's boundary at (eps, candidate centres) on the grid
    # of pitch eps around it with one cell of margin
    (F(1, 2), 16): (
        "bb336ba8f101ccc58aa81f0951a6246c7d4dde0b1fb259bfc3cf3d20db081677",
        "10570b0835fc61086394eb4119f6e7b69a9c1d85ee310ed1830eff6e90abe8b3",
    ),
    (F(1, 4), 4): (
        "0aa0585c2a0ca106884164b1d3d96c6c41c8c98fe7f6560a24a84f608d89505c",
        "d86cb22729501e32d3571bf05b8a46a1aefa438ed5957f4325d08a41c30ffdd5",
    ),
}
_CONE_HEX1_PIN = "3421672eacf8a6669c890cbc155bd5fd81ac28409d5747f94c2af06ddca12599"


def _report_digest(result):
    return hashlib.sha256(iof.dumps_json(iof.to_jsonable(result)).encode()).hexdigest()


@contextlib.contextmanager
def _centres_chosen():
    """Record (cell, centre, fallback) of every centre choice made inside."""
    chosen = []
    choose = dm._choose_center

    def recorded(grid, cell, pieces, cfg):
        got = choose(grid, cell, pieces, cfg)
        chosen.append((cell, got[0], got[2]))
        return got

    with mock.patch.object(dm, "_choose_center", recorded):
        yield chosen


def _both_projections(run):
    """run() with the facet-cone projection and with the wedge-split
    reference, each with the centres it chose: [(result, centres)] * 2."""
    runs = []
    for projection in (contextlib.nullcontext, wedge_split):
        with projection(), _centres_chosen() as chosen:
            runs.append((run(), chosen))
    return runs


def _assert_same_deformation(runs, whole=False):
    """Both projections give equal P, centres, fallback cells, bounds_ok, cP
    and cdP, the same support.chain_dist and within_6eps, and R and Q equal
    as chains.  M(R), M(Q) and support.boundary_dist are taken over the
    presentations of R and Q (overlapping tracks count twice, and Q's
    vertices are its presentation's), so they may move with them; whole
    also holds M(R) and the whole support equal, as on the benchmark's
    shapes."""
    (new, new_centres), (old, old_centres) = runs
    assert new.P == old.P
    assert new_centres == old_centres
    assert new.fallback_cells == old.fallback_cells
    assert new.support.chain_dist == old.support.chain_dist
    assert new.support.within_6eps == old.support.within_6eps
    assert new.bounds_ok == old.bounds_ok
    assert all(new.measured[key] == old.measured[key] for key in ("cP", "cdP"))
    assert chains_equal_mod2(new.R, old.R).equal
    assert chains_equal_mod2(new.Q, old.Q).equal
    if whole:
        assert new.support == old.support
        assert new.measured["cR"] == old.measured["cR"]


def _assert_pinned(runs, digests):
    assert tuple(_report_digest(result) for result, _ in runs) == digests


@pytest.mark.parametrize("eps, centers", sorted(_SHAPE_PINS, reverse=True), ids=str)
def test_tilted_boundary_report_pinned(eps, centers):
    tri = iof.parse_input(iof.load_document(os.path.join(FIXTURES, "tilted_triangle.json")))
    # the triangle spans [0, 1] x [0, 1] x [0, 1/2]
    dims = (int(1 / eps) + 2, int(1 / eps) + 2, int(F(1, 2) / eps) + 2)
    grid = make_grid(dims, origin=(-eps, -eps, -eps), eps=eps)
    cfg = DeformConfig(epsilon=eps, candidate_centers=centers)
    runs = _both_projections(lambda: deform_chain(boundary_simplicial(tri), grid, cfg))
    # the benchmark's dtri_e2_c16 and dtri_e4_c4 shapes
    _assert_same_deformation(runs, whole=True)
    _assert_pinned(runs, _SHAPE_PINS[eps, centers])


def test_hex_cone_start_report_pinned():
    """The cone start's report is the same byte for byte with either projection."""
    for projection in (contextlib.nullcontext, wedge_split):
        with projection():
            start = initial_cone_solution(plateau_problem(polygon_curve(HEX, 3)))
            assert _report_digest(start) == _CONE_HEX1_PIN


# report sha256s of six random triangles (first) and their boundaries, four
# candidate centres, on the grid of pitch eps around them with one cell of
# margin; the wedge-split ones are what the Fraction pipeline produced with
# the ratios read off the exact masses
_RANDOM_TRIANGLE_PINS = {
    (0, F(1, 2)): (
        (
            "3a8cab735b2d4ab90b4b31d96ea11c1d2da3c65b3722ab9a58d8e74243140166",
            "be1e74330e0e005949cd6fc3e117dc7bab392dfdaf953a1ffe182b11e3f9a601",
        ),
        (
            "cbd1d1eab50a58fe5f76ae8cb210899b26b205e3496ee49d28836c7b1d8aa26f",
            "2da1535dd194d6a49909624019c26be66ae71a0cf5aa93d5785f8e10012112fb",
        ),
    ),
    (0, F(1, 4)): (
        (
            "04f6e10128148993fa8819683201dd084a4ea2973a568a851a2d1992dffd60b7",
            "3f8b897c248233d400a712a325e6d560196542800bc68b2aeec39fa8b14680f5",
        ),
        (
            "bed1bf06ba9e63e637e13b8d86a20cb7430ab8321338e63748645f65fdcffeb7",
            "a3f8e82d72def6a2b6170f2e1179b19bce608e1cc58c657ece3e53391bb3fa41",
        ),
    ),
    (1, F(1, 2)): (
        (
            "5b661216c29c3d03b2b273ec9225299ae6534d3ea46a323a4050e533bbb0ac9a",
            "7a0b1a51891e5cbcbc93947d2dbc8e4638740d34868456528713469f7a2686f5",
        ),
        (
            "0414f1545335519d148d393c89803926ff2c4f5776cbc598b0bb4b5655811c92",
            "bcf57db805b8b6312c329c1d7b1bf62be13d0ccf00836c9e7529a0bc9ebce750",
        ),
    ),
    (1, F(1, 4)): (
        (
            "cc71718b8ede556994ed4c026633d7648bb7256f8fe27404f97318360b2b3743",
            "72eadc6a55b4d7bcbb8e78e09d2ffd33fe8ec11ebe2f646b92ea2171f299e98e",
        ),
        (
            "de645f418cfffab84ae1a5f909b0a3061a5cb3127fde73b1e83ea5b9ffa3d939",
            "369c886e659ef49a73216788bea8d8fe40cdf0650e02a09911196d6743ad77a1",
        ),
    ),
    (2, F(1, 2)): (
        (
            "0e23783f7d671046ee6cb3a10bda5d8f9b944b610e407d135cc9973ece4439d8",
            "2a0150ee63f47c808c3b4ba30d49b61356bcec91cbc9abc61d5083551cefd4ee",
        ),
        (
            "3e51dff58283d10e8710ab4ea8dff6b5b447cb5f0cb297002425b043a6eaa0eb",
            "86b44b413dba605794c596ad4ffeca54226b91915fe2d7a41e236c8a6092a10d",
        ),
    ),
    (2, F(1, 4)): (
        (
            "794a5d0b9e38ef570c57293a46c1d34c6945ecbbea07b3c2d6fc58783f21e8dd",
            "c6d1ce1052ce59f6dbf705b55076dfb6ca9f9054058805f29fc6fe860feb7f3e",
        ),
        (
            "04b91a2a1221f498ec16cfb8dca417115b21289e7645e2cd122960daf6e31b82",
            "31de3719c5523f9e4d6737a3ace268b3d55cd047c5b4a3144467d68b184771ab",
        ),
    ),
    (3, F(1, 2)): (
        (
            "8535c75878d4fc2f777ed691401da67be1321f0c38dce42a9d475f3c180c59f9",
            "fa4c6ced8d9c0a6eabe6e98f7021a17b598ceaae9c3f2d01cbe8ff7020032eb5",
        ),
        (
            "6b20def54af1e1238bd42ab603413d301639e6c12ce34c197b93afdadedd474e",
            "a5146566b76d995b101f80e26dd230e6545e2f957697bf8c9dddcaf2b55bf3be",
        ),
    ),
    (3, F(1, 4)): (
        (
            "aff152e89dbeffd87a599fb9aa6befbfda1cf16c4ad2ff997076559169b0fd3c",
            "191394b3800da579b34c6ff9c082b492dca7d2e8012764807a68225c6bfe3f8e",
        ),
        (
            "114abe3163314a91cdecbe2a7cbce1867fb5f567b46d3084e82694f735fb6d9e",
            "35d0a3c3f36ac2d99bf4b211676d21042bdb07410efac8399e7ad8e56cd39a78",
        ),
    ),
    (4, F(1, 2)): (
        (
            "d8140d9cbd66d8c6309763cecd1795f8e69b7007f8c5500d514c52acc0133013",
            "f3351047674575076629fc03371d2ed26352b47f763026742fb9a36fd64b0ac7",
        ),
        (
            "9f9182784cc41d8f612f162b124649fe4c7eab66ca105c2f85e0f2832890447b",
            "a1a3d87c766ecab2b409fd41659ebf6d91d2eb434fbdee791c3376a37c9a9185",
        ),
    ),
    (4, F(1, 4)): (
        (
            "c1f29c8448a958c74df067adc8f2f19d2f6acf9efaec20c8742cc7bc0a18b429",
            "a4111e7ca7fe712ea9b435ce087d144b8fef75a5f7932fd9e020454a84a47cbc",
        ),
        (
            "9f39b52af490c5f9a48196fcf937ee55d5d9fb75d690ff294c1a106588e219b1",
            "3b3ff671adb3eec54a238901832ab3b2b5cc2634fee0447eea2eb9d2f2e111e5",
        ),
    ),
    (5, F(1, 2)): (
        (
            "ead9972a915a8510933173cf186241d4886ff40a3a3ab489a707dc8d55a36e69",
            "76cac03deb50f05f403069b51cebd85ca4e9541179be4e5ea735b32fe5b3497c",
        ),
        (
            "3ae68ce8fc54d5717c37ff266c0d920d6c3cb25ef838a9ff68e1b809662a2057",
            "f523a01c79c721efd219a309675a6d78df61a4973c27b3933d77ba54153c314f",
        ),
    ),
    (5, F(1, 4)): (
        (
            "b86f4325b75106c33779b6ec1c2e882e46b5a1b7c38f26bff49c5b60308dcd6a",
            "38fe51e00ed0dcc58103dbd3d8df9fd4eae97e7f317f2d629003ec5f736450d9",
        ),
        (
            "fd7fc535d4bdf2b4d50392108cd93d7387f71db1cf9c6c15551cafc7720cccee",
            "1dd73eeaf181012d143b2cf69dfef7899363ba2b77db0f4fd4cf98e467f2bec1",
        ),
    ),
}


def _random_triangles(count=6):
    rng = random.Random("filmlab-test:random-triangles")
    tris = []
    while len(tris) < count:
        s = tuple(tuple(F(rng.randint(-8, 8), 8) for _ in range(3)) for _ in range(3))
        if not is_degenerate(s):
            tris.append(simplicial_chain(2, [s]))
    return tris


def _grid_around(chain, eps):
    los = [min(v[a] for s in chain.simplices for v in s) for a in range(3)]
    his = [max(v[a] for s in chain.simplices for v in s) for a in range(3)]
    base = [math.floor(lo / eps) - 1 for lo in los]
    dims = tuple(math.ceil(hi / eps) + 1 - b for hi, b in zip(his, base))
    return GridSpec(origin=tuple(eps * b for b in base), epsilon=eps, dims=dims)


@pytest.mark.parametrize("index, eps", sorted(_RANDOM_TRIANGLE_PINS), ids=str)
def test_random_triangle_reports_pinned(index, eps):
    tri = _random_triangles()[index]
    for A, digests in zip((tri, boundary_simplicial(tri)), _RANDOM_TRIANGLE_PINS[index, eps]):
        cfg = DeformConfig(epsilon=eps, candidate_centers=4)
        runs = _both_projections(lambda: deform_chain(A, _grid_around(A, eps), cfg))
        _assert_same_deformation(runs)
        _assert_pinned(runs, digests)


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_report_does_not_depend_on_track_order(order):
    """The tracks toggle into R on integer keys, so R and dR iterate in an
    order of their own; no byte of the report may follow it."""
    tri = iof.parse_input(iof.load_document(os.path.join(FIXTURES, "tilted_triangle.json")))
    eps = F(1, 2)
    grid = make_grid((4, 4, 4), origin=(-eps, -eps, -eps), eps=eps)
    cfg = DeformConfig(epsilon=eps, candidate_centers=4)
    finals, tracks, fallbacks = dm._run_pipeline([tri], grid, cfg)
    moved = list(tracks[0])
    if order == "reversed":
        moved.reverse()
    else:
        random.Random("filmlab-test:track-order").shuffle(moved)
    assert moved != tracks[0]
    result = dm._finish_entry(tri, finals[0], moved, grid, cfg, tuple(fallbacks))
    assert _report_digest(result) == _report_digest(deform_chain(tri, grid, cfg))
    assert _report_digest(result) == _TILTED_PINS[eps][3][0]


def _misprune(monkeypatch):
    """Q one simplex short of what the prune keeps or, where the prune
    leaves Q empty, one simplex of A + P + dR in it."""
    prune = dm._prune_zero_groups

    def wrong(k, simplices):
        kept = prune(k, simplices)
        return set(sorted(kept)[1:]) if kept else {min(simplices)}

    monkeypatch.setattr(dm, "_prune_zero_groups", wrong)


@pytest.mark.parametrize("case", ["triangle", "boundary", "cone"])
def test_identity_check_does_not_trust_the_prune(monkeypatch, case):
    """The identity is overlaid afresh on A + P + Q + dR, so a Q the prune
    got wrong fails it instead of passing on the prune's own verdicts."""
    tri = iof.parse_input(iof.load_document(os.path.join(FIXTURES, "tilted_triangle.json")))
    eps = F(1, 2)
    _misprune(monkeypatch)
    with pytest.raises(RuntimeError, match="identity failed"):
        if case == "cone":
            initial_cone_solution(plateau_problem(polygon_curve(HEX, 3)))
        else:
            A = tri if case == "triangle" else boundary_simplicial(tri)
            deform_chain(A, _grid_around(A, eps), DeformConfig(epsilon=eps, candidate_centers=4))


def _float_ratio(mass, ceiling):
    n, d = float(mass), float(ceiling)
    if d == 0.0:
        return 0.0 if n == 0.0 else math.inf
    return n / d


def _measured_from_chains(A, result, eps):
    """The four ratios, recomputed from the report's own chains."""
    mA, mdA = mass_simplicial(A), mass_simplicial(boundary_simplicial(A))
    return {
        "cP": _float_ratio(mass_grid(result.P), mA + eps * mdA),
        "cdP": _float_ratio(mass_grid(boundary_grid(result.P)), mdA),
        "cQ": _float_ratio(mass_simplicial(result.Q), eps * mdA),
        "cR": _float_ratio(mass_simplicial(result.R), eps * mA),
    }


@pytest.mark.parametrize("eps", [F(1), F(1, 2)], ids=str)
def test_measured_ratios_are_floats_of_exact_masses(eps):
    """Each measured ratio is float(mass) / float(ceiling) of exact masses,
    so no float sum over a chain's simplices, and no iteration order,
    reaches a report.  At eps 1/2 the triangle's cQ is 1.9841660742319853;
    a float sum in the chain's iteration order gave 1.9841660742319847."""
    tri = iof.parse_input(iof.load_document(os.path.join(FIXTURES, "tilted_triangle.json")))
    n = int(1 / eps) + 2
    grid = make_grid((n, n, n), origin=(-eps, -eps, -eps), eps=eps)
    cfg = DeformConfig(epsilon=eps, candidate_centers=4)
    for A in (tri, boundary_simplicial(tri)):
        result = deform_chain(A, grid, cfg)
        assert result.measured == _measured_from_chains(A, result, eps)
    curve = boundary_simplicial(tri)
    D, Q, R, report = deform_dipolyhedron(make_dipole(tri), curve, grid, cfg)
    assert report.film.measured == _measured_from_chains(tri, report.film, eps)
    assert report.energy_Q == energy(Q) and report.energy_R == energy(R)
    assert report.measured == {
        "cE": _float_ratio(energy(D).energy, mass_simplicial(tri) + eps * mass_simplicial(curve)),
        "cdD": _float_ratio(mass_grid(boundary_grid(D.B) + D.C), mass_simplicial(curve)),
    }
    if eps == F(1, 2):
        assert report.film.measured["cQ"] == 1.9841660742319853


def _all_exact_choice(grid, cell, pieces, cfg):
    """Reference: every candidate cleared exactly and every cleared one
    projected by the wedge split, then the least exact projected mass,
    lowest index on ties; with none cleared, the farthest candidate, lowest
    index on ties."""
    candidates = fraction_center_candidates(grid, cell, cfg)
    cut = (cfg.tau * grid.epsilon) ** 2
    dists = [min(point_simplex_dist_sq(c, s) for s in pieces) for c in candidates]
    admitted = [i for i, d2 in enumerate(dists) if d2 >= cut]
    fallback = not admitted
    if fallback:
        admitted = [dists.index(max(dists))]
    winner = winner_mass = None
    hpieces = [tuple(map(homogeneous, s)) for s in pieces]
    for i in admitted:
        proj = wedge_project_cell_pieces(grid, cell, homogeneous(candidates[i]), hpieces)
        m = radical_sum(
            simplex_measure(tuple(map(affine, image))) for pairs in proj for _, image in pairs
        )
        if winner is None or m < winner_mass:
            winner, winner_mass = (i, proj), m
    i, proj = winner
    return homogeneous(candidates[i]), proj, fallback


def _as_chain(k, pieces):
    return simplicial_chain(k, [tuple(map(affine, s)) for s in pieces])


def _same_choice(got, expected, k):
    """The same centre and fallback, and projections equal as chains piece
    by piece: sub-pieces and images alike."""
    if got[0] != expected[0] or got[2] != expected[2] or len(got[1]) != len(expected[1]):
        return False
    for new, old in zip(got[1], expected[1]):
        for part in (0, 1):
            lhs, rhs = (_as_chain(k, [pair[part] for pair in pairs]) for pairs in (new, old))
            if not chains_equal_mod2(lhs, rhs).equal:
                return False
    return True


def test_boundary_choices_follow_the_exact_rule(monkeypatch):
    """Every centre chosen while deforming the tilted triangle's boundary is
    the one the exact rule picks.  Several face cells here hold candidates
    whose projected masses are equal exactly; in the face at base (1, 1, 1)
    with axes (1, 2), candidates 0 and 15 tie and candidate 0 wins."""
    tri = iof.parse_input(iof.load_document(os.path.join(FIXTURES, "tilted_triangle.json")))
    eps = F(1, 2)
    grid = make_grid((4, 4, 3), origin=(-eps, -eps, -eps), eps=eps)
    cfg = DeformConfig(epsilon=eps, candidate_centers=16)
    choose = dm._choose_center
    calls = {}

    def checked(grid, cell, pieces, cfg):
        got = choose(grid, cell, pieces, cfg)
        fraction_pieces = [tuple(map(affine, s)) for s in pieces]
        expected = _all_exact_choice(grid, cell, fraction_pieces, cfg)
        calls[cell] = (_same_choice(got, expected, 1), got[0])
        return got

    monkeypatch.setattr(dm, "_choose_center", checked)
    deform_chain(boundary_simplicial(tri), grid, cfg)
    wrong = [cell for cell, (ok, _) in calls.items() if not ok]
    assert calls and not wrong, wrong
    face = GridCell((1, 1, 1), (1, 2))
    assert calls[face][1] == dm._center_candidates(grid, face, cfg)[0]


def _random_pieces(rng, grid, cell, k, count):
    """Nondegenerate k-simplices with vertices on an eighth-lattice of the cell.

    Coordinates sit on the cell's facets half the time: pieces running from
    facet to facet project to the same mass from many centers, so the
    exact tie-break gets exercised.
    """

    def point():
        lattice = [F(b) for b in cell.base]
        for a in cell.axes:
            step = rng.choice((0, 8)) if rng.random() < 0.5 else rng.randint(1, 7)
            lattice[a] += F(step, 8)
        return grid.world(tuple(lattice))

    pieces = []
    while len(pieces) < count:
        s = tuple(point() for _ in range(k + 1))
        if not is_degenerate(s):
            pieces.append(s)
    return pieces


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_choose_center_matches_all_exact_rule(seed):
    rng = random.Random(seed)
    eps = rng.choice((F(1), F(1, 2)))
    grid = make_grid((2, 2, 2), origin=(-eps, -eps, -eps), eps=eps)
    corner = (rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1))
    cases = [
        # segments in a face: the 2-cell stage of a 1-chain
        (GridCell(corner, (0, 1)), 1, rng.randint(1, 4)),
        # segments or triangles in a cube: the 3-cell stage
        (GridCell(corner, (0, 1, 2)), rng.choice((1, 2)), rng.randint(1, 3)),
    ]
    for cell, k, count in cases:
        pieces = _random_pieces(rng, grid, cell, k, count)
        cfg = DeformConfig(
            epsilon=eps,
            candidate_centers=rng.randint(2, 8),
            # a wide clearance rejects every candidate now and then: the fallback
            tau=rng.choice((F(1, 8), F(1, 4), F(7, 16))),
            seed=rng.randint(0, 9),
        )
        hpieces = [tuple(map(homogeneous, s)) for s in pieces]
        got = dm._choose_center(grid, cell, hpieces, cfg)
        assert _same_choice(got, _all_exact_choice(grid, cell, pieces, cfg), k)


def _wedge_pieces(rng, grid, cell, center, k, count):
    """Segments (k = 1) or triangles (k = 2) in the triangle spanned by the
    centre and one of the cube's edges: each lies wholly in that edge's
    wedge plane, on the boundary between the two facet cones that meet
    there."""
    c = affine(center)
    pieces = []
    while len(pieces) < count:
        p, q = map(affine, rng.choice(wedge_edges(grid, cell)))
        ends = []
        for _ in range(k + 1):
            al = F(rng.randint(0, 8), 8)
            be = F(rng.randint(0, 8), 8) * (1 - al)
            ends.append(tuple(x + al * (u - x) + be * (v - x) for x, u, v in zip(c, p, q)))
        # a segment on a line through the centre has no radial projection
        if k == 1 and vcross(vsub(ends[0], c), vsub(ends[1], c)) == (0, 0, 0):
            continue
        if not is_degenerate(tuple(ends)):
            pieces.append(tuple(map(homogeneous, ends)))
    return pieces


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_cone_mass_equals_the_wedge_split_image_mass(seed):
    """The cone score of a centre is the exact mass of _project_cell_pieces's
    images, equal under RadicalSum ==: triangles and segments in a cube
    (segments in a wedge plane included), segments in a face, half of the
    vertices on facets so that pieces run from facet to facet."""
    rng = random.Random(seed)
    eps = rng.choice((F(1), F(1, 2)))
    grid = make_grid((2, 2, 2), origin=(-eps, -eps, -eps), eps=eps)
    corner = (rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1))
    cube = GridCell(corner, (0, 1, 2))
    face = GridCell(corner, rng.choice(((0, 1), (0, 2), (1, 2))))
    cfg = DeformConfig(epsilon=eps, candidate_centers=3, seed=rng.randint(0, 9))
    for cell, k in ((cube, 2), (cube, 1), (face, 1)):
        frame = dm._facet_frame(grid, cell)
        for center in dm._center_candidates(grid, cell, cfg):
            pieces = [
                tuple(map(homogeneous, s))
                for s in _random_pieces(rng, grid, cell, k, rng.randint(1, 3))
            ]
            if cell.dim == 3 and k == 1:
                pieces += _wedge_pieces(rng, grid, cell, center, 1, 2)
            pieces = [s for s in pieces if homogeneous_dist_sq(center, s)[0] > 0]
            proj = wedge_project_cell_pieces(grid, cell, center, pieces)
            expected = _image_mass(image for pairs in proj for _, image in pairs)
            assert dm._cone_mass(frame, center, pieces) == expected


def _image_mass(images):
    return radical_sum(simplex_measure(tuple(map(affine, image))) for image in images)


def _in_one_facet(grid, cell, image):
    """Do the image's vertices all lie in one closed facet of the cell?"""
    lattice = [
        [(x - o) / grid.epsilon for x, o in zip(affine(v), grid.origin)] for v in image
    ]
    inside = all(
        cell.base[b] <= p[b] <= cell.base[b] + (b in cell.axes) for p in lattice for b in (0, 1, 2)
    )
    return inside and any(
        all(p[a] == side for p in lattice)
        for a in cell.axes
        for side in (cell.base[a], cell.base[a] + 1)
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_cone_clip_projection_matches_the_wedge_split(seed):
    """Piece by piece, the facet-cone projection cuts a piece into parts
    that make up the piece as a chain, sends each part into one facet, and
    gives images equal as a chain to the wedge-split reference's, of the
    mass _cone_mass scores: triangles and segments in a cube, segments in a
    face, vertices on facets, and segments and triangles in a wedge plane."""
    rng = random.Random(seed)
    eps = rng.choice((F(1), F(1, 2)))
    grid = make_grid((2, 2, 2), origin=(-eps, -eps, -eps), eps=eps)
    corner = (rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1))
    cube = GridCell(corner, (0, 1, 2))
    face = GridCell(corner, rng.choice(((0, 1), (0, 2), (1, 2))))
    cfg = DeformConfig(epsilon=eps, candidate_centers=2, seed=rng.randint(0, 9))
    for cell, k in ((cube, 2), (cube, 1), (face, 1)):
        frame = dm._facet_frame(grid, cell)
        for center in dm._center_candidates(grid, cell, cfg):
            pieces = [
                tuple(map(homogeneous, s))
                for s in _random_pieces(rng, grid, cell, k, rng.randint(1, 3))
            ]
            if cell.dim == 3:
                pieces += _wedge_pieces(rng, grid, cell, center, k, 2)
            pieces = [s for s in pieces if homogeneous_dist_sq(center, s)[0] > 0]
            new = dm._project_cell_pieces(frame, center, pieces)
            old = wedge_project_cell_pieces(grid, cell, center, pieces)
            for s, pairs, ref in zip(pieces, new, old):
                parts = _as_chain(k, [sub for sub, _ in pairs])
                assert chains_equal_mod2(parts, _as_chain(k, [s])).equal
                images, ref_images = ([image for _, image in p] for p in (pairs, ref))
                assert chains_equal_mod2(_as_chain(k, images), _as_chain(k, ref_images)).equal
                assert all(_in_one_facet(grid, cell, image) for image in images)
                mass = dm._cone_mass(frame, center, [s])
                assert mass == _image_mass(images) == _image_mass(ref_images)


@settings(max_examples=40, deadline=None)
@given(
    origin=st.tuples(*[st.fractions(-3, 3, max_denominator=7)] * 3),
    eps=st.sampled_from((F(1), F(1, 2), F(2, 3), F(3, 7), F(5, 3))),
    base=st.tuples(*[st.integers(0, 2)] * 3),
    axes=st.sampled_from(((0, 1), (0, 2), (1, 2), (0, 1, 2))),
    seed=st.integers(0, 9),
)
def test_integer_candidates_equal_the_fraction_formula(origin, eps, base, axes, seed):
    """The centre candidates built in integers over one denominator per grid
    are the reference's Fraction points, in the same order: origins over 3
    and 7, spacings such as 2/3, in 2- and 3-cells."""
    grid = make_grid((3, 3, 3), origin=origin, eps=eps)
    cell = GridCell(base, axes)
    cfg = DeformConfig(epsilon=eps, candidate_centers=8, seed=seed)
    got = dm._center_candidates(grid, cell, cfg)
    assert got == [homogeneous(p) for p in fraction_center_candidates(grid, cell, cfg)]
    # the facets' offsets from each candidate are integers over the frame's K
    frame = dm._facet_frame(grid, cell)
    for c, p in zip(got, fraction_center_candidates(grid, cell, cfg)):
        k, facets = dm._facet_offsets(frame, c)
        for a, below, above in facets:
            lower = grid.origin[a] + eps * base[a]
            assert (F(below, k), F(above, k)) == (lower - p[a], lower + eps - p[a])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_cone_skip_yields_the_unskipped_parts(seed):
    """_facet_parts, which skips a cone no vertex's ray reaches on its
    facet's side, yields the parts the unskipped clip yields, in order: on
    random segments and triangles in a cube, segments in a face, pieces in a
    wedge plane, as rays alone and as rays with their points."""
    rng = random.Random(seed)
    eps = rng.choice((F(1), F(1, 2)))
    grid = make_grid((2, 2, 2), origin=(-eps, -eps, -eps), eps=eps)
    corner = (rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1))
    cube = GridCell(corner, (0, 1, 2))
    face = GridCell(corner, rng.choice(((0, 1), (0, 2), (1, 2))))
    cfg = DeformConfig(epsilon=eps, candidate_centers=3, seed=rng.randint(0, 9))
    for cell, k in ((cube, 2), (cube, 1), (face, 1)):
        frame = dm._facet_frame(grid, cell)
        for center in dm._center_candidates(grid, cell, cfg):
            _, facets = dm._facet_offsets(frame, center)
            pieces = [
                tuple(map(homogeneous, s))
                for s in _random_pieces(rng, grid, cell, k, rng.randint(2, 4))
            ]
            if cell.dim == 3:
                pieces += _wedge_pieces(rng, grid, cell, center, k, 2)
            pieces = [s for s in pieces if homogeneous_dist_sq(center, s)[0] > 0]
            cones, ref_cones = [], []
            for s in pieces:
                rays = dm._rays(center, s)
                for poly in (rays, [r + v for r, v in zip(rays, s)]):
                    got = list(dm._facet_parts(poly, facets, cones))
                    assert got == list(unskipped_facet_parts(poly, facets, ref_cones))


@pytest.mark.parametrize("case, eps", [("triangle", F(1, 2)), ("boundary", F(1))], ids=str)
def test_no_clearance_fallback_end_to_end(case, eps):
    """With a clearance of 7/16 eps and two candidates a cell, some cell
    (a cube for the triangle, a face for its boundary) keeps no candidate
    clear of the chain and takes the farthest one; the identity is exact,
    and P and the centres are the wedge-split reference's."""
    tri = iof.parse_input(iof.load_document(os.path.join(FIXTURES, "tilted_triangle.json")))
    A = tri if case == "triangle" else boundary_simplicial(tri)
    grid = _grid_around(A, eps)
    cfg = DeformConfig(epsilon=eps, candidate_centers=2, tau=F(7, 16))
    runs = _both_projections(lambda: deform_chain(A, grid, cfg))
    (result, centres), _ = runs
    assert result.fallback_cells
    assert [cell for cell, _, fallback in centres if fallback] == list(result.fallback_cells)
    assert result.identity.equal and result.identity.mode == "exact"
    assert _identity_holds(A, result, grid)
    _assert_same_deformation(runs)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_clears_matches_the_exact_distance(seed):
    """_clears, box reject included, is the exact test min distance^2 >= cut."""
    rng = random.Random(seed)
    eps = rng.choice((F(1), F(1, 2)))
    grid = make_grid((2, 2, 2), origin=(-eps, -eps, -eps), eps=eps)
    corner = (rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 1))
    cell = GridCell(corner, rng.choice(((0, 1), (0, 1, 2))))
    pieces = _random_pieces(rng, grid, cell, rng.choice((1, 2)), rng.randint(1, 4))
    hpieces = [tuple(map(homogeneous, s)) for s in pieces]
    cfg = DeformConfig(epsilon=eps, candidate_centers=16, seed=rng.randint(0, 9))
    cut = (rng.choice((F(1, 8), F(1, 4), F(7, 16))) * eps) ** 2
    for c in dm._center_candidates(grid, cell, cfg):
        expected = min(point_simplex_dist_sq(affine(c), s) for s in pieces) >= cut
        assert dm._clears(c, hpieces, cut) is expected


def test_clearance_admits_exactly_tau_eps():
    """A candidate exactly tau * eps from a piece clears and one candidate
    step (eps / 64) closer does not: above a triangle's face, beside an
    edge, beyond a vertex, and off a segment, with a far piece first."""
    eps, tau = F(1, 2), F(1, 8)
    cut = (tau * eps) ** 2
    a, b, c = (F(0), F(0), F(0)), (eps, F(0), F(0)), (F(0), eps, F(0))
    far = tuple(map(homogeneous, ((F(9), F(9), F(9)), (F(10), F(9), F(9)))))
    cases = [
        ((a, b, c), (eps / 4, eps / 4, F(0)), (0, 0, 1)),
        ((a, b, c), (eps / 2, F(0), F(0)), (0, -1, 0)),
        ((a, b, c), a, (-1, 0, 0)),
        ((a, b), (eps / 2, F(0), F(0)), (0, 0, -1)),
    ]
    for piece, foot, direction in cases:
        pieces = [far, tuple(map(homogeneous, piece))]
        for gap, clears in ((tau * eps, True), (tau * eps - eps / 64, False)):
            candidate = homogeneous(tuple(x + gap * d for x, d in zip(foot, direction)))
            assert dm._clears(candidate, pieces, cut) is clears


def test_farthest_ties_go_to_the_lowest_index():
    """Two vertices at the same exact distance 1 from the pieces: the lower
    index wins, whichever of them is listed first."""
    pieces = [
        tuple(map(homogeneous, ((F(0), F(0), F(0)), (F(1), F(0), F(0))))),
        (homogeneous((F(0), F(5), F(0))),),
    ]
    near, p, q = (
        homogeneous(v)
        for v in ((F(1, 2), F(1, 3), F(0)), (F(1, 2), F(3, 5), F(4, 5)), (F(2), F(0), F(0)))
    )
    assert dm._farthest([near, p, q], pieces) == (1, 1)
    assert dm._farthest([near, q, p], pieces) == (1, 1)
    assert dm._farthest([p, near, q], pieces) == (0, 1)


def _ladder_interval(x, bits):
    """Rational enclosure of a mass, as the old enclosure ladder took it."""
    if isinstance(x, SimplicialChain):
        lo = hi = F(0)
        for s in x.simplices:
            a, b = sqrt_enclosure(simplex_measure_sq(s), bits)
            lo += a / math.factorial(x.k)
            hi += b / math.factorial(x.k)
        return lo, hi
    if isinstance(x, RadicalSum):
        return x.enclosure(bits)
    return F(x), F(x)


def _ladder_exact(x):
    if isinstance(x, SimplicialChain):
        return mass_simplicial(x)
    return x if isinstance(x, RadicalSum) else RadicalSum.from_fraction(x)


def _ladder_leq_mass(lhs, rhs_terms):
    """Reference: the enclosure ladder that decided the mass bounds before
    RadicalSum comparison did (64- then 256-bit enclosures, exact last);
    a RadicalSum left side is enclosed by its own enclosure."""
    for bits in (64, 256):
        llo, lhi = _ladder_interval(lhs, bits)
        rlo = rhi = F(0)
        for coeff, term in rhs_terms:
            tlo, thi = _ladder_interval(term, bits)
            rlo += coeff * tlo
            rhi += coeff * thi
        if lhi <= rlo:
            return True
        if llo > rhi:
            return False
    rhs = RadicalSum.from_fraction(0)
    for coeff, term in rhs_terms:
        rhs = rhs + _ladder_exact(term) * coeff
    return _ladder_exact(lhs) <= rhs


def _split_at_midpoints(chain):
    """The same chain with every simplex cut in two at its first edge's midpoint."""
    out = []
    for s in chain.simplices:
        mid = tuple((a + b) / 2 for a, b in zip(s[0], s[1]))
        out += [(s[0], mid) + s[2:], (mid, s[1]) + s[2:]]
    return simplicial_chain(chain.k, out)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    kind=st.sampled_from(["random", "tie", "grid", "near", "energy"]),
)
def test_mass_bound_matches_enclosure_ladder(seed, kind):
    rng = random.Random(seed)
    coeff = lambda: F(rng.randint(0, 8), rng.choice((2, 4, 8)))  # noqa: E731
    chains = [random_simplicial_chain(rng.choice((1, 2)), rng) for _ in range(3)]
    terms = [(coeff(), ch) for ch in chains[: rng.randint(1, 3)]]
    if kind == "random":
        lhs = random_simplicial_chain(rng.choice((1, 2)), rng)
    elif kind == "tie":
        # rhs is c * M(lhs), split over two coefficients or a re-presentation
        L = chains[0]
        c = F(rng.randint(1, 8), rng.randint(1, 4)) if rng.random() < 0.5 else F(1)
        part = F(rng.randint(0, 8), 8) * c
        terms = [(part, L), (c - part, _split_at_midpoints(L))]
        lhs = L if c == 1 else mass_simplicial(L) * c
    elif kind == "grid":
        grid = make_grid((2, 2, 2), eps=rng.choice((F(1), F(1, 2), F(1, 3))))
        P = chain_of(grid, 2, [c for c in grid.cells(2) if rng.random() < 0.4])
        P = P if rng.random() < 0.5 else boundary_grid(P)
        lhs = mass_grid(P)
        if rng.random() < 0.5:
            # a tie: c times the grid mass against c times its embedding
            c = F(rng.randint(1, 6), rng.randint(1, 3))
            lhs, terms = lhs * c, [(c, embed_grid_chain(P))]
    elif kind == "near":
        # a rational just below or above the bound: enclosures must refine
        bound = radical_sum(mass_simplicial(ch) * c for c, ch in terms)
        lo, hi = bound.enclosure(rng.choice((40, 64, 128)))
        lhs = rng.choice((lo, hi, (lo + hi) / 2))
    else:
        # energies: a pair's M(B) + M(C) on the left, cE-shaped bound on the right
        B = random_simplicial_chain(2, rng)
        C = random_simplicial_chain(1, rng)
        lhs = energy(Dipolyhedron(B, C)).energy
        c, eps = F(rng.randint(0, 3)), F(1, rng.randint(1, 4))
        terms = [(2 * c, B), (2 * c, C), (2 * c * eps, boundary_simplicial(B))]
    # the deformation's bound test: one exact mass against c times its exact ceiling
    mass = mass_simplicial(lhs) if isinstance(lhs, SimplicialChain) else lhs
    ceiling = radical_sum(mass_simplicial(term) * coeff for coeff, term in terms)
    assert (mass <= ceiling) == _ladder_leq_mass(lhs, terms)
    if kind == "tie":
        assert mass <= ceiling
