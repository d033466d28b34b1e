import hashlib
import math
import os
import random
from fractions import Fraction

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
from filmlab.dipolyhedra import Dipolyhedron, energy, make_dipole
from filmlab.exact import RadicalSum, radical_sum, sqrt_enclosure
from filmlab.geom import (
    affine,
    homogeneous,
    is_degenerate,
    point_simplex_dist_sq,
    simplex_measure,
    simplex_measure_sq,
)
from filmlab.grid import GridCell, GridSpec, boundary_grid, chain_of, mass_grid
from filmlab.overlay import chains_equal_mod2
from filmlab.plateau import initial_cone_solution, plateau_problem
from filmlab.simplicial import (
    SimplicialChain,
    boundary_simplicial,
    embed_grid_chain,
    mass_simplicial,
    simplicial_chain,
)

from conftest import HEX, make_grid, polygon_curve, random_simplicial_chain, square_curve

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


_TILTED_PINS = {
    # eps: (candidate centres, P cells, chosen centres, report sha256)
    F(1): (
        16,
        [],
        [("15/16", "53/64", "53/64")],
        "8af54787eaa650b586cf9bf235b1612dd2162cd626306851b84352256b06a54a",
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
        "3400cea13716faeaff43ede75d860e601db78262070ff0da4c54d53ccbb76cb1",
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
        "d72d246506092ca569f0a7c7fd53aa1d343d4937a36459fe5018d250f9f78de4",
    ),
}


@pytest.mark.parametrize("eps", sorted(_TILTED_PINS, reverse=True), ids=str)
def test_tilted_triangle_choices_pinned(eps):
    """The centre choice and the whole report of the tilted-triangle fixture
    do not move when the way the centre is found changes."""
    centers, cells, apexes, digest = _TILTED_PINS[eps]
    doc = iof.load_document(os.path.join(FIXTURES, "tilted_triangle.json"))
    tri = iof.parse_input(doc)
    n = int(1 / eps) + 2
    grid = make_grid((n, n, n), origin=(-eps, -eps, -eps), eps=eps)
    cfg = DeformConfig(epsilon=eps, candidate_centers=centers)
    result = deform_chain(tri, grid, cfg)
    assert sorted((c.base, c.axes) for c in result.P.cells) == cells
    # a track's apex is its cell's centre: the R vertices that are
    # candidate centres of the 2- or 3-cell they sit in
    chosen = set()
    for v in {v for s in result.R.simplices for v in s}:
        cell = dm._carrier(grid, (v,))
        if cell.dim >= 2 and v in dm._center_candidates(grid, cell, cfg):
            chosen.add(v)
    assert sorted(chosen) == sorted(tuple(F(x) for x in a) for a in apexes)
    report = iof.dumps_json(iof.to_jsonable(result))
    assert hashlib.sha256(report.encode()).hexdigest() == digest


# report sha256 of the benchmark's other deform shapes, as the Fraction
# kernels produced them: exact integer kernels must not move a byte
_SHAPE_PINS = {
    # the tilted triangle's boundary at (eps, candidate centres) on the grid
    # of pitch eps around it with one cell of margin
    (F(1, 2), 16): "394fb2b6a729d1f328dd2516ee7515b63d403c88f1d7595f21bbe2229b866b2e",
    (F(1, 4), 4): "8e7c48ec8615ba3774bffdb1f02ae4cc9d5aad366bd4fa2f301b814578e46b44",
}
_CONE_HEX1_PIN = "3421672eacf8a6669c890cbc155bd5fd81ac28409d5747f94c2af06ddca12599"


def _report_digest(result):
    return hashlib.sha256(iof.dumps_json(iof.to_jsonable(result)).encode()).hexdigest()


@pytest.mark.parametrize("eps, centers", sorted(_SHAPE_PINS, reverse=True), ids=str)
def test_tilted_boundary_report_pinned(eps, centers):
    tri = iof.parse_input(iof.load_document(os.path.join(FIXTURES, "tilted_triangle.json")))
    # the triangle spans [0, 1] x [0, 1] x [0, 1/2]
    dims = (int(1 / eps) + 2, int(1 / eps) + 2, int(F(1, 2) / eps) + 2)
    grid = make_grid(dims, origin=(-eps, -eps, -eps), eps=eps)
    cfg = DeformConfig(epsilon=eps, candidate_centers=centers)
    result = deform_chain(boundary_simplicial(tri), grid, cfg)
    assert _report_digest(result) == _SHAPE_PINS[eps, centers]


def test_hex_cone_start_report_pinned():
    start = initial_cone_solution(plateau_problem(polygon_curve(HEX, 3)))
    assert _report_digest(start) == _CONE_HEX1_PIN


def _all_exact_choice(grid, cell, pieces, cfg):
    """Reference: every candidate cleared exactly and every cleared one
    projected, then the least exact projected mass, lowest index on ties;
    with none cleared, the farthest candidate, lowest index on ties."""
    candidates = dm._center_candidates(grid, cell, cfg)
    cut = (cfg.tau * grid.epsilon) ** 2
    dists = [min(point_simplex_dist_sq(c, s) for s in pieces) for c in candidates]
    admitted = [i for i, d2 in enumerate(dists) if d2 >= cut]
    fallback = not admitted
    if fallback:
        admitted = [dists.index(max(dists))]
    winner = winner_mass = None
    hpieces = [tuple(map(homogeneous, s)) for s in pieces]
    for i in admitted:
        proj = dm._project_cell_pieces(grid, cell, candidates[i], hpieces)
        m = radical_sum(
            simplex_measure(tuple(map(affine, image))) for pairs in proj for _, image in pairs
        )
        if winner is None or m < winner_mass:
            winner, winner_mass = (i, proj), m
    i, proj = winner
    return candidates[i], proj, fallback


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
        calls[cell] = (got == _all_exact_choice(grid, cell, pieces, cfg), got[0])
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
        assert dm._choose_center(grid, cell, pieces, cfg) == _all_exact_choice(
            grid, cell, pieces, cfg
        )


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
    mass = mass_simplicial(lhs) if isinstance(lhs, SimplicialChain) else lhs
    assert dm._mass_at_most(mass, terms) == _ladder_leq_mass(lhs, terms)
    if kind == "tie":
        assert dm._mass_at_most(mass, terms)
