import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from filmlab import flatnorm
from filmlab.dipolyhedra import Dipolyhedron
from filmlab.flatnorm import (
    DEFAULT_CONFIG,
    CutFlow,
    EnergyFlatCertificate,
    FlatNormCertificate,
    ProjectionFlows,
    SolverConfig,
    energy_flat_norm,
    flat_norm,
    _box_labelling,
    _cover_arcs,
    _cover_cut,
    _projection_bound,
    _projection_labelling,
    _searched,
    verify_certificate,
)
from filmlab.grid import (
    GridCell,
    GridSpec,
    boundary_grid,
    box_cells,
    chain_of,
    empty_chain,
    lattice_box,
    mass_grid,
)
from filmlab.natural_norm import MulticellDecomposition, natural_norm_upper
from filmlab.pairs import make_dipole, make_massive

from conftest import make_grid, random_grid_chain
from references import scanned, scanning, solve_bnb, whole_grid

F = Fraction


def test_flat_norm_of_empty_chain():
    grid = make_grid((1, 1, 1))
    cert = flat_norm(empty_chain(grid, 1))
    assert cert.value == 0 and cert.Q.is_zero() and cert.R.is_zero()
    assert cert.status == "exact"


def test_flat_norm_of_face_boundary_fills():
    grid = make_grid((1, 1, 1))
    face = GridCell((0, 0, 0), (0, 1))
    P = boundary_grid(chain_of(grid, 2, [face]))
    cert = flat_norm(P)
    assert cert.value == 1
    assert cert.R.cells == frozenset({face})
    assert cert.Q.is_zero()
    assert verify_certificate(cert, P)


def test_flat_norm_of_single_edge_keeps_it():
    grid = make_grid((1, 1, 1))
    P = chain_of(grid, 1, [GridCell((0, 0, 0), (0,))])
    cert = flat_norm(P)
    assert cert.value == 1
    assert cert.Q == P and cert.R.is_zero()


def test_flat_norm_never_exceeds_mass():
    grid = make_grid((2, 2, 1))
    rng = random.Random(23)
    for _ in range(10):
        P = random_grid_chain(grid, 1, rng, density=0.25)
        cert = flat_norm(P)
        assert cert.value <= mass_grid(P)
        assert verify_certificate(cert, P)


def test_flat_norm_tampered_certificate_fails():
    grid = make_grid((1, 1, 1))
    face = GridCell((0, 0, 0), (0, 1))
    P = boundary_grid(chain_of(grid, 2, [face]))
    cert = flat_norm(P)
    bad = FlatNormCertificate(
        cert.value, cert.Q + chain_of(grid, 1, [GridCell((0, 0, 0), (0,))]), cert.R, cert.status
    )
    assert not verify_certificate(bad, P)
    wrong_value = FlatNormCertificate(cert.value + 1, cert.Q, cert.R, cert.status)
    assert not verify_certificate(wrong_value, P)
    # without a flow to replay, the status is still one of the two
    assert verify_certificate(FlatNormCertificate(cert.value, cert.Q, cert.R, "upper-bound"), P)
    assert not verify_certificate(FlatNormCertificate(cert.value, cert.Q, cert.R, "bogus"), P)


def _answer(cert):
    return cert.value, cert.Q, cert.R, cert.status


def test_flat_norm_methods_agree_seeded():
    # both methods run the branch-and-bound; the reference is the scan
    grid = make_grid((2, 2, 1))
    rng = random.Random(41)
    for _ in range(12):
        P = random_grid_chain(grid, 1, rng, density=0.2)
        scan = _answer(scanned(P))
        assert scan[3] == "exact"
        for method in ("exhaustive", "bnb"):
            # ties are broken toward the lexicographically least mask, so the
            # certificates themselves agree as well, with the root or without
            assert _answer(_searched(P, method, DEFAULT_CONFIG)) == scan
            assert _answer(flat_norm(P, method=method)) == scan


@pytest.mark.parametrize(
    "dims, k, eps", [((2, 3, 4), 2, F(1, 2)), ((4, 6, 0), 1, F(1))], ids=["k2-box", "k1-plane"]
)
def test_bnb_matches_the_scan_at_the_exhaustive_limit(dims, k, eps):
    # 24 free cells, the default limit's full size; these chains have
    # optimal masks that are not subsets of one another, and a search that
    # kept its first optimal leaf would answer three of the four differently
    grid = make_grid(dims, eps=eps)
    assert len(list(grid.cells(k + 1))) == DEFAULT_CONFIG.exhaustive_limit
    for seed in range(2):
        P = random_grid_chain(grid, k, random.Random(f"limit:{dims}:{seed}"), density=0.5)
        assert _answer(_searched(P, "exhaustive", DEFAULT_CONFIG)) == _answer(scanned(P))


def test_unknown_method_is_refused_before_the_cover():
    grid = make_grid((2, 2, 1))
    face = chain_of(grid, 2, [GridCell((0, 0, 0), (0, 1))])
    assert flat_norm(face).flow is not None  # the cover answers the 2-chain
    for P in (face, boundary_grid(face)):
        with pytest.raises(ValueError, match="unknown method"):
            flat_norm(P, method="simplex")


def test_eflat_zero_pair():
    grid = make_grid((1, 1, 1))
    A = Dipolyhedron(empty_chain(grid, 2), empty_chain(grid, 1))
    cert = energy_flat_norm(A)
    assert cert.value == 0 and cert.status == "exact"


def test_eflat_of_boundary_curve_pair():
    # delta(boundary of a face): the relaxation B_R = face, C_R = 0 gives 1
    grid = make_grid((1, 1, 1))
    face = GridCell((0, 0, 0), (0, 1))
    gamma = boundary_grid(chain_of(grid, 2, [face]))
    A = make_dipole(gamma)  # k = 1 film pair
    cert = energy_flat_norm(A)
    assert cert.value == 1
    assert cert.status == "exact"
    assert verify_certificate(cert, A)


def test_eflat_of_mass_edge_bounded_by_twice_flat():
    grid = make_grid((1, 1, 1))
    edge = chain_of(grid, 1, [GridCell((0, 0, 0), (0,))])
    A = make_massive(edge)
    cert = energy_flat_norm(A)
    fn = flat_norm(edge)
    assert cert.value <= 2 * fn.value
    assert cert.value > 0


def test_eflat_tampering_detected():
    grid = make_grid((1, 1, 1))
    face = GridCell((0, 0, 0), (0, 1))
    gamma = boundary_grid(chain_of(grid, 2, [face]))
    A = make_dipole(gamma)
    cert = energy_flat_norm(A)
    bad = EnergyFlatCertificate(
        cert.value,
        cert.B_Q + chain_of(grid, 1, [GridCell((0, 0, 0), (1,))]),
        cert.C_Q,
        cert.B_R,
        cert.C_R,
        cert.status,
    )
    assert not verify_certificate(bad, A)
    parts = (cert.B_Q, cert.C_Q, cert.B_R, cert.C_R)
    assert not verify_certificate(EnergyFlatCertificate(cert.value, *parts, "bogus"), A)


def test_eflat_methods_agree_seeded():
    grid = make_grid((1, 1, 1))
    rng = random.Random(67)
    for _ in range(10):
        A = Dipolyhedron(
            random_grid_chain(grid, 2, rng, density=0.4),
            random_grid_chain(grid, 1, rng, density=0.25),
        )
        with scanning():
            scan = energy_flat_norm(A)
        assert scan.status == "exact"
        for method in ("exhaustive", "bnb"):
            assert energy_flat_norm(A, method=method) == scan


def test_eflat_exhaustive_guard():
    # the limit counts the free cells of the pair's lattice box: two faces
    # at opposite corners of a 4^3 grid span a box of 48 3-cells
    grid = make_grid((4, 4, 4))
    B = chain_of(grid, 2, [GridCell((0, 0, 0), (0, 1)), GridCell((3, 3, 3), (0, 1))])
    A = Dipolyhedron(B, empty_chain(grid, 1))
    with pytest.raises(ValueError, match="free cells exceed the exhaustive limit 24"):
        energy_flat_norm(A, method="exhaustive")


def test_eflat_respects_custom_limits():
    grid = make_grid((1, 1, 1))
    face = GridCell((0, 0, 0), (0, 1))
    gamma = boundary_grid(chain_of(grid, 2, [face]))
    A = make_dipole(gamma)
    cfg = SolverConfig(exhaustive_limit=64)
    cert = energy_flat_norm(A, method="exhaustive", config=cfg)
    assert cert.value == 1


def test_boundary_contraction_example():
    grid = make_grid((1, 1, 1))
    face = chain_of(grid, 2, [GridCell((0, 0, 0), (0, 1))])
    A = make_dipole(face)
    from filmlab.dipolyhedra import boundary_dip

    ea = energy_flat_norm(A)
    eb = energy_flat_norm(boundary_dip(A))
    assert eb.value <= ea.value


def test_natural_norm_level_zero_is_mass():
    grid = make_grid((2, 2, 1))
    rng = random.Random(71)
    P = random_grid_chain(grid, 2, rng, density=0.5)
    est = natural_norm_upper(P, 0)
    assert est.cost == mass_grid(P)
    assert est.status == "exact"
    assert verify_certificate(est, P)


def test_natural_norm_empty_chain_all_levels():
    grid = make_grid((1, 1, 1))
    P = empty_chain(grid, 2)
    for r in range(4):
        est = natural_norm_upper(P, r)
        assert est.cost == 0


def test_natural_norm_parallel_faces_pairs_up():
    # two parallel unit faces one lattice step apart: level 1 pairs them
    # into a single translated multicell of cost 1, beating M(P) = 2
    grid = make_grid((1, 1, 2))
    P = chain_of(
        grid, 2, [GridCell((0, 0, 0), (0, 1)), GridCell((0, 0, 1), (0, 1))]
    )
    assert mass_grid(P) == 2
    est0 = natural_norm_upper(P, 0)
    est1 = natural_norm_upper(P, 1)
    assert est0.cost == 2
    assert est1.cost == 1
    assert est1.status == "upper-bound"
    assert verify_certificate(est1, P)
    # the merged multicell bounds the norm above: it cannot replay as exact,
    # and no decomposition replays under a status other than the two
    for status in ("exact", "bogus"):
        claim = MulticellDecomposition(est1.levels, est1.C, est1.cost, status)
        assert not verify_certificate(claim, P)
    # level 0 is M(P), exact; a weaker claim of it replays too
    for status, replays in (("exact", True), ("upper-bound", True), ("bogus", False)):
        claim = MulticellDecomposition(est0.levels, est0.C, est0.cost, status)
        assert verify_certificate(claim, P) is replays


def test_natural_norm_monotone_in_level():
    grid = make_grid((2, 2, 2))
    rng = random.Random(73)
    P = random_grid_chain(grid, 2, rng, density=0.3)
    costs = [natural_norm_upper(P, r).cost for r in range(4)]
    for lo_level, hi_level in zip(costs[1:], costs[:-1]):
        assert not lo_level > hi_level


def test_natural_norm_level_range_checked():
    grid = make_grid((1, 1, 1))
    P = empty_chain(grid, 2)
    with pytest.raises(ValueError):
        natural_norm_upper(P, 4)
    with pytest.raises(ValueError):
        natural_norm_upper(P, -1)


def test_natural_norm_rejects_negative_radius():
    grid = make_grid((1, 1, 2))
    P = chain_of(grid, 2, [GridCell((0, 0, 0), (0, 1)), GridCell((0, 0, 1), (0, 1))])
    with pytest.raises(ValueError, match="radius"):
        natural_norm_upper(P, 1, translation_radius=-1)


def test_solver_reports_budget_exhaustion():
    grid = make_grid((2, 2, 1))
    rng = random.Random(79)
    P = random_grid_chain(grid, 1, rng, density=0.4)
    cfg = SolverConfig(node_budget=3)
    cert = flat_norm(P, method="bnb", config=cfg)
    assert cert.status in ("exact", "upper-bound")
    assert verify_certificate(cert, P)
    exact = flat_norm(P, method="exhaustive")
    assert cert.value >= exact.value


def test_bnb_budget_answer_does_not_depend_on_facing():
    # two chains seen from the eight ways the axes can face: the boundary
    # of a 2x2x2 block in a corner of a 3x3x3 grid, and the same boundary
    # opened at the face touching the grid's centre; bnb closes both at
    # the doubled cover's root flow
    grid = make_grid((3, 3, 3))
    cfg = SolverConfig(node_budget=1000)
    block = chain_of(
        grid, 3, [GridCell(offset, (0, 1, 2)) for offset in itertools.product((0, 1), repeat=3)]
    )
    hole = chain_of(grid, 2, [GridCell((2, 1, 1), (1, 2))])
    for flips in itertools.product((False, True), repeat=3):

        def image(chain):
            return chain_of(grid, chain.k, [_reflect(c, grid, flips) for c in chain.cells])

        R = image(block)
        for Q, value in ((empty_chain(grid, 2), 8), (image(hole), 9)):
            P = boundary_grid(R) + Q
            cert = flat_norm(P, method="bnb", config=cfg)
            assert (cert.value, cert.status) == (value, "exact"), flips
            assert cert.R == R and cert.Q == Q
            assert cert.flow is not None


def _reflect(cell, grid, flips):
    return GridCell(
        tuple(
            grid.dims[a] - cell.base[a] - (a in cell.axes) if flips[a] else cell.base[a]
            for a in range(3)
        ),
        cell.axes,
    )


# -- k = 2 flat norms by the doubled cover ------------------------------------


def _cube(grid, lo, side):
    cells = [
        GridCell(tuple(l + o for l, o in zip(lo, offset)), (0, 1, 2))
        for offset in itertools.product(range(side), repeat=3)
    ]
    return chain_of(grid, 3, cells)


@pytest.mark.parametrize("side", [2, 3, 4])
def test_cut_block_boundary_ladder_is_exact(side):
    for n in range(side + 1, 9):
        grid = make_grid((n, n, n))
        block = _cube(grid, ((n - side) // 2,) * 3, side)
        P = boundary_grid(block)
        cert = flat_norm(P, method="bnb")
        assert (cert.value, cert.status) == (side**3, "exact"), n
        assert cert.R == block and cert.Q.is_zero()
        assert cert.flow is not None and verify_certificate(cert, P)


def _shared_face_counts(grid):
    counts = {}
    for cell in grid.cells(3):
        for facet in cell.facets():
            counts[facet] = counts.get(facet, 0) + 1
    return counts


@settings(max_examples=100, deadline=None)
@given(
    dims=st.sampled_from([(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 1, 2), (2, 2, 2), (3, 2, 1), (3, 2, 2), (3, 3, 2)]),
    eps=st.sampled_from([F(1), F(1, 2), F(2, 3)]),
    seed=st.integers(0, 10**6),
)
def test_cut_matches_exhaustive_on_qualifying_chains(dims, eps, seed):
    # P = boundary(X) + faces on the grid's boundary: the qualifying 2-chains
    grid = make_grid(dims, eps=eps)
    rng = random.Random(seed)
    counts = _shared_face_counts(grid)
    X = random_grid_chain(grid, 3, rng, density=rng.random())
    outer = [f for f in sorted(counts) if counts[f] == 1 and rng.random() < 0.3]
    P = boundary_grid(X) + chain_of(grid, 2, outer)
    scan = scanned(P)
    cut = flat_norm(P, method="bnb")
    assert cut.flow is not None and cut.status == "exact"
    assert (cut.value, cut.Q, cut.R) == (scan.value, scan.Q, scan.R)
    assert flat_norm(P, method="exhaustive") == cut
    assert verify_certificate(cut, P)


def _seed16_chain():
    # 22 faces whose cover flow is 30: a bound of 15 below the optimum 16
    return random_grid_chain(make_grid((2, 2, 2)), 2, random.Random(16), density=0.5)


def test_cut_flow_tampering_fails():
    grid = make_grid((3, 3, 3), eps=F(1, 2))
    P = boundary_grid(_cube(grid, (0, 1, 0), 2))
    cert = flat_norm(P, method="bnb")
    arcs = cert.flow.arcs
    assert cert.value == 1 and verify_certificate(cert, P)
    j = next(j for j, f in enumerate(arcs) if f > 0)

    def tampered(j, f):
        return CutFlow(arcs[:j] + (f,) + arcs[j + 1 :])

    bad_flows = [
        # conservation broken at one lift
        tampered(j, arcs[j] - 1),
        tampered(j, 0),
        # over capacity
        tampered(j, 10**6),
        # wrong length
        CutFlow(arcs[:-1]),
        # entries that are not plain ints
        CutFlow(tuple(bool(f) if f in (0, 1) else f for f in arcs)),
    ]
    for bad in bad_flows:
        assert not verify_certificate(
            FlatNormCertificate(cert.value, cert.Q, cert.R, cert.status, bad), P
        )
    # a feasible flow proves no more than its value
    assert not verify_certificate(
        FlatNormCertificate(cert.value + 1, cert.Q, cert.R, cert.status, cert.flow), P
    )
    zero = CutFlow((0,) * len(arcs))
    assert not verify_certificate(
        FlatNormCertificate(cert.value, cert.Q, cert.R, cert.status, zero), P
    )
    # a flow cannot certify a budgeted answer, nor an input whose flow falls short
    assert not verify_certificate(
        FlatNormCertificate(cert.value, cert.Q, cert.R, "upper-bound", cert.flow), P
    )
    other = _seed16_chain()
    searched = flat_norm(other, method="bnb")
    assert searched.flow is None and verify_certificate(searched, other)
    assert not verify_certificate(
        FlatNormCertificate(
            searched.value, searched.Q, searched.R, searched.status, cert.flow
        ),
        other,
    )


def test_bnb_closes_at_the_root_when_boundary_meets_an_interior_edge():
    # one face across the middle of a 2x2x1 grid: its boundary runs along
    # the vertical edge with four 3-cells around it, and the cover's
    # closure still settles it before any search node, under either method
    grid = make_grid((2, 2, 1))
    P = chain_of(grid, 2, [GridCell((0, 1, 0), (0, 2))])
    scan = scanned(P)
    ex = flat_norm(P, method="exhaustive")
    bb = flat_norm(P, method="bnb")
    assert bb.flow is not None and ex == bb and scan.flow is None
    assert (bb.value, bb.status, bb.Q, bb.R) == (scan.value, "exact", scan.Q, scan.R)
    assert bb.value == 1
    budgeted = flat_norm(P, method="bnb", config=SolverConfig(node_budget=1))
    assert (budgeted.value, budgeted.status) == (1, "exact") and budgeted.flow is not None


def test_bnb_searches_when_the_cover_closure_is_inconsistent():
    P = _seed16_chain()
    assert len(P) == 22
    ex = flat_norm(P, method="exhaustive")
    bb = flat_norm(P, method="bnb")
    assert (bb.value, bb.status, bb.flow) == (16, "exact", None)
    assert ex == bb and _answer(bb) == _answer(scanned(P))
    budgeted = flat_norm(P, method="bnb", config=SolverConfig(node_budget=1))
    assert budgeted.status == "upper-bound" and budgeted.flow is None
    assert budgeted.value > 16 and verify_certificate(budgeted, P)


@settings(max_examples=100, deadline=None)
@given(
    dims=st.sampled_from([(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 1, 2), (2, 2, 2), (3, 2, 1), (3, 2, 2), (3, 3, 2)]),
    eps=st.sampled_from([F(1), F(1, 2), F(2, 3)]),
    seed=st.integers(0, 10**6),
)
@example(dims=(2, 2, 1), eps=F(1), seed=59)
def test_cover_matches_exhaustive_on_any_chain(dims, eps, seed):
    # arbitrary 2-chains, frustrated ones included: both methods answer at
    # the root flow exactly when the cover's closure is consistent, and
    # agree with the reference scan either way
    grid = make_grid(dims, eps=eps)
    rng = random.Random(seed)
    P = random_grid_chain(grid, 2, rng, density=rng.random())
    scan = scanned(P)
    ex = flat_norm(P, method="exhaustive")
    bb = flat_norm(P, method="bnb")
    assert (bb.value, bb.Q, bb.R, bb.status) == (scan.value, scan.Q, scan.R, scan.status)
    lab = _box_labelling(*lattice_box(P), P)
    p, q = eps.numerator, eps.denominator
    closure = _cover_cut(lab.cells, lab.sides, {}, q, p)[2]
    assert (bb.flow is not None) == (closure is not None)
    assert ex == (bb if closure is not None else scan)
    assert verify_certificate(bb, P) and verify_certificate(ex, P)


# -- k = 1 flat norms by the projection bound ---------------------------------


def _projection_lower(P):
    """The projection bound, from the three shadows' cover flows."""
    p, q = P.grid.epsilon.numerator, P.grid.epsilon.denominator
    values = {1: [], 2: []}
    for a in range(3):
        lab = _projection_labelling(P, a)[0]
        for scale in values:
            values[scale].append(_cover_cut(lab.cells, lab.sides, {}, q, scale * p)[0])
    return max(_projection_bound(values[s], s) for s in values) * F(p, q**2)


def _square_boundary():
    # the boundary of a 3x3 square in a 4^3 grid: its z-shadow alone proves 9
    grid = make_grid((4, 4, 4))
    square = [GridCell((i, j, 0), (0, 1)) for i in range(3) for j in range(3)]
    return boundary_grid(chain_of(grid, 2, square)), chain_of(grid, 2, square)


def _staircase():
    # edges along y, x, y: each shadow alone proves at most 2, the doubled
    # shadows 2 + 1 + 3, half of which is the mass 3
    grid = make_grid((1, 1, 1))
    edges = [GridCell((0, 0, 0), (1,)), GridCell((0, 0, 1), (0,)), GridCell((1, 0, 1), (1,))]
    return chain_of(grid, 1, edges)


def _cli_k1():
    # the cli benchmark's 2x2x1 chain: projection bound 7, best lift 9, optimum 8
    return random_grid_chain(make_grid((2, 2, 1)), 1, random.Random("filmlab-bench:cli-k1"), 0.35)


@settings(max_examples=200, deadline=None)
@given(
    dims=st.sampled_from(
        [(1, 1, 1), (2, 1, 1), (2, 2, 1), (1, 1, 3), (3, 1, 1), (4, 4, 0), (2, 2, 0), (3, 0, 0), (0, 2, 1)]
    ),
    eps=st.sampled_from([F(1), F(1, 2), F(3)]),
    faces=st.booleans(),
    seed=st.integers(0, 10**6),
)
def test_projection_root_matches_exhaustive_on_k1_chains(dims, eps, faces, seed):
    # random 1-chains, or boundaries of random face sets, on grids of at
    # most 20 faces: the bound never passes the optimum, and both methods
    # give the scan's answer, ties included, whether the root closes or not
    grid = make_grid(dims, eps=eps)
    rng = random.Random(seed)
    if faces:
        P = boundary_grid(random_grid_chain(grid, 2, rng, density=rng.random()))
    else:
        P = random_grid_chain(grid, 1, rng, density=rng.random())
    scan = scanned(P)
    lower = _projection_lower(P)
    assert lower <= scan.value
    for method in ("exhaustive", "bnb"):
        cert = flat_norm(P, method=method)
        assert (cert.value, cert.Q, cert.R, cert.status) == (scan.value, scan.Q, scan.R, "exact")
        assert cert.flow is None or (isinstance(cert.flow, ProjectionFlows) and cert.value == lower)
        assert verify_certificate(cert, P)


def test_projection_root_closes_the_square_boundary():
    P, square = _square_boundary()
    for method in ("exhaustive", "bnb"):
        cert = flat_norm(P, method=method, config=SolverConfig(node_budget=0))
        assert (cert.value, cert.status, cert.flow.scale) == (9, "exact", 1)
        assert cert.R == square and cert.Q.is_zero()
    P = _staircase()
    cert = flat_norm(P)
    assert (cert.value, cert.status, cert.flow.scale) == (3, "exact", 2)
    assert cert.Q == P and cert.R.is_zero()


def test_projection_flows_tampering_fails():
    for P, scale in ((_square_boundary()[0], 1), (_staircase(), 2)):
        cert = flat_norm(P, method="bnb")
        flows = cert.flow.arcs
        assert cert.flow.scale == scale and verify_certificate(cert, P)
        # one arc changed, on an arc that ends at a lift of a square
        a = next(a for a in range(3) if any(flows[a]))
        lab = _projection_labelling(P, a)[0]
        p, q = P.grid.epsilon.numerator, P.grid.epsilon.denominator
        ends = _cover_arcs(lab.cells, lab.sides, q, scale * p, {})
        j = next(j for j, (u, w, _) in enumerate(ends) if flows[a][j] and min(u, w) < 2 * lab.cells)
        changed = flows[a][:j] + (flows[a][j] - 1,) + flows[a][j + 1 :]
        bad_flows = [
            ProjectionFlows(scale, flows[:a] + (changed,) + flows[a + 1 :]),
            ProjectionFlows(scale, flows[:2]),
            ProjectionFlows(3 - scale, flows),
            ProjectionFlows(True, flows),
        ]
        for bad in bad_flows:
            assert not verify_certificate(
                FlatNormCertificate(cert.value, cert.Q, cert.R, cert.status, bad), P
            )
        assert not verify_certificate(
            FlatNormCertificate(cert.value + 1, cert.Q, cert.R, cert.status, cert.flow), P
        )
        assert not verify_certificate(
            FlatNormCertificate(cert.value, cert.Q, cert.R, "upper-bound", cert.flow), P
        )
    # projection flows certify no k = 2 answer, and a cover flow no k = 1 answer
    grid = make_grid((3, 3, 3))
    block = boundary_grid(_cube(grid, (0, 0, 0), 2))
    covered = flat_norm(block)
    assert isinstance(covered.flow, CutFlow)
    assert not verify_certificate(
        FlatNormCertificate(covered.value, covered.Q, covered.R, covered.status, cert.flow), block
    )
    assert not verify_certificate(
        FlatNormCertificate(cert.value, cert.Q, cert.R, cert.status, covered.flow), P
    )


def test_projection_root_answers_past_the_exhaustive_limit():
    # 240 free faces, far past the limit of 24: the root closes it anyway
    P, square = _square_boundary()
    cert = flat_norm(P, method="exhaustive")
    assert (cert.value, cert.status, cert.R) == (9, "exact", square)
    assert cert == flat_norm(P, method="bnb")


def test_unclosed_k1_chain_past_the_exhaustive_limit_is_refused():
    P = _cli_k1()
    assert (_projection_lower(P), flat_norm(P).value) == (7, 8)
    with pytest.raises(ValueError, match="20 free cells exceed the exhaustive limit 10"):
        flat_norm(P, config=SolverConfig(exhaustive_limit=10))


# -- the node loop -------------------------------------------------------------


class _Captured(Exception):
    pass


def _search_problem(solve, *args):
    """The _Problem that a flat-norm call hands to its search."""
    seen = []

    def capture(problem, method, config):
        seen.append(problem)
        raise _Captured

    with mock.patch.object(flatnorm, "_solve", capture), pytest.raises(_Captured):
        solve(*args)
    return seen[0]


def test_node_loop_matches_the_former_loop():
    # the search problems of random chains, k = 0..2, and pairs, k = 1, 2,
    # at budgets that stop the former loop before, during and after its
    # search: the same (mask, score, status) node for node
    rng = random.Random("node-loop")
    problems = []
    for dims in ((1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)):
        grid = make_grid(dims, eps=rng.choice([F(1), F(1, 2), F(2, 3)]))
        for _ in range(3):
            for k in (0, 1, 2):
                P = random_grid_chain(grid, k, rng, density=rng.random())
                problems.append(_search_problem(_searched, P, "bnb", DEFAULT_CONFIG))
            for k in (1, 2):
                A = Dipolyhedron(
                    random_grid_chain(grid, k, rng, density=rng.random() / 2),
                    random_grid_chain(grid, k - 1, rng, density=rng.random() / 2),
                )
                problems.append(_search_problem(energy_flat_norm, A, "bnb"))
    mid_search = exact = 0
    for problem in problems:
        for budget in (0, 1, 10, 100, 10**3, None):
            if budget is None and len(problem.effects) > 24:
                continue
            answer = flatnorm._solve_bnb(problem, budget)
            assert answer == solve_bnb(problem, budget), (budget, len(problem.effects))
            exact += answer[2] == "exact"
            # a leaf found, then the budget ran out
            fallback = solve_bnb(problem, 0)[1]
            mid_search += answer[2] == "upper-bound" and budget and answer[1] < fallback
    assert mid_search >= 10 and exact >= 50, (mid_search, exact)


# -- the lattice box -------------------------------------------------------------


def _chain_in_sub_box(grid, k, rng, density):
    # a random sub-box, at least one cell thick wherever the grid is
    lo = tuple(rng.randint(0, max(d - 1, 0)) for d in grid.dims)
    hi = tuple(rng.randint(min(l + 1, d), d) for l, d in zip(lo, grid.dims))
    return chain_of(grid, k, [c for c in box_cells(lo, hi, k) if rng.random() < density])


def _regridded(chains):
    """The chains on the grid that is exactly their lattice box, moved by -lo."""
    lo, hi = lattice_box(*chains)
    grid = chains[0].grid
    exact = GridSpec(grid.epsilon, grid.world(lo), tuple(h - l for l, h in zip(lo, hi)))
    return [_moved(chain, exact, tuple(-l for l in lo)) for chain in chains]


def _moved(chain, grid, shift):
    cells = [GridCell(tuple(b + s for b, s in zip(c.base, shift)), c.axes) for c in chain.cells]
    return chain_of(grid, chain.k, cells)


@pytest.mark.parametrize("k", [0, 1, 2, "eflat1", "eflat2"])
def test_box_matches_the_whole_grid_scan(k):
    # chains and pairs in random sub-boxes of grids small enough to scan
    # whole: the box's answer is the scan's, value, status and R alike
    rng = random.Random(f"box-scan:{k}")
    dims = {0: (2, 1, 1), 1: (2, 2, 1), 2: (3, 2, 2), "eflat1": (1, 1, 1), "eflat2": (2, 1, 1)}[k]
    for _ in range(12):
        grid = make_grid(dims, eps=rng.choice([F(1), F(1, 2), F(3)]))
        if isinstance(k, int):
            P = _chain_in_sub_box(grid, k, rng, rng.random())
            scan = _answer(scanned(P))
            for method in ("exhaustive", "bnb"):
                assert _answer(flat_norm(P, method=method)) == scan
            continue
        j = int(k[-1])
        A = Dipolyhedron(
            _chain_in_sub_box(grid, j, rng, rng.random()),
            _chain_in_sub_box(grid, j - 1, rng, rng.random() / 2),
        )
        with scanning(), whole_grid():
            scan = energy_flat_norm(A)
        for method in ("exhaustive", "bnb"):
            assert energy_flat_norm(A, method=method) == scan


def _outcome(solve, *args):
    try:
        return solve(*args)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("k", [0, 1, 2, "eflat"])
def test_box_answer_does_not_depend_on_the_grid_around_it(k):
    # chains and pairs in random sub-boxes of a 4x4x3 grid against the same
    # chains on a grid that is exactly their box: every certificate is the
    # same up to the move, flows and budgeted answers included
    rng = random.Random(f"box-regrid:{k}")
    grid = make_grid((4, 4, 3), eps=F(1, 2))
    configs = [SolverConfig(exhaustive_limit=16), SolverConfig(node_budget=300)]
    for _ in range(10):
        if k == "eflat":
            j = rng.choice([1, 2])
            B = _chain_in_sub_box(grid, j, rng, rng.random() / 2)
            near = box_cells(*lattice_box(B), j - 1)
            C = chain_of(grid, j - 1, [c for c in near if rng.random() < 0.2])
            lo, _ = lattice_box(B, C)
            pairs = (Dipolyhedron(B, C), Dipolyhedron(*_regridded((B, C))))
            for method, config in zip(("exhaustive", "bnb"), configs):
                here, there = (_outcome(energy_flat_norm, A, method, config) for A in pairs)
                if isinstance(here, str):
                    assert here == there
                    continue
                back = [_moved(c, grid, lo) for c in (there.B_Q, there.C_Q, there.B_R, there.C_R)]
                assert (here.value, here.status) == (there.value, there.status)
                assert [here.B_Q, here.C_Q, here.B_R, here.C_R] == back
            continue
        P = _chain_in_sub_box(grid, k, rng, rng.random())
        lo, _ = lattice_box(P)
        (P2,) = _regridded((P,))
        for method, config in zip(("exhaustive", "bnb"), configs):
            here, there = (_outcome(flat_norm, chain, method, config) for chain in (P, P2))
            if isinstance(here, str):
                assert here == there
                continue
            assert (here.value, here.status, here.flow) == (there.value, there.status, there.flow)
            assert (here.Q, here.R) == (_moved(there.Q, grid, lo), _moved(there.R, grid, lo))


def test_flat_norms_never_list_the_grid(monkeypatch):
    # a block, a square, the seed-16 chain and a pair inside a 64^3 grid:
    # every path answers in the lattice box, with GridSpec.cells refused
    grid = make_grid((64, 64, 64))
    block = _cube(grid, (30, 31, 32), 2)
    corners = itertools.product(range(10, 13), range(20, 23), [40])
    square = chain_of(grid, 2, [GridCell(corner, (0, 1)) for corner in corners])
    frustrated = _moved(_seed16_chain(), grid, (20, 30, 40))
    face = chain_of(grid, 2, [GridCell((5, 6, 7), (0, 1))])
    pair = make_dipole(boundary_grid(face))

    def refuse(self, k):
        raise AssertionError("listed the grid's cells")

    monkeypatch.setattr(GridSpec, "cells", refuse)
    cases = [(boundary_grid(block), 8, CutFlow), (boundary_grid(square), 9, ProjectionFlows)]
    cases.append((frustrated, 16, type(None)))
    for P, value, flow in cases:
        for method in ("exhaustive", "bnb"):
            cert = flat_norm(P, method=method)
            assert (cert.value, cert.status, type(cert.flow)) == (value, "exact", flow)
            assert verify_certificate(cert, P)
            assert not verify_certificate(
                FlatNormCertificate(cert.value + 1, cert.Q, cert.R, cert.status, cert.flow), P
            )
    cert = energy_flat_norm(pair)
    assert (cert.value, cert.status, cert.B_R) == (1, "exact", face)
    assert verify_certificate(cert, pair)


def test_empty_chains_are_zero_exact():
    grid = make_grid((64, 64, 64))
    for k in (0, 1, 2):
        for method in ("exhaustive", "bnb"):
            cert = flat_norm(empty_chain(grid, k), method=method)
            assert (cert.value, cert.status) == (0, "exact")
            assert cert.Q.is_zero() and cert.R.is_zero()
            A = Dipolyhedron(empty_chain(grid, k), empty_chain(grid, k - 1))
            eflat = energy_flat_norm(A, method=method)
            assert (eflat.value, eflat.status) == (0, "exact")
