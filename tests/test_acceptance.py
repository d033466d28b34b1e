"""End-to-end checks of the shipped guarantees, one test per guarantee.

Each guarantee prints as a single pass/fail line under ``pytest -v``.
Where a guarantee carries a wall-clock budget the test asserts it; the
budgets are deliberately generous and the measured times sit far below
them on ordinary hardware.
"""

import random
import time
from collections import Counter
from fractions import Fraction as F

import pytest

from conftest import (
    make_grid,
    random_grid_chain,
    random_simplicial_chain,
    rational,
    square_curve,
)
from references import operator_norm_enclosure, scanned
from filmlab.deformation import DeformConfig, deform_chain
from filmlab.dipolyhedra import (
    Dipolyhedron,
    boundary_dip,
    chain_boundary,
    cone_energy_bound,
    cone_identity_holds,
    energy,
    restrict_dip,
    spanning_check,
    support_points,
)
from filmlab.exact import RadicalSum
from filmlab.flatnorm import (
    DEFAULT_CONFIG,
    _searched,
    energy_flat_norm,
    flat_norm,
    verify_certificate,
)
from filmlab.geom import sup_norm
from filmlab.grid import (
    BoxRegion,
    GridCell,
    GridChain,
    boundary_grid,
    empty_chain,
    mass_grid,
)
from filmlab.loops import loop_decomposition
from filmlab.natural_norm import natural_norm_upper
from filmlab.overlay import chains_equal_mod2
from filmlab.pairs import make_dipole, make_massive, weight
from filmlab.plateau import (
    cone_energy,
    gamma_membership,
    initial_cone_solution,
    minimize_weight,
    plateau_problem,
)
from filmlab.simplicial import (
    PLMap,
    boundary_simplicial,
    clamp_to_cube,
    embed_grid_chain,
    mass_simplicial,
    pushforward,
    simplicial_chain,
)


def _all_chains(grid, k):
    cells = sorted(grid.cells(k))
    for bits in range(1 << len(cells)):
        chosen = frozenset(c for i, c in enumerate(cells) if bits >> i & 1)
        yield GridChain(grid, k, chosen)


def _seeded_pair(grid, k, tag, density=0.35):
    rng = random.Random(f"acc-pair:{tag}")
    B = random_grid_chain(grid, k, rng, density=density)
    C = random_grid_chain(grid, k - 1, rng, density=density)
    return Dipolyhedron(B, C)


# ---------------------------------------------------------------------------
# 1. the boundary operator squares to zero


def test_criterion_01_boundary_squares_to_zero():
    t0 = time.monotonic()
    g = make_grid((2, 2, 1))
    # every 1- and 2-cell generator on the 2x2x1 grid
    for k in (1, 2):
        for cell in g.cells(k):
            X = GridChain(g, k, frozenset({cell}))
            assert chain_boundary(chain_boundary(X)).is_zero()
    # the boundary is additive mod 2, so vanishing on generators extends
    # to every chain; the additivity itself is spot-checked here
    rng = random.Random("acc1-add")
    for _ in range(200):
        k = rng.choice((1, 2))
        X = random_grid_chain(g, k, rng, density=0.4)
        Y = random_grid_chain(g, k, rng, density=0.4)
        assert chain_boundary(X + Y) == chain_boundary(X) + chain_boundary(Y)
    # complete sweeps where the chain space is small enough to enumerate
    for dims, k in (((1, 1, 1), 1), ((2, 1, 1), 2)):
        for X in _all_chains(make_grid(dims), k):
            assert chain_boundary(chain_boundary(X)).is_zero()
    # seeded simplicial chains in every dimension
    for seed in range(1000):
        r = random.Random(f"acc1:{seed}")
        k = 1 + seed % 3
        ch = random_simplicial_chain(k, r)
        assert chain_boundary(chain_boundary(ch)).is_zero_presentation()
    assert time.monotonic() - t0 < 5.0


# ---------------------------------------------------------------------------
# 2. both flat-norm solvers agree, with identical certificates


def test_criterion_02_flat_norm_methods_agree():
    t0 = time.monotonic()
    g = make_grid((2, 2, 1))
    face = sorted(g.cells(2))[0]
    ring = boundary_grid(GridChain(g, 2, frozenset({face})))
    cert = flat_norm(ring, method="exhaustive")
    assert cert.value == 1
    assert cert.R.cells == frozenset({face}) and cert.Q.is_zero()

    # both methods run one branch-and-bound, and the root answers first
    # under either, so the reference is the tests' bitmask scan of every
    # subset; the search alone and the whole flat norm must both match it
    def agree(P):
        scan = scanned(P)
        assert scan.status == "exact" and verify_certificate(scan, P)
        for b in (_searched(P, "bnb", DEFAULT_CONFIG), flat_norm(P, method="bnb")):
            assert (b.value, b.Q, b.R, b.status) == (scan.value, scan.Q, scan.R, scan.status)
            assert verify_certificate(b, P)

    # complete sweeps over every instance on the fully enumerable shapes
    for dims, k in (((1, 1, 1), 1), ((1, 1, 1), 2), ((2, 1, 1), 2)):
        for P in _all_chains(make_grid(dims), k):
            agree(P)

    # seeded families on the shapes whose chain spaces are too large
    for dims, k, n in (
        ((2, 1, 1), 1, 60),
        ((1, 2, 1), 1, 30),
        ((2, 2, 1), 1, 60),
        ((2, 2, 1), 2, 60),
    ):
        grid = make_grid(dims)
        for seed in range(n):
            rng = random.Random(f"acc2:{dims}:{k}:{seed}")
            agree(random_grid_chain(grid, k, rng, density=0.35))
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 3. the flat norm of either part never exceeds the energy flat norm


def test_criterion_03_part_flat_norms_below_energy_flat_norm():
    t0 = time.monotonic()
    g = make_grid((1, 1, 1))
    for seed in range(200):
        k = 1 if seed % 2 else 2
        A = _seeded_pair(g, k, f"c34:{seed}")
        e = energy_flat_norm(A, method="exhaustive")
        assert e.status == "exact" and verify_certificate(e, A)
        for part in (A.B, A.C):
            c = flat_norm(part, method="exhaustive")
            assert c.status == "exact"
            assert c.value <= e.value
    assert time.monotonic() - t0 < 120.0


# ---------------------------------------------------------------------------
# 4. the energy flat norm never grows under the boundary


def test_criterion_04_energy_flat_norm_monotone_under_boundary():
    t0 = time.monotonic()
    g = make_grid((1, 1, 1))
    for seed in range(200):
        k = 1 if seed % 2 else 2
        A = _seeded_pair(g, k, f"c34:{seed}")
        ea = energy_flat_norm(A, method="exhaustive")
        eb = energy_flat_norm(boundary_dip(A), method="exhaustive")
        assert ea.status == eb.status == "exact"
        assert eb.value <= ea.value
    assert time.monotonic() - t0 < 120.0


# ---------------------------------------------------------------------------
# 5. the energy flat norm vanishes exactly on the zero pair


def _eflat_auto(A):
    g = A.B.grid
    nvars = len(list(g.cells(A.k + 1))) + len(list(g.cells(A.k)))
    method = "exhaustive" if nvars <= 24 else "bnb"
    e = energy_flat_norm(A, method=method)
    assert verify_certificate(e, A)
    assert e.status == "exact"
    return e


def _assert_positive_eflat(A):
    # the replayed identity reconstructs both parts from the certificate
    # cells, so a value of zero would force the pair itself to be zero
    assert _eflat_auto(A).value > 0


def test_criterion_05_energy_flat_norm_vanishes_only_at_zero():
    grids = [make_grid((1, 1, 1)), make_grid((2, 1, 1))]
    for g in grids:
        # every cell of every dimension carries strictly positive mass
        for k in range(4):
            for cell in g.cells(k):
                assert mass_grid(GridChain(g, k, frozenset({cell}))) > 0
        for k in (1, 2):
            zero = Dipolyhedron(empty_chain(g, k), empty_chain(g, k - 1))
            assert _eflat_auto(zero).value == 0
    # every single-generator pair solves to a strictly positive value
    for g in grids:
        for k in (1, 2):
            for cell in g.cells(k):
                _assert_positive_eflat(make_dipole(GridChain(g, k, frozenset({cell}))))
            for cell in g.cells(k - 1):
                _assert_positive_eflat(make_massive(GridChain(g, k - 1, frozenset({cell}))))
    # seeded nonzero pairs stay strictly positive as well
    for seed in range(50):
        A = _seeded_pair(grids[0], 2 if seed % 2 else 1, f"c5:{seed}")
        if A.B.is_zero() and A.C.is_zero():
            continue
        _assert_positive_eflat(A)


# ---------------------------------------------------------------------------
# 6. cone identity and cone energy bound


def test_criterion_06_cone_identity_and_energy_bound():
    t0 = time.monotonic()
    checked_bounds = 0
    for seed in range(100):
        rng = random.Random(f"acc6:{seed}")
        k = 1 if seed % 2 else 2
        B = random_simplicial_chain(k, rng)
        C = random_simplicial_chain(k - 1, rng, count=2)
        A = Dipolyhedron(B, C)
        assert cone_identity_holds((0, 0, 0), A)
        pts = support_points(A)
        if pts:
            r = 2 * max(max(abs(c) for c in p) for p in pts)
            if r > 0:
                cb = cone_energy_bound((0, 0, 0), A, r)
                assert cb.holds
                checked_bounds += 1
    assert checked_bounds >= 80
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 7. pushforward mass bound with exact operator norms; clamp contracts


def _pythagorean_rotation(a, b, c, plane):
    m = [[F(1) if i == j else F(0) for j in range(3)] for i in range(3)]
    i, j = plane
    m[i][i] = F(a, c)
    m[i][j] = F(-b, c)
    m[j][i] = F(b, c)
    m[j][j] = F(a, c)
    return tuple(tuple(row) for row in m)


def _signed_permutation(rng):
    perm = [0, 1, 2]
    rng.shuffle(perm)
    m = [[F(0)] * 3 for _ in range(3)]
    for i, p in enumerate(perm):
        m[i][p] = F(rng.choice((1, -1)))
    return tuple(tuple(row) for row in m)


def _mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(3)) for j in range(3)) for i in range(3)
    )


def _exact_norm_maps(rng, n):
    """Affine maps whose spectral norm is known in closed form.

    Orthogonal factors leave the norm of a diagonal core untouched, so
    every map here has norm exactly max |d_i| (or exactly one when the
    map is orthogonal).
    """
    triples = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29))
    planes = ((0, 1), (0, 2), (1, 2))
    out = []
    while len(out) < n:
        kind = len(out) % 4
        if kind == 0:
            a, b, c = triples[rng.randrange(len(triples))]
            out.append((_pythagorean_rotation(a, b, c, planes[rng.randrange(3)]), F(1)))
        elif kind == 1:
            out.append((_signed_permutation(rng), F(1)))
        else:
            d = [
                F(rng.choice((1, -1)) * rng.randrange(1, 9), rng.randrange(1, 5))
                for _ in range(3)
            ]
            core = tuple(
                tuple(d[i] if i == j else F(0) for j in range(3)) for i in range(3)
            )
            norm = max(abs(x) for x in d)
            if kind == 3:
                a, b, c = triples[rng.randrange(len(triples))]
                left = _pythagorean_rotation(a, b, c, planes[rng.randrange(3)])
                core = _mat_mul(_mat_mul(left, core), _signed_permutation(rng))
            out.append((core, norm))
    return out


def test_criterion_07_pushforward_and_clamp_contracts():
    t0 = time.monotonic()
    rng = random.Random("acc7")
    for matrix, norm in _exact_norm_maps(rng, 50):
        lo, hi = operator_norm_enclosure(matrix, bits=64)
        assert lo <= norm <= hi
        offset = tuple(rational(rng) for _ in range(3))
        f = PLMap.affine(matrix, offset, norm)
        for k in (1, 2):
            ch = random_simplicial_chain(k, rng)
            img = pushforward(f, ch)
            bound = RadicalSum.from_fraction(norm ** k) * mass_simplicial(ch)
            assert mass_simplicial(img) <= bound
    # clamping: idempotent, mass non-increasing, contained in the cube
    r = F(3, 2)
    for seed in range(20):
        rng2 = random.Random(f"acc7c:{seed}")
        ch = random_simplicial_chain(2 if seed % 2 else 1, rng2, span=3)
        once = clamp_to_cube(ch, r)
        assert chains_equal_mod2(clamp_to_cube(once, r), once)
        assert mass_simplicial(once) <= mass_simplicial(ch)
        for s in once.simplices:
            for v in s:
                assert sup_norm(v) <= r
    assert time.monotonic() - t0 < 30.0


# ---------------------------------------------------------------------------
# 8. grid deformation: identity, support locality, bounded stable constants


def _seeded_triangle(rng):
    while True:
        pts = [tuple(F(rng.randrange(0, 5), 8) for _ in range(3)) for _ in range(3)]
        tri = simplicial_chain(2, [pts])
        if not tri.is_zero_presentation():
            return tri


def test_criterion_08_deformation_constants_bounded_and_stable():
    t0 = time.monotonic()
    scales = (F(1), F(1, 2), F(1, 4))
    keys = ("cP", "cdP", "cQ", "cR")
    for seed in range(20):
        rng = random.Random(f"acc8:{seed}")
        tri = _seeded_triangle(rng)
        chain = tri if seed % 2 else boundary_simplicial(tri)
        measured = []
        for eps in scales:
            n = int(2 / eps)
            grid = make_grid((n, n, n), origin=(-1, -1, -1), eps=eps)
            cfg = DeformConfig(epsilon=eps, candidate_centers=4, seed=seed)
            res = deform_chain(chain, grid, cfg)
            assert res.identity.equal
            assert res.support.within_6eps
            assert all(res.bounds_ok.values())
            assert all(float(res.measured[key]) <= cfg.c_max for key in keys)
            if seed < 2 and eps == F(1):
                # independent replay of A = P + Q + dR mod 2
                recon = embed_grid_chain(res.P) + res.Q + boundary_simplicial(res.R)
                assert chains_equal_mod2(chain, recon)
            measured.append(res.measured)
        for coarse, fine in zip(measured, measured[1:]):
            for key in keys:
                assert float(fine[key]) <= 2 * max(float(coarse[key]), 1.0)
    assert time.monotonic() - t0 < 600.0


# ---------------------------------------------------------------------------
# 9. the spanning model on its reference instances


def test_criterion_09_plateau_model_instances():
    t0 = time.monotonic()
    unit_grid = make_grid((3, 3, 2), origin=(F(-3, 2), F(-3, 2), -1))
    unit_gamma = square_curve(unit_grid, 1, 1, 2)
    unit = plateau_problem(unit_gamma)
    patch_grid = make_grid((4, 4, 4), origin=(-2, -2, -2))
    patch_gamma = square_curve(patch_grid, 2, 1, 3)
    patch = plateau_problem(patch_gamma)

    sol1 = minimize_weight(unit, method="exhaustive")
    assert sol1.weight == 1 and sol1.optimality == "exact"
    assert sol1.feasibility.member
    sol4 = minimize_weight(patch, method="exhaustive")
    assert sol4.weight == 4 and sol4.optimality == "exact"
    assert sol4.feasibility.member

    # a bare mass pair satisfies the boundary identity yet spans nothing
    for prob, gamma in ((unit, unit_gamma), (patch, patch_gamma)):
        bare = make_massive(gamma)
        span = spanning_check(bare, gamma, prob.dirs)
        assert span.verdict == "fails"
        report = gamma_membership(bare, prob)
        assert not report.member
        assert any("spanning" in msg for msg in report.failures())

    # cone starts are feasible and their energy equals the filled area
    for prob, area in ((unit, 1), (patch, 4)):
        start = initial_cone_solution(prob)
        assert start.membership.member
        assert start.cone_energy == area
        assert all(start.bounds_ok.values())
        assert cone_energy(prob.gamma) == area

    # the winning weight dominates every admissible shadow area
    for sol, bound in ((sol1, 1), (sol4, 4)):
        assert sol.shadow_bound == bound
        assert sol.weight >= sol.shadow_bound
        areas = [
            d.region_area
            for d in sol.feasibility.spanning.directions
            if d.admissible and d.region_area is not None
        ]
        assert areas
        for area in areas:
            assert area <= RadicalSum.from_fraction(sol.weight)
    assert time.monotonic() - t0 < 300.0


# ---------------------------------------------------------------------------
# 10. restriction splits the energy exactly; support is the cell union


def test_criterion_10_restriction_splits_energy():
    t0 = time.monotonic()
    g = make_grid((2, 2, 2))
    for seed in range(100):
        rng = random.Random(f"acc10:{seed}")
        k = 1 if seed % 3 == 0 else 2
        A = _seeded_pair(g, k, f"c10:{seed}", density=0.4)
        corners = [
            sorted((rng.randrange(0, 3), rng.randrange(0, 3))) for _ in range(3)
        ]
        box = BoxRegion(
            tuple(c[0] for c in corners), tuple(c[1] for c in corners)
        )
        inside, report = restrict_dip(A, box)
        outside = A + inside
        assert energy(inside).energy + energy(outside).energy == energy(A).energy
        assert report.nu == energy(inside).energy
        assert report.omega == weight(inside)
    assert time.monotonic() - t0 < 30.0


# ---------------------------------------------------------------------------
# 11. natural-norm upper bounds: exact at level zero, nonincreasing in r


def test_criterion_11_natural_norm_upper_bounds():
    t0 = time.monotonic()
    g = make_grid((2, 2, 2))
    for seed in range(30):
        rng = random.Random(f"acc11:{seed}")
        k = 1 if seed % 2 else 2
        P = random_grid_chain(g, k, rng, density=0.35)
        decs = [natural_norm_upper(P, r) for r in range(4)]
        assert decs[0].status == "exact"
        assert decs[0].cost == mass_grid(P)
        for dec in decs:
            assert verify_certificate(dec, P)
        for finer, coarser in zip(decs[1:], decs):
            assert finer.cost <= coarser.cost
    # two parallel faces one step apart pair up at radius one
    tall = make_grid((1, 1, 2))
    P = GridChain(
        tall, 2, frozenset({GridCell((0, 0, 0), (0, 1)), GridCell((0, 0, 1), (0, 1))})
    )
    assert mass_grid(P) == 2
    dec = natural_norm_upper(P, 1)
    assert dec.cost == 1 and dec.status == "upper-bound"
    assert verify_certificate(dec, P)
    assert time.monotonic() - t0 < 30.0


# ---------------------------------------------------------------------------
# 12. every mod-2 one-cycle splits into closed loops


def _edge_ends(cell):
    axis = cell.axes[0]
    hi = list(cell.base)
    hi[axis] += 1
    return cell.base, tuple(hi)


def _edges_connected(edges):
    if not edges:
        return True
    remaining = set(edges)
    stack = [remaining.pop()]
    reached = {v for e in stack for v in _edge_ends(e)}
    while stack:
        stack.pop()
        grab = [e for e in remaining if any(v in reached for v in _edge_ends(e))]
        for e in grab:
            remaining.discard(e)
            reached.update(_edge_ends(e))
            stack.append(e)
    return not remaining


def test_criterion_12_cycles_decompose_into_loops():
    for dims in ((2, 2, 0), (1, 1, 1)):
        g = make_grid(dims)
        edges = sorted(g.cells(1))
        for bits in range(1 << len(edges)):
            cells = frozenset(e for i, e in enumerate(edges) if bits >> i & 1)
            C = GridChain(g, 1, cells)
            degree = Counter()
            for e in cells:
                for v in _edge_ends(e):
                    degree[v] += 1
            if any(d % 2 for d in degree.values()):
                with pytest.raises(ValueError):
                    loop_decomposition(C)
                continue
            loops = loop_decomposition(C)
            covered = []
            for loop in loops:
                covered.extend(loop)
                ldeg = Counter()
                for e in loop:
                    for v in _edge_ends(e):
                        ldeg[v] += 1
                assert all(d % 2 == 0 for d in ldeg.values())
                assert _edges_connected(loop)
            assert sorted(covered) == sorted(cells)
