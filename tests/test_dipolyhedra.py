import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filmlab.dipolyhedra import (
    DirectionReport,
    Dipolyhedron,
    ProjectionDir,
    SpanningReport,
    _DIRECTION_POOL,
    boundary_dip,
    chain_boundary,
    chain_is_zero,
    clamp_dip,
    cone_dip,
    cone_energy_bound,
    cone_identity_holds,
    default_directions,
    dip_equal,
    energy,
    is_grid_chain,
    pushforward_dip,
    restrict_dip,
    spanning_check,
    support_in_cube,
    support_points,
)
from filmlab.exact import RadicalSum
from filmlab.geom import primitive_direction
from filmlab.grid import BoxRegion, GridCell, boundary_grid, chain_of, empty_chain
from filmlab.overlay import overlay_leftover
from filmlab.pairs import make_dipole, make_massive, weight
from filmlab.simplicial import PLMap, boundary_simplicial, empty_simplicial, simplicial_chain

from conftest import make_grid, random_grid_chain, square_curve, world_shadow

F = Fraction


def unit_face_pair(grid=None):
    grid = grid or make_grid((1, 1, 1))
    face = chain_of(grid, 2, [GridCell((0, 0, 0), (0, 1))])
    return make_dipole(face), grid


def test_pure_film_energy_equals_weight():
    A, _ = unit_face_pair()
    e = energy(A)
    assert e.weight == 1 and e.mass_part == 0 and e.energy == 1
    assert weight(A) == 1


def test_pure_mass_energy():
    grid = make_grid((1, 1, 1))
    edge = chain_of(grid, 1, [GridCell((0, 0, 0), (0,))])
    A = make_massive(edge)
    e = energy(A)
    assert e.energy == 1 and e.weight == 0 and e.mass_part == 1


def test_energy_split_mixed_pair():
    grid = make_grid((1, 1, 1))
    face = chain_of(grid, 2, [GridCell((0, 0, 0), (0, 1))])
    edge = chain_of(grid, 1, [GridCell((0, 0, 0), (0,))])
    A = Dipolyhedron(face, edge)
    e = energy(A)
    assert e.energy == 2 and e.weight == 1 and e.mass_part == 1


def test_energy_scales_with_spacing():
    grid = make_grid((2, 2, 2), eps=F(1, 2))
    faces = chain_of(
        grid, 2, [GridCell((0, 0, 0), (0, 1)), GridCell((1, 0, 0), (0, 1))]
    )
    edges = chain_of(
        grid,
        1,
        [
            GridCell((0, 0, 0), (0,)),
            GridCell((0, 1, 0), (0,)),
            GridCell((0, 0, 1), (1,)),
        ],
    )
    e = energy(Dipolyhedron(faces, edges))
    assert e.weight == F(1, 2)
    assert e.mass_part == F(3, 2)
    assert e.energy == 2


def test_pair_validation():
    grid = make_grid((1, 1, 1))
    other = make_grid((2, 2, 2))
    face = chain_of(grid, 2, [GridCell((0, 0, 0), (0, 1))])
    with pytest.raises(ValueError):
        Dipolyhedron(face, empty_chain(other, 1))  # different grids
    with pytest.raises(ValueError):
        Dipolyhedron(face, empty_chain(grid, 0))  # wrong gap
    with pytest.raises(ValueError):
        Dipolyhedron(face, empty_simplicial(1))  # mixed representation
    with pytest.raises(ValueError):
        make_massive(empty_chain(grid, 3))


def test_boundary_formula():
    grid = make_grid((2, 2, 1))
    rng = random.Random(5)
    B = random_grid_chain(grid, 2, rng, density=0.5)
    C = random_grid_chain(grid, 1, rng, density=0.3)
    A = Dipolyhedron(B, C)
    dA = boundary_dip(A)
    assert dA.B == boundary_grid(B) + C
    assert dA.C == boundary_grid(C)
    assert boundary_dip(dA).B.is_zero() and boundary_dip(dA).C.is_zero()


def test_boundary_of_film_is_curve_pair():
    # a pair (B, 0) with closed film boundary gamma has boundary (gamma, 0)
    A, grid = unit_face_pair()
    gamma = square_curve(grid, 0, 0, 1)
    dA = boundary_dip(A)
    assert dA.B == gamma and dA.C.is_zero()


def test_cone_over_two_by_two_square():
    grid = make_grid((2, 2, 1), origin=(-1, -1, 0))
    gamma = square_curve(grid, 0, 0, 2)  # 8 lattice edges around [-1,1]^2
    A = Dipolyhedron(gamma, empty_chain(grid, 0))
    pA = cone_dip((0, 0, 0), A)
    assert len(pA.B) == 8
    assert weight(pA) == 4  # the filled square
    assert cone_identity_holds((0, 0, 0), A)


def test_cone_unit_square_weight_one():
    grid = make_grid((1, 1, 1), origin=(F(-1, 2), F(-1, 2), F(0)))
    gamma = square_curve(grid, 0, 0, 1)  # the unit square centered at origin
    A = Dipolyhedron(gamma, empty_chain(grid, 0))
    pA = cone_dip((0, 0, 0), A)
    assert len(pA.B) == 4
    assert weight(pA) == 1
    assert cone_identity_holds((0, 0, 0), A)


def test_cone_energy_bound_factor():
    grid = make_grid((2, 2, 1), origin=(F(-1, 2), F(-1, 2), F(0)), eps=F(1, 2))
    gamma = square_curve(grid, 0, 0, 2)
    face_grid = make_grid((1, 1, 1), origin=(F(-1, 2), F(-1, 2), F(0)))
    patch = chain_of(face_grid, 2, [GridCell((0, 0, 0), (0, 1))])
    A = make_dipole(patch)
    bound = cone_energy_bound((0, 0, 0), A, 1)
    assert bound.factor == RadicalSum.sqrt(3) / 3  # r sqrt3/(k+1), k = 2, r = 1
    assert bound.holds
    # support outside the cube is rejected
    with pytest.raises(ValueError):
        cone_energy_bound((5, 5, 5), A, 1)
    del gamma


def test_cone_identity_random_pairs(rng):
    from conftest import random_simplicial_chain

    for trial in range(10):
        r = random.Random(f"cone:{trial}")
        B = random_simplicial_chain(2, r)
        C = random_simplicial_chain(1, r)
        A = Dipolyhedron(B, C)
        assert cone_identity_holds((F(1, 3), F(-1, 5), F(1, 7)), A)


def test_pushforward_scaling():
    grid = make_grid((1, 1, 1))
    face = chain_of(grid, 2, [GridCell((0, 0, 0), (0, 1))])
    edge = chain_of(grid, 1, [GridCell((0, 0, 0), (0,))])
    A = Dipolyhedron(face, edge)
    half = PLMap.affine(
        [[F(1, 2), 0, 0], [0, F(1, 2), 0], [0, 0, F(1, 2)]], (0, 0, 0), F(1, 2)
    )
    img = pushforward_dip(half, A)
    e0, e1 = energy(A), energy(img)
    assert e1.weight * 4 == e0.weight
    assert e1.mass_part * 2 == e0.mass_part


def test_pushforward_commutes_with_boundary():
    grid = make_grid((2, 2, 1))
    B = chain_of(grid, 2, [GridCell((0, 0, 0), (0, 1)), GridCell((1, 1, 0), (0, 1))])
    A = make_dipole(B)
    f = PLMap.affine([[0, -1, 0], [1, 0, 0], [0, 0, 1]], (F(1, 2), 0, 0), 1)
    left = boundary_dip(pushforward_dip(f, A))
    from filmlab.dipolyhedra import to_simplicial

    right = pushforward_dip(f, to_simplicial(boundary_dip(A)))
    assert dip_equal(left, right)


def test_clamp_keeps_contained_pair():
    grid = make_grid((2, 2, 1), origin=(-1, -1, 0))
    face = chain_of(grid, 2, [GridCell((0, 0, 0), (0, 1))])
    A = make_dipole(face)
    clamped = clamp_dip(2, A)
    from filmlab.dipolyhedra import to_simplicial

    assert dip_equal(clamped, to_simplicial(A))
    assert energy(clamped).energy == energy(A).energy


def test_clamp_shrinks_energy_and_support():
    tri = simplicial_chain(
        2, [((F(0), F(0), F(0)), (F(4), F(0), F(0)), (F(0), F(4), F(0)))]
    )
    A = make_dipole(tri)
    r = F(1)
    clamped = clamp_dip(r, A)
    assert support_in_cube(clamped, (0, 0, 0), 2 * r)
    assert not energy(clamped).energy > energy(A).energy


def test_restrict_full_and_empty_boxes():
    grid = make_grid((2, 2, 1))
    B = chain_of(grid, 2, [GridCell((0, 0, 0), (0, 1)), GridCell((1, 0, 0), (0, 1))])
    C = chain_of(grid, 1, [GridCell((0, 0, 0), (0,))])
    A = Dipolyhedron(B, C)
    inside, report = restrict_dip(A, BoxRegion((0, 0, 0), (2, 2, 1)))
    assert dip_equal(inside, A)
    assert report.nu == energy(A).energy
    assert report.omega == energy(A).weight
    assert report.mu == energy(A).mass_part
    empty_box = BoxRegion((2, 2, 0), (2, 2, 1))
    inside2, report2 = restrict_dip(A, empty_box)
    assert report2.nu == 0
    assert inside2.B.is_zero() and inside2.C.is_zero()


def test_restrict_half_box_additivity():
    grid = make_grid((2, 2, 1))
    rng = random.Random(17)
    A = Dipolyhedron(
        random_grid_chain(grid, 2, rng, density=0.5),
        random_grid_chain(grid, 1, rng, density=0.3),
    )
    left = BoxRegion((0, 0, 0), (1, 2, 1))
    right = BoxRegion((1, 0, 0), (2, 2, 1))
    in_l, rep_l = restrict_dip(A, left)
    in_r, rep_r = restrict_dip(A, right)
    # edges on the shared frontier land in both boxes, so compare via the
    # exact partition: inside + complement against the full energy
    full = BoxRegion((0, 0, 0), (2, 2, 1))
    _, rep_full = restrict_dip(A, full)
    assert rep_full.nu == energy(A).energy
    outside = A + in_l
    assert rep_l.nu + energy(outside).energy == energy(A).energy
    del in_r, rep_r


def test_restrict_simplicial_pair():
    tri = simplicial_chain(
        2, [((F(0), F(0), F(0)), (F(2), F(0), F(0)), (F(0), F(2), F(0)))]
    )
    A = make_dipole(tri)
    lo = (F(0), F(0), F(0))
    hi = (F(1), F(1), F(1))
    inside, report = restrict_dip(A, (lo, hi))
    assert report.nu == report.omega
    from filmlab.simplicial import mass_simplicial

    assert report.omega == mass_simplicial(inside.B)


def test_support_is_union_of_parts():
    grid = make_grid((2, 2, 1))
    B = chain_of(grid, 2, [GridCell((0, 0, 0), (0, 1))])
    C = chain_of(grid, 1, [GridCell((1, 1, 0), (0,))])
    A = Dipolyhedron(B, C)
    parts = support_points(Dipolyhedron(B, empty_chain(grid, 1)))
    parts += support_points(Dipolyhedron(empty_chain(grid, 2), C))
    assert support_points(A) == sorted(set(parts))


def test_shadow_single_face_along_its_normal():
    # a single face spans its own boundary along its normal
    grid = make_grid((2, 2, 1))
    face = chain_of(grid, 2, [GridCell((0, 0, 0), (0, 1))])
    gamma = square_curve(grid, 0, 0, 1)
    report = spanning_check(make_dipole(face), gamma, [ProjectionDir.along_axis(2)])
    (z,) = report.directions
    assert report.spans and z.admissible and z.matches
    assert z.region_area == 1 and report.max_region_area == 1


def test_shadow_stacked_faces_cancel():
    # two stacked faces cancel along z, so they fail to span the bottom
    # square: the mass part is the top square, visible along z
    grid = make_grid((1, 1, 2))
    B = chain_of(grid, 2, [GridCell((0, 0, 0), (0, 1)), GridCell((0, 0, 2), (0, 1))])
    gamma = square_curve(grid, 0, 0, 1)
    A = Dipolyhedron(B, gamma + boundary_grid(B))
    report = spanning_check(A, gamma, [ProjectionDir.along_axis(2)])
    assert report.boundary_ok and report.verdict == "fails"
    assert report.directions[0].admissible and not report.directions[0].matches


def test_shadow_edge_on_face_is_empty():
    # seen edge on, a vertical face projects to nothing: as the curve its
    # direction is inadmissible, and as extra film its mass part matches
    grid = make_grid((1, 1, 1))
    vertical = chain_of(grid, 2, [GridCell((0, 0, 0), (0, 2))])  # xz face
    z = ProjectionDir.along_axis(2)
    alone = spanning_check(make_dipole(vertical), boundary_grid(vertical), [z])
    assert alone.verdict == "vacuous" and not alone.directions[0].admissible
    gamma = square_curve(grid, 0, 0, 1)
    B = chain_of(grid, 2, [GridCell((0, 0, 0), (0, 1))]) + vertical
    A = Dipolyhedron(B, gamma + boundary_grid(B))
    assert not A.C.is_zero()
    report = spanning_check(A, gamma, [ProjectionDir.along_axis(i) for i in range(3)])
    assert report.spans
    assert all(not r.admissible or r.matches for r in report.directions)


def test_shadow_of_curve_projects_segments():
    # the curve's projection alone decides admissibility and region area
    grid = make_grid((1, 1, 1))
    face = chain_of(grid, 2, [GridCell((0, 0, 0), (0, 1))])
    gamma = square_curve(grid, 0, 0, 1)
    oblique = ProjectionDir.from_direction((1, 1, 1))
    dirs = [ProjectionDir.along_axis(i) for i in range(3)] + [oblique]
    x, y, z, o = spanning_check(make_dipole(face), gamma, dirs).directions
    for edge_on in (x, y):
        assert not edge_on.admissible
        assert edge_on.reason == "curve segment parallel to projection direction"
    assert z.admissible and z.region_area == 1
    # the unit square seen along (1,1,1) has area 1/sqrt(3)
    assert o.admissible and o.region_area * RadicalSum.sqrt(3) == 1
    bare = spanning_check(make_massive(gamma), gamma, dirs)
    assert [r.admissible for r in bare.directions] == [False, False, True, True]


def test_spanning_filled_face():
    grid = make_grid((1, 1, 1))
    face = chain_of(grid, 2, [GridCell((0, 0, 0), (0, 1))])
    gamma = square_curve(grid, 0, 0, 1)
    report = spanning_check(make_dipole(face), gamma)
    assert report.verdict == "spans" and report.spans
    assert report.max_region_area == 1
    # the z axis is admissible, x and y are edge-on
    by_label = {r.direction.label(): r for r in report.directions}
    assert by_label["z"].admissible and by_label["z"].matches


def test_spanning_rejects_bare_mass_pair():
    grid = make_grid((1, 1, 1))
    gamma = square_curve(grid, 0, 0, 1)
    A = make_massive(gamma)  # no film at all
    report = spanning_check(A, gamma)
    assert report.boundary_ok
    assert report.verdict == "fails" and not report.spans


def test_spanning_boundary_mismatch():
    grid = make_grid((1, 1, 1))
    face = chain_of(grid, 2, [GridCell((0, 0, 0), (0, 1))])
    wrong = chain_of(grid, 1, [GridCell((0, 0, 0), (0,))])
    report = spanning_check(make_dipole(face), wrong)
    assert report.verdict == "boundary-mismatch"
    assert not report.boundary_ok


def test_spanning_cone_triangles():
    grid = make_grid((2, 2, 1), origin=(-1, -1, 0))
    gamma = square_curve(grid, 0, 0, 2)
    curve_pair = Dipolyhedron(gamma, empty_chain(grid, 0))
    pA = cone_dip((0, 0, 0), curve_pair)
    from filmlab.simplicial import embed_grid_chain

    report = spanning_check(pA, embed_grid_chain(gamma))
    assert report.verdict == "spans"


def test_spanning_vacuous_for_unprojectable_curve():
    # simplicial triangle curve whose projections all self-intersect is hard
    # to build; instead check the empty-direction degenerate call
    grid = make_grid((1, 1, 1))
    face = chain_of(grid, 2, [GridCell((0, 0, 0), (0, 1))])
    gamma = square_curve(grid, 0, 0, 1)
    report = spanning_check(make_dipole(face), gamma, dirs=[])
    assert report.verdict == "vacuous"


def test_spanning_needs_matching_representation():
    grid = make_grid((1, 1, 1))
    face = chain_of(grid, 2, [GridCell((0, 0, 0), (0, 1))])
    gamma = square_curve(grid, 0, 0, 1)
    from filmlab.simplicial import embed_grid_chain

    with pytest.raises(ValueError):
        spanning_check(make_dipole(face), embed_grid_chain(gamma))


def test_default_directions_deterministic():
    a = default_directions(seed=3, extra=5)
    b = default_directions(seed=3, extra=5)
    assert [d.direction for d in a] == [d.direction for d in b]
    assert len(a) == 8
    assert [d.label() for d in a[:3]] == ["x", "y", "z"]
    c = default_directions(seed=4, extra=5)
    assert [d.direction for d in a] != [d.direction for d in c]


def test_default_directions_pool_is_bounded():
    """The generator draws from a finite pool; asking for more than it holds
    (or for a negative count) is refused instead of looping forever."""
    values = {F(p, q) for p in range(-7, 8) for q in range(1, 8)}
    pool = set()
    for u in values:
        for v in values:
            if u or v:
                w = 1 + u * u + v * v
                pool.add(primitive_direction((2 * u / w, 2 * v / w, (1 - u * u - v * v) / w)))
    assert len(pool) == _DIRECTION_POOL
    for extra in (-1, _DIRECTION_POOL + 1):
        with pytest.raises(ValueError, match="extra directions"):
            default_directions(0, extra)
    assert len(default_directions(0, 0)) == 3


def test_projection_rejects_zero_direction():
    with pytest.raises(ValueError):
        ProjectionDir.from_direction((0, 0, 0))


def test_dip_sum_cancels():
    A, _ = unit_face_pair()
    sum_ = A + A
    assert sum_.B.is_zero() and sum_.C.is_zero()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_boundary_dip_squared_zero(seed):
    grid = make_grid((2, 2, 1))
    rng = random.Random(seed)
    A = Dipolyhedron(
        random_grid_chain(grid, 2, rng, density=0.4),
        random_grid_chain(grid, 1, rng, density=0.3),
    )
    dd = boundary_dip(boundary_dip(A))
    assert dd.B.is_zero() and dd.C.is_zero()



# ---------------------------------------------------------------------------
# differential test: the mass-part criterion against the film-border rule


def _film_borders(B):
    """World segments of every face border of the film, with multiplicity."""
    if not is_grid_chain(B):
        return [(t[i], t[(i + 1) % 3]) for t in B.simplices for i in range(3)]
    out = []
    for cell in B.cells:
        a1, a2 = cell.axes
        cyc = []
        for d1, d2 in ((0, 0), (1, 0), (1, 1), (0, 1)):
            lat = list(cell.base)
            lat[a1] += d1
            lat[a2] += d2
            cyc.append(B.grid.world(tuple(lat)))
        out += [(cyc[i], cyc[(i + 1) % 4]) for i in range(4)]
    return out


def film_border_rule(A, gamma, dirs):
    """Reference spanning check by the jump set of shadow plus region.

    A direction matches when the projected face borders of the film and
    the projected curve cancel in the interval-parity overlay.
    """
    residual = chain_boundary(A.B) + A.C + gamma
    if not (chain_is_zero(chain_boundary(A.C)) and chain_is_zero(residual)):
        return SpanningReport(False, "boundary-mismatch", (), None)
    lift = lambda p: (p[0], p[1], F(0))  # noqa: E731
    reports, max_area = [], None
    for proj in dirs:
        ok, reason, segs2, area = world_shadow(gamma, proj)
        if not ok:
            reports.append(DirectionReport(proj, False, reason, None, None))
            continue
        jumps = [(proj.project2(p), proj.project2(q)) for p, q in _film_borders(A.B)] + segs2
        matches = not overlay_leftover([(lift(a), lift(b)) for a, b in jumps])
        reports.append(DirectionReport(proj, True, "ok", matches, area))
        if max_area is None or area > max_area:
            max_area = area
    admissible = [r for r in reports if r.admissible]
    if not admissible:
        verdict = "vacuous"
    elif all(r.matches for r in admissible):
        verdict = "spans"
    else:
        verdict = "fails"
    return SpanningReport(True, verdict, tuple(reports), max_area)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    kind=st.sampled_from(["film", "film+stray", "random", "mismatch"]),
)
def test_spanning_agrees_with_film_border_rule(seed, kind):
    rng = random.Random(seed)
    grid = make_grid((3, 3, 2))
    lo = rng.randint(0, 1)
    hi = rng.randint(lo + 1, 3)
    gamma = square_curve(grid, 1, lo, hi)
    film = chain_of(
        grid, 2, [GridCell((i, j, 1), (0, 1)) for i in range(lo, hi) for j in range(lo, hi)]
    )
    if kind == "random":
        B = random_grid_chain(grid, 2, rng, density=0.15)
    else:
        # film plus the boundary of a random 3-chain spans the same curve
        B = film + boundary_grid(random_grid_chain(grid, 3, rng, density=0.2))
        if kind == "film+stray":
            B = B + random_grid_chain(grid, 2, rng, density=0.05)
    C = gamma + boundary_grid(B)
    if kind == "mismatch":
        C = C + random_grid_chain(grid, 1, rng, density=0.1)
    A = Dipolyhedron(B, C)
    dirs = default_directions()
    report = spanning_check(A, gamma, dirs)
    assert report == film_border_rule(A, gamma, dirs)
    if kind == "film":
        assert report.spans


def test_spanning_agrees_with_film_border_rule_on_cone():
    grid = make_grid((2, 2, 1), origin=(-1, -1, 0))
    gamma = square_curve(grid, 0, 0, 2)
    pA = cone_dip((0, 0, 0), Dipolyhedron(gamma, empty_chain(grid, 0)))
    from filmlab.simplicial import embed_grid_chain

    curve = embed_grid_chain(gamma)
    dirs = default_directions()
    report = spanning_check(pA, curve, dirs)
    assert report.spans
    assert report == film_border_rule(pA, curve, dirs)
    # a stray triangle off the cone breaks both rules alike
    stray = simplicial_chain(2, [((F(0), F(0), F(1)), (F(1), F(0), F(1)), (F(0), F(1), F(1)))])
    bent = Dipolyhedron(pA.B + stray, pA.C + boundary_simplicial(stray))
    report = spanning_check(bent, curve, dirs)
    assert report.verdict == "fails"
    assert report == film_border_rule(bent, curve, dirs)
