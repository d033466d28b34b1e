import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filmlab import plateau
from filmlab.dipolyhedra import (
    Dipolyhedron,
    DirectionReport,
    ProjectionDir,
    SpanningContext,
    SpanningReport,
    boundary_dip,
    chain_boundary,
    chain_is_zero,
    default_directions,
    energy,
    support_in_cube,
    support_points,
    to_simplicial,
)
from filmlab.exact import SQRT3
from filmlab.geom import sup_norm, vsub
from filmlab.grid import (
    GridCell,
    GridChain,
    GridSpec,
    boundary_grid,
    cell_in_bounds,
    chain_of,
    edge_ends,
    empty_chain,
    mass_grid,
)
from filmlab.loops import diagnostics, loop_decomposition
from filmlab.overlay import overlay_leftover
from filmlab.pairs import make_dipole, make_massive
from filmlab.plateau import (
    BudgetError,
    PlateauProblem,
    clamp_improvement,
    cone_energy,
    gamma_membership,
    initial_cone_solution,
    minimize_weight,
    plateau_problem,
    sweep_film,
)
from filmlab.simplicial import embed_grid_chain

from conftest import (
    FOLD,
    HEX,
    centred_grid,
    make_grid,
    polygon_curve,
    random_grid_chain,
    refine_polygon,
    square_curve,
    stair22,
    stair44,
    world_edges,
    world_shadow,
)

F = Fraction


def unit_problem(lam=None, dirs=None):
    grid = make_grid((3, 3, 2), origin=(F(-3, 2), F(-3, 2), F(-1)))
    gamma = square_curve(grid, 1, 1, 2)  # unit square centered at the origin
    return plateau_problem(gamma, lam=lam, dirs=dirs)


def patch_problem():
    grid = make_grid((4, 4, 4), origin=(-2, -2, -2))
    gamma = square_curve(grid, 2, 1, 3)  # 2x2 square centered at the origin
    return plateau_problem(gamma)


def test_curve_validation_rejects_open_arc():
    grid = make_grid((2, 2, 1))
    arc = chain_of(grid, 1, [GridCell((0, 0, 0), (0,))])
    with pytest.raises(ValueError):
        plateau_problem(arc)


def test_curve_validation_rejects_disconnected():
    grid = make_grid((5, 5, 1))
    two_squares = square_curve(grid, 0, 0, 1) + square_curve(grid, 0, 3, 4)
    with pytest.raises(ValueError):
        plateau_problem(two_squares)


def test_problem_defaults():
    problem = unit_problem()
    assert mass_grid(problem.gamma) == 4
    assert problem.lam_prime == 3 * problem.lam / 4
    assert problem.cube_half * 2 == problem.lam_prime


def test_unit_square_minimum_is_one():
    problem = unit_problem()
    sol = minimize_weight(problem, method="exhaustive")
    assert sol.weight == 1
    assert sol.optimality == "exact"
    assert sol.feasibility.member
    assert sol.pair.C.is_zero()
    assert mass_grid(sol.pair.B) == 1
    assert sol.shadow_bound == 1
    assert sol.weight >= sol.shadow_bound


def test_patch_minimum_is_four():
    problem = patch_problem()
    sol = minimize_weight(problem, method="exhaustive")
    assert sol.weight == 4
    assert sol.optimality == "exact"
    assert len(sol.pair.B) == 4
    assert sol.shadow_bound == 4


def test_patch_refined_grid_same_value():
    grid = make_grid((8, 8, 8), origin=(-2, -2, -2), eps=F(1, 2))
    gamma = square_curve(grid, 4, 2, 6)
    problem = plateau_problem(gamma)
    for method in ("exhaustive", "bnb"):
        sol = minimize_weight(problem, method=method)
        assert (sol.weight, sol.optimality, sol.method) == (4, "exact", method)
        assert len(sol.pair.B) == 16
        assert sol.pair.C.is_zero()
    # with the axes alone the labelled film meets the shadow bound, which
    # proves it least at the root, so no other coset is searched
    axes = plateau_problem(gamma, dirs=default_directions(0, 0))
    assert axes.injective_direction is None
    sol = minimize_weight(axes, method="exhaustive")
    assert (sol.weight, sol.optimality, sol.nodes) == (4, "exact", 1)
    assert len(axes.invisible_cycles) > 16
    # fold2 at direction seed 4 with one extra direction: its root film is
    # above the shadow bound, and its cosets are too many for exhaustive
    fold2 = plateau_problem(polygon_curve(FOLD2, 4), dirs=default_directions(4, 1))
    assert len(fold2.invisible_cycles) == 40
    with pytest.raises(ValueError, match="dimension 40, beyond the exhaustive budget") as err:
        minimize_weight(fold2, method="exhaustive")
    assert "root film weighs 8 against the shadow bound 6" in str(err.value)


def test_local_descent_gives_upper_bound():
    # local is the labelling's root film; with the axes alone the unit
    # face meets the axis-shadow bound, which proves it least
    problem = unit_problem(dirs=default_directions(0, 0))
    assert problem.injective_direction is None
    sol = minimize_weight(problem, method="local")
    assert (sol.weight, sol.optimality, sol.nodes) == (1, "exact", 1)
    assert sol.feasibility.member
    # hex1 at direction seed 4 with three extra directions has no witness,
    # two invisible cycles, and a shadow bound below its root film
    hex1 = plateau_problem(polygon_curve(HEX, 3), dirs=default_directions(4, 3))
    assert hex1.injective_direction is None and len(hex1.invisible_cycles) == 2
    assert hex1.shadow_bound == 2
    sol = minimize_weight(hex1, method="local")
    assert (sol.weight, sol.optimality, sol.nodes) == (3, "upper-bound", 1)
    assert sol.feasibility.member
    # the root closes under an injective direction: the unit face, proved
    sol = minimize_weight(unit_problem(), method="local")
    assert (sol.weight, sol.optimality, sol.nodes) == (1, "exact", 1)
    assert sol.feasibility.member


def test_local_descent_rejects_node_budget():
    problem = unit_problem()
    for budget in (0, 5):
        with pytest.raises(ValueError, match="no node budget"):
            minimize_weight(problem, method="local", node_budget=budget)


def test_membership_rejects_bare_mass_pair():
    problem = unit_problem()
    mu = make_massive(problem.gamma)
    report = gamma_membership(mu, problem)
    assert not report.member
    assert any("span" in f for f in report.failures())


def test_membership_accepts_flat_film():
    problem = unit_problem()
    face = chain_of(
        problem.grid, 2, [GridCell((1, 1, 1), (0, 1))]
    )
    A = make_dipole(face)
    report = gamma_membership(A, problem)
    assert report.member, report.failures()
    assert report.budget.weight == 1


def test_membership_flags_wrong_boundary():
    problem = unit_problem()
    far_face = chain_of(problem.grid, 2, [GridCell((0, 0, 0), (0, 1))])
    report = gamma_membership(make_dipole(far_face), problem)
    assert not report.member
    assert not report.spanning.spans


def test_budget_error_when_cone_exceeds_lambda():
    grid = make_grid((3, 3, 2), origin=(F(-3, 2), F(-3, 2), F(-1)))
    gamma = square_curve(grid, 1, 1, 2)
    tight = PlateauProblem(
        gamma=gamma,
        lam=F(1, 100),
        lam_prime=F(100),
        grid=grid,
        dirs=(),
        seed=0,
    )
    with pytest.raises(BudgetError) as err:
        initial_cone_solution(tight)
    assert err.value.required is not None
    with pytest.raises(BudgetError):
        minimize_weight(tight, method="exhaustive")


def test_budget_too_small_for_cube():
    grid = make_grid((3, 3, 2), origin=(F(-3, 2), F(-3, 2), F(-1)))
    gamma = square_curve(grid, 1, 1, 2)
    with pytest.raises(ValueError):
        plateau_problem(gamma, lam=F(1, 10))


def test_cone_start_feasible_for_unit_square():
    problem = unit_problem()
    start = initial_cone_solution(problem)
    e = energy(start.pair)
    assert e.weight == 1  # filled unit square from its center
    assert start.membership.member
    assert start.bounds_ok["lam"] and start.bounds_ok["lam_scaled"]
    assert start.bounds["lam"] == problem.lam
    assert start.bounds["lam_scaled"] == SQRT3 * problem.lam


def test_cone_energy_of_square():
    grid = make_grid((3, 3, 2), origin=(F(-3, 2), F(-3, 2), F(-1)))
    gamma = square_curve(grid, 1, 1, 2)
    assert cone_energy(gamma) == 1


def test_solution_never_below_region_bound():
    problem = patch_problem()
    sol = minimize_weight(problem, method="bnb")
    assert sol.weight >= sol.shadow_bound == 4


def test_clamp_improvement_fast_path():
    problem = unit_problem()
    face = chain_of(problem.grid, 2, [GridCell((1, 1, 1), (0, 1))])
    A = make_dipole(face)
    report = clamp_improvement(A, problem)
    assert not report.changed
    assert report.weight_ok and report.energy_ok
    assert report.spanning_after.spans or not report.spanning_before.spans


def test_clamp_improvement_pulls_in_outlier():
    grid = make_grid((6, 6, 2), origin=(-3, -3, -1))
    gamma = square_curve(grid, 1, 2, 4)  # the [-1,1]^2 square at z = 0
    # lam' = 3*lam/M(gamma) = 2 exactly, so the working cube is [-1,1]^3
    problem = plateau_problem(gamma, lam=F(16, 3))
    face = chain_of(grid, 2, [GridCell((2, 2, 1), (0, 1)), GridCell((2, 2, 0), (0, 1))])
    outlier = chain_of(grid, 2, [GridCell((5, 5, 0), (0, 1)), GridCell((5, 5, 1), (0, 1))])
    spanning_film = face + outlier
    C = gamma + boundary_grid(spanning_film)
    A = Dipolyhedron(spanning_film, C)
    report = clamp_improvement(A, problem)
    assert report.changed
    assert report.weight_ok and report.energy_ok
    assert not report.weight_after > report.weight_before


def test_empty_curve_zero_problem():
    grid = make_grid((1, 1, 1))
    empty = empty_chain(grid, 1)
    problem = plateau_problem(empty)
    sol = minimize_weight(problem)
    assert sol.weight == 0
    assert sol.feasibility.member


def test_loop_decomposition_single_square():
    grid = make_grid((2, 2, 1))
    gamma = square_curve(grid, 0, 0, 2)
    loops = loop_decomposition(gamma)
    assert len(loops) == 1
    assert len(loops[0]) == 8
    assert sorted(loops[0], key=lambda c: (c.base, c.axes)) == gamma.sorted_cells()


def test_loop_decomposition_two_squares():
    grid = make_grid((5, 5, 1))
    gamma = square_curve(grid, 0, 0, 1) + square_curve(grid, 0, 3, 4)
    loops = loop_decomposition(gamma)
    assert len(loops) == 2
    assert {len(l) for l in loops} == {4}


def test_loop_decomposition_rejects_odd_degree():
    grid = make_grid((2, 2, 1))
    arc = chain_of(grid, 1, [GridCell((0, 0, 0), (0,))])
    with pytest.raises(ValueError):
        loop_decomposition(arc)


def test_loop_decomposition_covers_every_edge():
    grid = make_grid((4, 4, 1))
    # figure-eight: two squares sharing a corner have even degree everywhere
    gamma = square_curve(grid, 0, 0, 2) + square_curve(grid, 0, 2, 4)
    loops = loop_decomposition(gamma)
    covered = [cell for loop in loops for cell in loop]
    assert len(covered) == len(set(covered)) == len(gamma)


def test_diagnostics_of_flat_solution():
    problem = unit_problem()
    sol = minimize_weight(problem)
    report = diagnostics(sol.pair + Dipolyhedron(empty_chain(problem.grid, 2), problem.gamma))
    assert report.loop_count == 1
    assert report.total_length == 4
    assert report.film_components == 1


def test_diagnostics_empty_pair():
    grid = make_grid((1, 1, 1))
    A = Dipolyhedron(empty_chain(grid, 2), empty_chain(grid, 1))
    report = diagnostics(A)
    assert report.loop_count == 0 and report.film_components == 0
    assert not report.has_film_curves


def test_member_below_region_bound_raises(monkeypatch):
    # the weight >= shadow-bound invariant is checked without assert, so it
    # also holds under python -O
    problem = unit_problem()
    monkeypatch.setattr(plateau.PlateauProblem, "shadow_bound", F(2))
    with pytest.raises(RuntimeError, match="fell below the shadow bound 2"):
        minimize_weight(problem, method="exhaustive")


# ---------------------------------------------------------------------------
# the face search: a reference that shares nothing with the labelling


def _face_order(problem):
    """Faces inside the working cube, nearest the curve first.

    The order is a search heuristic only (ascending-cardinality search
    is exact regardless): films hug their curve, so the first
    parity-feasible subset tends to pass the full check.  Distances are
    taken in doubled lattice coordinates, where face centres and curve
    vertices are integer points; the world distance squared is
    epsilon^2 / 4 times that, so the order is the world order.
    """
    lo, hi = problem.cube_box
    out = [cell for cell in problem.grid.cells(2) if cell_in_bounds(cell, lo, hi)]
    anchors = {tuple(2 * x for x in v) for c in problem.gamma.cells for v in edge_ends(c)}

    def center_dist_sq(cell):
        center = [2 * b + (a in cell.axes) for a, b in enumerate(cell.base)]
        return min(sum((center[i] - p[i]) ** 2 for i in range(3)) for p in anchors)

    return sorted(out, key=lambda c: (center_dist_sq(c), c.base, c.axes))


def _axis_targets(problem):
    """Per admissible axis, the lattice cells (i, m) its shadow of the curve encloses.

    Along an axis the curve projects onto lattice lines; a row m of cells
    crosses the projected edges along the second other axis at their
    first coordinate, and a cell lies inside iff an odd number of those
    crossings lie to its right.
    """
    targets = {}
    for proj, admissible, *_ in problem.grid_context.directions:
        if admissible and proj.axis is not None:
            j, l = [a for a in range(3) if a != proj.axis]
            rows = {}
            for cell in problem.gamma.cells:
                if cell.axes == (l,):
                    rows.setdefault(cell.base[l], []).append(cell.base[j])
            targets[proj.axis] = frozenset(
                (i, m)
                for m, xs in rows.items()
                for a, b in zip(sorted(xs)[::2], sorted(xs)[1::2])
                for i in range(a, b)
            )
    return targets


def _candidate(problem, faces):
    """(B, gamma + dB) for a face set B if it is a member, checked in full."""
    B = chain_of(problem.grid, 2, faces)
    C = problem.gamma + boundary_grid(B)
    if mass_grid(B) + mass_grid(C) > problem.lam:
        return None
    pair = Dipolyhedron(B, C)
    return pair if problem.grid_context.check(pair).spans else None


def _face_search(problem, node_budget):
    """Ascending-cardinality subset search of the working cube's faces.

    State is one integer: a bit per (axis, column) that any candidate face
    or target region touches.  A face perpendicular to an admissible axis
    toggles exactly one bit, so the number of wrong bits is a lower bound
    on the faces still needed; bits no remaining face can reach prune the
    branch outright.  Each cardinality is a depth-first walk on an
    explicit stack that takes a face before it skips it.  Returns the
    first member found (or None), the nodes visited, and whether the node
    budget was never hit.
    """
    faces = _face_order(problem)
    targets = _axis_targets(problem)
    bit_of = {}

    def bit(axis, column):
        return bit_of.setdefault((axis, column), 1 << len(bit_of))

    target = 0
    for axis, cols in targets.items():
        for col in cols:
            target |= bit(axis, col)
    masks = []
    for cell in faces:
        axis = next(a for a in range(3) if a not in cell.axes)
        j, l = cell.axes
        masks.append(bit(axis, (cell.base[j], cell.base[l])) if axis in targets else 0)
    suffix = [0] * (len(faces) + 1)
    for i in range(len(faces) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | masks[i]
    nodes = 0
    for w in range(min(len(faces), int(problem.lam / problem.grid.epsilon ** 2)) + 1):
        stack = [(0, w, 0, ())]
        while stack:
            idx, left, state, chosen = stack.pop()
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                return None, nodes, False
            wrong = state ^ target
            if left == 0:
                if wrong == 0 and (hit := _candidate(problem, chosen)) is not None:
                    return hit, nodes, True
                continue
            if len(faces) - idx < left or wrong.bit_count() > left or wrong & ~suffix[idx]:
                continue
            stack.append((idx + 1, left, state, chosen))
            stack.append((idx + 1, left - 1, state ^ masks[idx], chosen + (faces[idx],)))
    return None, nodes, True


def _world_face_order(problem):
    """Reference order: working-cube faces by Fraction world distance."""
    grid, half, eps = problem.grid, problem.cube_half, problem.grid.epsilon
    faces = [
        cell
        for cell in grid.cells(2)
        if all(all(abs(c) <= half for c in grid.world(v)) for v in cell.corners())
    ]
    anchors = {grid.world(v) for c in problem.gamma.cells for v in c.corners()}

    def key(cell):
        center = list(grid.world(cell.base))
        for a in cell.axes:
            center[a] += eps / 2
        dist = min(sum((center[i] - p[i]) ** 2 for i in range(3)) for p in anchors)
        return dist, cell.base, cell.axes

    return sorted(faces, key=key)


def _centred_square(n):
    """n x n square at z = 0 on the smallest centred grid covering its cube."""
    side = -(-3 * n // 2)
    d = side + (side - n) % 2
    dz = side + side % 2
    return square_curve(centred_grid((d, d, dz)), dz // 2, (d - n) // 2, (d + n) // 2)


FOLD2 = refine_polygon(FOLD, 2)
SYMMETRIES = list(
    itertools.product(itertools.permutations(range(3)), itertools.product((1, -1), repeat=3))
)[::7]


def _oriented(points, sym):
    perm, signs = sym
    return [tuple(signs[i] * p[perm[i]] for i in range(3)) for p in points]


def test_admissible_faces_lattice_order_matches_world_order():
    curves = [_centred_square(n) for n in range(1, 6)]
    for points, dims in ((HEX, 3), (FOLD, 2), (FOLD2, 4)):
        curves += [polygon_curve(_oriented(points, sym), dims) for sym in SYMMETRIES]
    # off-lattice origin and a finer spacing
    curves.append(square_curve(make_grid((3, 3, 2), origin=(F(-3, 2), F(-3, 2), F(-1))), 1, 1, 2))
    curves.append(square_curve(make_grid((8, 8, 8), origin=(-2, -2, -2), eps=F(1, 2)), 4, 2, 6))
    assert len(SYMMETRIES) == 7
    for gamma in curves:
        problem = plateau_problem(gamma)
        assert _face_order(problem) == _world_face_order(problem)


def test_support_in_cube_lattice_bounds_match_world_corners():
    rng = random.Random(5)
    centers = random.Random(6)
    off_centre = []
    grids = [
        make_grid((3, 3, 2), origin=(F(-3, 2), F(-3, 2), F(-1))),
        make_grid((4, 4, 4), origin=(F(-7, 3), -2, F(-5, 4)), eps=F(1, 2)),
    ]
    for grid in grids:
        for half in (F(1, 2), F(3, 4), F(1), F(5, 4), F(2)):
            for _ in range(10):
                A = Dipolyhedron(
                    random_grid_chain(grid, 2, rng, density=0.05),
                    random_grid_chain(grid, 1, rng, density=0.05),
                )
                world = all(
                    abs(c) <= half
                    for chain in (A.B, A.C)
                    for cell in chain.cells
                    for corner in cell.corners()
                    for c in grid.world(corner)
                )
                assert support_in_cube(A, (0, 0, 0), 2 * half) == world
                # an off-centre cube, near the middle of the support's bounding
                # box, against the world corners of the support
                pts = support_points(A)
                c = tuple(
                    (min(p[a] for p in pts) + max(p[a] for p in pts)) / 2
                    + F(centers.randint(-2, 2), 4)
                    for a in range(3)
                )
                world = all(sup_norm(vsub(p, c)) <= half for p in pts)
                assert support_in_cube(A, c, 2 * half) == world
                off_centre.append(world)
    assert True in off_centre and False in off_centre


@pytest.mark.parametrize(
    "name, expected",
    [("sq1", 1), ("sq2", 4), ("sq3", 9), ("hex1", 3), ("fold1", 2)],
)
def test_local_descent_never_below_exact(name, expected):
    curves = {
        "sq1": lambda: _centred_square(1),
        "sq2": lambda: _centred_square(2),
        "sq3": lambda: _centred_square(3),
        "hex1": lambda: polygon_curve(HEX, 3),
        "fold1": lambda: polygon_curve(FOLD, 2),
    }
    problem = plateau_problem(curves[name]())
    exact = minimize_weight(problem, method="bnb")
    assert exact.optimality == "exact" and exact.weight == expected
    local = minimize_weight(problem, method="local")
    assert local.feasibility.member
    assert local.weight >= exact.weight


def test_minimize_weight_builds_one_spanning_context(monkeypatch):
    built = []

    class CountingContext(plateau.SpanningContext):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(plateau, "SpanningContext", CountingContext)
    # hex1 at direction seed 4 with three extra directions has no witness:
    # its invisible cycles are built from the same context
    problem = plateau_problem(polygon_curve(HEX, 3), dirs=default_directions(4, 3))
    assert problem.injective_direction is None
    # local takes the root film; bnb spends its one node on the root and
    # returns it when the next coset is over the budget
    for kwargs in ({"method": "local"}, {"method": "bnb", "node_budget": 1}):
        sol = minimize_weight(problem, **kwargs)
        assert sol.optimality == "upper-bound" and sol.feasibility.member
    assert len(problem.invisible_cycles) == 2
    assert len(built) == 1
    # with an injective direction bnb labels cells; a zero budget returns
    # the sweep film, here the unit face, which meets the axis-shadow bound
    problem = unit_problem()
    assert problem.injective_direction is not None
    sol = minimize_weight(problem, method="bnb", node_budget=0)
    assert (sol.optimality, sol.nodes) == ("exact", 0) and sol.feasibility.member
    assert sol.pair.B == sweep_film(problem.gamma)
    assert len(built) == 2


def test_one_spanning_context_per_problem(monkeypatch):
    built = []

    class CountingContext(plateau.SpanningContext):
        def __init__(self, gamma, *args, **kwargs):
            built.append("grid" if isinstance(gamma, GridChain) else "simplicial")
            super().__init__(gamma, *args, **kwargs)

    monkeypatch.setattr(plateau, "SpanningContext", CountingContext)
    problem = unit_problem()
    start = initial_cone_solution(problem)
    assert gamma_membership(start.pair, problem).member
    assert gamma_membership(to_simplicial(start.pair), problem).member
    for method in ("exhaustive", "bnb", "local"):
        assert minimize_weight(problem, method=method).feasibility.member
    # a film poking out of the working cube is clamped into a simplicial pair
    B = start.pair.B + chain_of(problem.grid, 2, [GridCell((0, 0, 0), (0, 1))])
    report = clamp_improvement(Dipolyhedron(B, problem.gamma + boundary_grid(B)), problem)
    assert report.changed and report.pair.rep == "simplicial"
    assert built == ["grid"]


# ---------------------------------------------------------------------------
# spanning in lattice coordinates against the world projection


PLATEAU_CURVES = {
    **{f"sq{n}": lambda sym, n=n: _centred_square(n) for n in range(1, 5)},
    "hex1": lambda sym: polygon_curve(_oriented(HEX, sym), 3),
    "fold1": lambda sym: polygon_curve(_oriented(FOLD, sym), 2),
    "fold2": lambda sym: polygon_curve(_oriented(FOLD2, sym), 4),
}


def _world_spanning_check(gamma, dirs, A):
    """Reference: C's edges projected from world points by proj.project2,
    each admissible direction decided by overlay_leftover."""
    residual = chain_boundary(A.B) + A.C + gamma
    if not (chain_is_zero(chain_boundary(A.C)) and chain_is_zero(residual)):
        return SpanningReport(False, "boundary-mismatch", (), None)
    mass = world_edges(A.C)
    reports, max_area = [], None
    for proj in dirs:
        ok, reason, _, area = world_shadow(gamma, proj)
        if not ok:
            reports.append(DirectionReport(proj, False, reason, None, None))
            continue
        if max_area is None or area > max_area:
            max_area = area
        lifted = [
            tuple((*proj.project2(x), F(0)) for x in seg) for seg in mass
        ]
        reports.append(DirectionReport(proj, True, "ok", not overlay_leftover(lifted), area))
    if max_area is None:
        verdict = "vacuous"
    elif all(r.matches for r in reports if r.admissible):
        verdict = "spans"
    else:
        verdict = "fails"
    return SpanningReport(True, verdict, tuple(reports), max_area)


def _translated_pair(grid, rng):
    """A face, a copy of it moved by a lattice vector t, and t.

    Along t the two borders project onto each other and cancel, so the
    pair's border sum is invisible along t and visible along most other
    directions.
    """
    while True:
        face = rng.choice(list(grid.cells(2)))
        t = tuple(rng.randint(-2, 2) for _ in range(3))
        copy = GridCell(tuple(b + s for b, s in zip(face.base, t)), face.axes)
        if t != (0, 0, 0) and grid.contains_cell(copy):
            return [face, copy], t


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    name=st.sampled_from(sorted(PLATEAU_CURVES)),
    kind=st.sampled_from(["film", "stray", "translated", "random", "mismatch"]),
    fine=st.booleans(),
)
def test_spanning_in_lattice_frame_matches_world_projection(seed, name, kind, fine):
    rng = random.Random(seed)
    gamma = PLATEAU_CURVES[name](SYMMETRIES[rng.randrange(len(SYMMETRIES))])
    if fine:
        # the same lattice curve at spacing 1/2 off the lattice: frame
        # areas are eps^2 / (D_u D_v) times world areas
        grid = GridSpec(F(1, 2), (F(-7, 3), F(-2), F(-5, 4)), gamma.grid.dims)
        gamma = GridChain(grid, 1, gamma.cells)
    grid = gamma.grid
    film = sweep_film(gamma)
    assert boundary_grid(film) == gamma
    B = film + boundary_grid(random_grid_chain(grid, 3, rng, density=0.15))
    faces, t = _translated_pair(grid, rng)
    if kind == "stray":
        B = B + chain_of(grid, 2, faces[:1])
    elif kind == "translated":
        B = B + chain_of(grid, 2, faces)
    elif kind == "random":
        B = random_grid_chain(grid, 2, rng, density=0.1)
    C = gamma + boundary_grid(B)
    if kind == "mismatch":
        C = C + chain_of(grid, 1, [rng.choice(list(grid.cells(1)))])
    A = Dipolyhedron(B, C)
    # a face's border vanishes along directions in its plane: one such
    # direction per face orientation, then t
    steps = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(6)]
    extra = [
        ProjectionDir.from_direction(tuple(0 if i == normal else steps.pop() for i in range(3)))
        for normal in range(3)
    ] + [ProjectionDir.from_direction(t)]
    dirs = default_directions(seed % 3) + extra
    if kind == "translated" and rng.random() < 0.5:
        dirs = extra[-1:]  # t alone: a nonzero mass part that spans
    report = SpanningContext(gamma, dirs).check(A)
    assert report == _world_spanning_check(gamma, dirs, A)
    # the simplicial path projects world points through the same frame,
    # against the embedded curve or the grid curve alike
    curve, S = embed_grid_chain(gamma), to_simplicial(A)
    assert SpanningContext(curve, dirs).check(S) == _world_spanning_check(curve, dirs, S) == report
    assert SpanningContext(gamma, dirs).check(S) == report


# ---------------------------------------------------------------------------
# bnb as a labelling of 3-cells, under an injective direction

SYMMETRIES_48 = list(
    itertools.product(itertools.permutations(range(3)), itertools.product((1, -1), repeat=3))
)


def _square_points(n):
    """The n x n square at z = 0 centred on the origin, in unit steps."""
    h = F(n, 2)
    corners = [(-h, -h), (h, -h), (h, h), (-h, h)]
    return [
        (x + (u - x) * F(t, n), y + (v - y) * F(t, n), F(0))
        for (x, y), (u, v) in zip(corners, corners[1:] + corners[:1])
        for t in range(n)
    ]


ORIENTED_CURVES = {
    "sq1": (_square_points(1), 3),
    "sq2": (_square_points(2), 4),
    "sq3": (_square_points(3), 5),
    "hex1": (HEX, 3),
    "fold1": (FOLD, 2),
    "fold2": (FOLD2, 4),
}


def _oriented_curve(name, sym):
    points, dims = ORIENTED_CURVES[name]
    return polygon_curve(_oriented(points, sym), dims)


@pytest.mark.parametrize("name", ["sq1", "sq2", "sq3", "hex1", "fold1"])
def test_labelling_matches_exhaustive_face_search(name):
    # sq1 is also the unit square of unit_problem, on a 3x3x3 grid
    for sym in SYMMETRIES_48:
        gamma = _oriented_curve(name, sym)
        labelled = plateau_problem(gamma)
        assert labelled.injective_direction is not None
        bb = minimize_weight(labelled, method="bnb")
        ex = minimize_weight(plateau_problem(gamma), method="exhaustive")
        assert (bb.pair, bb.weight, bb.nodes) == (ex.pair, ex.weight, ex.nodes)
        assert (bb.optimality, ex.optimality) == ("exact", "exact")
        assert (bb.method, ex.method) == ("bnb", "exhaustive")
        assert gamma_membership(bb.pair, labelled).member
        found, _, clean = _face_search(labelled, None)
        assert clean and mass_grid(found.B) == bb.weight
        assert gamma_membership(found, labelled).member


# witness-less curves: (name, direction seed, extra directions, dim V, least weight)
WITNESS_LESS = [
    ("sq1", 0, 0, 4, 1),
    ("sq2", 1, 1, 12, 4),
    ("sq2", 4, 1, 0, 4),
    ("hex1", 4, 3, 2, 3),
    ("hex1", 10, 1, 0, 3),
    ("fold1", 4, 1, 0, 2),
    ("fold1", 40, 2, 12, 2),
]


@pytest.mark.parametrize("name, seed, extra, dim, weight", WITNESS_LESS)
def test_coset_search_matches_the_face_search_without_a_witness(name, seed, extra, dim, weight, monkeypatch):
    def build():
        return plateau_problem(_oriented_curve(name, SYMMETRIES_48[0]), dirs=default_directions(seed, extra))

    problem = build()
    assert problem.injective_direction is None
    assert len(problem.invisible_cycles) == dim
    found, _, clean = _face_search(problem, None)
    assert clean and mass_grid(found.B) == weight
    for method in ("exhaustive", "bnb"):
        sol = minimize_weight(problem, method=method)
        assert (sol.weight, sol.optimality) == (weight, "exact")
        assert sol.feasibility.member
    # with the shadow bound withheld, every coset must close
    monkeypatch.setattr(plateau.PlateauProblem, "shadow_bound", F(0))
    sol = minimize_weight(build(), method="exhaustive")
    assert (sol.weight, sol.optimality) == (weight, "exact")
    assert sol.nodes >= 2 ** dim


def test_a_lighter_member_can_carry_an_invisible_mass_part():
    # hex2 at (4, 3): dim V = 36, and a later coset holds a member lighter
    # than every film the curve bounds alone
    problem = plateau_problem(polygon_curve(refine_polygon(HEX, 2), 5), dirs=default_directions(4, 3))
    assert len(problem.invisible_cycles) == 36 and problem.shadow_bound == 7
    root = minimize_weight(problem, method="local")
    assert (root.weight, root.optimality) == (12, "upper-bound") and root.pair.C.is_zero()
    sol = minimize_weight(problem, method="bnb", node_budget=20)
    assert (sol.weight, sol.optimality, sol.nodes) == (8, "upper-bound", 20)
    assert len(sol.pair.C) == 8 and sol.feasibility.member
    # the reference's own full check agrees that the pair spans
    assert _candidate(problem, sol.pair.B.cells) == sol.pair


@pytest.mark.parametrize("lam_prime", [F(1, 2), F(2), F(9)], ids=["inside", "exact", "past-grid"])
def test_cube_edges_are_the_grid_edges_in_the_cube(lam_prime):
    # listed from the cube's box alone, in the order of the grid's listing,
    # also for hand-built cubes smaller than the grid or reaching past it
    problems = [plateau_problem(build(), dirs=default_directions(*dirs))
                for build, dirs, _, _ in INVISIBLE_CASES.values()]
    grid = make_grid((3, 3, 2), origin=(F(-3, 2), F(-3, 2), F(-1)))
    problems.append(PlateauProblem(square_curve(grid, 1, 1, 2), F(4), lam_prime, grid, ()))
    for problem in problems:
        lo, hi = problem.cube_box
        listed = tuple(cell for cell in problem.grid.cells(1) if cell_in_bounds(cell, lo, hi))
        assert problem.cube_edges == listed


def _edge_bits(problem, C):
    index = {cell: i for i, cell in enumerate(problem.cube_edges)}
    return sum(1 << index[cell] for cell in C.cells)


def _in_span(basis, x):
    """Is the bitset x a sum of members of basis?  Asserts they are independent."""
    pivots = {}
    for b in basis:
        while b and b.bit_length() in pivots:
            b ^= pivots[b.bit_length()]
        assert b, "the basis is dependent"
        pivots[b.bit_length()] = b
    while x and x.bit_length() in pivots:
        x ^= pivots[x.bit_length()]
    return x == 0


INVISIBLE_CASES = {
    # name: (curve, direction seed and extra directions, witness, dim V)
    "sq3": (lambda: _oriented_curve("sq3", SYMMETRIES_48[5]), (0, 10), True, 0),
    "fold2": (lambda: _oriented_curve("fold2", SYMMETRIES_48[17]), (1, 10), True, 0),
    "stair22": (stair22, (0, 10), False, 0),
    "hex1-4-3": (lambda: _oriented_curve("hex1", SYMMETRIES_48[0]), (4, 3), False, 2),
    "sq2-axes": (lambda: _centred_square(2), (0, 0), False, 24),
}


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    name=st.sampled_from(sorted(INVISIBLE_CASES)),
    kind=st.sampled_from(["faces", "invisible", "both"]),
)
def test_spanning_means_the_mass_part_lies_in_the_invisible_space(seed, name, kind):
    # C is the boundary of a few cube faces, a random member of V, or both;
    # the sweep film of gamma + C completes it to a pair
    build, dirs, witness, dim = INVISIBLE_CASES[name]
    problem = plateau_problem(build(), dirs=default_directions(*dirs))
    assert (problem.injective_direction is not None) == witness
    basis = problem.invisible_cycles
    assert len(basis) == dim
    edges = problem.cube_edges
    cycles = [chain_of(problem.grid, 1, [e for j, e in enumerate(edges) if b >> j & 1]) for b in basis]
    assert all(boundary_grid(c).is_zero() for c in cycles)
    rng = random.Random(seed)
    grid = problem.grid
    lo, hi = problem.cube_box
    C = empty_chain(grid, 1)
    if kind != "invisible":
        faces = [cell for cell in grid.cells(2) if cell_in_bounds(cell, lo, hi)]
        C = boundary_grid(chain_of(grid, 2, rng.sample(faces, rng.randint(1, 3))))
    if kind != "faces":
        for cycle in cycles:
            if rng.random() < 0.5:
                C = C + cycle
    A = Dipolyhedron(sweep_film(problem.gamma + C), C)
    assert problem.grid_context.check(A).spans == _in_span(basis, _edge_bits(problem, C))


@pytest.mark.parametrize(
    "name, tight_count", [(name, 32 if name == "fold2" else 48) for name in sorted(ORIENTED_CURVES)]
)
def test_shadow_bound_never_above_the_proved_optimum(name, tight_count):
    # under a witness the labelling's closure alone proves the optimum
    tight = 0
    for sym in SYMMETRIES_48:
        problem = plateau_problem(_oriented_curve(name, sym))
        assert problem.injective_direction is not None
        B, _, closed = plateau._least_film(problem, empty_chain(problem.grid, 1), None)
        assert closed and problem.shadow_bound <= mass_grid(B)
        tight += problem.shadow_bound == mass_grid(B)
    assert tight == tight_count


@pytest.mark.parametrize("name", ["hex1", "sq3", "fold2"])
def test_injective_direction_needs_every_ratio_above_the_cube_side(name):
    gamma = _oriented_curve(name, SYMMETRIES_48[0])
    lo, hi = plateau_problem(gamma).cube_box
    side = max(h - l for l, h in zip(lo, hi))
    for d, qualifies in [
        ((0, 2 * side + 1, 2 * side + 3), False),  # a zero component
        ((1, side, side + 1), False),  # z edges: max(1, side) / 1 = side
        ((2, 2 * side, 2 * side + 1), False),  # z edges: 2 side / gcd 2 = side
        ((1, side + 1, side + 2), True),
    ]:
        proj = ProjectionDir.from_direction(d)
        problem = plateau_problem(gamma, dirs=[ProjectionDir.along_axis(0), proj])
        assert problem.grid_context.directions[1][1], d  # admissible
        assert problem.injective_direction == (proj if qualifies else None), d


@pytest.mark.parametrize("name, factor, dims, weight", [
    ("fold3", 3, 6, 18), ("hex3", 3, 7, 27), ("fold4", 4, 8, 32),
])
def test_labelling_solves_the_ladder(name, factor, dims, weight):
    points = refine_polygon(FOLD if name.startswith("fold") else HEX, factor)
    problem = plateau_problem(polygon_curve(points, dims))
    sol = minimize_weight(problem, method="bnb")
    assert (sol.weight, sol.optimality) == (weight, "exact")
    assert sol.feasibility.member and sol.pair.C.is_zero()


def test_least_labelling_matches_enumeration():
    rng = random.Random(7)
    branched = 0
    for _ in range(300):
        n = rng.randint(0, 8)
        sides = [
            (rng.randint(0, n), rng.randint(0, n), rng.randint(0, 1))
            for _ in range(rng.randint(0, 3 * n + 3))
        ]

        def cost(x):
            return sum(p ^ x[a] ^ x[b] for a, b, p in sides)

        least = min(cost([*bits, 0]) for bits in itertools.product((0, 1), repeat=n))
        labels, value, root, nodes, exact = plateau._least_labelling(n, sides, 10**6)
        assert exact and value == cost(labels) == least >= root
        branched += nodes > 1
    assert branched  # frustrated systems need the persistent cells and the branching


def test_label_budget_error_quotes_the_least_film():
    # hex1's cube fits a budget of 5/2, but its least film weighs 3
    problem = plateau_problem(polygon_curve(HEX, 3), lam=F(5, 2))
    assert problem.injective_direction is not None
    with pytest.raises(BudgetError) as err:
        minimize_weight(problem, method="bnb")
    assert err.value.required == 3
    with pytest.raises(BudgetError) as err:
        minimize_weight(problem, method="exhaustive")
    assert err.value.required == 3
    # the sweep film alone is over the budget too, and proves nothing
    with pytest.raises(BudgetError, match="node budget ran out") as err:
        minimize_weight(problem, method="bnb", node_budget=0)
    assert err.value.required is None
    # local's root closes on the least film
    with pytest.raises(BudgetError) as err:
        minimize_weight(problem, method="local")
    assert err.value.required == 3


@pytest.mark.parametrize("name", ["hex1", "fold1", "fold2"])
def test_no_admissible_direction_is_named_not_blamed_on_the_budget(name):
    problem = plateau_problem(_oriented_curve(name, SYMMETRIES_48[0]), dirs=default_directions(0, 0))
    assert problem.grid_context.max_region_area is None
    for method, budget in (("exhaustive", None), ("bnb", 2000), ("local", None)):
        with pytest.raises(ValueError, match="no projection direction is admissible") as err:
            minimize_weight(problem, method=method, node_budget=budget)
        assert not isinstance(err.value, BudgetError)


@pytest.mark.parametrize("n, weight", [(2, 4), (3, 9)])
def test_axes_alone_close_at_the_region_bound(n, weight):
    # the root film is the least film: its weight meets the shadow bound,
    # here the sum of the admissible axis-shadow areas, so every method
    # proves it at the root, with no other coset searched
    problem = plateau_problem(_centred_square(n), dirs=default_directions(0, 0))
    assert problem.injective_direction is None
    assert problem.shadow_bound == weight
    for method in ("exhaustive", "bnb", "local"):
        sol = minimize_weight(problem, method=method)
        assert (sol.weight, sol.optimality, sol.nodes) == (weight, "exact", 1)
        assert sol.feasibility.member
        assert sol.pair.B == sweep_film(problem.gamma)


def test_curve_outside_its_cube_fits_no_pair():
    # a hand-built problem whose working cube is smaller than the curve:
    # every pair contains the curve's edges outside the cube
    grid = make_grid((3, 3, 2), origin=(F(-3, 2), F(-3, 2), F(-1)))
    gamma = square_curve(grid, 1, 1, 2)
    dirs = tuple(default_directions(0))
    problem = PlateauProblem(gamma, F(4), F(1, 2), grid, dirs)
    assert problem.box_labelling is None
    for method in ("exhaustive", "bnb", "local"):
        with pytest.raises(BudgetError, match="no pair fits"):
            minimize_weight(problem, method=method)


# ---------------------------------------------------------------------------
# curves with an admissible direction but no injective one


@pytest.mark.parametrize("build, length, weight", [(stair22, 22, 16), (stair44, 44, 27)])
def test_local_takes_the_root_film_without_a_witness(build, length, weight):
    # no witness, but no invisible cycle either: the root closes, proved
    problem = plateau_problem(build())
    assert mass_grid(problem.gamma) == length
    assert problem.grid_context.max_region_area is not None
    assert problem.injective_direction is None
    assert problem.invisible_cycles == ()
    for method in ("exhaustive", "bnb", "local"):
        sol = minimize_weight(problem, method=method)
        assert (sol.weight, sol.optimality, sol.nodes) == (weight, "exact", 1)
        assert sol.feasibility.member and sol.pair.C.is_zero()
        assert sol.shadow_bound < weight


def test_shadow_bound_proves_the_root_film():
    # fold3 at direction seed 9: 57 invisible cycles, but the root film
    # meets the shadow bound, so no other coset is searched
    problem = plateau_problem(polygon_curve(refine_polygon(FOLD, 3), 8), dirs=default_directions(9))
    assert problem.injective_direction is None and len(problem.invisible_cycles) == 57
    assert problem.shadow_bound == 18
    for method in ("exhaustive", "bnb", "local"):
        sol = minimize_weight(problem, method=method)
        assert (sol.weight, sol.optimality, sol.nodes) == (18, "exact", 1)
        assert sol.feasibility.member and sol.pair.C.is_zero()


def test_coset_search_shares_one_node_budget():
    # hex1 at (4, 3): four cosets of one node each; a budget that runs out
    # between them keeps the best member so far
    problem = plateau_problem(polygon_curve(HEX, 3), dirs=default_directions(4, 3))
    root = minimize_weight(problem, method="local")
    for budget, optimality in ((0, "upper-bound"), (1, "upper-bound"), (3, "upper-bound"), (4, "exact")):
        sol = minimize_weight(problem, method="bnb", node_budget=budget)
        assert (sol.optimality, sol.nodes) == (optimality, budget)
        assert sol.feasibility.member
    assert sol.weight == root.weight == 3


def test_minimize_weight_never_builds_a_cone_start(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("minimize_weight deformed the cone")

    monkeypatch.setattr(plateau, "initial_cone_solution", refuse)
    monkeypatch.setattr("filmlab.deformation.deform_dipolyhedron", refuse)
    axes = default_directions(0, 0)
    cases = [
        (unit_problem(), None),
        (unit_problem(dirs=axes), 1),
        (plateau_problem(polygon_curve(HEX, 3)), None),
        (plateau_problem(stair22()), 2000),
    ]
    for problem, budget in cases:
        for method in ("exhaustive", "bnb", "local"):
            sol = minimize_weight(problem, method, None if method == "local" else budget)
            assert sol.feasibility.member and sol.method == method
