import itertools
from fractions import Fraction

import pytest

from filmlab import plateau
from filmlab.dipolyhedra import (
    Dipolyhedron,
    boundary_dip,
    energy,
    make_dipole,
    make_massive,
)
from filmlab.exact import SQRT3
from filmlab.grid import GridCell, GridSpec, boundary_grid, chain_of, empty_chain, mass_grid
from filmlab.plateau import (
    BudgetError,
    PlateauProblem,
    clamp_improvement,
    cone_energy,
    diagnostics,
    gamma_membership,
    initial_cone_solution,
    loop_decomposition,
    minimize_weight,
    plateau_problem,
)

from conftest import make_grid, square_curve

F = Fraction


def unit_problem(lam=None):
    grid = make_grid((3, 3, 2), origin=(F(-3, 2), F(-3, 2), F(-1)))
    gamma = square_curve(grid, 1, 1, 2)  # unit square centered at the origin
    return plateau_problem(gamma, lam=lam)


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
    assert sol.region_bound == 1
    assert sol.weight >= sol.region_bound


def test_unit_square_bnb_agrees():
    problem = unit_problem()
    ex = minimize_weight(problem, method="exhaustive")
    bb = minimize_weight(problem, method="bnb")
    assert bb.weight == ex.weight == 1
    assert bb.optimality == "exact"


def test_patch_minimum_is_four():
    problem = patch_problem()
    sol = minimize_weight(problem, method="exhaustive")
    assert sol.weight == 4
    assert sol.optimality == "exact"
    assert len(sol.pair.B) == 4
    assert sol.region_bound == 4


def test_patch_refined_grid_same_value():
    grid = make_grid((8, 8, 8), origin=(-2, -2, -2), eps=F(1, 2))
    gamma = square_curve(grid, 4, 2, 6)
    problem = plateau_problem(gamma)
    # too many candidate faces for the plain exhaustive guard
    with pytest.raises(ValueError):
        minimize_weight(problem, method="exhaustive")
    sol = minimize_weight(problem, method="bnb")
    assert sol.weight == 4
    assert sol.optimality == "exact"
    assert len(sol.pair.B) == 16
    assert sol.pair.C.is_zero()


def test_local_descent_gives_upper_bound():
    problem = unit_problem()
    sol = minimize_weight(problem, method="local")
    assert sol.optimality == "upper-bound"
    assert sol.feasibility.member
    assert sol.weight >= 1


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
    assert sol.weight >= sol.region_bound == 4


def test_clamp_improvement_fast_path():
    problem = unit_problem()
    face = chain_of(problem.grid, 2, [GridCell((1, 1, 1), (0, 1))])
    A = make_dipole(face)
    report = clamp_improvement(A, problem)
    assert not report.changed
    assert report.weight_ok and report.energy_ok
    assert report.spanning_preserved


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
    # the weight >= region-area invariant is checked without assert, so it
    # also holds under python -O
    problem = unit_problem()
    monkeypatch.setattr(plateau, "_region_bound", lambda problem, targets: F(2))
    with pytest.raises(RuntimeError, match="region area bound"):
        minimize_weight(problem, method="exhaustive")


# ---------------------------------------------------------------------------
# candidate face order: lattice keys against world distances


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


def _centred_grid(dims):
    return GridSpec(epsilon=F(1), origin=tuple(-F(d, 2) for d in dims), dims=tuple(dims))


def _centred_square(n):
    """n x n square at z = 0 on the smallest centred grid covering its cube."""
    side = -(-3 * n // 2)
    d = side + (side - n) % 2
    dz = side + side % 2
    return square_curve(_centred_grid((d, d, dz)), dz // 2, (d - n) // 2, (d + n) // 2)


def _polygon(points, dims):
    grid = _centred_grid((dims,) * 3)
    cells = []
    for a, b in zip(points, points[1:] + points[:1]):
        (axis,) = [i for i in range(3) if a[i] != b[i]]
        lo = min(a, b, key=lambda p: p[axis])
        cells.append(GridCell(tuple(int(c - o) for c, o in zip(lo, grid.origin)), (axis,)))
    return chain_of(grid, 1, cells)


_H = F(1, 2)
HEX = [(_H, -_H, -_H), (_H, _H, -_H), (-_H, _H, -_H), (-_H, _H, _H), (-_H, -_H, _H), (_H, -_H, _H)]
FOLD = [(-_H, 0, 1), (-_H, 0, 0), (-_H, 1, 0), (_H, 1, 0), (_H, 0, 0), (_H, 0, 1)]
FOLD2 = [
    tuple(2 * (x + (y - x) * t) for x, y in zip(a, b))
    for a, b in zip(FOLD, FOLD[1:] + FOLD[:1])
    for t in (0, _H)
]
SYMMETRIES = list(
    itertools.product(itertools.permutations(range(3)), itertools.product((1, -1), repeat=3))
)[::7]


def _oriented(points, sym):
    perm, signs = sym
    return [tuple(signs[i] * p[perm[i]] for i in range(3)) for p in points]


def test_admissible_faces_lattice_order_matches_world_order():
    curves = [_centred_square(n) for n in range(1, 6)]
    for points, dims in ((HEX, 3), (FOLD, 2), (FOLD2, 4)):
        curves += [_polygon(_oriented(points, sym), dims) for sym in SYMMETRIES]
    # off-lattice origin and a finer spacing
    curves.append(square_curve(make_grid((3, 3, 2), origin=(F(-3, 2), F(-3, 2), F(-1))), 1, 1, 2))
    curves.append(square_curve(make_grid((8, 8, 8), origin=(-2, -2, -2), eps=F(1, 2)), 4, 2, 6))
    assert len(SYMMETRIES) == 7
    for gamma in curves:
        problem = plateau_problem(gamma)
        assert plateau._admissible_faces(problem) == _world_face_order(problem)


@pytest.mark.parametrize(
    "name, expected",
    [("sq1", 1), ("sq2", 4), ("sq3", 9), ("hex1", 3), ("fold1", 2)],
)
def test_local_descent_never_below_exact(name, expected):
    curves = {
        "sq1": lambda: _centred_square(1),
        "sq2": lambda: _centred_square(2),
        "sq3": lambda: _centred_square(3),
        "hex1": lambda: _polygon(HEX, 3),
        "fold1": lambda: _polygon(FOLD, 2),
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
    problem = unit_problem()
    # local descent from the cone start, and bnb falling back to the cone start
    for kwargs in ({"method": "local"}, {"method": "bnb", "node_budget": 1}):
        built.clear()
        sol = minimize_weight(problem, **kwargs)
        assert sol.optimality == "upper-bound" and sol.feasibility.member
        assert len(built) == 1
