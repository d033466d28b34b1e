"""Least-weight grid films spanning a closed curve.

Given a simple closed polygon gamma on the grid 1-skeleton and an energy
budget lam, search for a film/mass pair A = (B, C) with

    boundary(B) + C = gamma,    boundary(C) = 0,
    M(B) + M(C) <= lam,         support inside the centred cube of side
                                lam' = 3 lam / M(gamma),

spanning gamma in every admissible projection direction, and of least
weight W = M(B).

Spanning means "the mass part is invisible": along every admissible
direction the projection of C cancels mod 2.  The film's shadow equals
the region enclosed by the projected curve iff the projected face
borders plus the projected curve cancel in the interval-parity overlay;
the borders sum to boundary(B) and boundary(B) + gamma = C, so those
segments are the projection of C (see filmlab.dipolyhedra).  The
per-curve part of that check (admissibility, region areas, plane bases)
belongs to the problem: PlateauProblem builds it on first use, with the
invisible cycles and the shadow bound, and every call on that problem
shares them.

The overlay is additive mod 2, so the cube's 1-cycles invisible along
every admissible direction form a GF(2) space V
(PlateauProblem.invisible_cycles), and a pair in the cube spans iff its
mass part C lies in V.  The members are therefore the films bounded by
gamma + C, one coset per C in V, within the energy budget.  Clamping
onto a cycle's lattice box is a cellular retraction that fixes the
cycle and never adds faces, and there every film bounded by it is the
cycle's sweep film plus the boundary of a 0/1 label on the box's
3-cells (the box is contractible).  So each coset is one labelling: a
maximum flow in the doubled cover bounds each node below, a node whose
residual closure is a symmetric cut is solved outright, and otherwise
the cells its cut decides are fixed and the rest are branched on (see
_least_labelling).  The cover lives in filmlab.cover, which the flat
norms of 2-chains share.

minimize_weight solves the coset C = 0 first, then the others in
Gray-code order under one node budget.  Two certificates make the
answer exact: every coset closed, or a film whose weight meets the
shadow bound (PlateauProblem.shadow_bound), which no member undercuts.
A witness (PlateauProblem.injective_direction, an admissible direction
that sees every cube edge apart) proves V = 0 without building it.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from itertools import combinations
from math import ceil, gcd
from typing import Optional, Sequence

from .cover import _box_labelling, _BoxLabelling, _cover_cut
from .dipolyhedra import (
    Dipolyhedron,
    ProjectionDir,
    SpanningContext,
    _project,
    clamp_dip,
    cone_dip,
    default_directions,
    energy,
    support_in_cube,
)
from .exact import SQRT3, det3
from .geom import closed_cycle, primitive_direction
from .grid import (
    GridCell,
    GridChain,
    boundary_grid,
    box_cells,
    chain_of,
    edge_ends,
    empty_chain,
    lattice_bounds,
    lattice_box,
    mass_grid,
)
from .overlay import chains_equal_mod2
from .records import Record
from .simplicial import boundary_simplicial, embed_grid_chain


class BudgetError(ValueError):
    """The energy budget cannot be met; carries the budget needed when it
    is known: the least film's weight, or the cone's energy when not even
    one face fits the budget."""

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


def _validate_curve(gamma: GridChain) -> None:
    if gamma.k != 1:
        raise ValueError("the curve must be a grid 1-chain")
    _, failure = closed_cycle(edge_ends(cell) for cell in gamma.cells)
    if failure == "degree":
        raise ValueError("the curve must be simple and closed (every vertex of degree 2)")
    if failure == "connectivity":
        raise ValueError("the curve must be connected")


class PlateauProblem(Record):
    """A spanning problem: curve, energy budget, working cube, directions.

    lam_prime is the side of the centred cube that confines admissible
    pairs; the grid must cover it.  What depends only on the curve (its
    spanning context, box labelling, invisible cycles and shadow bound)
    is built on first use and kept on the instance; equality and hashing
    still read only the fields.
    """

    # the __dict__ holds what is built on first use
    __slots__ = ("gamma", "lam", "lam_prime", "grid", "dirs", "seed", "__dict__")
    _fields = ("gamma", "lam", "lam_prime", "grid", "dirs", "seed")
    _defaults = {"seed": 0}

    @property
    def cube_half(self) -> Fraction:
        return self.lam_prime / 2

    @cached_property
    def grid_context(self) -> SpanningContext:
        """Spanning context of the curve, for grid and simplicial pairs."""
        return SpanningContext(self.gamma, self.dirs)

    @cached_property
    def cube_box(self) -> tuple[tuple, tuple]:
        """Lattice box of the working cube."""
        half = self.cube_half
        return lattice_bounds(self.grid, (-half,) * 3, (half,) * 3)

    @cached_property
    def injective_direction(self) -> Optional[ProjectionDir]:
        """First admissible direction along which no two cube edges overlap.

        Let d be the direction's primitive integer vector and L the
        longest side of the cube's lattice box.  It qualifies when d has
        no zero component and, for every axis a with other axes j and l,
        max(|d_j|, |d_l|) / gcd(d_j, d_l) > L.

        Why this makes "spans" mean C = 0 for every pair in the cube:
        two edges along a whose bases differ by a lattice vector D
        project onto one line iff (D_j, D_l) is parallel to (d_j, d_l),
        i.e. an integer multiple of (d_j, d_l) / gcd(d_j, d_l).  Inside
        the cube |D_j|, |D_l| <= L, so the only such multiple is zero:
        the edges lie on one 3D line, which the projection maps one to
        one (d is not along a).  Edges of different axes a, b project to
        non-parallel lines, as d is not in the plane of a and b.  So
        distinct cube edges never overlap in projection, the mass part
        projects to zero iff it is zero, and, the direction being
        admissible, a pair in the cube spans iff C = 0.  The members are
        then the cube films B with boundary(B) = gamma and
        |B| eps^2 <= lam.  None when no direction qualifies.

        invisible_cycles alone would decide the same, but the witness is
        kept because it is far cheaper than V: building V anyway takes
        1.3-13.6 ms on each bench plateau curve and 23 ms on the fold
        refined fourfold (on the 8^3 grid), and raises the plateau
        benchmark's peak RSS from 25.1 to 28.4 MB (2 vCPU, Python 3.11,
        seed 101, 3 runs each).
        """
        lo, hi = self.cube_box
        side = max(h - l for l, h in zip(lo, hi))
        for proj, admissible, *_ in self.grid_context.directions:
            if not admissible:
                continue
            d = primitive_direction(proj.direction)
            if 0 not in d and all(
                max(abs(d[j]), abs(d[l])) // gcd(d[j], d[l]) > side
                for j, l in ((1, 2), (0, 2), (0, 1))
            ):
                return proj
        return None

    @cached_property
    def box_labelling(self) -> Optional[_BoxLabelling]:
        """The curve's lattice box as a labelling problem around the sweep film.

        Every film B in the box with boundary(B) = gamma is B0 + boundary(x),
        B0 the sweep film, for a 0/1 label x on the box's 3-cells, as the
        box is contractible.  None when the curve's box leaves the
        working cube (a hand-built problem can do that).
        """
        lo, hi = lattice_box(self.gamma)
        cube_lo, cube_hi = self.cube_box
        if any(lo[a] < cube_lo[a] or hi[a] > cube_hi[a] for a in range(3)):
            return None
        return _box_labelling(lo, hi, sweep_film(self.gamma))

    @cached_property
    def cube_edges(self) -> tuple[GridCell, ...]:
        """The lattice edges of the working cube within the grid, in canonical order."""
        lo, hi = self.cube_box
        lo = tuple(max(x, 0) for x in lo)
        hi = tuple(min(x, d) for x, d in zip(hi, self.grid.dims))
        return tuple(box_cells(lo, hi, 1))

    @cached_property
    def invisible_cycles(self) -> tuple[int, ...]:
        """A basis of V, the cube's 1-cycles invisible along every admissible direction.

        Bit i of a member stands for cube_edges[i].  V is the kernel of
        one bit matrix: a row per cube vertex, for boundary(C) = 0, and
        per admissible direction, in its integer frame, a row per point
        of each carrying line, holding the edges of that line that end
        there.  The latter rows are the jumps of each line's coverage
        parity between its atomic intervals, so they span what the
        atomic intervals' rows span, and the projection cancels mod 2
        iff C meets each of them evenly.  Rows with one edge left force
        that edge to 0, which peels most of the cube; the rest is
        eliminated on Python-int bitsets, and the basis is read off the
        free edges.  A witness sees every cube edge apart, so it proves
        V = 0: then nothing is built.
        """
        if self.injective_direction is not None:
            return ()
        edges = self.cube_edges
        ends = [edge_ends(cell) for cell in edges]
        vertices: dict = {}
        lines: dict = {}
        for i, (p, q) in enumerate(ends):
            vertices.setdefault(p, []).append(i)
            vertices.setdefault(q, []).append(i)
        for k, (_, admissible, _, _, (U, V)) in enumerate(self.grid_context.directions):
            if not admissible:
                continue
            slopes = []  # each axis's projected step, primitive, first nonzero entry positive
            for a in range(3):
                u, v = U[a], V[a]
                g = gcd(u, v) * (1 if (u, v) > (0, 0) else -1)
                slopes.append((u // g, v // g) if g else None)
            for i, (P, Q) in enumerate(_project(ends, U, V)):
                slope = slopes[edges[i].axes[0]]
                if slope is not None:
                    lines.setdefault((k, slope, P), []).append(i)
                    lines.setdefault((k, slope, Q), []).append(i)
        rows = [*vertices.values(), *lines.values()]
        rows_of: list[list[int]] = [[] for _ in edges]
        for r, row in enumerate(rows):
            for i in row:
                rows_of[i].append(r)
        alive = [True] * len(edges)
        left = [len(row) for row in rows]
        queue = [r for r, n in enumerate(left) if n == 1]
        while queue:
            r = queue.pop()
            if left[r] != 1:
                continue
            i = next(i for i in rows[r] if alive[i])
            alive[i] = False
            for s in rows_of[i]:
                left[s] -= 1
                if left[s] == 1:
                    queue.append(s)
        pivots: dict[int, int] = {}  # a row's lowest bit -> the row
        for r, row in enumerate(rows):
            bits = sum(1 << i for i in row if alive[i]) if left[r] else 0
            while bits:
                low = bits & -bits
                if low not in pivots:
                    pivots[low] = bits
                    break
                bits ^= pivots[low]
        order = sorted(pivots, reverse=True)
        basis = []
        for i in range(len(edges)):
            if alive[i] and (1 << i) not in pivots:
                x = 1 << i
                for low in order:  # a pivot row's other bits are higher, so already set
                    if (pivots[low] & x).bit_count() & 1:
                        x |= low
                basis.append(x)
        return tuple(basis)

    @cached_property
    def shadow_bound(self) -> Fraction:
        """No member film weighs less: eps^2 ceil(min sum_a n_a) over n >= 0
        with sum_a n_a |d_a| >= |A.d| for each admissible primitive d.

        A is the curve's vector area, (1/2) sum p_i x p_{i+1} over its
        vertex cycle, in lattice units.  Along an admissible direction
        the curve projects to a simple polygon of area |A.d| / |d|.  A
        member's mass part is invisible there, so its film's shadow
        covers that polygon mod 2, and a face normal to axis a has a
        shadow of area |d_a| / |d|: the face counts n_a of a member
        meet every constraint.  The LP has three variables, so its least
        value is at a vertex, where three constraints are tight; each
        vertex is solved by Cramer's rule in integers, with m = 2n to
        clear the halves.
        """
        cycle, _ = closed_cycle(edge_ends(cell) for cell in self.gamma.cells)
        area2 = [0, 0, 0]  # 2A
        for p, q in zip(cycle, cycle[1:] + cycle[:1]):
            for a, (j, l) in enumerate(((1, 2), (2, 0), (0, 1))):
                area2[a] += p[j] * q[l] - p[l] * q[j]
        rows = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]  # (c, b): c.m >= b
        for proj, admissible, *_ in self.grid_context.directions:
            if admissible:
                d = primitive_direction(proj.direction)
                rows.append((*(abs(x) for x in d), abs(sum(x * y for x, y in zip(d, area2)))))
        values = []
        for tight in combinations(rows, 3):
            det = det3([r[:3] for r in tight])
            if det:
                # Cramer's rule: the vertex is m = num / det
                num = [det3([(*r[:a], r[3], *r[a + 1:3]) for r in tight]) for a in range(3)]
                if all((c0 * num[0] + c1 * num[1] + c2 * num[2] - b * det) * det >= 0
                       for c0, c1, c2, b in rows):
                    values.append(Fraction(sum(num), det))
        return self.grid.epsilon ** 2 * ceil(min(values) / 2)


def sweep_film(gamma: GridChain) -> GridChain:
    """A grid film bounded by the curve, inside the curve's lattice box.

    Each edge sweeps down along z to the curve's lowest height z0; the
    walls' boundary is gamma plus its shadow at z0 (the vertical edges
    cancel in pairs), and the shadow is filled by sweeping its x edges
    down along y to the curve's lowest y0.
    """
    ends = [v for cell in gamma.cells for v in edge_ends(cell)]
    z0 = min((v[2] for v in ends), default=0)
    y0 = min((v[1] for v in ends), default=0)

    def sweep(edges, down: int, floor: int) -> list[GridCell]:
        faces = []
        for cell in edges:
            (a,) = cell.axes
            if a != down:
                axes = tuple(sorted((a, down)))
                faces += [
                    GridCell(tuple(h if i == down else b for i, b in enumerate(cell.base)), axes)
                    for h in range(floor, cell.base[down])
                ]
        return faces

    grid = gamma.grid
    shadow = chain_of(
        grid, 1, [GridCell((*c.base[:2], z0), c.axes) for c in gamma.cells if c.axes != (2,)]
    )
    return chain_of(grid, 2, sweep(gamma.cells, 2, z0) + sweep(shadow.cells, 1, y0))


_ORIGIN = (0, 0, 0)


def _cone_pair(gamma: GridChain) -> Dipolyhedron:
    curve = Dipolyhedron(gamma, empty_chain(gamma.grid, 0))
    return cone_dip(_ORIGIN, curve)


def cone_energy(gamma: GridChain):
    """Energy of the cone over the curve from the origin (a radical sum)."""
    return energy(_cone_pair(gamma)).energy


def plateau_problem(
    gamma: GridChain,
    lam=None,
    dirs: Optional[Sequence[ProjectionDir]] = None,
    seed: int = 0,
) -> PlateauProblem:
    """Validate the curve and assemble the problem.

    With no explicit budget, lam defaults to twice the origin-cone energy
    (rounded up to a rational when the cone is oblique).  Raises when the
    curve is not a simple closed grid polygon, when it leaves its own
    working cube, or when the grid fails to cover that cube.
    """
    grid = gamma.grid
    if dirs is None:
        dirs = tuple(default_directions(seed))
    else:
        dirs = tuple(dirs)
    if gamma.is_zero():
        return PlateauProblem(gamma, Fraction(0), Fraction(0), grid, dirs, seed)
    _validate_curve(gamma)
    if lam is None:
        e = cone_energy(gamma)
        lam = 2 * (e.as_fraction() if e.is_rational() else e.enclosure(128)[1])
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("the energy budget must be positive")
    lam_prime = Fraction(3) * lam / mass_grid(gamma)
    half = lam_prime / 2
    if not support_in_cube(Dipolyhedron(gamma, empty_chain(grid, 0)), _ORIGIN, lam_prime):
        raise ValueError("energy budget too small: the curve leaves the working cube")
    lo, hi = grid.box()
    if any(lo[i] > -half or hi[i] < half for i in range(3)):
        raise ValueError("grid does not cover the working cube of the budget")
    return PlateauProblem(gamma, lam, lam_prime, grid, dirs, seed)


# ---------------------------------------------------------------------------
# membership


class MembershipReport(Record):
    """Itemised admissibility of a pair for one problem."""

    __slots__ = _fields = (
        "cycle_ok", "boundary_ok", "budget", "budget_ok", "support_ok", "spanning",
        "trivially_spans",
    )
    _defaults = {"trivially_spans": False}

    @property
    def member(self) -> bool:
        return (
            self.cycle_ok
            and self.boundary_ok
            and self.budget_ok
            and self.support_ok
            and (self.spanning.spans or self.trivially_spans)
        )

    def failures(self) -> list[str]:
        out = []
        if not self.cycle_ok:
            out.append("mass part is not a cycle")
        if not self.boundary_ok:
            out.append("boundary identity dB + C = gamma fails")
        if not self.budget_ok:
            out.append("energy exceeds the budget")
        if not self.support_ok:
            out.append("support leaves the working cube")
        if not (self.spanning.spans or self.trivially_spans):
            out.append(f"spanning check: {self.spanning.verdict}")
        return out


def gamma_membership(A: Dipolyhedron, problem: PlateauProblem) -> MembershipReport:
    """Check every admissibility clause of the pair, itemised.

    Works for grid pairs and for simplicial pairs (after clamping); the
    identities are decided exactly either way.
    """
    if A.k != 2:
        raise ValueError("membership is defined for films of dimension 2")
    ctx = problem.grid_context
    gamma = problem.gamma
    if A.rep == "grid":
        if A.B.grid != problem.grid:
            raise ValueError("pair lives on a different grid than the problem")
        cycle_ok = boundary_grid(A.C).is_zero()
        boundary_ok = (boundary_grid(A.B) + A.C + gamma).is_zero()
    else:
        # 0-simplices are canonical points, so presentational zero is exact
        cycle_ok = boundary_simplicial(A.C).is_zero_presentation()
        boundary_ok = bool(chains_equal_mod2(boundary_simplicial(A.B) + A.C, ctx.embedded_gamma))
    split = energy(A)
    budget_ok = bool(split.energy <= problem.lam)
    support_ok = support_in_cube(A, _ORIGIN, problem.lam_prime)
    span = ctx.check(A)
    trivial = gamma.is_zero() and not span.spans and cycle_ok and boundary_ok and _is_zero_pair(A)
    return MembershipReport(cycle_ok, boundary_ok, split, budget_ok, support_ok, span, trivial)


def _is_zero_pair(A: Dipolyhedron) -> bool:
    if A.rep == "grid":
        return A.B.is_zero() and A.C.is_zero()
    return A.B.is_zero_presentation() and A.C.is_zero_presentation()


# ---------------------------------------------------------------------------
# cone start


class ConeStart(Record):
    """Grid-feasible starting pair obtained by deforming the origin cone.

    bounds carries two a-priori ceilings on the cone energy: the plain
    one lam' M(gamma) / (k+1) = lam, and the same scaled by sqrt(3) (the
    cube-geometry factor); the measured energy is checked against both.
    """

    __slots__ = _fields = (
        "pair", "cone_energy", "membership", "bounds", "bounds_ok", "fallback_cells"
    )
    _defaults = {"fallback_cells": ()}


def initial_cone_solution(problem: PlateauProblem) -> ConeStart:
    """Cone the curve from the origin, then push the cone onto the grid.

    The cone pair delta(0 gamma) has boundary delta gamma by the cone
    identity, so after deformation the film part P_B determines an exact
    grid pair (P_B, gamma + dP_B).  Raises BudgetError when even the cone
    exceeds the energy budget.
    """
    from .deformation import DeformConfig, deform_dipolyhedron

    gamma = problem.gamma
    grid = problem.grid
    if gamma.is_zero():
        zero = Dipolyhedron(empty_chain(grid, 2), empty_chain(grid, 1))
        return ConeStart(zero, Fraction(0), gamma_membership(zero, problem), {}, {})
    cone = _cone_pair(gamma)
    e = energy(cone).energy
    if not e <= problem.lam:
        raise BudgetError(
            f"energy budget {problem.lam} below the cone energy; need at least {float(e):.6g}",
            required=e,
        )
    plain = problem.lam_prime * mass_grid(gamma) / 3
    bounds = {"lam": plain, "lam_scaled": SQRT3 * plain}
    bounds_ok = {name: bool(e <= value) for name, value in bounds.items()}
    cfg = DeformConfig(epsilon=grid.epsilon, seed=problem.seed)
    D, _, _, report = deform_dipolyhedron(cone, embed_grid_chain(gamma), grid, cfg)
    B0 = D.B
    pair = Dipolyhedron(B0, gamma + boundary_grid(B0))
    return ConeStart(pair, e, gamma_membership(pair, problem), bounds, bounds_ok, report.fallback_cells)


# ---------------------------------------------------------------------------
# weight minimisation


class PlateauSolution(Record):
    """A least-weight search's film, its audit and its certificate.

    ``optimality`` is "exact" or "upper-bound"; ``shadow_bound`` is a
    weight no member film undercuts, so a film that meets it is exact.
    """

    __slots__ = _fields = (
        "pair", "weight", "energy", "feasibility", "optimality", "method", "nodes",
        "shadow_bound",
    )


def _least_labelling(n: int, sides, node_budget: Optional[int], limit: Optional[int] = None):
    """Branch-and-bound for the least labelling of n cells (see cover._cover_cut).

    Each node solves the doubled cover with the cells fixed so far:
    ceil(F / 2) bounds the node below.  A consistent closure is a
    labelling of cost F / 2 and closes the node; otherwise the cells the
    cut decides are fixed, the other cells set to 0 give a labelling that
    may lower the incumbent, and a node whose bound is still below the
    incumbent branches on its lowest free cell, 0 first.  The incumbent
    starts at all zeros, or at none of cost ``limit`` when all zeros
    costs no less: only labellings below the limit are then sought.
    Returns (labels with the outside last, or None when none was found
    below the limit, their cost, the root bound, nodes, whether every
    node closed).
    """

    def cost(x: list) -> int:
        return sum(p ^ x[a] ^ x[b] for a, b, p in sides)

    best: Optional[list] = [0] * (n + 1)
    best_cost = cost(best)
    if limit is not None and best_cost >= limit:
        best, best_cost = None, limit
    root_bound = 0
    stack: list[dict] = [{}]
    nodes = 0
    while stack and (node_budget is None or nodes < node_budget):
        fixed = stack.pop()
        nodes += 1
        value, labels, closure, _ = _cover_cut(n, sides, fixed, 1, 0)
        bound = (value + 1) // 2
        if nodes == 1:
            root_bound = bound
        if bound >= best_cost:
            continue
        x = (closure if closure is not None else [label or 0 for label in labels]) + [0]
        if (c := cost(x)) < best_cost:
            best, best_cost = x, c
        if bound >= best_cost:
            continue
        if closure is not None:
            raise RuntimeError("the cover's symmetric cut costs more than its bound")
        free = labels.index(None)
        decided = {v: label for v, label in enumerate(labels) if label is not None}
        stack += [{**decided, free: 1}, {**decided, free: 0}]
    return best, best_cost, root_bound, nodes, not stack


def _least_film(problem: PlateauProblem, C: GridChain, node_budget, limit=None):
    """Least film bounded by gamma + C: B0 + boundary(x) over labels x of
    the cells of that cycle's lattice box, B0 its sweep film; or the best
    one when the node budget runs out.  Only films of fewer than ``limit``
    faces are sought when it is given (None if none was found).  With the
    nodes visited and whether every node closed."""
    if C.is_zero():
        cycle, lab = problem.gamma, problem.box_labelling
    else:
        cycle = problem.gamma + C
        lab = _box_labelling(*lattice_box(cycle), sweep_film(cycle))
    x, cost, root_bound, nodes, closed = _least_labelling(lab.cells, lab.sides, node_budget, limit)
    if x is None:
        return None, nodes, closed
    grid = problem.grid
    B = chain_of(grid, 2, [f for f, (a, b, p) in zip(lab.faces, lab.sides) if p ^ x[a] ^ x[b]])
    if boundary_grid(B) != cycle:
        raise RuntimeError("the labelled film is not bounded by the curve and its mass part")
    if not len(B) == cost >= root_bound:
        raise RuntimeError(f"labelled film of {len(B)} faces, cost {cost}, bound {root_bound}")
    return B, nodes, closed


def _as_solution(problem, pair, optimality, method, nodes) -> PlateauSolution:
    report = gamma_membership(pair, problem)
    if not report.member:
        raise RuntimeError(f"the film found is not a member: {'; '.join(report.failures())}")
    w = mass_grid(pair.B)
    bound = problem.shadow_bound
    if w < bound:
        raise RuntimeError(f"weight {w} of a member pair fell below the shadow bound {bound}")
    return PlateauSolution(pair, w, report.budget.energy, report, optimality, method, nodes, bound)


def minimize_weight(
    problem: PlateauProblem,
    method: str = "exhaustive",
    node_budget: Optional[int] = None,
) -> PlateauSolution:
    """Minimise the film weight over admissible grid pairs.

    A pair in the working cube spans iff its mass part C lies in V, the
    invisible cycles, so the least member is the least film bounded by
    gamma + C over C in V that fits the energy budget.  Every method
    labels the 3-cells of a cycle's box, each labelling node one
    max-flow solve, one coset at a time: C = 0 first, then the others in
    Gray-code order, all under one node budget.  A later coset seeks
    only films lighter than the lightest member so far that fit the
    budget with its mass part, and the loop stops once that film meets
    the shadow bound.  The answer is exact when every coset closed or
    the film meets the shadow bound; a spent budget returns the best
    member so far (at budget 0, the sweep film) as an upper bound.
    "local" is the root node of the coset C = 0 and takes no node
    budget.  "bnb" has a node budget (default 10^6).  "exhaustive" has
    none unless one is passed, and without one it refuses a space V of
    dimension above 16 whose coset C = 0 has not met the shadow bound.
    Raises BudgetError when no admissible pair fits the energy budget,
    and ValueError when no direction is admissible for the curve, as
    then no pair can span it.
    """
    if method not in ("exhaustive", "bnb", "local"):
        raise ValueError(f"unknown method: {method}")
    if method == "local" and node_budget is not None:
        raise ValueError("the local method takes no node budget")
    if node_budget is not None and node_budget < 0:
        raise ValueError("node budget must be nonnegative")
    grid = problem.grid
    if problem.gamma.is_zero():
        zero = Dipolyhedron(empty_chain(grid, 2), empty_chain(grid, 1))
        return _as_solution(problem, zero, "exact", method, 0)
    eps2 = grid.epsilon ** 2
    lam = problem.lam
    if lam < eps2:
        # the empty film leaves C = gamma, of mass at least 4 eps^2; any other film has a face
        raise BudgetError(
            f"energy budget {lam} below one face's area {eps2}: no pair fits it",
            required=cone_energy(problem.gamma),
        )
    if problem.grid_context.max_region_area is None:
        raise ValueError(
            "no projection direction is admissible for the curve, so no pair can span it"
        )
    if problem.box_labelling is None:
        # every pair contains the curve's edges outside the cube
        raise BudgetError(f"the curve leaves the working cube of the budget {lam}: no pair fits it")
    if method == "bnb" and node_budget is None:
        node_budget = 10 ** 6
    elif method == "local":
        node_budget = 1
    basis = problem.invisible_cycles
    bound = problem.shadow_bound
    edges = problem.cube_edges if basis else ()
    cycles = [chain_of(grid, 1, [edges[j] for j in range(b.bit_length()) if b >> j & 1]) for b in basis]
    C = empty_chain(grid, 1)
    best = root = limit = None
    nodes, exact = 0, True
    for i in range(1 << len(basis)):
        if i:
            if nodes == node_budget:  # local's one node included
                exact = False
                break
            C = C + cycles[(i & -i).bit_length() - 1]
            limit = (lam - mass_grid(C)) // eps2 + 1
            if best is not None:
                limit = min(limit, len(best.B))
        left = None if node_budget is None else node_budget - nodes
        B, used, done = _least_film(problem, C, left, limit)
        nodes += used
        exact = exact and done
        if i == 0:
            root = B
        if B is not None and (best is None or len(B) < len(best.B)) and mass_grid(B) + mass_grid(C) <= lam:
            best = Dipolyhedron(B, C)
            if mass_grid(B) == bound:  # no member is lighter
                exact = True
                break
        if i == 0 and method == "exhaustive" and node_budget is None and len(basis) > 16:
            raise ValueError(
                f"the invisible cycles span a space of dimension {len(basis)}, beyond the "
                f"exhaustive budget, and the root film weighs {mass_grid(root)} against the "
                f"shadow bound {bound}; use method='bnb' or pass a node budget"
            )
    if best is None:
        if not exact:
            raise BudgetError(f"the node budget ran out before a film within {lam} was found")
        if basis:
            raise BudgetError(f"no admissible pair within the energy budget {lam}")
        w = mass_grid(root)
        raise BudgetError(f"energy budget {lam} below the least spanning film's weight {w}", required=w)
    return _as_solution(problem, best, "exact" if exact else "upper-bound", method, nodes)


# ---------------------------------------------------------------------------
# clamping


class ClampReport(Record):
    """Result of clamping a pair into the working cube."""

    __slots__ = _fields = (
        "pair", "changed", "weight_before", "weight_after", "energy_before", "energy_after",
        "weight_ok", "energy_ok", "spanning_before", "spanning_after",
    )


def clamp_improvement(A: Dipolyhedron, problem: PlateauProblem) -> ClampReport:
    """Clamp the pair onto the working cube and audit the effect.

    The clamp is the nearest-point retraction onto the cube (each
    coordinate clamped into [-r, r]), which is 1-Lipschitz, so weight and
    energy never increase; both are re-verified exactly.  Spanning is
    re-checked rather than assumed: the clamp can flatten film onto the
    cube walls and break a shadow match, so the report carries both
    verdicts.
    """
    before_split = energy(A)
    before_span = problem.grid_context.check(A)
    if support_in_cube(A, _ORIGIN, problem.lam_prime):
        return ClampReport(
            A,
            False,
            before_split.weight,
            before_split.weight,
            before_split.energy,
            before_split.energy,
            True,
            True,
            before_span,
            before_span,
        )
    clamped = clamp_dip(problem.cube_half, A)
    after_split = energy(clamped)
    after_span = problem.grid_context.check(clamped)
    return ClampReport(
        clamped,
        True,
        before_split.weight,
        after_split.weight,
        before_split.energy,
        after_split.energy,
        bool(after_split.weight <= before_split.weight),
        bool(after_split.energy <= before_split.energy),
        before_span,
        after_span,
    )
