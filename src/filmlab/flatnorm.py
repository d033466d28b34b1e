"""Exact flat-norm style relaxations on grid chains.

flat_norm minimizes M(Q) + M(R) over decompositions P = Q + boundary(R);
energy_flat_norm does the same for pairs, with the film allowed to trade
against mass one dimension down.  Both search the GF(2) cube of free
relaxation cells with one branch-and-bound: "exhaustive" runs it without
a node budget, exact, and refuses more free cells than its limit; "bnb"
runs it under a node budget, with an honest "upper-bound" status when
the budget runs out before the gap closes.

Every path works in the lattice box of the given chains (grid.lattice_box),
not in the declared grid: clamping into the box is a cellular chain map
that fixes the input and never raises mass, the cubical case of
M(f#T) <= Lip(f)^k M(T) (Federer 1969, ch. 4), so some optimum lies in
the box.  Every optimum does: a cell the clamp collapses lowers the
mass, and without one the outermost layer outside the box is a cycle
of its own that can be dropped.  So the least-mask tie rule picks the
same answer in the box as in the grid.  The free cells, the covers and
the limit count the box's cells; the certificates stay on the input's
grid.

A 2-chain first gets one maximum flow in the doubled cover of the 3-cell
labelling (filmlab.cover, which the plateau's least films use too),
whatever the method.  When the flow's residual closure is a symmetric
cut (every 2-cycle, for one, and most other 2-chains) the flat norm is
exact there, with ties broken as the searches break them; the flow rides
on the certificate, and replaying it proves the value is a lower bound
as well as attained.  Otherwise the method's search runs.

A 1-chain first gets the projection bound, whatever the method.  Each
axis projection is a chain map that never raises mass mod 2, so the flat
norm of P's shadow on the squares normal to an axis, a labelling of
those squares bounded by the same doubled cover, bounds P's from below;
and as every edge is seen by two projections and every face by one,
half the sum of the three shadows' flat norms with doubled square costs
does too.  The shadows' least-mask closures, lifted to every height,
are the candidates; when the best meets the bound it is exact, with the
three flows as its certificate.  Otherwise the method's search runs.

Scores are integers throughout: every cell mass is a power of the grid
pitch, so scaling by a common denominator makes comparisons exact.
"""
from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .cover import _box_labelling, _BoxLabelling, _cover_arcs, _cover_cut
from .grid import (
    GridCell,
    GridChain,
    boundary_grid,
    box_cells,
    chain_of,
    lattice_box,
    mass_grid,
)
from .pairs import Dipolyhedron, chain_boundary
from .records import Record


class SolverConfig(Record):
    __slots__ = _fields = ("exhaustive_limit", "node_budget")

    def __init__(self, exhaustive_limit: int = 24, node_budget: int = 1_000_000):
        if exhaustive_limit < 0:
            raise ValueError("exhaustive limit must be nonnegative")
        if node_budget < 0:
            raise ValueError("node budget must be nonnegative")
        object.__setattr__(self, "exhaustive_limit", exhaustive_limit)
        object.__setattr__(self, "node_budget", node_budget)


DEFAULT_CONFIG = SolverConfig()


# ---------------------------------------------------------------------------
# GF(2) minimum-weight engine
#
# State: an integer bit vector over "universe" cells, starting at `base`;
# choosing free variable i XORs `effects[i]` into the state and pays
# `own[i]`.  The final score adds weight w for every set state bit in a
# mask of `weight_masks`.  Ties between optimal choices go to the
# smallest variable mask (bit i of the mask is variable i in canonical
# order).  The branch-and-bound may branch on the variables in another
# order, `branch_order`; it prunes only nodes whose bound exceeds the
# incumbent, so every tied leaf is still compared.

class _Problem:
    __slots__ = ("base", "effects", "own", "weight_masks", "branch_order")

    def __init__(self, base: int, effects: list, own: list, weight_masks: list, branch_order: list):
        self.base = base
        self.effects = effects
        self.own = own
        self.weight_masks = weight_masks  # (integer weight, universe bitmask) pairs
        self.branch_order = branch_order  # variable indices, first branched first


def _solve_bnb(problem: _Problem, node_budget: Optional[int]) -> tuple[int, int, str]:
    """(mask, score, status) of the least score, by depth-first branch-and-bound.

    A state bit's weight counts once no later variable can flip it, so
    each node's bound never passes its leaves' scores.  Nodes are counted
    and pruned (bound above the incumbent) as they are popped, and the 0
    branch is popped first.  The answer is "exact" unless more than
    ``node_budget`` nodes are needed (None: no budget); then it is the
    best leaf found, or the empty choice, as an "upper-bound".
    """
    n = len(problem.effects)
    order = problem.branch_order
    weight_masks = problem.weight_masks
    universe = 0
    for _, m in weight_masks:
        universe |= m
    last_touch: dict[int, int] = {}
    for depth, i in enumerate(order):
        rem = problem.effects[i] & universe
        while rem:
            b = rem & -rem
            last_touch[b.bit_length() - 1] = depth
            rem ^= b
    decided_after = [0] * n
    root_decided = universe
    for bit, depth in last_touch.items():
        decided_after[depth] |= 1 << bit
        root_decided ^= 1 << bit

    def weighed(m):
        # the nonzero (weight, mask) sections of the weight masks on bits m
        return tuple((w, wm & m) for w, wm in weight_masks if wm & m)

    # per depth: the variable's effect, its cost, its mask bit and the weights it decides
    steps = [
        (problem.effects[i], problem.own[i], 1 << i, weighed(decided_after[depth]))
        for depth, i in enumerate(order)
    ]
    limit = sys.maxsize if node_budget is None else node_budget
    best_score = sum(problem.own) + sum(w * m.bit_count() for w, m in weight_masks) + 1
    no_leaf = best_score  # above every leaf's score
    best_mask = 0
    nodes = 0
    exhausted = False
    root_lb = sum(w * (problem.base & m).bit_count() for w, m in weighed(root_decided))
    stack = [(0, problem.base, root_lb, 0)]
    pop = stack.pop
    push = stack.append
    while stack:
        nodes += 1
        if nodes > limit:
            exhausted = True
            break
        depth, state, lb, mask = pop()
        if lb > best_score:
            continue
        if depth == n:
            if lb < best_score or mask < best_mask:
                best_score = lb
                best_mask = mask
            continue
        effect, cost, bit, decided = steps[depth]
        state1 = state ^ effect
        lb0 = lb
        lb1 = lb + cost
        for w, m in decided:
            lb0 += w * (state & m).bit_count()
            lb1 += w * (state1 & m).bit_count()
        depth += 1
        push((depth, state1, lb1, mask | bit))  # LIFO: the 0 branch is explored first
        push((depth, state, lb0, mask))
    if best_score == no_leaf:
        # budget too small to reach any leaf: fall back to the empty choice
        best_score = sum(w * (problem.base & m).bit_count() for w, m in weight_masks)
        best_mask = 0
        exhausted = True
    return best_mask, best_score, "upper-bound" if exhausted else "exact"


def _solve(problem: _Problem, method: str, config: SolverConfig) -> tuple[int, int, str]:
    """The branch-and-bound under the method's node budget.

    "exhaustive" runs it with no budget, always exact, and refuses more
    than ``config.exhaustive_limit`` free cells (the lattice box's, not
    the grid's); "bnb" runs it under ``config.node_budget``.
    """
    n = len(problem.effects)
    if method == "exhaustive":
        if n > config.exhaustive_limit:
            raise ValueError(
                f"{n} free cells exceed the exhaustive limit "
                f"{config.exhaustive_limit}; use method='bnb'"
            )
        return _solve_bnb(problem, None)
    if method == "bnb":
        return _solve_bnb(problem, config.node_budget)
    raise ValueError(f"unknown method: {method}")


def _chosen(cells: Sequence[GridCell], mask: int) -> list[GridCell]:
    return [c for i, c in enumerate(cells) if (mask >> i) & 1]


def _sweep_order(free: Sequence[GridCell], given, box) -> list[int]:
    """Branching order of the free cells: a lattice sweep that ends at the input.

    Depth-first search starts from the empty choice and first revisits
    the variables it branched on last, so the sweep runs towards the
    input: it reverses every axis along which the given cells' centre
    lies below the centre of the lattice box ``box`` = (lo, hi).
    Reflecting the input along an axis where its centre is off the box's
    centre reflects the sweep with it, so the answer under a node budget
    does not depend on which way the input faces.
    """
    lo, hi = box
    reverse = []
    for a in range(3):
        doubled = sum(2 * c.base[a] + (a in c.axes) for c in given)
        reverse.append(doubled < len(given) * (lo[a] + hi[a]))

    def key(i):
        c = free[i]
        base = tuple(
            lo[a] + hi[a] - c.base[a] - (a in c.axes) if reverse[a] else c.base[a]
            for a in range(3)
        )
        return base, c.axes

    return sorted(range(len(free)), key=key)


def _cell_problem(box, parts, families) -> _Problem:
    """The search over free cell families against given chains.

    ``parts`` are (chain, weight) pairs: part j's cells set the starting
    state, and each set bit of part j pays its integer weight.
    ``families`` are (cells, cost, toggled) triples: choosing a cell pays
    cost and flips the state bit of each (part index, cell) pair in
    toggled(cell).  Variables run family by family, in each family's
    cell order; each family branches in its _sweep_order towards the
    given cells, across the lattice box ``box``.  State bits are
    numbered as they are first met: the parts' sorted cells, then the
    toggled cells in variable order.
    """
    bits: dict[tuple[int, GridCell], int] = {}

    def bit(key) -> int:
        return 1 << bits.setdefault(key, len(bits))

    base = 0
    for j, (chain, _) in enumerate(parts):
        for cell in sorted(chain.cells):
            base |= bit((j, cell))
    effects, own, order = [], [], []
    given = frozenset().union(*(chain.cells for chain, _ in parts))
    for cells, cost, toggled in families:
        order += [len(effects) + i for i in _sweep_order(cells, given, box)]
        for cell in cells:
            eff = 0
            for key in toggled(cell):
                eff ^= bit(key)
            effects.append(eff)
            own.append(cost)
    masks = [0] * len(parts)
    for (j, _), b in bits.items():
        masks[j] |= 1 << b
    weight_masks = [(w, m) for (_, w), m in zip(parts, masks) if m]
    return _Problem(base, effects, own, weight_masks, order)


def _first_part_facets(cell: GridCell) -> list:
    """Choosing a relaxation cell flips its facets in part 0."""
    return [(0, f) for f in cell.facets()]


class CutFlow(Record):
    """A maximum flow of a k = 2 flat norm's doubled cover.

    The cover is the one of the 3-cells of P's lattice box (not of the
    grid's) around P, with a face capacity of epsilon^2 and a cell
    capacity of epsilon^3 in scaled units; ``arcs[j]`` is the net flow
    on its arc j in canonical order (see _cover_arcs), from the arc's
    first end to its second, negative when it runs the other way.
    """

    __slots__ = _fields = ("arcs",)


class ProjectionFlows(Record):
    """Maximum flows of a k = 1 flat norm's three projection covers.

    ``arcs[a]`` is the net flow on each arc of the doubled cover of the
    squares normal to axis a in P's lattice box around P's projection
    along a (see _projection_labelling), with an edge capacity of
    epsilon and a square capacity of ``scale`` epsilon^2 in scaled
    units.  With flow values
    F_a, the bound is max_a ceil(F_a / 2) when ``scale`` is 1 and
    ceil(sum_a ceil(F_a / 2) / 2) when it is 2.
    """

    __slots__ = _fields = ("scale", "arcs")


def _projection_labelling(P: GridChain, a: int) -> tuple[_BoxLabelling, list[GridCell]]:
    """The labelling of the squares normal to axis a around P's projection.

    The projection drops P's edges along a and moves the others to the
    lowest height of P's lattice box along a, mod 2: a chain map that
    never raises mass.  The squares are the box's at that height, and
    come second, in the labelling's order.
    """
    lo, hi = lattice_box(P)
    shadow = chain_of(P.grid, 1, [
        GridCell(tuple(lo[a] if i == a else x for i, x in enumerate(e.base)), e.axes)
        for e in P.cells
        if a not in e.axes
    ])
    top = tuple(lo[a] + 1 if i == a else h for i, h in enumerate(hi))
    axes = tuple(i for i in range(3) if i != a)
    squares = [GridCell(base, axes) for base in itertools.product(*map(range, lo, top))]
    return _box_labelling(lo, top, shadow, axes), squares


def _projection_bound(values, scale: int) -> int:
    """The projection bound's term ``scale`` from the three covers' flow values."""
    halves = [-(-v // 2) for v in values]
    return max(halves) if scale == 1 else -(-sum(halves) // 2)


def _flow_value(n: int, arcs: list, flow) -> Optional[int]:
    """The value of ``flow`` on a doubled cover of n cells, or None unless it is feasible.

    Feasible means a plain int within capacity on every arc and
    conservation at every lift of a cell; the value is the net flow into
    (o, 1).
    """
    if len(flow) != len(arcs) or not all(type(f) is int for f in flow):
        return None
    excess = [0] * (2 * n + 2)
    for (u, w, c), f in zip(arcs, flow):
        if abs(f) > c:
            return None
        excess[u] -= f
        excess[w] += f
    if any(excess[:-2]):
        return None
    return excess[-1]


def _flow_certifies(cert, P: GridChain) -> bool:
    """Replay a certificate's cover flows in P's rebuilt covers: a lower bound equal to the value.

    Every labelling's symmetric cut costs twice its score, so a feasible
    flow of value F bounds every score below by F / 2.
    """
    if cert.status != "exact":
        return False
    p, q = P.grid.epsilon.numerator, P.grid.epsilon.denominator
    flow = cert.flow
    if isinstance(flow, CutFlow) and P.k == 2:
        lab = _box_labelling(*lattice_box(P), P)
        value = _flow_value(lab.cells, _cover_arcs(lab.cells, lab.sides, q, p, {}), flow.arcs)
        if value is None or value % 2:
            return False
        bound = value // 2
    elif isinstance(flow, ProjectionFlows) and P.k == 1:
        if type(flow.scale) is not int or flow.scale not in (1, 2) or len(flow.arcs) != 3:
            return False
        values = []
        for a, arcs in enumerate(flow.arcs):
            lab = _projection_labelling(P, a)[0]
            cover = _cover_arcs(lab.cells, lab.sides, q, flow.scale * p, {})
            values.append(_flow_value(lab.cells, cover, arcs))
        if None in values:
            return False
        bound = _projection_bound(values, flow.scale)
    else:
        return False
    return cert.value == Fraction(bound * p**P.k, q ** (P.k + 1))


# ---------------------------------------------------------------------------
# flat norm

class FlatNormCertificate(Record):
    """A flat norm's value, attained by P = Q + boundary(R).

    ``flow`` is the doubled cover's maximum flow (a CutFlow, k = 2) or the
    projection covers' (ProjectionFlows, k = 1) when a cover certified the
    value, and None from the searches.
    """

    __slots__ = _fields = ("value", "Q", "R", "status", "flow")
    _defaults = {"flow": None}


def _relaxation_cells(P: GridChain) -> list[GridCell]:
    """The (k+1)-cells of P's lattice box in canonical order: bit i of a mask is the i-th."""
    return sorted(box_cells(*lattice_box(P), P.k + 1))


def _searched(P: GridChain, method: str, config: SolverConfig) -> FlatNormCertificate:
    """flat_norm by the method's search alone, without the cover."""
    p, q = P.grid.epsilon.numerator, P.grid.epsilon.denominator
    free = _relaxation_cells(P)
    # epsilon^k scaled by q^(k+1)/p^k is q, epsilon^(k+1) is p
    problem = _cell_problem(lattice_box(P), [(P, q)], [(free, p, _first_part_facets)])
    return _certified(P, *_solve(problem, method, config))


def flat_norm(
    P: GridChain, method: str = "exhaustive", config: SolverConfig = DEFAULT_CONFIG
) -> FlatNormCertificate:
    """Minimal M(Q) + M(R) with P = Q + boundary(R) over grid chains.

    Before any search, outside every limit and budget, a 2-chain gets one
    maximum flow in the doubled cover of the labelling of its lattice
    box's 3-cells, and a 1-chain the projection bound (see
    _projection_root).  When the cover's least-mask closure is
    consistent (always when the boundary of P vanishes on every edge
    with four 3-cells around it, a 2-cycle say), or when the best lift
    of the projections' closures meets the projection bound, that is
    the answer, and exact: its certificate carries the flows, which
    ``verify_certificate`` replays as a lower bound equal to the value.  A 2-chain's answer there is the searches'
    answer, ties included.  Otherwise ``method`` names the search.  Both
    methods run one branch-and-bound over subsets of the (k+1)-cells of
    P's lattice box (not of the grid), pruning with the mass of
    already-decided cells: "exhaustive" without a node budget, exact,
    and refused past ``config.exhaustive_limit`` free cells of the box;
    "bnb" under ``config.node_budget``, reporting an upper bound if it
    runs out.
    """
    if method not in ("exhaustive", "bnb"):
        raise ValueError(f"unknown method: {method}")
    if not 0 <= P.k <= 2:
        raise ValueError("flat norm needs relaxation cells one dimension up (k <= 2)")
    if P.k == 2:
        p, q = P.grid.epsilon.numerator, P.grid.epsilon.denominator
        lab = _box_labelling(*lattice_box(P), P)
        flow_value, _, closure, arcs = _cover_cut(lab.cells, lab.sides, {}, q, p)
        if closure is not None:
            mask = sum(x << i for i, x in enumerate(closure))
            return _certified(P, mask, flow_value // 2, "exact", CutFlow(arcs))
    if P.k == 1:
        cert = _projection_root(P)
        if cert is not None:
            return cert
    return _searched(P, method, config)


def _projection_root(P: GridChain) -> Optional[FlatNormCertificate]:
    """A 1-chain's flat norm from its three axis projections, or None if they fall short.

    For each axis a, the squares normal to a around P's projection get
    two cover flows: F_a with square capacity epsilon^2 and G_a with
    2 epsilon^2.  The bound is the larger of max_a ceil(F_a / 2) and
    ceil(sum_a ceil(G_a / 2) / 2) in scaled units.  Each axis's
    least-mask closure, or its persistent labels with the undecided
    squares at 0, is lifted to the squares normal to a at every height
    of P's lattice box; the least (score, mask) of these lifts is the
    answer when it meets the bound.
    """
    p, q = P.grid.epsilon.numerator, P.grid.epsilon.denominator
    lo, hi = lattice_box(P)
    index = {face: i for i, face in enumerate(_relaxation_cells(P))}
    cuts = {1: [], 2: []}  # square capacity / epsilon^2 -> each axis's _cover_cut
    lifts = []
    for a in range(3):
        lab, squares = _projection_labelling(P, a)
        for scale, found in cuts.items():
            found.append(_cover_cut(lab.cells, lab.sides, {}, q, scale * p))
        _, labels, closure, _ = cuts[1][a]
        chosen = [s for s, x in zip(squares, labels if closure is None else closure) if x]
        for height in range(lo[a], hi[a] + 1):
            R = [GridCell(s.base[:a] + (height,) + s.base[a + 1 :], s.axes) for s in chosen]
            Q = set(P.cells)
            for face in R:
                Q ^= set(face.facets())
            lifts.append((q * len(Q) + p * len(R), sum(1 << index[face] for face in R)))
    bounds = {s: _projection_bound([cut[0] for cut in found], s) for s, found in cuts.items()}
    scale = 1 if bounds[1] >= bounds[2] else 2
    score, mask = min(lifts)
    if score != bounds[scale]:
        return None
    witness = ProjectionFlows(scale, tuple(cut[3] for cut in cuts[scale]))
    return _certified(P, mask, score, "exact", witness)


def _certified(P: GridChain, mask: int, score: int, status: str, flow=None) -> FlatNormCertificate:
    """The certificate of relaxation cells ``mask``, checked against the solver's score."""
    p, q = P.grid.epsilon.numerator, P.grid.epsilon.denominator
    R = chain_of(P.grid, P.k + 1, _chosen(_relaxation_cells(P), mask))
    Q = P + boundary_grid(R)
    value = mass_grid(Q) + mass_grid(R)
    if status == "exact" and value != Fraction(score * p**P.k, q ** (P.k + 1)):
        raise AssertionError("solver score does not match the rebuilt certificate")
    cert = FlatNormCertificate(value, Q, R, status, flow)
    if not verify_certificate(cert, P):
        raise AssertionError("flat norm certificate failed replay")
    return cert


# ---------------------------------------------------------------------------
# energy flat norm

class EnergyFlatCertificate(Record):
    __slots__ = _fields = ("value", "B_Q", "C_Q", "B_R", "C_R", "status")


def energy_flat_norm(
    A: Dipolyhedron, method: str = "exhaustive", config: SolverConfig = DEFAULT_CONFIG
) -> EnergyFlatCertificate:
    """Minimal E(Q) + E(R) with B = B_Q + bd(B_R) + C_R, C = C_Q + bd(C_R).

    Free variables are the film relaxation cells B_R ((k+1)-cells, when
    k < 3) and the mass relaxation cells C_R (k-cells) of the lattice
    box of B and C (the clamp into it commutes with the pair boundary
    (bd B + C, bd C), so it holds an optimum); the Q parts are forced by
    the two GF(2) identities.  ``method`` chooses the search's node
    budget as in ``flat_norm``: none for "exhaustive", refused past
    ``config.exhaustive_limit`` free cells of the box,
    ``config.node_budget`` for "bnb".
    """
    if A.rep != "grid":
        raise ValueError("the energy flat norm solver works on grid pairs")
    k = A.k
    if not 0 <= k <= 2:
        raise ValueError("energy flat norm needs film relaxation cells (k <= 2)")
    grid = A.B.grid
    p, q = grid.epsilon.numerator, grid.epsilon.denominator
    lowp = max(k - 1, 0)

    def scaled(j: int) -> int:
        return p ** (j - lowp) * q ** (k + 1 - j)

    box = lattice_box(A.B, A.C)
    free_br = sorted(box_cells(*box, k + 1))
    free_cr = sorted(box_cells(*box, k))

    def moved(cell):
        # a chosen mass cell moves into the film (part 0), its boundary into the mass
        return [(0, cell)] + ([(1, f) for f in cell.facets()] if k >= 1 else [])

    parts = [(A.B, scaled(k)), (A.C, scaled(k - 1))]
    families = [(free_br, scaled(k + 1), _first_part_facets), (free_cr, scaled(k), moved)]
    problem = _cell_problem(box, parts, families)
    mask, score, status = _solve(problem, method, config)

    br_mask = mask & ((1 << len(free_br)) - 1)
    cr_mask = mask >> len(free_br)
    B_R = chain_of(grid, k + 1, _chosen(free_br, br_mask))
    C_R = chain_of(grid, k, _chosen(free_cr, cr_mask))
    B_Q = A.B + boundary_grid(B_R) + C_R
    C_Q = A.C + chain_boundary(C_R)
    value = mass_grid(B_Q) + mass_grid(C_Q) + mass_grid(B_R) + mass_grid(C_R)
    if status == "exact" and value != Fraction(score * p**lowp, q ** (k + 1)):
        raise AssertionError("solver score does not match the rebuilt certificate")
    cert = EnergyFlatCertificate(value, B_Q, C_Q, B_R, C_R, status)
    if not verify_certificate(cert, A):
        raise AssertionError("energy flat norm certificate failed replay")
    return cert


# ---------------------------------------------------------------------------
# certificate replay

def verify_certificate(cert, original) -> bool:
    """Replay a certificate's identities and value, independent of solvers.

    Every kind claims "exact" or "upper-bound" and no other status.  A
    natural-norm decomposition replays in filmlab.natural_norm, found
    through sys.modules: none exists before that module is loaded.
    """
    try:
        if cert.status not in ("exact", "upper-bound"):
            return False
        if isinstance(cert, FlatNormCertificate):
            P = original
            if cert.Q.k != P.k or cert.R.k != P.k + 1 or cert.Q.grid != P.grid:
                return False
            if not (P + cert.Q + boundary_grid(cert.R)).is_zero():
                return False
            if cert.value != mass_grid(cert.Q) + mass_grid(cert.R) or cert.value < 0:
                return False
            return cert.flow is None or _flow_certifies(cert, P)
        if isinstance(cert, EnergyFlatCertificate):
            A = original
            film = A.B + cert.B_Q + chain_boundary(cert.B_R) + cert.C_R
            if not film.is_zero():
                return False
            mass = A.C + cert.C_Q + chain_boundary(cert.C_R)
            if not mass.is_zero():
                return False
            total = (
                mass_grid(cert.B_Q)
                + mass_grid(cert.C_Q)
                + mass_grid(cert.B_R)
                + mass_grid(cert.C_R)
            )
            return cert.value == total and cert.value >= 0
        natural = sys.modules.get(f"{__package__}.natural_norm")
        if natural is not None and isinstance(cert, natural.MulticellDecomposition):
            return natural._replay(cert, original)
    except (ValueError, AttributeError, TypeError):
        return False
    return False
