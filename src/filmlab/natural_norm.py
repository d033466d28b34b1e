"""The natural-norm upper estimator: translate pieces paired into multicells.

natural_norm_upper estimates the translation-structured norm by
repeatedly pairing translate pieces into multicells; it never explores
the boundary freedom (C = 0), so for r >= 1 it reports an upper bound.
"""

from __future__ import annotations

from typing import Optional

from .exact import RadicalSum
from .grid import GridCell, GridChain, GridSpec, empty_chain, mass_grid
from .pairs import chain_boundary
from .records import Record


def _translate_cell(cell: GridCell, v: tuple[int, int, int]) -> GridCell:
    base = (cell.base[0] + v[0], cell.base[1] + v[1], cell.base[2] + v[2])
    return GridCell(base, cell.axes)


class Multicell(Record):
    """A cell XORed with its translates: level j uses vectors v1..vj."""

    __slots__ = _fields = ("base", "vectors")

    @property
    def level(self) -> int:
        return len(self.vectors)

    def expansion(self) -> frozenset:
        cells: set[GridCell] = set()
        for subset in range(1 << len(self.vectors)):
            shift = (0, 0, 0)
            for i, v in enumerate(self.vectors):
                if (subset >> i) & 1:
                    shift = (shift[0] + v[0], shift[1] + v[1], shift[2] + v[2])
            cells ^= {_translate_cell(self.base, shift)}
        return frozenset(cells)

    def cost(self, grid: GridSpec) -> RadicalSum:
        total = RadicalSum.from_fraction(grid.cell_mass(self.base.dim))
        eps_sq = grid.epsilon * grid.epsilon
        for v in self.vectors:
            total = total * RadicalSum.sqrt(eps_sq * (v[0] ** 2 + v[1] ** 2 + v[2] ** 2))
        return total


class MulticellDecomposition(Record):
    """P as the expansions of multicells plus boundary(C), at their summed
    cost; ``levels[j]`` is the tuple of level-j multicells."""

    __slots__ = _fields = ("levels", "C", "cost", "status")


def _compatible_translation(a: Multicell, b: Multicell) -> Optional[tuple[int, int, int]]:
    if a.vectors != b.vectors or a.base.axes != b.base.axes:
        return None
    v = (
        b.base.base[0] - a.base.base[0],
        b.base.base[1] - a.base.base[1],
        b.base.base[2] - a.base.base[2],
    )
    return v if v != (0, 0, 0) else None


def _pair_level(pieces, radius: int, grid: GridSpec):
    """One keep-or-merge round: pair translate pieces into multicells."""
    costs = [mc.cost(grid) for mc, _ in pieces]
    pair_options = {}
    for i in range(len(pieces)):
        for l in range(i + 1, len(pieces)):
            v = _compatible_translation(pieces[i][0], pieces[l][0])
            if v is None or v[0] ** 2 + v[1] ** 2 + v[2] ** 2 > radius * radius:
                continue
            merged = Multicell(pieces[i][0].base, pieces[i][0].vectors + (v,))
            pair_options[(i, l)] = (merged, merged.cost(grid))

    n = len(pieces)
    if n <= 12:
        plan = _pairing_dp(n, costs, pair_options)
    else:
        plan = _pairing_greedy(n, costs, pair_options)

    out = []
    used = set()
    for i, l in plan:
        merged, _ = pair_options[(i, l)]
        cells = pieces[i][1] | pieces[l][1]
        if len(cells) != len(pieces[i][1]) + len(pieces[l][1]):
            raise AssertionError("translate pieces must be disjoint")
        out.append((merged, frozenset(cells)))
        used.update((i, l))
    for i in range(n):
        if i not in used:
            out.append(pieces[i])
    out.sort(key=lambda piece: sorted(piece[1]))
    return out


def _pairing_dp(n: int, costs, pair_options):
    best: dict[int, tuple] = {0: (RadicalSum.zero(), ())}

    def solve(mask: int):
        if mask in best:
            return best[mask]
        i = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << i)
        cost, plan = solve(rest)
        answer = (cost + costs[i], plan)
        for l in range(i + 1, n):
            if not (mask >> l) & 1 or (i, l) not in pair_options:
                continue
            sub_cost, sub_plan = solve(rest ^ (1 << l))
            cand = (sub_cost + pair_options[(i, l)][1], sub_plan + ((i, l),))
            if cand[0] < answer[0]:
                answer = cand
        best[mask] = answer
        return answer

    return solve((1 << n) - 1)[1]


def _pairing_greedy(n: int, costs, pair_options):
    plan = []
    used = set()
    for (i, l), (_, merged_cost) in sorted(pair_options.items()):
        if i in used or l in used:
            continue
        if merged_cost < costs[i] + costs[l]:
            plan.append((i, l))
            used.update((i, l))
    return tuple(plan)


def natural_norm_upper(
    P: GridChain, r: int, translation_radius: int = 2
) -> MulticellDecomposition:
    """Translation-structured cost bound: pair pieces into multicells.

    Level 0 is exactly M(P).  Each further level may merge a piece with
    a lattice translate of itself (|v| <= translation_radius cells) at
    cost M(base)*|v1|*..*|vj|.  The boundary freedom stays unused, and
    translations stay on the lattice, so for r >= 1 the result is an
    upper bound on the translation-structured infimum, never claimed
    exact.  Costs are monotone in r by construction.
    """
    if not 0 <= P.k <= 2:
        raise ValueError("the estimator keeps C one dimension up; k <= 2 only")
    if not 0 <= r <= 3:
        raise ValueError("levels r in 0..3")
    if translation_radius < 0:
        raise ValueError("the translation radius must be nonnegative")
    pieces = [(Multicell(cell, ()), frozenset({cell})) for cell in sorted(P.cells)]
    for _ in range(r):
        pieces = _pair_level(pieces, translation_radius, P.grid)
    levels = tuple(
        tuple(mc for mc, _ in pieces if mc.level == j) for j in range(r + 1)
    )
    cost = RadicalSum.zero()
    for mc, _ in pieces:
        cost = cost + mc.cost(P.grid)
    status = "exact" if r == 0 else "upper-bound"
    return MulticellDecomposition(levels, empty_chain(P.grid, P.k + 1), cost, status)


def _replay(cert: MulticellDecomposition, P: GridChain) -> bool:
    """Replay a decomposition: its cells and C rebuild P, and its cost is theirs.

    filmlab.flatnorm.verify_certificate calls this once the status is
    "exact" or "upper-bound".  "exact" holds only with every multicell at
    level 0 and a cost of M(P): merged multicells bound the norm above.
    """
    cells: set[GridCell] = set()
    cost = RadicalSum.zero()
    multicells = [mc for level in cert.levels for mc in level]
    for mc in multicells:
        cells ^= mc.expansion()
        cost = cost + mc.cost(P.grid)
    cells ^= set(chain_boundary(cert.C).cells) if cert.C.k >= 1 else set()
    if frozenset(cells) != P.cells or cost != cert.cost:
        return False
    exact = cost == mass_grid(P) and all(mc.level == 0 for mc in multicells)
    return cert.status != "exact" or exact
