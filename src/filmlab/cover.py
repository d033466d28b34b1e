"""The doubled cover of a 0/1 labelling of lattice cells, and its maximum flow.

A 0/1 labelling x of n 3-cells, with an outside node o = n labelled 0,
pays w for each face (a, b, p) with p ^ x_a ^ x_b = 1 and r for each cell
with x_v = 1.  A flat norm has p = [f in P], w = q and r = p in scaled
units (epsilon^2 -> q, epsilon^3 -> p, as in flatnorm._searched); the
plateau has p = [f in B0], w = 1 and r = 0.  In the doubled cover every
cell v and o has two lifts (v, 0) and (v, 1); each face joins (a, s) to
(b, s ^ p) with capacity w both ways, for both s, and each cell ties
(v, s) to (o, s) with capacity r, as a face (v, o, 0) would.  The lifts
{(v, x_v)} cut (o, 0) from (o, 1), and that cut severs both of a term's
arcs exactly when the term is paid, so a maximum flow F bounds every
labelling below by F / 2.  This is the roof dual of quadratic 0-1
optimisation (Boros-Hammer 2002) on QPBO's doubled graph
(Kolmogorov-Rother 2007).

The flat norms (k = 2 directly, k = 1 through its three axis shadows)
and the plateau's least films label cells with it; it needs only the
grid representation.
"""
from __future__ import annotations

import itertools
from typing import Optional

from .grid import GridCell, GridChain
from .records import Record


class _BoxLabelling(Record):
    """Chains B + boundary(x) over 0/1 labels x of a lattice box's cells.

    The cells are the box's 3-cells, or for the projection bound its
    squares normal to one axis.  `cells` counts them, in canonical order.
    `faces` are the cells' facets and B's cells, in canonical order;
    `sides[i]` is (a, b, [faces[i] in B]) with a, b the cells on either
    side of faces[i], the index `cells` standing for the outside.  A cell
    of B on no box cell has the outside on both sides: a constant term.
    """

    __slots__ = _fields = ("cells", "faces", "sides")


def _box_labelling(lo, hi, B: GridChain, axes=(0, 1, 2)) -> _BoxLabelling:
    """The labelling of the cells along ``axes`` with lattice bases in [lo, hi) around B."""
    bases = list(itertools.product(*(range(lo[a], hi[a]) for a in range(3))))
    n = len(bases)
    around: dict[GridCell, list[int]] = {face: [] for face in B.cells}
    for i, base in enumerate(bases):
        for face in GridCell(base, axes).facets():
            around.setdefault(face, []).append(i)
    # canonical order; the key skips the cell comparisons, half the sort's time
    faces = tuple(sorted(around, key=lambda f: (f.base, f.axes)))
    sides = tuple((*(around[f] + [n, n])[:2], int(f in B.cells)) for f in faces)
    return _BoxLabelling(n, faces, sides)


def _cover_arcs(n: int, sides, face_cap: int, cell_cap: int, fixed: dict) -> list:
    """The doubled cover's arcs (u, w, capacity), in canonical order.

    Lift (v, s) is node 2v + s and (o, s) is node 2n + s; a fixed cell's
    lifts are merged into o's.  The arcs run face by face, then cell by
    cell when cells cost anything, s = 0 before s = 1; an arc whose two
    ends merge is left out.
    """
    src = 2 * n

    def lift(v: int, s: int) -> int:
        if v < n and v not in fixed:
            return 2 * v + s
        return src + (s ^ fixed.get(v, 0))

    ties = [(v, n, 0) for v in range(n)] if cell_cap else []
    arcs = []
    for terms, cap in ((sides, face_cap), (ties, cell_cap)):
        for a, b, p in terms:
            for s in (0, 1):
                u, w = lift(a, s), lift(b, s ^ p)
                if u != w:
                    arcs.append((u, w, cap))
    return arcs


def _max_flow(head: list, to: list, cap: list, src: int, snk: int) -> int:
    """Dinic's algorithm on arcs in pairs (e, e ^ 1); ``cap`` becomes the residual."""
    total = 0
    while True:
        level = [-1] * len(head)
        level[src] = 0
        queue = [src]
        for u in queue:
            for e in head[u]:
                if cap[e] > 0 and level[to[e]] < 0:
                    level[to[e]] = level[u] + 1
                    queue.append(to[e])
        if level[snk] < 0:
            return total
        current = [0] * len(head)
        path: list[int] = []
        u = src
        while True:
            if u == snk:
                push = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= push
                    cap[e ^ 1] += push
                total += push
                first = next(j for j, e in enumerate(path) if cap[e] == 0)
                u = to[path[first] ^ 1]
                del path[first:]
                continue
            arcs = head[u]
            while current[u] < len(arcs):
                e = arcs[current[u]]
                if cap[e] > 0 and level[to[e]] == level[u] + 1:
                    path.append(e)
                    u = to[e]
                    break
                current[u] += 1
            else:
                if u == src:
                    break
                u = to[path.pop() ^ 1]
                current[u] += 1


def _cover_cut(n: int, sides, fixed: dict, face_cap: int, cell_cap: int):
    """(F, labels, closure, flow) of the doubled cover (see _cover_arcs).

    F is the maximum flow from (o, 0) to (o, 1) and ``flow`` its net
    value on each arc, from the arc's first end to its second.
    labels[v] is the fixed label, or s when (v, s) is reachable from
    (o, 0) in the residual graph, or None.  The reachable set is the
    least minimum cut whatever flow was found; it never holds both lifts
    of a cell, since the cover's mirror (v, s) -> (v, 1 - s) would then
    join (o, 0) to (o, 1), and the cells it decides are persistent: some
    least labelling that agrees with ``fixed`` agrees with them
    (Hammer-Hansen-Simeone 1984).

    ``closure`` is the least-mask tie rule.  The minimum cuts are the
    source sides closed under the residual graph (Picard-Queyranne
    1980).  Going from the highest cell down, each cell takes x_v = 0
    unless an earlier choice forces 1: (v, x_v) joins the source side
    with all it reaches, (v, 1 - x_v) the sink side with all that reaches
    it.  If every cell ends with one lift on each side, the source side
    is a symmetric minimum cut, a labelling of cost exactly F / 2, and
    the least mask among optimal labellings, as no choice excluded an
    optimum with a smaller one; otherwise ``closure`` is None.
    """
    src, snk = 2 * n, 2 * n + 1
    arcs = _cover_arcs(n, sides, face_cap, cell_cap, fixed)
    head: list[list[int]] = [[] for _ in range(2 * n + 2)]
    to: list[int] = []
    for j, (u, w, _) in enumerate(arcs):  # arc j is 2j one way and 2j + 1 back
        head[u].append(2 * j)
        head[w].append(2 * j + 1)
        to += [w, u]
    cap = [c for _, _, c in arcs for _ in (0, 1)]
    value = _max_flow(head, to, cap, src, snk)
    flow = tuple(c - cap[2 * j] for j, (_, _, c) in enumerate(arcs))

    side: list[Optional[int]] = [None] * len(head)  # 0: source side

    def close(start: int, mark: int) -> None:
        # side 0 is closed under residual arcs out of it, side 1 under arcs into it
        if side[start] is not None:
            return
        side[start] = mark
        stack = [start]
        while stack:
            u = stack.pop()
            for e in head[u]:
                if side[to[e]] is None and cap[e if mark == 0 else e ^ 1] > 0:
                    side[to[e]] = mark
                    stack.append(to[e])

    close(src, 0)
    labels = [
        fixed[v] if v in fixed else 0 if side[2 * v] == 0 else 1 if side[2 * v + 1] == 0 else None
        for v in range(n)
    ]
    close(snk, 1)
    for v in reversed(range(n)):
        x = int(side[2 * v] == 1 or side[2 * v + 1] == 0)
        close(2 * v + x, 0)
        close(2 * v + 1 - x, 1)
    closure = None
    if all(side[2 * v] != side[2 * v + 1] for v in range(n)):
        closure = [fixed.get(v, side[2 * v]) for v in range(n)]
    return value, labels, closure, flow
