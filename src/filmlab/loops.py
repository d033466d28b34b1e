"""Loop and component diagnostics of a grid pair.

The mass part C of a grid pair splits into edge-disjoint closed loops,
and the film B falls into components of faces that share edges.  Both
walk the grid cells alone: no geometry, spanning check or solver.
"""

from __future__ import annotations

from .grid import GridCell, GridChain, edge_ends, mass_grid
from .pairs import Dipolyhedron
from .records import Record


class DiagnosticsReport(Record):
    __slots__ = _fields = (
        "loops", "loop_count", "total_length", "film_components", "has_film_curves"
    )


def loop_decomposition(C: GridChain) -> list[list[GridCell]]:
    """Split a grid 1-cycle into edge-disjoint closed loops.

    Every vertex of a mod-2 cycle has even degree, so a walk that always
    leaves along the smallest unused edge can only get stuck back at its
    starting vertex; peeling such walks off one at a time uses every edge
    exactly once.
    """
    if C.k != 1:
        raise ValueError("loop decomposition expects a 1-chain")
    incident: dict = {}
    for cell in C.cells:
        for v in edge_ends(cell):
            incident.setdefault(v, []).append(cell)
    for v, edges in incident.items():
        if len(edges) % 2:
            raise ValueError("chain is not a cycle: a vertex has odd degree")
    for edges in incident.values():
        edges.sort()
    unused = set(C.cells)
    loops = []
    for start_edge in sorted(C.cells):
        if start_edge not in unused:
            continue
        loop = []
        vertex = edge_ends(start_edge)[0]
        here = vertex
        while True:
            edge = next(e for e in incident[here] if e in unused)
            unused.discard(edge)
            loop.append(edge)
            p, q = edge_ends(edge)
            here = q if here == p else p
            if here == vertex:
                break
        loops.append(loop)
    return loops


def diagnostics(A: Dipolyhedron) -> DiagnosticsReport:
    """Loop structure of the mass part and connectivity of the film.

    Grid pairs only: loops are traced on the lattice graph, and film
    components are grown across shared edges.
    """
    if A.rep != "grid":
        raise ValueError("diagnostics expects a grid pair")
    loops = loop_decomposition(A.C)
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    by_edge: dict = {}
    for face in A.B.cells:
        parent[face] = face
        for facet in face.facets():
            by_edge.setdefault(facet, []).append(face)
    for siblings in by_edge.values():
        for other in siblings[1:]:
            union(siblings[0], other)
    components = len({find(f) for f in A.B.cells})
    return DiagnosticsReport(
        tuple(tuple(loop) for loop in loops),
        len(loops),
        mass_grid(A.C),
        components,
        not A.C.is_zero(),
    )
