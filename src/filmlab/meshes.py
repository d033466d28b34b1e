"""OFF and OBJ mesh exports: decimal snapshots for viewers.

The exports are explicitly lossy, and nothing reads them back.  Only
`filmlab deform` and `filmlab plateau` with --mesh-prefix, and the demo
scripts, load this module.
"""

from __future__ import annotations

from .grid import GridChain, edge_ends

_MESH_DIGITS = 12


def _fmt(x) -> str:
    return f"{float(x):.{_MESH_DIGITS}f}"


def _vertex_table(point_lists):
    seen = sorted({p for pts in point_lists for p in pts})
    return seen, {p: i for i, p in enumerate(seen)}


def write_off(chain, path: str) -> None:
    """OFF mesh of a 2-chain: quads for grid faces, triangles otherwise.

    Coordinates are 12-digit decimals; visual export only.
    """
    if chain.k != 2:
        raise ValueError("OFF export expects a 2-chain")
    faces = []
    if isinstance(chain, GridChain):
        grid = chain.grid
        for cell in chain.sorted_cells():
            a, b = cell.axes
            base = cell.base
            cycle = []
            for da, db in ((0, 0), (1, 0), (1, 1), (0, 1)):
                corner = list(base)
                corner[a] += da
                corner[b] += db
                cycle.append(grid.world(tuple(corner)))
            faces.append(cycle)
    else:
        faces = [list(s) for s in sorted(chain.simplices)]
    verts, index = _vertex_table(faces)
    lines = ["# visual export only; coordinates rounded", "OFF"]
    lines.append(f"{len(verts)} {len(faces)} 0")
    for v in verts:
        lines.append(" ".join(_fmt(c) for c in v))
    for f in faces:
        lines.append(f"{len(f)} " + " ".join(str(index[p]) for p in f))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _segments_of(chain) -> list:
    if isinstance(chain, GridChain):
        world = chain.grid.world
        return [(world(p), world(q)) for p, q in map(edge_ends, chain.sorted_cells())]
    return [(s[0], s[1]) for s in sorted(chain.simplices)]


def write_obj(chain, path: str) -> None:
    """OBJ polyline export of a 1-chain; 12-digit decimals, visual only."""
    if chain.k != 1:
        raise ValueError("OBJ export expects a 1-chain")
    segs = _segments_of(chain)
    verts, index = _vertex_table(segs)
    lines = ["# visual export only; coordinates rounded"]
    for v in verts:
        lines.append("v " + " ".join(_fmt(c) for c in v))
    for a, b in segs:
        lines.append(f"l {index[a] + 1} {index[b] + 1}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
