"""Mod-2 simplicial chains with exact rational vertices.

A chain is a finite set of canonical simplices (vertex tuples in sorted
order); mod-2 addition is symmetric difference after canonicalization, and
zero-measure simplices are dropped on construction.  Presentation-level
equality is coarser than geometric equality of chains; the overlay module
decides the latter.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .exact import RadicalSum, is_psd, mat_vec
from .geom import (
    Plane,
    Point,
    Simplex,
    affine,
    as_point,
    centroid,
    homogeneous,
    homogeneous_mass,
    is_degenerate,
    split_by_planes,
    sup_norm,
    vdot,
    vscale,
    vsub,
)
from .grid import GridChain
from .rationals import format_fraction
from .records import Record


def _is_point(v) -> bool:
    return (
        type(v) is tuple
        and len(v) == 3
        and type(v[0]) is Fraction
        and type(v[1]) is Fraction
        and type(v[2]) is Fraction
    )


def canonical_simplex(vertices: Sequence[Sequence]) -> Simplex:
    """Sorted Fraction points; a vertex that is already a triple of
    Fractions is kept as it is, any other one goes through as_point."""
    return tuple(sorted(v if _is_point(v) else as_point(v) for v in vertices))


class SimplicialChain(Record):
    """k-chain over Z/2: canonical simplices with multiplicity-parity one."""

    __slots__ = _fields = ("k", "simplices")

    def __init__(self, k: int, simplices: frozenset[Simplex]):
        if not -1 <= k <= 3:
            raise ValueError(f"chain dimension out of range: {k}")
        if k == -1 and simplices:
            raise ValueError("(-1)-chains are identically empty")
        for s in simplices:
            if len(s) != k + 1:
                raise ValueError("simplex arity does not match chain dimension")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "simplices", simplices)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.k, self.simplices) == (other.k, other.simplices)
        return NotImplemented

    def __hash__(self):
        return hash((self.k, self.simplices))

    def __add__(self, other: "SimplicialChain") -> "SimplicialChain":
        if self.k != other.k:
            raise ValueError("chain addition requires equal dimension")
        return SimplicialChain(self.k, self.simplices ^ other.simplices)

    def is_zero_presentation(self) -> bool:
        return not self.simplices

    def vertices(self) -> list[Point]:
        seen = set()
        for s in self.simplices:
            seen.update(s)
        return sorted(seen)

    def __len__(self):
        return len(self.simplices)


def simplicial_chain(k: int, simplices: Iterable[Sequence[Sequence]]) -> SimplicialChain:
    """Canonicalize, drop degenerate simplices, cancel mod-2 duplicates."""
    acc: set[Simplex] = set()
    for raw in simplices:
        s = canonical_simplex(raw)
        if len(s) != k + 1:
            raise ValueError("simplex arity does not match chain dimension")
        # a segment with distinct ends is never degenerate
        if len(set(s)) != len(s) or (k > 1 and is_degenerate(s)):
            continue
        acc ^= {s}
    return SimplicialChain(k, frozenset(acc))


def empty_simplicial(k: int) -> SimplicialChain:
    return SimplicialChain(k, frozenset())


def mass_simplicial(chain: SimplicialChain) -> RadicalSum:
    """Sum of simplex measures over the stored presentation."""
    return homogeneous_mass((tuple(map(homogeneous, s)) for s in chain.simplices), chain.k)


def boundary_simplicial(chain: SimplicialChain) -> SimplicialChain:
    """Mod-2 boundary; coincident facets cancel at the presentation level."""
    if chain.k == 0:
        raise ValueError("boundary undefined for 0-chains")
    acc: set[Simplex] = set()
    for s in chain.simplices:
        # facets of a nondegenerate simplex are nondegenerate
        degenerate = chain.k > 1 and is_degenerate(s)
        for i in range(len(s)):
            facet = s[:i] + s[i + 1 :]
            if degenerate and is_degenerate(facet):
                continue
            acc ^= {facet}
    return SimplicialChain(chain.k - 1, frozenset(acc))


def cone(apex: Sequence, chain: SimplicialChain) -> SimplicialChain:
    """Cone over a chain: apex joined to every simplex, degenerates dropped."""
    if chain.k >= 3:
        raise ValueError("cone would exceed ambient dimension")
    p = as_point(apex)
    return simplicial_chain(chain.k + 1, [s + (p,) for s in chain.simplices])


# -- piecewise-linear maps --------------------------------------------------


def _declared_lipschitz(lipschitz) -> RadicalSum:
    """A declared Lipschitz constant as a RadicalSum; negative ones are refused."""
    lip = lipschitz if isinstance(lipschitz, RadicalSum) else RadicalSum.from_fraction(lipschitz)
    if lip.sign() < 0:
        raise ValueError(f"Lipschitz constant must be nonnegative, got {lip}")
    return lip


class PLMap(Record):
    """A piecewise-linear map with a declared Lipschitz bound.

    Either an affine map x -> matrix x + offset, or a vertex relocation
    table for chains whose vertices are all listed.  The declared constant
    must have a rational square; it is verified against the true stretch on
    every simplex the map is applied to.
    """

    __slots__ = _fields = ("lipschitz", "matrix", "offset", "table")
    _defaults = {"matrix": None, "offset": None, "table": None}

    @staticmethod
    def affine(matrix, offset, lipschitz) -> "PLMap":
        m = tuple(tuple(Fraction(x) for x in row) for row in matrix)
        return PLMap(lipschitz=_declared_lipschitz(lipschitz), matrix=m, offset=as_point(offset))

    @staticmethod
    def relocation(table: Mapping, lipschitz) -> "PLMap":
        t = {as_point(k): as_point(v) for k, v in table.items()}
        return PLMap(lipschitz=_declared_lipschitz(lipschitz), table=t)

    def apply_point(self, p: Point) -> Point:
        if self.matrix is not None:
            img = mat_vec(self.matrix, p)
            return (img[0] + self.offset[0], img[1] + self.offset[1], img[2] + self.offset[2])
        if p not in self.table:
            raise ValueError(f"vertex not in relocation table: {p}")
        return self.table[p]

    def lipschitz_sq(self) -> Fraction:
        return (self.lipschitz * self.lipschitz).as_fraction()


class LipschitzViolation(ValueError):
    """Declared Lipschitz constant smaller than the stretch on some simplex."""


def _check_stretch(pre: Simplex, post: Simplex, lip_sq: Fraction) -> bool:
    """L^2 Gram(pre) - Gram(post) must be PSD on the simplex direction space."""
    k = len(pre) - 1
    if k == 0:
        return True
    g_pre = [vsub(v, pre[0]) for v in pre[1:]]
    g_post = [vsub(v, post[0]) for v in post[1:]]
    m = [
        [lip_sq * vdot(g_pre[i], g_pre[j]) - vdot(g_post[i], g_post[j]) for j in range(k)]
        for i in range(k)
    ]
    return is_psd(m)


def pushforward(f: PLMap, chain: SimplicialChain) -> SimplicialChain:
    """Image chain; errors if any simplex stretches beyond the declared bound.

    The image of a simplex under an affine or vertex-relocation map is the
    simplex on the image vertices; degenerate images vanish mod 2.
    """
    lip_sq = f.lipschitz_sq()
    images = []
    for s in sorted(chain.simplices):
        img = tuple(f.apply_point(v) for v in s)
        if not _check_stretch(s, img, lip_sq):
            points = ", ".join("(" + ", ".join(map(format_fraction, v)) + ")" for v in s)
            raise LipschitzViolation(
                f"stretch on simplex ({points}) exceeds declared Lipschitz constant"
            )
        images.append(img)
    return simplicial_chain(chain.k, images)


# -- cube clamp -------------------------------------------------------------

_DIAGONAL_PLANES = [
    Plane((1, -1, 0), Fraction(0)),
    Plane((1, 1, 0), Fraction(0)),
    Plane((1, 0, -1), Fraction(0)),
    Plane((1, 0, 1), Fraction(0)),
    Plane((0, 1, -1), Fraction(0)),
    Plane((0, 1, 1), Fraction(0)),
]


def clamp_to_cube(chain: SimplicialChain, r) -> SimplicialChain:
    """Clamp onto the cube {sup-norm <= r}: identity inside, radial rescale
    along the sup-norm outside.  1-Lipschitz, so mass never increases.

    Simplices are split by the six cube face planes and the six diagonal
    planes through the origin and cube edges; on each resulting region the
    map is projective, so straight pieces map to straight pieces.
    """
    r = Fraction(r)
    if r <= 0:
        raise ValueError("clamp radius must be positive")
    face_planes = [Plane(n, r) for n in ((1, 0, 0), (0, 1, 0), (0, 0, 1))] + [
        Plane(n, -r) for n in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    ]
    out = []
    for piece in split_by_planes(sorted(chain.simplices), face_planes + _DIAGONAL_PLANES):
        if all(sup_norm(v) <= r for v in piece):
            out.append(piece)
            continue
        c = centroid(piece)
        axis = max(range(3), key=lambda a: abs(c[a]))
        # all vertices of an outside piece satisfy |v_axis| >= r > 0
        out.append(tuple(vscale(r / abs(v[axis]), v) for v in piece))
    return simplicial_chain(chain.k, out)


# -- restriction ------------------------------------------------------------


def restrict_simplicial(
    chain: SimplicialChain, lo: Sequence, hi: Sequence
) -> tuple[SimplicialChain, SimplicialChain]:
    """Exact polyhedral clip against a closed box.

    Returns (inside, outside).  Pieces contained in the box frontier are
    assigned to the inside part, so the two parts partition the chain and
    masses add exactly.
    """
    lo = as_point(lo)
    hi = as_point(hi)
    if any(lo[a] > hi[a] for a in range(3)):
        raise ValueError("box corners out of order")
    planes = []
    for a, n in enumerate(((1, 0, 0), (0, 1, 0), (0, 0, 1))):
        planes.append(Plane(n, lo[a]))
        planes.append(Plane(n, hi[a]))
    ins, outs = [], []
    for piece in split_by_planes(sorted(chain.simplices), planes):
        if all(lo[a] <= v[a] <= hi[a] for v in piece for a in range(3)):
            ins.append(piece)
        else:
            outs.append(piece)
    return simplicial_chain(chain.k, ins), simplicial_chain(chain.k, outs)


# -- grid embedding ---------------------------------------------------------


def _grid_simplices(chain: GridChain) -> set:
    """The simplices of embed_grid_chain(chain), each a sorted tuple of
    homogeneous points (geom.HPoint)."""
    g = chain.grid
    corners = {c: homogeneous(g.world(c)) for cell in chain.cells for c in cell.corners()}
    out = set()
    for cell in chain.cells:
        if chain.k < 2:
            out.add(tuple(sorted(map(corners.__getitem__, cell.corners()))))
            continue
        a, b = cell.axes
        c00 = cell.base
        c10, c01 = (c00[:x] + (c00[x] + 1,) + c00[x + 1 :] for x in (a, b))
        c11 = c10[:b] + (c10[b] + 1,) + c10[b + 1 :]
        for tri in ((c00, c10, c11), (c00, c11, c01)):
            out.add(tuple(sorted(map(corners.__getitem__, tri))))
    return out


def _fraction_chain(k: int, simplices) -> SimplicialChain:
    """The SimplicialChain of distinct sorted homogeneous simplices.  Each
    distinct point becomes a Fraction triple once, and its rank in their
    order sorts every simplex as canonical_simplex sorts it."""
    points = {h: affine(h) for h in {h for s in simplices for h in s}}

    def key(h):  # each coordinate as its float, then exactly where floats tie
        (x, y, z), w = points[h], h[3]
        return h[0] / w, x, h[1] / w, y, h[2] / w, z

    rank = {h: i for i, h in enumerate(sorted(points, key=key))}
    simplices = (tuple(map(points.__getitem__, sorted(s, key=rank.__getitem__))) for s in simplices)
    return SimplicialChain(k, frozenset(simplices))


def embed_grid_chain(chain: GridChain) -> SimplicialChain:
    """Deterministic simplicial presentation of a grid chain (k <= 2).

    Vertices map to points, edges to segments, and each square face to two
    triangles split along the base-to-opposite diagonal.
    """
    if chain.k > 2:
        raise ValueError("grid embedding supports k <= 2")
    return _fraction_chain(chain.k, _grid_simplices(chain))


def as_simplicial(chain) -> SimplicialChain:
    """The chain itself if simplicial, else its grid embedding."""
    return embed_grid_chain(chain) if isinstance(chain, GridChain) else chain
