"""The pair algebra: film/mass pairs over either chain representation.

A k-dipolyhedron bundles a k-chain B (the film part, charged by weight)
with a (k-1)-chain C (the mass part) over a single representation, grid
or simplicial.  Energy charges both parts.  The boundary mixes them,

    boundary(B, C) = (boundary(B) + C, boundary(C)),

which squares to zero mod 2.

The module loads only the grid representation.  The simplicial and
overlay modules are imported on the simplicial branches alone: a
SimplicialChain exists only once its module is loaded, so there the
import is a lookup.  The cone, clamp, pushforward and restriction ops
and the spanning test live in dipolyhedra.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Union

from .grid import GridChain, boundary_grid, empty_chain, mass_grid
from .records import Record

if TYPE_CHECKING:
    from .simplicial import SimplicialChain

Chain = Union[GridChain, "SimplicialChain"]


# ---------------------------------------------------------------------------
# representation-generic chain helpers

def is_grid_chain(chain: Chain) -> bool:
    return isinstance(chain, GridChain)


def chain_mass(chain: Chain):
    """Mass of either representation: Fraction for grid, RadicalSum else."""
    if is_grid_chain(chain):
        return mass_grid(chain)
    from .simplicial import mass_simplicial

    return mass_simplicial(chain)


def chain_boundary(chain: Chain) -> Chain:
    # 0-chains have the empty (-1)-chain as boundary; the per-rep boundary
    # operators refuse k = 0, so handle that rung here.
    if is_grid_chain(chain):
        return empty_chain(chain.grid, -1) if chain.k == 0 else boundary_grid(chain)
    from .simplicial import boundary_simplicial, empty_simplicial

    return empty_simplicial(-1) if chain.k == 0 else boundary_simplicial(chain)


def chain_is_zero(chain: Chain) -> bool:
    """Mod-2 triviality; geometric (not presentational) for simplicial."""
    if is_grid_chain(chain):
        return chain.is_zero()
    from .overlay import is_zero_geometric

    return is_zero_geometric(chain)


def _empty_like(chain: Chain, k: int) -> Chain:
    if is_grid_chain(chain):
        return empty_chain(chain.grid, k)
    from .simplicial import empty_simplicial

    return empty_simplicial(k)


# ---------------------------------------------------------------------------
# the pair type

class Dipolyhedron(Record):
    """Film part B (dimension k) and mass part C (dimension k-1)."""

    __slots__ = _fields = ("B", "C")

    def __init__(self, B: Chain, C: Chain):
        if is_grid_chain(B) != is_grid_chain(C):
            raise ValueError("film and mass parts must share one representation")
        if is_grid_chain(B) and B.grid != C.grid:
            raise ValueError("film and mass parts must live on the same grid")
        if C.k != B.k - 1:
            raise ValueError(
                f"mass part must sit one dimension below the film: {C.k} != {B.k} - 1"
            )
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.B, self.C) == (other.B, other.C)
        return NotImplemented

    def __hash__(self):
        return hash((self.B, self.C))

    @property
    def k(self) -> int:
        return self.B.k

    @property
    def rep(self) -> str:
        return "grid" if is_grid_chain(self.B) else "simplicial"

    def __add__(self, other: "Dipolyhedron") -> "Dipolyhedron":
        return Dipolyhedron(self.B + other.B, self.C + other.C)


def make_dipole(B: Chain) -> Dipolyhedron:
    """Pure film pair (B, 0)."""
    return Dipolyhedron(B, _empty_like(B, B.k - 1))


def make_massive(C: Chain) -> Dipolyhedron:
    """Pure mass pair (0, C), one dimension above C."""
    if C.k >= 3:
        raise ValueError("mass part of dimension 3 would need a 4-dimensional film")
    return Dipolyhedron(_empty_like(C, C.k + 1), C)


class EnergySplit(tuple):
    """(energy, weight, mass_part) with named access."""

    __slots__ = ()

    def __new__(cls, energy, weight, mass_part):
        return tuple.__new__(cls, (energy, weight, mass_part))

    def __getnewargs__(self):
        return tuple(self)

    energy = property(lambda self: self[0])
    weight = property(lambda self: self[1])
    mass_part = property(lambda self: self[2])


def energy(A: Dipolyhedron) -> EnergySplit:
    """Energy = M(B) + M(C); weight charges the film only."""
    w = chain_mass(A.B)
    m = chain_mass(A.C)
    return EnergySplit(w + m, w, m)


def weight(A: Dipolyhedron):
    return chain_mass(A.B)


def boundary_dip(A: Dipolyhedron) -> Dipolyhedron:
    """(boundary(B) + C, boundary(C)), one dimension down."""
    if A.k < 1:
        raise ValueError("0-dimensional pairs have no boundary")
    return Dipolyhedron(chain_boundary(A.B) + A.C, chain_boundary(A.C))
