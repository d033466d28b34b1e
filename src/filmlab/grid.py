"""Cubical grids and mod-2 chains on their skeleta.

A grid cell of dimension k is identified by an integer base corner and the
set of axes it extends along; chains are finite cell sets with symmetric
difference as addition.  All world coordinates are exact rationals derived
from the grid origin and spacing.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator

from .records import Record

if TYPE_CHECKING:
    from .geom import Point

AXIS_NAMES = "xyz"


class GridCell(Record):
    """k-cell: base corner (lattice coords) plus the axes it spans, a
    strictly increasing subset of (0, 1, 2).  Cells order by (base, axes)."""

    __slots__ = _fields = ("base", "axes")

    def __init__(self, base: tuple[int, int, int], axes: tuple[int, ...]):
        if tuple(sorted(set(axes))) != axes:
            raise ValueError(f"axes must be strictly increasing: {axes}")
        if any(a not in (0, 1, 2) for a in axes):
            raise ValueError(f"axes out of range: {axes}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "axes", axes)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.base, self.axes) == (other.base, other.axes)
        return NotImplemented

    def __hash__(self):
        return hash((self.base, self.axes))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.base, self.axes) < (other.base, other.axes)
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return (self.base, self.axes) <= (other.base, other.axes)
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return (self.base, self.axes) > (other.base, other.axes)
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return (self.base, self.axes) >= (other.base, other.axes)
        return NotImplemented

    @property
    def dim(self) -> int:
        return len(self.axes)

    def axes_label(self) -> str:
        return "".join(AXIS_NAMES[a] for a in self.axes)

    def facets(self) -> Iterator["GridCell"]:
        """The 2k boundary facets."""
        for a in self.axes:
            rest = tuple(x for x in self.axes if x != a)
            yield GridCell(self.base, rest)
            shifted = list(self.base)
            shifted[a] += 1
            yield GridCell(tuple(shifted), rest)

    def corners(self) -> Iterator[tuple[int, int, int]]:
        for picks in itertools.product(*[(0, 1) if a in self.axes else (0,) for a in (0, 1, 2)]):
            yield tuple(b + p for b, p in zip(self.base, picks))


def edge_ends(cell: GridCell) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Lattice end points of an edge (a 1-cell), base corner first."""
    (a,) = cell.axes
    q = list(cell.base)
    q[a] += 1
    return cell.base, tuple(q)


def cell_in_bounds(cell: GridCell, lo, hi) -> bool:
    """True iff the closed cell lies in the lattice box lo <= n <= hi."""
    base = cell.base
    axes = cell.axes
    for a in (0, 1, 2):
        if base[a] < lo[a] or base[a] + (a in axes) > hi[a]:
            return False
    return True


def box_cells(lo, hi, k: int) -> Iterator[GridCell]:
    """The k-cells in the closed lattice box lo <= n <= hi: by axes, then by base."""
    for axes in itertools.combinations((0, 1, 2), k):
        ranges = [range(lo[a], hi[a] + (a not in axes)) for a in (0, 1, 2)]
        for base in itertools.product(*ranges):
            yield GridCell(base, axes)


def cell_from_label(base, axes_label: str) -> GridCell:
    axes = tuple(sorted(AXIS_NAMES.index(ch) for ch in axes_label))
    return GridCell(tuple(int(b) for b in base), axes)


_ZERO_INDEX = (0, 0, 0)


class GridSpec(Record):
    """Axis-aligned grid: spacing epsilon, world origin, cell counts per axis."""

    __slots__ = _fields = ("epsilon", "origin", "dims")

    def __init__(self, epsilon: Fraction, origin: Point, dims: tuple[int, int, int]):
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if any(d < 0 for d in dims):
            raise ValueError("dims must be nonnegative")
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "dims", dims)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.epsilon, self.origin, self.dims) == (
                other.epsilon, other.origin, other.dims
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.epsilon, self.origin, self.dims))

    def contains_cell(self, cell: GridCell) -> bool:
        return cell_in_bounds(cell, _ZERO_INDEX, self.dims)

    def world(self, lattice: tuple[int, int, int]) -> Point:
        return (
            self.origin[0] + self.epsilon * lattice[0],
            self.origin[1] + self.epsilon * lattice[1],
            self.origin[2] + self.epsilon * lattice[2],
        )

    def cells(self, k: int) -> Iterator[GridCell]:
        """All k-cells of the grid, in canonical order."""
        return box_cells(_ZERO_INDEX, self.dims, k)

    def cell_mass(self, k: int) -> Fraction:
        return self.epsilon ** k

    def box(self) -> tuple[Point, Point]:
        lo = self.origin
        hi = self.world(self.dims)
        return lo, hi


def lattice_bounds(grid: GridSpec, lo: Point, hi: Point) -> tuple[tuple, tuple]:
    """Per axis, the least and greatest lattice index n with
    lo <= origin + epsilon n <= hi: the lattice box of a world box."""
    eps = grid.epsilon
    return (
        tuple(math.ceil((Fraction(lo[a]) - grid.origin[a]) / eps) for a in (0, 1, 2)),
        tuple(math.floor((Fraction(hi[a]) - grid.origin[a]) / eps) for a in (0, 1, 2)),
    )


def lattice_box(*chains: "GridChain") -> tuple[tuple, tuple]:
    """Least and greatest lattice indices of the chains' cells' corners, per axis.

    Clamping every lattice coordinate into this box maps each cell to a
    cell of the box or to a lower-dimensional face, which counts as zero:
    a cellular chain map that fixes the chains and never raises a mass.
    So a least film or decomposition of them can be sought in the box.
    With no cell at all the box is the origin's vertex.
    """
    cells = [c for chain in chains for c in chain.cells]
    if not cells:
        return _ZERO_INDEX, _ZERO_INDEX
    return (
        tuple(min(c.base[a] for c in cells) for a in (0, 1, 2)),
        tuple(max(c.base[a] + (a in c.axes) for c in cells) for a in (0, 1, 2)),
    )


class GridChain(Record):
    """Mod-2 chain on the k-skeleton: a finite set of k-cells."""

    __slots__ = _fields = ("grid", "k", "cells")

    def __init__(self, grid: GridSpec, k: int, cells: frozenset[GridCell]):
        if not -1 <= k <= 3:
            raise ValueError(f"chain dimension out of range: {k}")
        if k == -1 and cells:
            raise ValueError("(-1)-chains are identically empty")
        dims = grid.dims
        for c in cells:
            if c.dim != k:
                raise ValueError(f"cell dimension {c.dim} != chain dimension {k}")
            if not cell_in_bounds(c, _ZERO_INDEX, dims):
                raise ValueError(f"cell outside grid: {c}")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "cells", cells)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.grid, self.k, self.cells) == (other.grid, other.k, other.cells)
        return NotImplemented

    def __hash__(self):
        return hash((self.grid, self.k, self.cells))

    def __add__(self, other: "GridChain") -> "GridChain":
        if self.grid != other.grid or self.k != other.k:
            raise ValueError("chain addition requires matching grid and dimension")
        return GridChain(self.grid, self.k, self.cells ^ other.cells)

    def is_zero(self) -> bool:
        return not self.cells

    def sorted_cells(self) -> list[GridCell]:
        return sorted(self.cells)

    def __len__(self):
        return len(self.cells)


def empty_chain(grid: GridSpec, k: int) -> GridChain:
    return GridChain(grid, k, frozenset())


def chain_of(grid: GridSpec, k: int, cells: Iterable[GridCell]) -> GridChain:
    acc: set[GridCell] = set()
    for c in cells:
        acc ^= {c}
    return GridChain(grid, k, frozenset(acc))


def boundary_grid(chain: GridChain) -> GridChain:
    """Mod-2 boundary; facets shared by an even number of cells cancel."""
    if chain.k == 0:
        raise ValueError("boundary undefined for 0-chains")
    acc: set[GridCell] = set()
    for cell in chain.cells:
        for f in cell.facets():
            acc ^= {f}
    return GridChain(chain.grid, chain.k - 1, frozenset(acc))


def mass_grid(chain: GridChain) -> Fraction:
    if chain.k < 0:
        return Fraction(0)
    return len(chain.cells) * chain.grid.cell_mass(chain.k)


class BoxRegion(Record):
    """Closed axis box given by lattice corners of a grid."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: tuple[int, int, int], hi: tuple[int, int, int]):
        if any(a > b for a, b in zip(lo, hi)):
            raise ValueError("box corners out of order")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def contains_cell(self, cell: GridCell) -> bool:
        return cell_in_bounds(cell, self.lo, self.hi)


def restrict_grid(chain: GridChain, box: BoxRegion) -> tuple[GridChain, GridChain]:
    """Split a chain into (inside, outside) parts along an aligned box.

    Cells lying inside the closed box (including its frontier, which is a
    union of lower-dimensional grid faces and carries no k-cell interior)
    go to the inside part; the two parts partition the chain exactly.
    """
    inside = frozenset(c for c in chain.cells if box.contains_cell(c))
    outside = chain.cells - inside
    return (
        GridChain(chain.grid, chain.k, inside),
        GridChain(chain.grid, chain.k, outside),
    )
