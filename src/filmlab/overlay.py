"""Geometric (almost-everywhere) equality of mod-2 chains.

Two presentations are equal as chains when their coverage parities agree
off a measure-zero set.  The exact decision reduces dimension by one twice:

* a 1-chain vanishes iff, on every carrying line, every elementary interval
  between breakpoints is covered evenly;
* a 2-chain vanishes iff, within every carrying plane, its parity function
  never jumps, i.e. the mod-2 overlay of all triangle edges vanishes as a
  1-chain (the jump set of a plane's parity function is exactly that
  overlay, and a jump-free parity vanishing at infinity is zero);
* a 3-chain vanishes iff the overlay of its tetrahedron faces vanishes as a
  2-chain, by the same jump argument in space.

This is sound and complete for rational inputs, whatever the presentation
size.  The cores work on homogeneous integer points (geom.HPoint); the
public entry points convert each Fraction point once and call the same
cores.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable

from .geom import HPoint, HSimplex, Point, _normal, _primitive, affine, homogeneous_pieces, reduced
from .records import Record
from .simplicial import SimplicialChain, boundary_simplicial, simplicial_chain

Segment = tuple[Point, Point]


def _line_toggles(segments: Iterable[tuple[HPoint, HPoint]]) -> dict:
    """Endpoint toggles per carrying line, all in Python ints.

    Maps each line's integer Pluecker key, the primitive direction d (first
    nonzero entry positive) and the moment p x d as a gcd-reduced integer
    vector over a positive denominator, to {parameter: parity}.  A
    parameter is <x, d> as a reduced pair (numerator, denominator > 0); an
    endpoint shared by an even number of segments toggles nothing.
    """
    groups: dict = {}
    for p, q in segments:
        if p == q:
            continue
        px, py, pz, pw = p
        qx, qy, qz, qw = q
        dx, dy, dz = _primitive(qx * pw - px * qw, qy * pw - py * qw, qz * pw - pz * qw)
        mx, my, mz = py * dz - pz * dy, pz * dx - px * dz, px * dy - py * dx
        g = gcd(mx, my, mz, pw)
        key = (dx, dy, dz, mx // g, my // g, mz // g, pw // g)
        toggles = groups.get(key)
        if toggles is None:
            toggles = groups[key] = {}
        for t, w in ((px * dx + py * dy + pz * dz, pw), (qx * dx + qy * dy + qz * dz, qw)):
            g = gcd(t, w)
            t = (t // g, w // g)
            toggles[t] = toggles.get(t, 0) ^ 1
    return groups


def _segments_vanish(segments: Iterable[tuple[HPoint, HPoint]]) -> bool:
    return not any(any(toggles.values()) for toggles in _line_toggles(segments).values())


def _leftover(segments: Iterable[tuple[HPoint, HPoint]]) -> list:
    """Mod-2 geometric cancellation of homogeneous segments.

    Sweeps each carrying line once: every endpoint toggles the coverage
    parity, and each maximal odd-covered run becomes one segment.  Returns,
    per line with odd toggles, (its direction d and the foot of the
    origin's perpendicular, its runs in parameter order).  With the line's
    key (d, m / mw), the foot is (d x m) / (|d|^2 mw), and the point at
    parameter t / w is the foot plus (t / (w |d|^2)) d.
    """
    lines = []
    for (dx, dy, dz, mx, my, mz, mw), toggles in _line_toggles(segments).items():
        odd = [t for t, flip in toggles.items() if flip]
        if not odd:
            continue
        odd.sort(key=lambda tw: Fraction(*tw))
        cx, cy, cz = dy * mz - dz * my, dz * mx - dx * mz, dx * my - dy * mx
        dd = dx * dx + dy * dy + dz * dz
        ends = [
            reduced(w * cx + t * mw * dx, w * cy + t * mw * dy, w * cz + t * mw * dz, dd * mw * w)
            for t, w in odd
        ]
        foot = (Fraction(cx, dd * mw), Fraction(cy, dd * mw), Fraction(cz, dd * mw))
        lines.append((((dx, dy, dz), foot), list(zip(ends[::2], ends[1::2]))))
    return lines


def _plane_groups(triangles: Iterable[HSimplex]) -> dict:
    """Homogeneous triangles grouped by carrying plane: the key is the
    primitive normal (first nonzero entry positive) and the offset as a
    reduced pair (numerator, denominator > 0)."""
    groups: dict = {}
    for t in triangles:
        a = t[0]
        n = _normal(a, t[1], t[2])
        if n == (0, 0, 0):
            raise ValueError("collinear points do not span a plane")
        nx, ny, nz = _primitive(*n)
        offset = nx * a[0] + ny * a[1] + nz * a[2]
        h = gcd(offset, a[3])
        groups.setdefault((nx, ny, nz, offset // h, a[3] // h), []).append(t)
    return groups


def _plane_vanishes(triangles: list) -> bool:
    """True iff coplanar homogeneous triangles cover their plane evenly a.e."""
    return _segments_vanish(e for a, b, c in triangles for e in ((a, b), (a, c), (b, c)))


def _vanishes(k: int, simplices: Iterable[HSimplex]) -> bool:
    """Exact test that homogeneous 1- or 2-simplices cover evenly a.e."""
    if k == 1:
        return _segments_vanish(simplices)
    return all(_plane_vanishes(tris) for tris in _plane_groups(simplices).values())


def overlay_vanishes(segments: Iterable[Segment]) -> bool:
    """True iff overlay_leftover(segments) is empty; builds no points."""
    return _segments_vanish(homogeneous_pieces(segments))


def overlay_leftover(segments: Iterable[Segment]) -> list[Segment]:
    """Mod-2 geometric cancellation of segments: odd-covered sub-segments,
    line by line in the order of their keys in _leftover, each line's runs
    in parameter order."""
    lines = sorted(_leftover(homogeneous_pieces(segments)))
    return [(affine(p), affine(q)) for _, runs in lines for p, q in runs]


def reduce_1chain(chain: SimplicialChain) -> SimplicialChain:
    """Minimal canonical presentation of a 1-chain (exact overlay)."""
    if chain.k != 1:
        raise ValueError("reduce_1chain expects a 1-chain")
    return simplicial_chain(1, overlay_leftover((s[0], s[1]) for s in chain.simplices))


def is_zero_geometric(chain: SimplicialChain) -> bool:
    """Exact test that a chain's coverage parity vanishes a.e."""
    if chain.k <= 0:
        return chain.is_zero_presentation()
    if chain.k == 3:
        # coverage jumps across faces
        return is_zero_geometric(boundary_simplicial(chain))
    return _vanishes(chain.k, homogeneous_pieces(chain.simplices))


# -- equality ---------------------------------------------------------------


class EqualityCertificate(Record):
    """Verdict of a chain comparison; ``mode`` is always "exact", kept for
    report readers."""

    __slots__ = _fields = ("equal", "mode")

    def __bool__(self) -> bool:
        return self.equal


def chains_equal_mod2(a: SimplicialChain, b: SimplicialChain) -> EqualityCertificate:
    """Decide geometric equality of two mod-2 chains, exactly at any size."""
    if a.k != b.k:
        raise ValueError("chains of different dimension")
    return EqualityCertificate(is_zero_geometric(a + b), "exact")
