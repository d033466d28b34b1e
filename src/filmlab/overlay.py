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
size.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable

from .geom import (
    Point,
    homogeneous,
    line_key,
    plane_key,
    vadd,
    vdot,
    vscale,
)
from .records import Record
from .simplicial import SimplicialChain, boundary_simplicial, simplicial_chain

Segment = tuple[Point, Point]


def _line_toggles(segments: Iterable[Segment]) -> dict:
    """Endpoint toggles per carrying line, all in Python ints.

    Maps each line's integer Pluecker key, the primitive direction d (first
    nonzero entry positive) and the moment p x d as a gcd-reduced integer
    vector over a positive denominator, to (a representative segment,
    {parameter: parity}).  A parameter is <x, d> as a reduced pair
    (numerator, denominator > 0); an endpoint shared by an even number of
    segments toggles nothing.
    """
    groups: dict = {}
    for p, q in segments:
        if p == q:
            continue
        px, py, pz, pw = homogeneous(p)
        qx, qy, qz, qw = homogeneous(q)
        dx, dy, dz = qx * pw - px * qw, qy * pw - py * qw, qz * pw - pz * qw
        g = gcd(dx, dy, dz)
        if dx < 0 or (dx == 0 and (dy < 0 or (dy == 0 and dz < 0))):
            g = -g
        dx, dy, dz = dx // g, dy // g, dz // g
        mx, my, mz = py * dz - pz * dy, pz * dx - px * dz, px * dy - py * dx
        g = gcd(mx, my, mz, pw)
        key = (dx, dy, dz, mx // g, my // g, mz // g, pw // g)
        entry = groups.get(key)
        if entry is None:
            entry = groups[key] = ((p, q), {})
        toggles = entry[1]
        for t, w in ((px * dx + py * dy + pz * dz, pw), (qx * dx + qy * dy + qz * dz, qw)):
            g = gcd(t, w)
            t = (t // g, w // g)
            toggles[t] = toggles.get(t, 0) ^ 1
    return groups


def overlay_vanishes(segments: Iterable[Segment]) -> bool:
    """True iff overlay_leftover(segments) is empty; builds no points."""
    return not any(
        any(toggles.values()) for _, toggles in _line_toggles(segments).values()
    )


def overlay_leftover(segments: Iterable[Segment]) -> list[Segment]:
    """Mod-2 geometric cancellation of segments: odd-covered sub-segments.

    Groups by carrying line (integer Pluecker key) and sweeps each line
    once: every endpoint toggles the coverage parity, an endpoint shared
    by an even number of segments toggles nothing, and each maximal
    odd-covered run becomes one output segment.  Lines with odd toggles
    are reported in the order of geom.line_key, which is computed once
    per such line.
    """
    live = []
    for (p, q), toggles in _line_toggles(segments).values():
        odd = sorted(Fraction(t, w) for (t, w), flip in toggles.items() if flip)
        if odd:
            live.append((line_key(p, q), odd))
    out: list[Segment] = []
    for (d, anchor), odd in sorted(live):
        df = (Fraction(d[0]), Fraction(d[1]), Fraction(d[2]))
        dd = vdot(df, df)

        def at(t: Fraction) -> Point:
            return vadd(anchor, vscale(t / dd, df))

        # x = anchor + (t / dd) d with t = <x, d>, as the anchor is the foot
        # of the origin's perpendicular (<anchor, d> = 0)
        for i in range(0, len(odd), 2):
            out.append((at(odd[i]), at(odd[i + 1])))
    return out


def reduce_1chain(chain: SimplicialChain) -> SimplicialChain:
    """Minimal canonical presentation of a 1-chain (exact overlay)."""
    if chain.k != 1:
        raise ValueError("reduce_1chain expects a 1-chain")
    return simplicial_chain(1, overlay_leftover((s[0], s[1]) for s in chain.simplices))


def _plane_groups(chain: SimplicialChain) -> dict:
    groups: dict = {}
    for s in chain.simplices:
        key = plane_key(s[0], s[1], s[2])
        groups.setdefault(key, []).append(s)
    return groups


def _plane_vanishes(tris: list) -> bool:
    """True iff coplanar triangles cover their plane evenly a.e."""
    return overlay_vanishes(
        e for t in tris for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))
    )


def is_zero_geometric(chain: SimplicialChain) -> bool:
    """Exact test that a chain's coverage parity vanishes a.e."""
    if chain.k <= 0:
        return chain.is_zero_presentation()
    if chain.k == 1:
        return overlay_vanishes((s[0], s[1]) for s in chain.simplices)
    if chain.k == 2:
        return all(_plane_vanishes(tris) for tris in _plane_groups(chain).values())
    # k == 3: coverage jumps across faces
    return is_zero_geometric(boundary_simplicial(chain))


# -- equality ---------------------------------------------------------------


class EqualityCertificate(Record):
    """Verdict of a chain comparison; ``mode`` is always "exact", kept for
    report readers."""

    __slots__ = _fields = ("equal", "mode")

    def __init__(self, equal: bool, mode: str):
        object.__setattr__(self, "equal", equal)
        object.__setattr__(self, "mode", mode)

    def __bool__(self) -> bool:
        return self.equal


def chains_equal_mod2(a: SimplicialChain, b: SimplicialChain) -> EqualityCertificate:
    """Decide geometric equality of two mod-2 chains, exactly at any size."""
    if a.k != b.k:
        raise ValueError("chains of different dimension")
    return EqualityCertificate(is_zero_geometric(a + b), "exact")
