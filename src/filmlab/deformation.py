"""Deformation of simplicial chains onto a cubical grid.

A chain is pushed into the grid skeleton one dimension at a time: inside
every cube (then every face) that still carries a piece of the chain, a
well separated interior center is chosen and the cell's content is
projected radially onto the cell boundary.  A piece is clipped to the
cones from the center over the cell's facets (one that lies in a single
cone goes whole), so each part lands inside a single facet and projects
to an honest straight simplex; a clipped polygon is fanned into
triangles.  Once the chain lies in the k-skeleton, covering parity
at a generic point of each k-face decides which whole faces make up the
grid chain P.

The center follows one rule: among the candidates that keep clear of the
chain, the least exact projected mass wins, and equal masses go to the
lowest candidate index.  A candidate's mass is summed over the same cone
parts that its projection would make, measured without projecting them;
only the winner is projected, and no float enters the choice.  The exact
identity below certifies the result whichever center is used.

From the grid clip to the report, pieces are homogeneous integer simplices
(geom.HSimplex): carriers, cone clips, projections, the
snap's point tests, every distance (clearances and support distances, by
geom.homogeneous_dist_sq), and the finish.  There R's tracks toggle as
sorted integer tuples, dR toggles their facets, Q is pruned from
A + P + dR by the integer overlay cores, the identity is overlaid afresh
on A + P + Q + dR, and every mass is one geom.gram_mass over integer
Grams.  Fractions appear where they must: once per distinct point of the
R and Q that leave in the report, and once per support distance.

Every run returns chains Q (dim k) and R (dim k+1) with the exact mod-2
identity  A = P + Q + dR,  verified geometrically before returning, plus
measured mass ratios and support distances.  Q is assembled as
A + P + dR with the geometrically void part pruned away, so the identity
holds by construction and the reported M(Q) reflects actual content.

Each mass is computed once, exactly, as a RadicalSum.  A measured ratio
is the float of the mass over the float of its exact ceiling, and the
matching bounds_ok entry compares the same two exact values, so no float
sum over a chain's simplices reaches a report.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .exact import RadicalSum, _split_square, det3
from .geom import (
    HPoint,
    HSimplex,
    Plane,
    _gram,
    gram_mass,
    homogeneous,
    homogeneous_dist_sq,
    homogeneous_mass,
    homogeneous_pieces,
    reduced,
    split_homogeneous,
    vcross,
    vdot,
)
from .grid import GridCell, GridChain, GridSpec, boundary_grid, chain_of, mass_grid
from .overlay import (
    EqualityCertificate,
    _leftover,
    _plane_groups,
    _plane_vanishes,
    _vanishes,
    chains_equal_mod2,
)
from .pairs import Dipolyhedron, boundary_dip, chain_mass, energy
from .records import Record
from .simplicial import (
    SimplicialChain,
    _fraction_chain,
    _grid_simplices,
    as_simplicial,
    boundary_simplicial,
    empty_simplicial,
)

class DeformConfig(Record):
    """Knobs for the grid deformation.

    ``tau`` is the clearance radius for projection centers as a fraction
    of the grid spacing; candidates closer than ``tau * epsilon`` to the
    chain are rejected.  ``c_max`` caps the acceptable measured mass
    ratios.
    """

    __slots__ = _fields = ("epsilon", "candidate_centers", "tau", "seed", "c_max")

    def __init__(
        self,
        epsilon: Fraction,
        candidate_centers: int = 16,
        tau: Fraction = Fraction(1, 8),
        seed: int = 0,
        c_max: int = 100,
    ):
        epsilon = Fraction(epsilon)
        tau = Fraction(tau)
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not Fraction(0) < tau < Fraction(1, 2):
            raise ValueError("center clearance must lie in (0, 1/2)")
        if candidate_centers < 1:
            raise ValueError("need at least one center candidate per cell")
        if c_max <= 0:
            raise ValueError("c_max must be positive")
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "candidate_centers", candidate_centers)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "c_max", c_max)


class SupportReport(Record):
    """Largest vertex distances of the output from the input supports.

    ``chain_dist`` covers vertices of P and R against |A|; ``boundary_dist``
    covers vertices of dP and Q against |dA|.  ``None`` means some output
    vertex had no target to compare against (empty input support).
    """

    __slots__ = _fields = ("chain_dist", "boundary_dist", "within_6eps")


class DeformationResult(Record):
    __slots__ = _fields = (
        "P", "Q", "R", "measured", "bounds_ok", "support", "identity", "fallback_cells"
    )


# -- lattice bookkeeping -----------------------------------------------------


def _carrier(grid: GridSpec, s: HSimplex) -> GridCell:
    """Smallest closed grid cell containing the homogeneous simplex.

    With origin o_num / o_den and spacing e_num / e_den, a vertex X / W
    has the lattice coordinate (X o_den - o_num W) e_den / (W o_den e_num)
    along an axis, over a positive denominator, so its cell index is one
    floor division.  Requires the simplex to fit in one cell per axis,
    which the initial clipping guarantees.
    """
    en, ed = grid.epsilon.numerator, grid.epsilon.denominator
    base = [0, 0, 0]
    axes = []
    for a in (0, 1, 2):
        on, od = grid.origin[a].numerator, grid.origin[a].denominator
        coords = [divmod((v[a] * od - on * v[3]) * ed, v[3] * od * en) for v in s]
        base[a] = lo = min(q for q, _ in coords)
        if all(q == lo and r == 0 for q, r in coords):
            continue  # every vertex on the lattice plane lo
        if any(q + (r > 0) > lo + 1 for q, r in coords):
            raise ValueError("piece spans more than one grid cell")
        axes.append(a)
    return GridCell(tuple(base), tuple(axes))


def _clip_to_grid(chain: SimplicialChain, grid: GridSpec) -> list:
    """Cut the presentation along all interior lattice planes, into
    homogeneous pieces."""
    lo, hi = grid.box()
    for s in chain.simplices:
        for v in s:
            for a in (0, 1, 2):
                if not lo[a] <= v[a] <= hi[a]:
                    raise ValueError("chain extends outside the grid box")
    planes = (
        Plane([int(b == a) for b in (0, 1, 2)], grid.origin[a] + grid.epsilon * i)
        for a in (0, 1, 2)
        for i in range(1, grid.dims[a])
    )
    return split_homogeneous(homogeneous_pieces(chain.simplices), planes)


# -- projection centers ------------------------------------------------------


def _center_candidates(grid: GridSpec, cell: GridCell, cfg: DeformConfig) -> list:
    rng = random.Random(f"filmlab-deform:{cfg.seed}:{cell.axes_label()}:{cell.base}")
    out = []
    for _ in range(cfg.candidate_centers):
        coords = []
        for a in (0, 1, 2):
            q = Fraction(cell.base[a])
            if a in cell.axes:
                q += Fraction(rng.randint(1, 63), 64)
            coords.append(grid.origin[a] + grid.epsilon * q)
        out.append(tuple(coords))
    return out


def _facet_offsets(grid: GridSpec, cell: GridCell, center: HPoint):
    """Offsets of the cell's two facets per axis from the center, as
    integers over one positive denominator: (K, [(axis, below, above)])."""
    eps, cw = grid.epsilon, center[3]
    planes = [(a, grid.origin[a] + eps * cell.base[a]) for a in cell.axes]
    k = lcm(cw, eps.denominator, *(q.denominator for _, q in planes))
    step = eps.numerator * (k // eps.denominator)
    offsets = []
    for a, q in planes:
        below = q.numerator * (k // q.denominator) - center[a] * (k // cw)
        offsets.append((a, below, below + step))
    return k, offsets


def _rays(center: HPoint, s: HSimplex) -> list:
    """R = X Cw - C W per vertex X / W of s, a positive multiple of the
    vertex minus the center C / Cw."""
    cx, cy, cz, cw = center
    return [(x * cw - cx * w, y * cw - cy * w, z * cw - cz * w) for x, y, z, w in s]


def _facet_parts(poly: list, facets: list, cones: list):
    """Yield (a, O, part) for each facet at offset O / K along axis a that
    a segment or convex polygon reaches from the center, with the part that
    projects onto it.

    A vertex is a tuple whose first three entries are its ray R; the rules
    read those, and _clip carries any further entries along.  A piece whose
    vertices all exit through one facet (_exit_facet) goes to it whole; any
    other is clipped to each facet cone (Sutherland-Hodgman), whose list is
    filled into cones on first need.  The facet at offset O / K along axis a
    is reached through the closed cone where R_a has O's sign and
    |O| R_b <= above_b |R_a|, -|O| R_b <= |below_b| |R_a| for each other
    cell axis b.  Two neighbouring cones share a face, spanned by the center
    and their facets' common edge (or corner, in a 2-cell); a part lying in
    it goes to the earlier axis alone, as _exit_facet breaks its ties.
    """
    exits = {_exit_facet(v, facets) for v in poly}
    if len(exits) == 1:
        ((a, off),) = exits
        yield a, off, poly
        return
    if not cones:
        # (a, O, forms), each form (p, q, b, strict) for p R_a + q R_b >= 0
        for a, below, above in facets:
            for off, sign in ((below, -1), (above, 1)):
                m = abs(off)
                forms = [(hi * sign, -m, b, b < a) for b, lo, hi in facets if b != a]
                forms += [(-lo * sign, m, b, b < a) for b, lo, hi in facets if b != a]
                cones.append((a, off, forms))
    for a, off, forms in cones:
        part = poly
        for p, q, b, _ in forms:
            vals = [p * v[a] + q * v[b] for v in part]
            if max(vals) <= 0 < -min(vals):
                break  # at most a face of the piece lies in the cone
            if min(vals) < 0:
                part = _clip(part, vals)
        else:
            if all(any(p * v[a] + q * v[b] for v in part) for p, q, b, strict in forms if strict):
                yield a, off, part


def _project_cell_pieces(grid: GridSpec, cell: GridCell, center: HPoint, pieces: list):
    """Project each piece radially onto the cell boundary, facet by facet.

    The center, pieces and results are homogeneous (geom.HPoint and
    HSimplex).  Returns, per input piece, a list of (sub-piece, image)
    pairs; images can be degenerate when a sub-piece lies in a plane
    through the center.  The sub-pieces are the piece's _facet_parts, found
    on its points with their rays in front, and a clipped polygon is cut
    into a fan from its first vertex.  On the facet at offset O / K along
    axis a, a vertex with ray R goes to (C K R_a + O Cw R) / (Cw K R_a).
    """
    k, facets = _facet_offsets(grid, cell, center)
    cx, cy, cz, cw = center
    cones = []
    out = []
    for s in pieces:
        pairs = []
        poly = [r + v for r, v in zip(_rays(center, s), s)]
        for a, off, part in _facet_parts(poly, facets, cones):
            sub = tuple(reduced(*v[3:]) for v in part)
            image = []
            for r in part:
                if r[a] == 0:
                    raise ValueError("projection ray is undefined at the center")
                u, v = k * r[a], off * cw
                x, y, z = cx * u + v * r[0], cy * u + v * r[1], cz * u + v * r[2]
                image.append(reduced(x, y, z, cw * u))
            if len(sub) < 4:
                pairs.append((sub, tuple(image)))
                continue
            for i in range(1, len(sub) - 1):
                # a clipped polygon, fanned out from its first vertex
                pairs.append(((sub[0], sub[i], sub[i + 1]), (image[0], image[i], image[i + 1])))
        out.append(pairs)
    return out


def _cone_mass(grid: GridSpec, cell: GridCell, center: HPoint, pieces: list) -> RadicalSum:
    """The exact mass of the images _project_cell_pieces gives the pieces,
    without projecting them: the same _facet_parts, found on the rays
    alone, each measured by _image_measure."""
    k, facets = _facet_offsets(grid, cell, center)
    terms = []
    cones = []
    for s in pieces:
        for a, off, part in _facet_parts(_rays(center, s), facets, cones):
            _image_measure(part, a, abs(off), k, terms)
    return RadicalSum(terms)


def _exit_facet(r: tuple, facets: list) -> tuple:
    """(axis, offset) of the facet the ray r from the center meets first,
    the first such axis on equal ray parameters."""
    best = None
    for a, below, above in facets:
        ra = r[a]
        if ra == 0:
            continue
        off = above if ra > 0 else below
        # the ray parameter off / ra > 0, compared as |off| / |ra|
        if best is None or abs(off) * best[2] < best[1] * abs(ra):
            best = (a, abs(off), abs(ra), off)
    if best is None:
        raise ValueError("projection ray is undefined at the center")
    return best[0], best[3]


def _image_measure(poly: list, a: int, m: int, k: int, terms: list) -> None:
    """Append the image measure of a segment or convex polygon of rays R in
    the cone of the facet at offset +-m / k along axis a: for a segment
    m |R1 R0_a - R0 R1_a| / (k |R0_a R1_a|), for a polygon the rational area
    m^2 / (2 k^2) |sum of det(R0, Ri, Ri+1) / (R0_a Ri_a Ri+1_a)| over its fan."""
    r0 = poly[0]
    if len(poly) == 2:
        r1 = poly[1]
        d = [r1[e] * r0[a] - r0[e] * r1[a] for e in (0, 1, 2) if e != a]
        g = gcd(*d) or 1
        n = (d[0] // g) ** 2 + (d[1] // g) ** 2
        s, core = _split_square(n) if n else (0, 1)
        terms.append((core, Fraction(m * g * s, k * abs(r0[a] * r1[a]))))
        return
    fan = Fraction(0)
    for r1, r2 in zip(poly[1:], poly[2:]):
        fan += Fraction(det3((r0, r1, r2)), r0[a] * r1[a] * r2[a])
    terms.append((1, abs(fan) * Fraction(m * m, 2 * k * k)))


def _clip(poly: list, vals: list) -> list:
    """The part of a segment or convex polygon where a linear form, vals at
    the vertices, is at least zero.  A vertex is an integer vector (a ray R,
    or R followed by its homogeneous point); a crossing point is the
    positive combination |l_p| V_q + |l_q| V_p, gcd-reduced."""

    def cross(i, j):
        r = [abs(vals[i]) * y + abs(vals[j]) * x for x, y in zip(poly[i], poly[j])]
        g = gcd(*r)
        return tuple([x // g for x in r])

    if len(poly) == 2:
        return [cross(0, 1) if v < 0 else r for v, r in zip(vals, poly)]
    out = []
    for j in range(len(poly)):
        if (vals[j - 1] < 0 < vals[j]) or (vals[j] < 0 < vals[j - 1]):
            out.append(cross(j - 1, j))
        if vals[j] >= 0:
            out.append(poly[j])
    return out


def _clears(candidate: HPoint, pieces: list, cut: Fraction) -> bool:
    """Does the candidate keep a squared distance of at least cut from
    every homogeneous piece?  A piece whose vertices all lie at least
    sqrt(cut) beyond it along one axis clears without its distance."""
    cn, cd, cw = cut.numerator, cut.denominator, candidate[3]
    for s in pieces:
        floors = [cn * (v[3] * cw) ** 2 for v in s]
        for c, a in zip(candidate, (0, 1, 2)):
            above = None
            for v, floor in zip(s, floors):
                g = v[a] * cw - c * v[3]
                if g * g * cd < floor or (above is not None and above != (g > 0)):
                    break
                above = g > 0
            else:
                break
        else:
            num, den = homogeneous_dist_sq(candidate, s)
            if num * cd < cn * den:
                return False
    return True


def _farthest(points: list, pieces: list) -> tuple[int, Fraction]:
    """Index and exact squared distance of the homogeneous point farthest
    from the homogeneous pieces (max over points of the min over pieces);
    ties go to the lowest index.

    Distances compare by cross-multiplication.  A point stops scanning
    the pieces once it is no farther than the best so far, since it can
    then no longer win.
    """
    best, best_num, best_den = None, 0, 1
    for i, p in enumerate(points):
        num = den = None
        for s in pieces:
            n, d = homogeneous_dist_sq(p, s)
            if num is None or n * den < num * d:
                num, den = n, d
            if best is not None and num * best_den <= best_num * den:
                break
        else:
            best, best_num, best_den = i, num, den
    return best, Fraction(best_num, best_den)


def _choose_center(grid: GridSpec, cell: GridCell, pieces: list, cfg: DeformConfig):
    """Pick the cell's projection center by the one rule: among the
    candidates that clear the chain (if none does, the farthest one alone),
    the least exact projected mass wins, equal masses going to the lowest
    candidate index.

    Pieces, candidates and the returned winner are homogeneous points.
    Each cleared candidate is scored by _cone_mass, and only the winner is
    projected.
    """
    candidates = [homogeneous(c) for c in _center_candidates(grid, cell, cfg)]
    cut = (cfg.tau * grid.epsilon) ** 2
    admitted = [i for i, c in enumerate(candidates) if _clears(c, pieces, cut)]
    fallback = not admitted
    if fallback:
        # every candidate is too close to the chain: take the farthest one
        admitted = [_farthest(candidates, pieces)[0]]
    i = admitted[0]
    if len(admitted) > 1:
        # min keeps the first of equal masses, so ties go to the lowest index
        i = min(admitted, key=lambda j: _cone_mass(grid, cell, candidates[j], pieces))
    proj = _project_cell_pieces(grid, cell, candidates[i], pieces)
    return candidates[i], proj, fallback


# -- the deformation pipeline ------------------------------------------------


def _run_pipeline(entries: list, grid: GridSpec, cfg: DeformConfig):
    """Deform all entry chains together, sharing the center choices.

    Returns per-entry final piece lists, per-entry raw track simplices (one
    dimension up), all homogeneous, and the cells where the clearance
    fallback fired.
    """
    states = [_clip_to_grid(ch, grid) for ch in entries]
    tracks = [[] for _ in entries]
    fallbacks = []
    for d in (3, 2):
        buckets = {}
        for ei, pieces in enumerate(states):
            for pi, s in enumerate(pieces):
                if len(s) - 1 >= d:
                    continue
                car = _carrier(grid, s)
                if car.dim == d:
                    buckets.setdefault(car, []).append((ei, pi))
        replacements = [{} for _ in entries]
        for cell in sorted(buckets):
            members = buckets[cell]
            cell_pieces = [states[ei][pi] for ei, pi in members]
            c, proj, fb = _choose_center(grid, cell, cell_pieces, cfg)
            if fb:
                fallbacks.append(cell)
            for (ei, pi), pairs in zip(members, proj):
                images = []
                for sub, image in pairs:
                    tracks[ei].append(sub + (c,))
                    tracks[ei].append(image + (c,))
                    if _gram(image)[0]:
                        images.append(image)
                replacements[ei][pi] = images
        for ei, repl in enumerate(replacements):
            if not repl:
                continue
            rebuilt = []
            for pi, s in enumerate(states[ei]):
                if pi in repl:
                    rebuilt.extend(repl[pi])
                else:
                    rebuilt.append(s)
            states[ei] = rebuilt
    return states, tracks, fallbacks


def _inside_forms(s: HSimplex, axes: tuple) -> list:
    """Linear forms in a homogeneous point's coordinates along axes, then
    its W, for the piece s lying in the cell spanned by axes: all are
    positive exactly inside s, and the least is zero exactly on its
    boundary.

    A triangle's forms are the 3x3 orientation determinants of the point
    with two of its vertices, a segment's the cross-multiplied differences
    from its two ends, each signed by the piece's own orientation.
    """
    pts = [tuple(v[a] for a in axes) + (v[3],) for v in s]
    if len(pts) == 2:
        (x0, w0), (x1, w1) = pts
        forms = [(w0, -x0), (-w1, x1)]
        turn = x1 * w0 - x0 * w1
    else:
        a, b, c = pts
        forms = [vcross(b, c), vcross(c, a), vcross(a, b)]
        turn = vdot(a, forms[0])
    if turn < 0:
        forms = [tuple(-f for f in form) for form in forms]
    return forms


def _snap(grid: GridSpec, k: int, pieces: list, seed: int) -> GridChain:
    """snap_parity of the chain of homogeneous pieces, in integers.

    Pieces cancel mod 2 and degenerate ones drop, as in simplicial_chain.
    Each sample point is tested in its cell's own coordinates against the
    _inside_forms of the cell's pieces.
    """
    if k not in (1, 2):
        raise ValueError("parity snap supports 1- and 2-chains only")
    live = set()
    for s in pieces:
        live ^= {tuple(sorted(s))}
    by_cell = {}
    for s in live:
        if not _gram(s)[0]:
            continue
        car = _carrier(grid, s)
        if car.dim != k:
            raise ValueError("residue piece is not supported in the k-skeleton")
        by_cell.setdefault(car, []).append(_inside_forms(s, car.axes))
    cells = []
    for cell in sorted(by_cell):
        group = by_cell[cell]
        rng = random.Random(f"filmlab-snap:{seed}:{cell.axes_label()}:{cell.base}")
        parity = None
        for _ in range(64):
            coords = [
                grid.origin[a]
                + grid.epsilon * (cell.base[a] + Fraction(rng.randint(1, 9972), 9973))
                for a in cell.axes
            ]
            w = lcm(*(q.denominator for q in coords))
            point = [q.numerator * (w // q.denominator) for q in coords] + [w]
            lows = [min(sum(x * y for x, y in zip(f, point)) for f in forms) for forms in group]
            if 0 not in lows:
                parity = sum(low > 0 for low in lows) % 2
                break
        if parity is None:
            raise RuntimeError("no generic sample point found for parity snap")
        if parity:
            cells.append(cell)
    return chain_of(grid, k, cells)


def snap_parity(residue: SimplicialChain, grid: GridSpec, seed: int = 0) -> GridChain:
    """Snap a chain lying in the k-skeleton to whole grid k-cells.

    Membership of each touched cell is the covering parity of the residue at
    a generic interior rational point of that cell; sample points landing on
    a piece boundary are redrawn deterministically.
    """
    return _snap(grid, residue.k, homogeneous_pieces(residue.simplices), seed)


def _prune_zero_groups(k: int, simplices: set) -> set:
    """Drop the geometrically void part of a chain of sorted homogeneous
    simplices, carrier by carrier.

    1-chains are rewritten to the canonical leftover segments per line, so
    their reported mass is the true geometric mass.  2-chains keep their
    presentation on planes that carry actual content.
    """
    if k == 1:
        return {tuple(sorted(run)) for _, runs in _leftover(simplices) for run in runs}
    if k == 2:
        return {s for t in _plane_groups(simplices).values() if not _plane_vanishes(t) for s in t}
    raise ValueError("pruning supports 1- and 2-chains only")


# -- reports -----------------------------------------------------------------


def _ratio(num, den) -> float:
    """float(num) / float(den) of exact masses; 0/0 is 0 and x/0 is inf."""
    n, d = float(num), float(den)
    if d == 0.0:
        return 0.0 if n == 0.0 else math.inf
    return n / d


def _support_dist_sq(vertices: list, targets: list) -> Optional[Fraction]:
    """Max-min squared distance from output vertices to target pieces."""
    if not vertices:
        return Fraction(0)
    if not targets:
        return None
    return _farthest(vertices, targets)[1]


def _track_chain(tracks: list) -> dict:
    """The simplices of R = simplicial_chain(k, tracks) of homogeneous
    tracks, on integer keys, each with its _gram pair (G, D).

    A homogeneous point is reduced (W > 0, gcd 1), so it names exactly one
    rational point and a sorted tuple of them is a canonical simplex.  The
    tracks toggle as sorted tuples, and one whose Gram is zero (a repeated
    vertex included) drops, as simplicial_chain drops it.
    """
    grams = {}
    for t in tracks:
        g = _gram(t)
        if g[0]:
            s = tuple(sorted(t))
            if grams.pop(s, None) is None:
                grams[s] = g
    return grams


def _boundary(simplices) -> set:
    """Mod-2 boundary of sorted homogeneous simplices, all nondegenerate, so
    their facets are too."""
    facets: set = set()
    for s in simplices:
        facets ^= {s[:i] + s[i + 1 :] for i in range(len(s))}
    return facets


def _finish_entry(
    A: SimplicialChain,
    final_pieces: list,
    track_raws: list,
    grid: GridSpec,
    cfg: DeformConfig,
    fallbacks: tuple,
) -> DeformationResult:
    """Assemble P, Q, R for one deformed chain and verify the identity, all
    on sorted homogeneous simplices; only Q and R become Fraction chains."""
    k = A.k
    grams = _track_chain(track_raws)
    P = _snap(grid, k, final_pieces, cfg.seed)
    A_h = homogeneous_pieces(A.simplices)
    P_h = _grid_simplices(P)
    total = {tuple(sorted(s)) for s in A_h} ^ P_h ^ _boundary(grams)
    Q_h = _prune_zero_groups(k, total)
    # A + P = Q + dR, overlaid afresh on A + P + Q + dR
    if not _vanishes(k, total ^ Q_h):
        raise RuntimeError("deformation identity failed geometric verification")

    dA = homogeneous_pieces(boundary_simplicial(A).simplices)
    dP = boundary_grid(P)
    eps = grid.epsilon
    mA, mdA = homogeneous_mass(A_h, k), homogeneous_mass(dA, k - 1)
    # each ratio's exact (mass, ceiling)
    ratios = {
        "cP": (mass_grid(P), mA + eps * mdA),
        "cdP": (mass_grid(dP), mdA),
        "cQ": (homogeneous_mass(Q_h, k), eps * mdA),
        "cR": (gram_mass(grams.values(), k + 1), eps * mA),
    }
    measured = {key: _ratio(m, c) for key, (m, c) in ratios.items()}
    bounds_ok = {key: m <= cfg.c_max * c for key, (m, c) in ratios.items()}

    chain_d2 = _support_dist_sq(list({h for s in (*P_h, *grams) for h in s}), A_h)
    dP_h = _grid_simplices(dP)
    boundary_d2 = _support_dist_sq(list({h for s in (*dP_h, *Q_h) for h in s}), dA)
    within = None not in (chain_d2, boundary_d2) and max(chain_d2, boundary_d2) <= 36 * eps**2
    support = SupportReport(
        *(None if d2 is None else RadicalSum.sqrt(d2) for d2 in (chain_d2, boundary_d2)), within
    )
    Q, R = _fraction_chain(k, Q_h), _fraction_chain(k + 1, grams)
    cert = EqualityCertificate(True, "exact")
    return DeformationResult(P, Q, R, measured, bounds_ok, support, cert, fallbacks)


def deform_chain(A: SimplicialChain, grid: GridSpec, cfg: DeformConfig) -> DeformationResult:
    """Deform a 1- or 2-chain onto the grid skeleton.

    Returns the snapped grid chain P together with chains Q and R realizing
    the exact identity A = P + Q + dR mod 2, geometric verification
    included, plus measured constants and support distances.
    """
    if A.k not in (1, 2):
        raise ValueError("deformation supports 1- and 2-chains only")
    if cfg.epsilon != grid.epsilon:
        raise ValueError("config epsilon disagrees with the grid spacing")
    finals, tracks, fallbacks = _run_pipeline([A], grid, cfg)
    return _finish_entry(A, finals[0], tracks[0], grid, cfg, tuple(fallbacks))


# -- dipolyhedra -------------------------------------------------------------


class DipoleDeformationReport(Record):
    """Per-component results plus assembled energies and measured ratios."""

    __slots__ = _fields = (
        "film", "mass", "energy_D", "energy_dD", "energy_Q", "energy_R", "measured",
        "bounds_ok", "fallback_cells",
    )


def deform_dipolyhedron(A: Dipolyhedron, gamma, grid: GridSpec, cfg: DeformConfig):
    """Deform a 2-dimensional dipolyhedron with boundary curve gamma.

    Requires dC = 0 and dB + C = gamma.  B and C are deformed together with
    shared center choices; the result is the grid dipolyhedron
    D = (P_B, P_C) with Q = (Q_B + R_C, 0) and R = (R_B, R_C), and the
    identity A = D + Q + dR is verified component by component.
    """
    if A.k != 2:
        raise ValueError("dipolyhedron deformation supports k = 2 only")
    if cfg.epsilon != grid.epsilon:
        raise ValueError("config epsilon disagrees with the grid spacing")
    B = as_simplicial(A.B)
    C = as_simplicial(A.C)
    curve = as_simplicial(gamma)
    if curve.k != 1:
        raise ValueError("gamma must be a 1-chain")
    if not boundary_simplicial(C).is_zero_presentation():
        raise ValueError("precondition failed: the mass part must be a cycle")
    closure = chains_equal_mod2(boundary_simplicial(B) + C, curve)
    if not closure.equal:
        raise ValueError("precondition failed: dB + C must equal gamma")

    finals, tracks, fallbacks = _run_pipeline([B, C], grid, cfg)
    fb = tuple(fallbacks)
    film = _finish_entry(B, finals[0], tracks[0], grid, cfg, fb)
    mass = _finish_entry(C, finals[1], tracks[1], grid, cfg, fb)

    D = Dipolyhedron(film.P, mass.P)
    Q = Dipolyhedron(film.Q + mass.R, empty_simplicial(1))
    R = Dipolyhedron(film.R, mass.R)

    # _finish_entry verified B + P_B = film.Q + d(film.R) and
    # C + P_C = mass.Q + d(mass.R).  mass.R cancels in Q.B + dR.B, so the
    # film identity is already decided, and the mass identity
    # C + P_C = dR.C holds iff mass.Q vanishes; mass.Q is the canonical
    # leftover of a 1-chain, which vanishes iff it is empty.
    if not mass.Q.is_zero_presentation():
        raise RuntimeError("dipolyhedron deformation identity failed verification")

    eps = grid.epsilon
    dD = boundary_dip(D)
    e_D = energy(D)
    ratios = {
        "cE": (
            e_D.energy,
            chain_mass(B) + chain_mass(C) + eps * chain_mass(boundary_simplicial(B)),
            2 * cfg.c_max,
        ),
        "cdD": (mass_grid(boundary_grid(D.B) + D.C), chain_mass(curve), cfg.c_max),
    }
    measured = {key: _ratio(m, ceiling) for key, (m, ceiling, _) in ratios.items()}
    bounds_ok = {key: m <= c * ceiling for key, (m, ceiling, c) in ratios.items()}
    report = DipoleDeformationReport(
        film=film,
        mass=mass,
        energy_D=e_D,
        energy_dD=energy(dD),
        energy_Q=energy(Q),
        energy_R=energy(R),
        measured=measured,
        bounds_ok=bounds_ok,
        fallback_cells=fb,
    )
    return D, Q, R, report
