"""Reference implementations kept from deleted product code.

Each one is the product's former version, moved here unchanged so that
the code that replaced it is tested against an independent path:

- ``solve_exhaustive``: the numpy bitmask scan that once answered
  ``method="exhaustive"`` flat norms; both methods now run the
  branch-and-bound, and ``scanning``/``scanned`` send the product's
  search problems to the scan instead.
- ``whole_grid``: the flat norms' former search space, every cell of
  the declared grid; they now work in the input's lattice box, and
  ``scanned`` scans the whole grid again.
- ``solve_bnb``: the branch-and-bound's former node loop, one
  ``weighted_popcount`` generator per child; the product's loop now
  precomputes each depth's effect, cost, bit and nonzero weight masks.
- ``sqrt_enclosure``: the rational enclosure of sqrt(value) behind the
  old enclosure ladder of the deformation's mass ratios.
- ``fraction_track_chain``: the deformation's chain R of homogeneous
  tracks, built on Fraction keys; the deformation now assembles R, dR and
  M(R) on the integer points themselves.
- ``fraction_overlay_leftover`` and ``fraction_plane_key``: the overlay
  as it took Fraction points, converting each to integers inside the
  line toggles, building the leftover points from each line's Fraction
  anchor and keying planes by a Fraction offset; the overlay cores now
  take homogeneous integer points throughout.
- ``simplex_measure_reference``: a simplex's exact measure as one
  ``RadicalSum.sqrt`` of its Gram over (k!)^2, the path every mass took
  before ``geom.gram_mass`` summed sqrt(G) / (D^k k!) in integers.
- ``operator_norm_enclosure``: a certified enclosure of a rational
  matrix's spectral norm, by bisection on an exact PSD test; nothing in
  the product asks for it, and the acceptance tests check declared
  Lipschitz constants with it.
- ``point_simplex_dist_sq``: the squared distance from a Fraction point
  to a point, segment or triangle, by the foot of the perpendicular and
  its barycentric coordinates; the deformation now measures clearances
  and support distances with ``geom.homogeneous_dist_sq`` on integer
  points.  Its tetrahedron branch was dropped with it: nothing measures a
  distance to a tetrahedron.
- ``wedge_project_cell_pieces``: the deformation's former projection,
  which split every piece along all the wedge planes through the centre
  and the cell's edges and sent each sub-piece to the facet its
  centroid's ray meets first; the product now clips each piece to the
  facet cones.  It builds the planes it was once passed from
  ``wedge_edges`` and ``plane_through`` (formerly ``geom.Plane.through``),
  and ``wedge_split`` sends the product's projections to it.
"""

import contextlib
from fractions import Fraction
from math import gcd, lcm
from typing import Optional
from unittest import mock

from filmlab import deformation, flatnorm
from filmlab.exact import DEFAULT_BITS, Matrix, RadicalSum, _sqrt_bounds, is_psd
from filmlab.geom import (
    Plane,
    _normal,
    affine_pieces,
    homogeneous,
    primitive_direction,
    reduced,
    simplex_measure_sq,
    split_homogeneous,
    vcross,
    vdot,
    vnorm_sq,
    vscale,
    vsub,
)
from filmlab.simplicial import SimplicialChain

_MASK64 = (1 << 64) - 1
_CHUNK_BITS = 20  # the exhaustive scan tabulates 2^20 low-variable choices per block


def _lanes_of(value: int, lanes: int) -> list[int]:
    return [(value >> (64 * i)) & _MASK64 for i in range(lanes)]


def solve_exhaustive(problem) -> tuple[int, int, str]:
    # numpy costs about 0.1 s to import; only this solver needs it
    import numpy as np

    n = len(problem.effects)
    relevant = [problem.base, *problem.effects] + [m for _, m in problem.weight_masks]
    maxbit = max((v.bit_length() for v in relevant), default=0)
    lanes = max(1, (maxbit + 63) // 64)

    low = min(n, _CHUNK_BITS)
    table = np.zeros((1 << low, lanes), dtype=np.uint64)
    owns = np.zeros(1 << low, dtype=np.int64)
    table[0] = np.array(_lanes_of(problem.base, lanes), dtype=np.uint64)
    for i in range(low):
        sz = 1 << i
        table[sz : 2 * sz] = table[:sz] ^ np.array(
            _lanes_of(problem.effects[i], lanes), dtype=np.uint64
        )
        owns[sz : 2 * sz] = owns[:sz] + problem.own[i]
    lane_masks = [
        (w, np.array(_lanes_of(m, lanes), dtype=np.uint64)) for w, m in problem.weight_masks
    ]

    # per-block buffers, allocated once and written in place
    block = np.empty_like(table)
    masked = np.empty_like(table)
    counts = np.empty(table.shape, dtype=np.uint8)
    weighted = np.empty(1 << low, dtype=np.int64)
    score = np.empty(1 << low, dtype=np.int64)
    best_score = None
    best_mask = 0
    for high in range(1 << (n - low)):
        hx = 0
        ho = 0
        for i in range(n - low):
            if (high >> i) & 1:
                hx ^= problem.effects[low + i]
                ho += problem.own[low + i]
        np.bitwise_xor(table, np.array(_lanes_of(hx, lanes), dtype=np.uint64), out=block)
        np.add(owns, np.int64(ho), out=score)
        for w, marr in lane_masks:
            np.bitwise_and(block, marr, out=masked)
            np.bitwise_count(masked, out=counts)
            counts.sum(axis=1, dtype=np.int64, out=weighted)
            weighted *= w
            score += weighted
        idx = int(np.argmin(score))
        s = int(score[idx])
        # within a block, argmin's first hit is the smallest variable mask
        if best_score is None or s < best_score:
            best_score = s
            best_mask = (high << low) | idx
    return best_mask, best_score, "exact"


def weighted_popcount(x: int, weight_masks) -> int:
    return sum(w * (x & m).bit_count() for w, m in weight_masks)


def solve_bnb(problem, node_budget: Optional[int]) -> tuple[int, int, str]:
    """(mask, score, status) of the least score, by depth-first branch-and-bound.

    A state bit's weight counts once no later variable can flip it, so
    each node's bound never passes its leaves' scores.  The answer is
    "exact" unless more than ``node_budget`` nodes are needed (None: no
    budget); then it is the best leaf found, or the empty choice, as an
    "upper-bound".
    """
    n = len(problem.effects)
    order = problem.branch_order
    effects = [problem.effects[i] for i in order]
    own = [problem.own[i] for i in order]
    universe = 0
    for _, m in problem.weight_masks:
        universe |= m
    last_touch: dict[int, int] = {}
    for i, eff in enumerate(effects):
        rem = eff & universe
        while rem:
            b = rem & -rem
            last_touch[b.bit_length() - 1] = i
            rem ^= b
    decided_after = [0] * n
    root_decided = 0
    rem = universe
    while rem:
        b = rem & -rem
        bit = b.bit_length() - 1
        if bit in last_touch:
            decided_after[last_touch[bit]] |= b
        else:
            root_decided |= b
        rem ^= b
    def sectioned(m):
        return [(w, wm & m) for w, wm in problem.weight_masks]

    decided_masks = [sectioned(m) for m in decided_after]

    best_score = None
    best_mask = 0
    nodes = 0
    exhausted = False
    root_lb = weighted_popcount(problem.base, sectioned(root_decided))
    stack = [(0, problem.base, root_lb, 0)]
    while stack:
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            exhausted = True
            break
        depth, state, lb, mask = stack.pop()
        if best_score is not None and lb > best_score:
            continue
        if depth == n:
            if best_score is None or lb < best_score or (lb == best_score and mask < best_mask):
                best_score = lb
                best_mask = mask
            continue
        for bit in (1, 0):  # LIFO: the 0 branch is explored first
            state2 = state ^ (effects[depth] if bit else 0)
            lb2 = lb + (own[depth] if bit else 0)
            lb2 += weighted_popcount(state2, decided_masks[depth])
            stack.append((depth + 1, state2, lb2, mask | (bit << order[depth])))
    if best_score is None:
        # budget too small to reach any leaf: fall back to the empty choice
        state = problem.base
        best_score = weighted_popcount(state, problem.weight_masks)
        best_mask = 0
        exhausted = True
    return best_mask, best_score, "upper-bound" if exhausted else "exact"


@contextlib.contextmanager
def scanning():
    """Send every flat-norm and energy-flat-norm search to the scan, any method, no limit."""
    with mock.patch.object(flatnorm, "_solve", lambda problem, method, config: solve_exhaustive(problem)):
        yield


@contextlib.contextmanager
def whole_grid():
    """Make every flat-norm path work on all cells of the input's grid, not its lattice box."""
    with mock.patch.object(flatnorm, "lattice_box", lambda *chains: ((0, 0, 0), chains[0].grid.dims)):
        yield


def scanned(P):
    """P's flat norm by the scan over every subset of its grid's (k+1)-cells, without the root."""
    with scanning(), whole_grid():
        return flatnorm._searched(P, "exhaustive", flatnorm.DEFAULT_CONFIG)


def sqrt_enclosure(value: Fraction, bits: int = DEFAULT_BITS) -> tuple[Fraction, Fraction]:
    """Certified enclosure of sqrt(value) for a nonnegative rational."""
    value = Fraction(value)
    if value < 0:
        raise ValueError("negative radicand")
    if value == 0:
        return Fraction(0), Fraction(0)
    # sqrt(p/q) = sqrt(p*q)/q
    pq = value.numerator * value.denominator
    lo, hi = _sqrt_bounds(pq, bits)
    return lo / value.denominator, hi / value.denominator


def fraction_track_chain(k: int, tracks: list) -> tuple[SimplicialChain, dict]:
    """simplicial_chain(k, tracks) of homogeneous tracks, and the Gram of
    each simplex in it.

    Each distinct point becomes a Fraction once.  The degeneracy test and
    the Gram come from the integer simplex, and the canonical Fraction
    tuples are toggled in track order as simplicial_chain toggles them, so
    the chain is the one built from Fraction tracks.
    """
    acc: set = set()
    grams = {}
    for t, s in zip(tracks, affine_pieces(tracks, {})):
        g = simplex_measure_sq(s)
        if g != 0:
            s = tuple(sorted(s))
            grams[s] = g
            acc ^= {s}
    return SimplicialChain(k, frozenset(acc)), grams


def line_key(p, q):
    """(primitive direction, foot of the origin's perpendicular) of the
    line through distinct Fraction points p, q."""
    d = primitive_direction(vsub(q, p))
    df = (Fraction(d[0]), Fraction(d[1]), Fraction(d[2]))
    return d, vsub(p, vscale(vdot(p, df) / vdot(df, df), df))


def _fraction_line_toggles(segments) -> dict:
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


def fraction_overlay_leftover(segments) -> list:
    """Odd-covered sub-segments of Fraction segments, line by line in the
    order of line_key, each line's runs in parameter order."""
    live = []
    for (p, q), toggles in _fraction_line_toggles(segments).values():
        odd = sorted(Fraction(t, w) for (t, w), flip in toggles.items() if flip)
        if odd:
            live.append((line_key(p, q), odd))
    out = []
    for (d, anchor), odd in sorted(live):
        df = (Fraction(d[0]), Fraction(d[1]), Fraction(d[2]))
        dd = vdot(df, df)

        def at(t):
            return vadd(anchor, vscale(t / dd, df))

        for i in range(0, len(odd), 2):
            out.append((at(odd[i]), at(odd[i + 1])))
    return out


def fraction_plane_key(a, b, c):
    """(primitive normal, Fraction offset) of the plane through a, b, c."""
    A, B, C = homogeneous(a), homogeneous(b), homogeneous(c)
    n = _normal(A, B, C)
    if n == (0, 0, 0):
        raise ValueError("collinear points do not span a plane")
    g = gcd(*n)
    if n[0] < 0 or (n[0] == 0 and (n[1] < 0 or (n[1] == 0 and n[2] < 0))):
        g = -g
    dn = (n[0] // g, n[1] // g, n[2] // g)
    return dn, Fraction(dn[0] * A[0] + dn[1] * A[1] + dn[2] * A[2], A[3])


def simplex_measure_reference(simplex) -> RadicalSum:
    """sqrt(Gram / (k!)^2) of a Fraction simplex, built at once."""
    k = len(simplex) - 1
    return RadicalSum.sqrt(simplex_measure_sq(simplex) / [1, 1, 2, 6][k] ** 2)


def vadd(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def point_segment_dist_sq(p, a, b) -> Fraction:
    ab = vsub(b, a)
    denom = vnorm_sq(ab)
    if denom == 0:
        return vnorm_sq(vsub(p, a))
    t = vdot(vsub(p, a), ab) / denom
    t = min(max(t, Fraction(0)), Fraction(1))
    closest = vadd(a, vscale(t, ab))
    return vnorm_sq(vsub(p, closest))


def point_triangle_dist_sq(p, a, b, c) -> Fraction:
    n = vcross(vsub(b, a), vsub(c, a))
    nn = vnorm_sq(n)
    if nn == 0:
        return min(
            point_segment_dist_sq(p, a, b),
            point_segment_dist_sq(p, b, c),
            point_segment_dist_sq(p, a, c),
        )
    # Orthogonal projection of p onto the triangle plane, in barycentric form.
    ap = vsub(p, a)
    h = vdot(ap, n)
    foot = vsub(p, vscale(h / nn, n))
    # barycentric coordinates of foot with respect to (a, b, c)
    v0 = vsub(b, a)
    v1 = vsub(c, a)
    v2 = vsub(foot, a)
    d00 = vnorm_sq(v0)
    d01 = vdot(v0, v1)
    d11 = vnorm_sq(v1)
    d20 = vdot(v2, v0)
    d21 = vdot(v2, v1)
    denom = d00 * d11 - d01 * d01
    beta = (d11 * d20 - d01 * d21) / denom
    gamma = (d00 * d21 - d01 * d20) / denom
    if beta >= 0 and gamma >= 0 and beta + gamma <= 1:
        return h * h / nn
    return min(
        point_segment_dist_sq(p, a, b),
        point_segment_dist_sq(p, b, c),
        point_segment_dist_sq(p, a, c),
    )


def point_simplex_dist_sq(p, simplex) -> Fraction:
    """Squared distance from p to a point, segment or triangle of Fraction points."""
    k = len(simplex) - 1
    if k == 0:
        return vnorm_sq(vsub(p, simplex[0]))
    if k == 1:
        return point_segment_dist_sq(p, simplex[0], simplex[1])
    if k == 2:
        return point_triangle_dist_sq(p, simplex[0], simplex[1], simplex[2])
    raise ValueError("distances are to points, segments and triangles only")


def wedge_edges(grid, cell) -> list:
    """Homogeneous point pairs (p, q) that span a wedge plane together with
    the center.

    For a 3-cell these are the cell's boundary edges, axis by axis from the
    corners of its lower facet; for a 2-cell, each corner and that corner
    moved one unit along the face normal.
    """
    corners = {c: homogeneous(grid.world(c)) for c in cell.corners()}
    if cell.dim == 3:
        return [
            (corners[c], corners[c[:a] + (c[a] + 1,) + c[a + 1 :]])
            for a in (0, 1, 2)
            for c in corners
            if c[a] == cell.base[a]
        ]
    if cell.dim == 2:
        (n,) = (a for a in (0, 1, 2) if a not in cell.axes)
        return [(p, p[:n] + (p[n] + p[3],) + p[n + 1 :]) for p in corners.values()]
    raise ValueError("projection cells must have dimension 2 or 3")


def plane_through(c, p, q) -> Plane:
    """Plane through homogeneous points c, p, q, with normal (p - c) x (q - c)."""
    n = _normal(c, p, q)
    if n == (0, 0, 0):
        raise ValueError("degenerate plane directions")
    # <n, x> = <n, c> is <Cw n, x> = <n, C>
    return Plane([x * c[3] for x in n], n[0] * c[0] + n[1] * c[1] + n[2] * c[2])


def wedge_project_cell_pieces(grid, cell, center, pieces):
    """Wedge-split each piece and project it radially onto the cell boundary.

    The center, pieces and results are homogeneous (geom.HPoint and
    HSimplex); the wedge planes run through the center and wedge_edges.
    Returns, per input piece, a list of (sub-piece, image) pairs; images
    can be degenerate when a sub-piece lies in a plane through the center.
    A sub-piece goes to the facet that the ray from the center through its
    centroid meets first (on equal ray parameters, the first such axis),
    and each vertex v to c + t (v - c) on that facet.  With the center
    C / Cw, a vertex X / W, R = X Cw - C W (a positive multiple of v - c)
    and the facet at offset O / K from the center along axis a, the image
    is (C K R_a + O Cw R) / (Cw K R_a).
    """
    planes = [plane_through(center, p, q) for p, q in wedge_edges(grid, cell)]
    k, facets = deformation._facet_offsets(grid, cell, center)
    cx, cy, cz, cw = center
    out = []
    for s in pieces:
        pairs = []
        for sub in split_homogeneous([s], planes):
            # the centroid minus the center, times len(sub) * d * Cw > 0
            d = lcm(*(v[3] for v in sub))
            sx = sy = sz = 0
            for x, y, z, w in sub:
                f = d // w
                sx, sy, sz = sx + x * f, sy + y * f, sz + z * f
            nd = len(sub) * d
            ray = (sx * cw - cx * nd, sy * cw - cy * nd, sz * cw - cz * nd)
            a, off = deformation._exit_facet(ray, facets)
            image = []
            for x, y, z, w in sub:
                r = (x * cw - cx * w, y * cw - cy * w, z * cw - cz * w)
                if r[a] == 0:
                    raise ValueError("projection ray is undefined at the center")
                u, v = k * r[a], off * cw
                x, y, z = cx * u + v * r[0], cy * u + v * r[1], cz * u + v * r[2]
                image.append(reduced(x, y, z, cw * u))
            pairs.append((sub, tuple(image)))
        out.append(pairs)
    return out


@contextlib.contextmanager
def wedge_split():
    """Send every projection of the deformation to the wedge-split reference."""
    with mock.patch.object(deformation, "_project_cell_pieces", wedge_project_cell_pieces):
        yield


def mat_transpose(m: Matrix) -> list[list[Fraction]]:
    return [list(row) for row in zip(*m)]


def mat_mul(a: Matrix, b: Matrix) -> list[list[Fraction]]:
    bt = mat_transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def operator_norm_enclosure(matrix: Matrix, bits: int = DEFAULT_BITS) -> tuple[Fraction, Fraction]:
    """Certified enclosure of the spectral norm of a rational matrix.

    Bisects on t in [0, sqrt(trace(M^T M))] using the exact predicate
    "t^2 I - M^T M is PSD".
    """
    mt = mat_transpose(matrix)
    g = mat_mul(mt, matrix)
    n = len(g)
    trace = sum(g[i][i] for i in range(n))
    if trace == 0:
        return Fraction(0), Fraction(0)

    def norm_le(t: Fraction) -> bool:
        t2 = t * t
        shifted = [[t2 - g[i][j] if i == j else -g[i][j] for j in range(n)] for i in range(n)]
        return is_psd(shifted)

    lo = Fraction(0)
    hi = Fraction(1)
    while not norm_le(hi):
        hi *= 2
    target = Fraction(1, 1 << bits)
    while hi - lo > target:
        mid = (lo + hi) / 2
        if norm_le(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi
