"""Pair operations and the spanning test.

The pair algebra (Dipolyhedron, energy, weight, boundary_dip and the
representation-generic chain helpers) lives in filmlab.pairs, which
loads only the grid representation.  Cone,
pushforward, clamp and restriction act on pairs componentwise.

Spanning means "the mass part is invisible".  A pair with boundary(C) =
0 and boundary(B) + C = gamma spans gamma when, along every admissible
projection direction d (one along which gamma projects to a simple
closed plane curve), the mod-2 projection of C onto the plane orthogonal
to d is the zero chain.  This is the shadow rule restated.  The film
spans when its projection, with mod-2 multiplicity, equals the region
bounded by proj_d(gamma).  The coverage parity of that projection plus
the region is piecewise constant, vanishes far away, and jumps only
across projected face borders and proj_d(gamma), so it is zero almost
everywhere iff those segments cancel in the interval-parity overlay.
That overlay is additive mod 2.  The face borders of B sum to
boundary(B), since an edge shared by two faces appears twice, and
boundary(B) + gamma = C.  So the jump set is proj_d(C), and d matches
iff overlay_leftover(proj_d C) is empty (overlay.overlay_vanishes asks
exactly that without building the leftover); C = 0 matches every
admissible direction outright.  Edges parallel to d project to points
and drop out, so no direction needs special casing.

Every projection is taken in an integer frame.  With (u*, v*) the duals
of the plane basis and D_u, D_v the least common denominators of their
entries, the frame (U, V) = (D_u u*, D_v v*) sends a point x to (x.U,
x.V).  A grid chain's points are its lattice indices n, so the frame
never leaves the integers; a simplicial chain's are its world points.
Either way the frame point differs from the world projection (s, t) by
an affine bijection with positive scales: a world point o + eps n (eps =
1, o = 0 for simplicial chains) lands at (s, t) = (o.u* + eps n.u*, o.v*
+ eps n.v*), and its frame point is ((s - o.u*) D_u / eps, (t - o.v*)
D_v / eps).  Such a map keeps lines and the order of points along them,
so an edge is parallel to d iff its ends land on one point, and
closedness, connectivity, simplicity, the lexicographic order of
vertices and the emptiness of an overlay leftover are the same in both
coordinates.  Areas scale by eps^2 / (D_u D_v), so the region enclosed
by the projected curve has area |u||v| eps^2 / (D_u D_v) times half the
absolute shoelace sum of its frame cycle.
"""
from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Optional, Sequence

from .exact import RadicalSum
from .geom import (
    Point,
    Point2,
    as_point,
    closed_cycle,
    polygon_is_simple,
    primitive_direction,
    shoelace_twice,
    sup_norm,
    vcross,
    vdot,
    vnorm_sq,
    vsub,
)
from .grid import BoxRegion, cell_in_bounds, edge_ends, lattice_bounds, restrict_grid
from .overlay import chains_equal_mod2, overlay_vanishes
from .pairs import (
    Chain,
    Dipolyhedron,
    boundary_dip,
    chain_boundary,
    chain_is_zero,
    chain_mass,
    energy,
    is_grid_chain,
)
from .records import Record
from .simplicial import (
    PLMap,
    SimplicialChain,
    clamp_to_cube,
    cone,
    embed_grid_chain,
    pushforward,
    restrict_simplicial,
)

# ---------------------------------------------------------------------------
# equality and support

def dip_equal(A: Dipolyhedron, other: Dipolyhedron) -> bool:
    """Componentwise mod-2 equality (geometric for simplicial reps)."""
    if A.rep != other.rep or A.k != other.k:
        return False
    if A.rep == "grid":
        return A.B.cells == other.B.cells and A.C.cells == other.C.cells
    return chains_equal_mod2(A.B, other.B).equal and chains_equal_mod2(A.C, other.C).equal


def support_points(A: Dipolyhedron) -> list[Point]:
    """Every vertex (simplicial) or cell corner (grid) in the support."""
    pts = set()
    if A.rep == "grid":
        for cell in A.B.cells | A.C.cells:
            for corner in cell.corners():
                pts.add(A.B.grid.world(corner))
    else:
        for simplex in A.B.simplices | A.C.simplices:
            pts.update(simplex)
    return sorted(pts)


def support_in_cube(A: Dipolyhedron, center: Sequence, r) -> bool:
    """Support inside the axis cube of side r centered at the given point.

    A grid pair is inside iff every cell lies in the cube's lattice box,
    which decides the corner test without building world points.
    """
    c = as_point(center)
    half = Fraction(r) / 2
    if A.rep == "grid":
        lo, hi = lattice_bounds(A.B.grid, [x - half for x in c], [x + half for x in c])
        return all(cell_in_bounds(cell, lo, hi) for chain in (A.B, A.C) for cell in chain.cells)
    return all(sup_norm(vsub(p, c)) <= half for p in support_points(A))


# ---------------------------------------------------------------------------
# cone, pushforward, clamp, restriction

def to_simplicial(A: Dipolyhedron) -> Dipolyhedron:
    if A.rep == "simplicial":
        return A
    return Dipolyhedron(embed_grid_chain(A.B), embed_grid_chain(A.C))


def cone_dip(apex: Sequence, A: Dipolyhedron) -> Dipolyhedron:
    """Componentwise cone; grid pairs are embedded first."""
    S = to_simplicial(A)
    return Dipolyhedron(cone(apex, S.B), cone(apex, S.C))


def cone_identity_holds(apex: Sequence, A: Dipolyhedron) -> bool:
    """A = boundary(cone(A)) + cone(boundary(A)), checked mod 2."""
    if not 1 <= A.k <= 2:
        raise ValueError("cone identity check needs film dimension 1 or 2")
    S = to_simplicial(A)
    recomposed = boundary_dip(cone_dip(apex, S)) + cone_dip(apex, boundary_dip(S))
    return dip_equal(recomposed, S)


class ConeBound(Record):
    """Cone energy against the cube bound factor r*sqrt(3)/(k+1)."""

    __slots__ = _fields = ("lhs", "rhs", "factor", "holds")


def cone_energy_bound(apex: Sequence, A: Dipolyhedron, r) -> ConeBound:
    """E(cone) <= (r sqrt3 / (k+1)) E(A) when support(A) fits in Q(apex, r)."""
    if not support_in_cube(A, apex, r):
        raise ValueError("support must lie in the cube Q(apex, r)")
    S = to_simplicial(A)
    factor = RadicalSum.sqrt(3) * Fraction(Fraction(r), A.k + 1)
    lhs = energy(cone_dip(apex, S)).energy
    rhs = factor * energy(S).energy
    return ConeBound(lhs, rhs, factor, lhs <= rhs)


def pushforward_dip(f: PLMap, A: Dipolyhedron) -> Dipolyhedron:
    """Componentwise pushforward; grid pairs are embedded first."""
    S = to_simplicial(A)
    return Dipolyhedron(pushforward(f, S.B), pushforward(f, S.C))


def clamp_dip(r, A: Dipolyhedron) -> Dipolyhedron:
    """Componentwise clamp onto the cube of radius r about the origin, by
    the nearest-point retraction (each coordinate clamped into [-r, r]).
    It is 1-Lipschitz and a chain map, so the image is a pair again and
    weight and energy never increase."""
    S = to_simplicial(A)
    return Dipolyhedron(clamp_to_cube(S.B, r), clamp_to_cube(S.C, r))


class MeasureReport(Record):
    """Split of energy carried by a box: nu = omega (film) + mu (mass)."""

    __slots__ = _fields = ("box", "omega", "mu", "nu")

    def __init__(self, box, omega, mu, nu):
        if nu != omega + mu:
            raise ValueError("nu must equal omega + mu")
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)


def restrict_dip(A: Dipolyhedron, box) -> tuple[Dipolyhedron, MeasureReport]:
    """Part of the pair inside a box, with its measure report.

    Grid pairs take a BoxRegion; simplicial pairs take world corners
    (lo, hi).  The outside part is A + inside, and energy is additive
    across the split.
    """
    if A.rep == "grid":
        if not isinstance(box, BoxRegion):
            raise ValueError("grid restriction needs a BoxRegion")
        b_in, _ = restrict_grid(A.B, box)
        c_in, _ = restrict_grid(A.C, box)
    else:
        lo, hi = box
        b_in, _ = restrict_simplicial(A.B, lo, hi)
        c_in, _ = restrict_simplicial(A.C, lo, hi)
    inside = Dipolyhedron(b_in, c_in)
    omega = chain_mass(b_in)
    mu = chain_mass(c_in)
    return inside, MeasureReport(box, omega, mu, omega + mu)


# ---------------------------------------------------------------------------
# projections

_AXIS_NAMES = "xyz"


class ProjectionDir(Record):
    """Orthogonal projection along `direction` onto its orthogonal plane.

    Plane points are reported in rational coordinates (s, t) over an
    orthogonal rational basis (u, v) of the plane; only areas pick up
    the irrational scale |u||v|.  The basis, its squared norms and its
    duals are built on first use and kept.  The spanning check projects
    through the integer frame built from the duals (see the module
    docstring); project2 gives the world coordinates (s, t).
    """

    # the __dict__ holds the cached frames
    __slots__ = ("direction", "__dict__")
    _fields = ("direction",)

    def __init__(self, direction: Point):
        if all(x == 0 for x in direction):
            raise ValueError("projection direction must be nonzero")
        object.__setattr__(self, "direction", direction)

    @staticmethod
    def along_axis(axis: int) -> "ProjectionDir":
        d = [Fraction(0)] * 3
        d[axis] = Fraction(1)
        return ProjectionDir(as_point(d))

    @staticmethod
    def from_direction(v: Sequence) -> "ProjectionDir":
        return ProjectionDir(as_point(v))

    @property
    def axis(self) -> Optional[int]:
        live = [i for i in range(3) if self.direction[i] != 0]
        return live[0] if len(live) == 1 else None

    @cached_property
    def _frame(self):
        """Basis (u, v), its squared norms, and the duals u/|u|^2, v/|v|^2."""
        if self.axis is not None:
            j, l = [i for i in range(3) if i != self.axis]
            u = [Fraction(0)] * 3
            v = [Fraction(0)] * 3
            u[j] = Fraction(1)
            v[l] = Fraction(1)
            u, v = as_point(u), as_point(v)
        else:
            d = self.direction
            if d[0] == 0 and d[1] == 0:
                u = as_point((1, 0, 0))
            else:
                u = as_point((-d[1], d[0], 0))
            v = vcross(d, u)
        uu, vv = vnorm_sq(u), vnorm_sq(v)
        duals = (tuple(c / uu for c in u), tuple(c / vv for c in v))
        return (u, v), (uu, vv), duals

    @cached_property
    def _integer_frame(self) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """The integer frame (U, V) = (D_u u*, D_v v*), and D_u D_v.

        D_u and D_v clear the denominators of the duals u*, v*, so a
        lattice point n projects to the integer pair (n.U, n.V); see the
        module docstring for why every projection may be taken there.
        """
        out = []
        dens = 1
        for dual in self._frame[2]:
            den = lcm(*(c.denominator for c in dual))
            out.append(tuple(c.numerator * (den // c.denominator) for c in dual))
            dens *= den
        return out[0], out[1], dens

    def project2(self, p: Sequence) -> Point2:
        q = as_point(p)
        du, dv = self._frame[2]
        return (vdot(q, du), vdot(q, dv))

    def area_scale(self) -> RadicalSum:
        """True plane area per unit of (s, t) coordinate area."""
        uu, vv = self._frame[1]
        return RadicalSum.sqrt(uu * vv)

    def label(self) -> str:
        if self.axis is not None:
            return _AXIS_NAMES[self.axis]
        return "dir(" + ",".join(str(x) for x in self.direction) + ")"


# Distinct directions (up to sign) the generator below can draw: u and v
# range over the 71 values p/q with |p| <= 7 and 1 <= q <= 7.
_DIRECTION_POOL = 4882


def default_directions(seed: int = 0, extra: int = 10) -> list[ProjectionDir]:
    """The three axes plus seeded rational unit directions off the sphere."""
    if not 0 <= extra <= _DIRECTION_POOL:
        raise ValueError(f"extra directions must lie in 0..{_DIRECTION_POOL}, got {extra}")
    dirs = [ProjectionDir.along_axis(i) for i in range(3)]
    rng = random.Random(f"filmlab-span:{seed}")
    seen = set()
    while len(dirs) < 3 + extra:
        u = Fraction(rng.randint(-7, 7), rng.randint(1, 7))
        v = Fraction(rng.randint(-7, 7), rng.randint(1, 7))
        if u == 0 and v == 0:
            continue
        w = 1 + u * u + v * v
        d = (2 * u / w, 2 * v / w, (1 - u * u - v * v) / w)
        key = primitive_direction(as_point(d))
        if key in seen:
            continue
        seen.add(key)
        dirs.append(ProjectionDir.from_direction(d))
    return dirs


# ---------------------------------------------------------------------------
# spanning

def _edge_points(chain: Chain) -> list[tuple[Point, Point]]:
    """End points of the edges of a 1-chain, as the integer frame reads them:
    lattice indices for a grid chain, world points for a simplicial one."""
    if is_grid_chain(chain):
        return [edge_ends(cell) for cell in chain.cells]
    return [(s[0], s[1]) for s in chain.simplices]


def _project(ends, U, V) -> list[tuple[Point2, Point2]]:
    """Each edge's end points x mapped to (x.U, x.V)."""
    (u0, u1, u2), (v0, v1, v2) = U, V
    return [
        ((p0 * u0 + p1 * u1 + p2 * u2, p0 * v0 + p1 * v1 + p2 * v2),
         (q0 * u0 + q1 * u1 + q2 * u2, q0 * v0 + q1 * v1 + q2 * v2))
        for (p0, p1, p2), (q0, q1, q2) in ends
    ]


_CYCLE_FAILURES = {
    "degree": "projected curve is not a single closed curve",
    "connectivity": "projected curve is not connected",
}


def _admissibility(ends, U, V):
    """(ok, reason, cycle): do the edges project to a simple closed curve?

    `ends` are a curve's _edge_points and (U, V) an integer frame.  No
    edge may be parallel to the direction (project to a point); the
    projected edges must order into one closed vertex cycle
    (geom.closed_cycle), which is returned, and that polygon must be
    simple (geom.polygon_is_simple).
    """
    if not ends:
        return False, "empty curve", []
    segs2 = _project(ends, U, V)
    if any(p == q for p, q in segs2):
        return False, "curve segment parallel to projection direction", []
    cycle, failure = closed_cycle(segs2)
    if failure is not None:
        return False, _CYCLE_FAILURES[failure], []
    if not polygon_is_simple(cycle):
        return False, "projected curve self-intersects", []
    return True, "ok", cycle


class DirectionReport(Record):
    __slots__ = _fields = ("direction", "admissible", "reason", "matches", "region_area")


class SpanningReport(Record):
    __slots__ = _fields = ("boundary_ok", "verdict", "directions", "max_region_area")

    @property
    def spans(self) -> bool:
        return self.verdict == "spans"

    def __bool__(self) -> bool:
        return self.spans


class SpanningContext:
    """What a spanning check needs of the curve alone, computed once.

    For every direction: the projection (with its cached plane basis),
    its integer frame, whether the curve is admissible along it and why
    not, and the area of the region its projection encloses.  check(A)
    then only projects the mass part of A.  A context is built once per
    curve (a plateau problem keeps one) and holds no state beyond these
    per-curve facts.

    A grid curve's context checks simplicial pairs too: their world points
    project in the same frame, and the embedded curve, built on first use,
    serves the boundary precondition.
    """

    def __init__(self, gamma: Chain, dirs: Optional[Sequence[ProjectionDir]] = None):
        if dirs is None:
            dirs = default_directions()
        self.gamma = gamma
        ends = _edge_points(gamma)
        # frame areas are (D_u D_v / pitch^2) times world areas
        pitch = gamma.grid.epsilon if is_grid_chain(gamma) else Fraction(1)
        facts = []
        max_area = None
        for proj in dirs:
            U, V, dens = proj._integer_frame
            ok, reason, cycle = _admissibility(ends, U, V)
            area = None
            if ok:
                area = proj.area_scale() * (pitch * pitch / dens * abs(shoelace_twice(cycle)) / 2)
                if max_area is None or area > max_area:
                    max_area = area
            facts.append((proj, ok, reason, area, (U, V)))
        self.directions = tuple(facts)
        self.max_region_area = max_area

    @cached_property
    def embedded_gamma(self) -> SimplicialChain:
        """The curve as a simplicial chain."""
        return embed_grid_chain(self.gamma) if is_grid_chain(self.gamma) else self.gamma

    def check(self, A: Dipolyhedron) -> SpanningReport:
        """Does the pair span the context's curve?

        Preconditions checked first: boundary(C) = 0 and boundary(B) + C =
        gamma.  Then the mass part C must project to the zero chain, as
        decided by the interval-parity overlay, along every admissible
        direction (see the module docstring for why this is the shadow
        rule).  Verdicts: "spans", "fails", "vacuous" (no admissible
        direction, inconclusive), "boundary-mismatch".
        """
        if A.k != 2:
            raise ValueError("spanning is defined for films of dimension 2")
        gamma = self.gamma
        if A.rep == "simplicial":
            gamma = self.embedded_gamma
        elif not is_grid_chain(gamma):
            raise ValueError("a grid pair needs a grid curve")

        residual = chain_boundary(A.B) + A.C + gamma
        boundary_ok = chain_is_zero(chain_boundary(A.C)) and chain_is_zero(residual)
        if not boundary_ok:
            return SpanningReport(False, "boundary-mismatch", (), None)

        ends = _edge_points(A.C)
        reports = []
        all_match = True
        for proj, ok, reason, area, (U, V) in self.directions:
            if not ok:
                reports.append(DirectionReport(proj, False, reason, None, None))
                continue
            matches = overlay_vanishes(
                [((s, t, 0), (x, y, 0)) for (s, t), (x, y) in _project(ends, U, V)]
            )
            all_match = all_match and matches
            reports.append(DirectionReport(proj, True, "ok", matches, area))

        if self.max_region_area is None:
            verdict = "vacuous"
        elif all_match:
            verdict = "spans"
        else:
            verdict = "fails"
        return SpanningReport(True, verdict, tuple(reports), self.max_region_area)


def spanning_check(
    A: Dipolyhedron, gamma: Chain, dirs: Optional[Sequence[ProjectionDir]] = None
) -> SpanningReport:
    """Does the pair span the closed curve gamma?  See SpanningContext.check.

    Builds the per-curve context for this one call; callers that check
    many pairs against one curve build a SpanningContext and reuse it.
    """
    return SpanningContext(gamma, dirs).check(A)
