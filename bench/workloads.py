"""Seeded instances of the four benchmark workloads.

Each instance asks filmlab one question through one public call (or one
``filmlab`` subprocess).  The seed picks one of the 48 symmetries of the
cube, an axis permutation with reflections, and every seeded instance is
that symmetric image of a fixed base input.  Its exact answer therefore
does not depend on the seed, so one reference value gates every seed,
while the presentation the program receives, and with it the solvers'
search order, does.  Instances whose cost or returned bound swings with
the orientation keep one orientation (marked where they are built).

An instance splits its work in two: ``call`` is the timed question, and
``summarize`` replays the answer afterwards with checks that do not
share the solver's code path (certificate replay, membership on a fresh
problem, an independent mod-2 identity check).  Timed calls look the
function up on the ``filmlab`` package when called, so the tracer's
wrappers see them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import filmlab
from filmlab import (
    DeformConfig,
    Dipolyhedron,
    GridCell,
    GridSpec,
    SolverConfig,
    boundary_dip,
    boundary_grid,
    boundary_simplicial,
    chain_of,
    chains_equal_mod2,
    diagnostics,
    embed_grid_chain,
    energy,
    gamma_membership,
    mass_grid,
    plateau_problem,
    simplicial_chain,
    verify_certificate,
)
from filmlab import io_formats as iof
from filmlab.flatnorm import EnergyFlatCertificate, FlatNormCertificate

WORKLOADS = ("plateau", "deform", "flatnorm", "cli")

SYMMETRIES = tuple(
    itertools.product(itertools.permutations(range(3)), itertools.product((1, -1), repeat=3))
)

CLI_TIMEOUT_S = 120


def variant(seed: int) -> int:
    return seed % len(SYMMETRIES)


def symmetry(seed: int):
    return SYMMETRIES[variant(seed)]


# ---------------------------------------------------------------------------
# seeded inputs


def centred_grid(dims) -> GridSpec:
    """Unit grid whose box is centred on the world origin."""
    origin = tuple(-Fraction(d, 2) for d in dims)
    return GridSpec(epsilon=Fraction(1), origin=origin, dims=tuple(dims))


def image_chain(chain, sym):
    """Image of a grid chain under a symmetry of its grid box.

    A permutation that would change the box shape is dropped and only
    the reflections apply, so the image always lives on the same grid.
    """
    perm, signs = sym
    d = chain.grid.dims
    if any(d[perm[i]] != d[i] for i in range(3)):
        perm = (0, 1, 2)
    cells = []
    for cell in chain.cells:
        corners = [
            tuple((signs[i] * (2 * q[perm[i]] - d[i]) + d[i]) // 2 for i in range(3))
            for q in cell.corners()
        ]
        lo = tuple(min(c[i] for c in corners) for i in range(3))
        axes = tuple(i for i in range(3) if any(c[i] != lo[i] for c in corners))
        cells.append(GridCell(lo, axes))
    return chain_of(chain.grid, chain.k, cells)


def image_point(p, sym):
    perm, signs = sym
    return tuple(signs[i] * p[perm[i]] for i in range(3))


def random_chain(grid, k, label, density):
    rng = random.Random(f"filmlab-bench:{label}")
    return chain_of(grid, k, [c for c in grid.cells(k) if rng.random() < density])


def polygon_curve(points, dims):
    """Grid 1-chain of a closed lattice polygon of unit axis steps."""
    grid = centred_grid((dims, dims, dims))
    cells = []
    for a, b in zip(points, points[1:] + points[:1]):
        step = [y - x for x, y in zip(a, b)]
        (axis,) = [i for i in range(3) if step[i]]
        lo = a if step[axis] > 0 else b
        cells.append(GridCell(tuple(int(c - o) for c, o in zip(lo, grid.origin)), (axis,)))
    return chain_of(grid, 1, cells)


def refine_polygon(points, factor):
    out = []
    for a, b in zip(points, points[1:] + points[:1]):
        for t in range(factor):
            out.append(tuple(factor * (x + (y - x) * Fraction(t, factor)) for x, y in zip(a, b)))
    return out


_H = Fraction(1, 2)
# skew hexagon on the edges of the unit cube: bounds the three faces at a corner
HEX = [(_H, -_H, -_H), (_H, _H, -_H), (-_H, _H, -_H), (-_H, _H, _H), (-_H, -_H, _H), (_H, -_H, _H)]
# boundary of two unit faces folded along a shared edge through the origin, so
# that the cone from the origin is the fold itself and the cone start is cheap
FOLD = [(-_H, 0, 1), (-_H, 0, 0), (-_H, 1, 0), (_H, 1, 0), (_H, 0, 0), (_H, 0, 1)]
# smallest centred cubic grids that cover each curve's working cube
CURVE_DIMS = {"hex1": 3, "fold1": 2, "fold2": 4}


def curve(name, sym):
    points = {"hex1": HEX, "fold1": FOLD, "fold2": refine_polygon(FOLD, 2)}[name]
    return polygon_curve([image_point(p, sym) for p in points], CURVE_DIMS[name])


def square_curve(n):
    """Centred n x n square in the plane z = 0, on a grid covering its working cube.

    The default budget is twice the cone energy n^2, so the working cube
    has side 3n/2; the parities keep the square's edges and z = 0 on the
    lattice of a centred grid.
    """
    side = -(-3 * n // 2)
    d = side + (side - n) % 2
    dz = side + side % 2
    grid = centred_grid((d, d, dz))
    lo, hi, z = (d - n) // 2, (d + n) // 2, dz // 2
    cells = []
    for i in range(lo, hi):
        cells += [
            GridCell((i, lo, z), (0,)),
            GridCell((i, hi, z), (0,)),
            GridCell((lo, i, z), (1,)),
            GridCell((hi, i, z), (1,)),
        ]
    return chain_of(grid, 1, cells)


def block_boundary(grid_dims, side, k):
    """Boundary of a side^(k+1) block at the grid's corner (k = 2: cube, k = 1: square)."""
    grid = GridSpec(epsilon=Fraction(1), origin=(Fraction(0),) * 3, dims=(grid_dims,) * 3)
    axes = tuple(range(k + 1))
    ranges = [range(side) if a in axes else range(1) for a in range(3)]
    block = chain_of(grid, k + 1, [GridCell(b, axes) for b in itertools.product(*ranges)])
    return boundary_grid(block)


def auto_grid(chain, eps):
    """Grid of pitch eps around a simplicial chain, one cell of margin."""
    los = [min(v[a] for s in chain.simplices for v in s) for a in range(3)]
    his = [max(v[a] for s in chain.simplices for v in s) for a in range(3)]
    base = [(lo / eps).__floor__() - 1 for lo in los]
    tops = [(hi / eps).__ceil__() + 1 for hi in his]
    dims = tuple(t - b for t, b in zip(tops, base))
    return GridSpec(origin=tuple(eps * b for b in base), epsilon=eps, dims=dims)


def fixture_path(root, name):
    return os.path.join(root, "fixtures", name)


def fixture(root, name):
    return iof.parse_input(iof.load_document(fixture_path(root, name)))


def seeded_triangle(sym):
    rng = random.Random("filmlab-bench:seedtri")
    points = [tuple(Fraction(rng.randint(-2, 2), 4) for _ in range(3)) for _ in range(3)]
    return simplicial_chain(2, [[image_point(p, sym) for p in points]])


# ---------------------------------------------------------------------------
# instances


@dataclass
class Summary:
    """What the replay gate concluded about one answer."""

    problems: list
    exact: bool
    value: Optional[Fraction] = None  # returned bound, counted in bound_sum
    report: str = ""  # byte-deterministic report, hashed for drift
    counts: dict = field(default_factory=dict)  # per-layer counts (nodes, output sizes)


@dataclass
class Instance:
    name: str
    call: Callable[[], object]
    summarize: Callable[[object], Summary]
    fingerprint: Callable[[object], object]  # cheap; must repeat across passes
    seeded: bool
    layer: str = ""  # per-layer prefix for this instance's call, e.g. "flat_norm.bnb"
    # the bound a caller holds without an answer (a flat norm is at most the
    # input's mass); bound_sum counts it for a failed instance, so fixing a
    # crash never reads as a looser bound
    trivial: Optional[Fraction] = None


def digest(report: str) -> str:
    """Short SHA-256 of a report, as stored in reference.json."""
    return hashlib.sha256(report.encode()).hexdigest()[:16]


def _report(obj) -> str:
    return iof.dumps_json(iof.to_jsonable(obj))


def _gate_value(value, status, answer, problems):
    if answer is None:
        return
    if status == "exact" and value != answer:
        problems.append(f"exact value {value} differs from the reference {answer}")
    if value < answer:
        problems.append(f"value {value} is below the reference optimum {answer}")


def _flat_instance(name, original, method, config, answers, seeded):
    """flat_norm of a grid chain, or energy_flat_norm of a grid pair."""
    pair = isinstance(original, Dipolyhedron)
    solver = "energy_flat_norm" if pair else "flat_norm"
    answer = answers.get(name)

    def summarize(cert):
        problems = []
        if not verify_certificate(cert, original):
            problems.append("certificate does not replay against the input")
        _gate_value(cert.value, cert.status, answer, problems)
        return Summary(problems, cert.status == "exact", cert.value, _report(cert))

    return Instance(
        name,
        lambda: getattr(filmlab, solver)(original, method=method, config=config),
        summarize,
        lambda cert: cert,
        seeded,
        f"{solver}.{method}",
        energy(original).energy if pair else mass_grid(original),
    )


def _membership_problems(pair, gamma, what):
    membership = gamma_membership(pair, plateau_problem(gamma))
    if membership.member:
        return []
    return [f"{what} fails membership: " + "; ".join(membership.failures())]


def _plateau_instance(name, gamma, method, budget, answers, seeded):
    answer = answers.get(name)
    problem = filmlab.plateau_problem(gamma)

    def summarize(sol):
        problems = _membership_problems(sol.pair, gamma, "solution")
        if sol.weight != mass_grid(sol.pair.B):
            problems.append("reported weight is not the film mass")
        _gate_value(sol.weight, sol.optimality, answer, problems)
        return Summary(
            problems, sol.optimality == "exact", sol.weight, _report(sol), {"nodes": sol.nodes}
        )

    return Instance(
        name,
        lambda: filmlab.minimize_weight(problem, method=method, node_budget=budget),
        summarize,
        lambda s: (s.weight, s.optimality, s.nodes, s.pair),
        seeded,
        "minimize_weight",
    )


def _deform_instance(name, A, eps, centers, seeded):
    grid = auto_grid(A, eps)
    cfg = DeformConfig(epsilon=eps, candidate_centers=centers)

    def summarize(res):
        problems = []
        if not (res.identity.equal and res.identity.mode == "exact"):
            problems.append(f"identity A = P + Q + dR not certified ({res.identity.mode})")
        if not res.support.within_6eps:
            problems.append("support moved further than 6 eps")
        failed = sorted(k for k, ok in res.bounds_ok.items() if not ok)
        if failed:
            problems.append("mass bounds fail: " + ", ".join(failed))
        if eps == 1:
            rhs = embed_grid_chain(res.P) + res.Q + boundary_simplicial(res.R)
            if not chains_equal_mod2(A, rhs).equal:
                problems.append("independent replay of A = P + Q + dR fails")
        sizes = {
            "P_cells": len(res.P.cells),
            "Q_simplices": len(res.Q.simplices),
            "R_simplices": len(res.R.simplices),
        }
        # a seeded triangle's P varies with its orientation, so only fixed inputs count
        value = None if seeded else Fraction(len(res.P.cells))
        return Summary(problems, not problems, value, _report(res), sizes)

    return Instance(
        name,
        lambda: filmlab.deform_chain(A, grid, cfg),
        summarize,
        lambda r: (r.P.cells, len(r.Q.simplices), len(r.R.simplices)),
        seeded,
        "deform_chain",
    )


def _cone_instance(name, gamma, seeded):
    problem = filmlab.plateau_problem(gamma)

    def summarize(start):
        problems = _membership_problems(start.pair, gamma, "cone start")
        failed = sorted(k for k, ok in start.bounds_ok.items() if not ok)
        if failed:
            problems.append("cone energy bounds fail: " + ", ".join(failed))
        cells = Fraction(len(start.pair.B.cells))
        return Summary(problems, not problems, cells, _report(start))

    return Instance(
        name,
        lambda: filmlab.initial_cone_solution(problem),
        summarize,
        lambda s: s.pair.B.cells,
        seeded,
        "initial_cone_solution",
    )


def plateau_instances(seed, root, answers):
    sym = symmetry(seed)
    out = [
        _plateau_instance(f"sq{n}", square_curve(n), "exhaustive", None, answers, False)
        for n in (1, 2, 3)
    ]
    out.append(_plateau_instance("sq4", square_curve(4), "bnb", None, answers, False))
    out.append(_plateau_instance("hex1", curve("hex1", sym), "bnb", None, answers, True))
    out.append(_plateau_instance("fold1", curve("fold1", sym), "bnb", None, answers, True))
    # fold2 keeps one orientation: its search costs 4.7-8.7 s across the 48,
    # which would swamp pass_s
    identity = SYMMETRIES[0]
    out.append(_plateau_instance("fold2", curve("fold2", identity), "bnb", 2000, answers, False))
    return out


def deform_instances(seed, root, answers):
    sym = symmetry(seed)
    tri = fixture(root, "tilted_triangle.json")
    dtri = boundary_simplicial(tri)
    return [
        _deform_instance("tri_e1_c16", tri, Fraction(1), 16, False),
        _deform_instance("tri_e2_c4", tri, Fraction(1, 2), 4, False),
        _deform_instance("seedtri_e2_c4", seeded_triangle(sym), Fraction(1, 2), 4, True),
        _deform_instance("dtri_e2_c16", dtri, Fraction(1, 2), 16, False),
        _deform_instance("dtri_e4_c4", dtri, Fraction(1, 4), 4, False),
        # one orientation: the cone start's cost ranges 1.4-3.2 s across the 48
        _cone_instance("cone_hex1", curve("hex1", SYMMETRIES[0]), False),
    ]


def flatnorm_instances(seed, root, answers):
    sym = symmetry(seed)
    exh = SolverConfig()
    bnb = SolverConfig(node_budget=10**6)
    g1 = centred_grid((1, 1, 1))
    pair18 = Dipolyhedron(
        image_chain(random_chain(g1, 1, "eflat18-B", 0.4), sym),
        image_chain(random_chain(g1, 0, "eflat18-C", 0.3), sym),
    )
    g2 = centred_grid((2, 2, 2))
    pair44 = Dipolyhedron(
        random_chain(g2, 2, "eflat44-B", 0.3), random_chain(g2, 1, "eflat44-C", 0.15)
    )
    k2 = image_chain(random_chain(centred_grid((4, 3, 2)), 2, "k2-24", 0.3), sym)
    k1 = image_chain(random_chain(centred_grid((2, 2, 1)), 1, "k1-20", 0.3), sym)
    return [
        _flat_instance("k2_exh24", k2, "exhaustive", exh, answers, True),
        _flat_instance("k1_exh20", k1, "exhaustive", exh, answers, True),
        _flat_instance("eflat_exh18", pair18, "exhaustive", exh, answers, True),
        _flat_instance("k2_block3_g4", block_boundary(4, 3, 2), "bnb", bnb, answers, False),
        _flat_instance("k2_block3_g5", block_boundary(5, 3, 2), "bnb", bnb, answers, False),
        _flat_instance("k1_sq3_g4", block_boundary(4, 3, 1), "bnb", bnb, answers, False),
        _flat_instance("eflat_bnb", pair44, "bnb", SolverConfig(node_budget=10**5), answers, False),
    ]


# ---------------------------------------------------------------------------
# the cli workload: one filmlab subprocess per subcommand


class CliFailure(RuntimeError):
    """A filmlab subprocess exited with a non-zero code."""

    def __init__(self, run):
        last = run.stderr.strip().splitlines()[-1:] or ["no stderr"]
        super().__init__(f"exit {run.returncode}: {last[0]}")
        self.run = run


@dataclass
class CliRun:
    returncode: int
    stdout: str
    stderr: str
    maxrss_kb: int


def cli_inputs(seed, workdir):
    """Write the generated inputs of the cli workload; returns name -> path."""
    sym = symmetry(seed)
    g3 = centred_grid((3, 3, 3))
    pair = Dipolyhedron(
        image_chain(random_chain(g3, 2, "cli-pair-B", 0.2), sym),
        image_chain(boundary_grid(random_chain(g3, 2, "cli-pair-C", 0.15)), sym),
    )
    g1 = centred_grid((1, 1, 1))
    small_pair = Dipolyhedron(
        image_chain(random_chain(g1, 1, "cli-eflat-B", 0.4), sym),
        image_chain(random_chain(g1, 0, "cli-eflat-C", 0.3), sym),
    )
    docs = {
        "pair": pair,
        "chain_k1": image_chain(random_chain(centred_grid((2, 2, 1)), 1, "cli-k1", 0.35), sym),
        "block": image_chain(block_boundary(3, 2, 2), sym),
        "small_pair": small_pair,
        "curve": curve("hex1", sym),
        # one orientation: the multicell pairing, and so the bound, depends on it
        "chain_nat": random_chain(centred_grid((3, 3, 1)), 1, "cli-nat", 0.3),
    }
    os.makedirs(workdir, exist_ok=True)
    paths = {}
    for name, obj in docs.items():
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w") as fh:
            fh.write(iof.dumps_report(obj))
    return paths


def run_cli(argv, env, cwd, prefix=None) -> CliRun:
    """Run one filmlab subprocess to completion; kill it after CLI_TIMEOUT_S."""
    cmd = [sys.executable] + (prefix or ["-m", "filmlab.cli"]) + argv
    out_path = os.path.join(cwd, ".bench_work", "cli.out")
    err_path = os.path.join(cwd, ".bench_work", "cli.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return CliRun(proc.returncode, stdout, stderr, usage.ru_maxrss)


def cli_instances(seed, root, answers, env, paths, prefix_for=None):
    """Ten subcommands; ``prefix_for(name)`` swaps the interpreter arguments (tracing).

    Each check reads the JSON report and returns (problems, exact, value);
    a report it cannot read fails the replay.
    """
    inputs = {name: iof.parse_input(iof.load_document(path)) for name, path in paths.items()}
    pair, gamma, chain_nat = inputs["pair"], inputs["curve"], inputs["chain_nat"]
    tri = fixture(root, "tilted_triangle.json")

    def check_mass(doc):
        expected = Fraction(len(pair.B.cells) + len(pair.C.cells))
        ok = Fraction(doc["value"]) == expected
        problems = [] if ok else [f"energy {doc['value']} differs from the cell count {expected}"]
        return problems, True, None

    def check_boundary(doc):
        got, want = iof.dip_from_json(doc), boundary_dip(pair)
        ok = got.B.cells == want.B.cells and got.C.cells == want.C.cells
        return ([] if ok else ["boundary report differs from the library's boundary"]), True, None

    def check_flat(name, original):
        def check(doc):
            chains = {
                k: iof.chain_from_json(v) for k, v in doc.items() if isinstance(v, dict) and "cells" in v
            }
            value = Fraction(doc["value"])
            if name == "eflat":
                parts = (chains["B_Q"], chains["C_Q"], chains["B_R"], chains["C_R"])
                cert = EnergyFlatCertificate(value, *parts, doc["status"])
            else:
                cert = FlatNormCertificate(value, chains["Q"], chains["R"], doc["status"])
            ok = verify_certificate(cert, original)
            problems = [] if ok else ["certificate in the report does not replay"]
            _gate_value(value, cert.status, answers.get(name), problems)
            return problems, cert.status == "exact", value

        return check

    def check_plateau(doc):
        A = iof.dip_from_json(doc["pair"])
        problems = _membership_problems(A, gamma, "plateau pair")
        weight = Fraction(doc["weight"])
        if weight != mass_grid(A.B):
            problems.append("reported weight is not the film mass")
        _gate_value(weight, doc["optimality"], answers.get("plateau"), problems)
        return problems, doc["optimality"] == "exact", weight

    def check_span(doc):
        ok = doc["verdict"] == "spans"
        problems = [] if ok else [f"cone over the unit square does not span: {doc['verdict']}"]
        return problems, True, None

    def check_diagnostics(doc):
        want = diagnostics(pair)
        got = (int(doc["loop_count"]), int(doc["film_components"]), Fraction(doc["total_length"]))
        ok = got == (want.loop_count, want.film_components, want.total_length)
        return ([] if ok else ["diagnostics report differs from the library's"]), True, None

    def check_deform(doc):
        problems = []
        if not (doc["identity"]["equal"] and doc["identity"]["mode"] == "exact"):
            problems.append("identity A = P + Q + dR not certified")
        if not doc["support"]["within_6eps"]:
            problems.append("support moved further than 6 eps")
        if not all(doc["bounds_ok"].values()):
            problems.append("mass bounds fail")
        P, Q, R = (iof.chain_from_json(doc[k]) for k in ("P", "Q", "R"))
        if not chains_equal_mod2(tri, embed_grid_chain(P) + Q + boundary_simplicial(R)).equal:
            problems.append("independent replay of A = P + Q + dR fails")
        return problems, True, Fraction(len(P.cells))

    def check_natural(doc):
        enclosure = doc["cost"]["enclosure"]
        ok = Fraction(enclosure["lo"]) <= mass_grid(chain_nat)
        problems = [] if ok else ["natural-norm bound exceeds the level-0 cost M(P)"]
        return problems, doc["status"] == "exact", Fraction(enclosure["hi"])

    k1, block, small = inputs["chain_k1"], inputs["block"], inputs["small_pair"]
    cone, square, triangle = (
        fixture_path(root, f"{name}.json") for name in ("cone", "square_curve", "tilted_triangle")
    )
    budget = ["--method", "bnb", "--node-budget", "1000"]
    # (name, argv, check, seeded, trivial bound)
    commands = [
        ("mass", ["mass", paths["pair"]], check_mass, True, None),
        ("boundary", ["boundary", paths["pair"]], check_boundary, True, None),
        ("flatnorm", ["flatnorm", paths["chain_k1"]], check_flat("flatnorm", k1), True, mass_grid(k1)),
        (
            "flatnorm_budget",
            ["flatnorm", paths["block"], *budget],
            check_flat("flatnorm_budget", block),
            True,
            mass_grid(block),
        ),
        ("eflat", ["eflat", paths["small_pair"]], check_flat("eflat", small), True, energy(small).energy),
        ("plateau", ["plateau", "--curve", paths["curve"], "--method", "bnb"], check_plateau, True, None),
        ("span_check", ["span-check", cone, "--curve", square], check_span, False, None),
        ("diagnostics", ["diagnostics", paths["pair"]], check_diagnostics, True, None),
        ("deform", ["deform", triangle, "--eps", "1", "--centers", "4"], check_deform, False, None),
        ("natural_norm", ["natural-norm", paths["chain_nat"], "--levels", "1"], check_natural, False, None),
    ]

    def make(name, argv, check, seeded, trivial):
        def summarize(run):
            problems, exact, value = check(json.loads(run.stdout))
            return Summary(problems, exact and not problems, value, run.stdout)

        def call():
            run = run_cli(argv, env, root, prefix_for(name) if prefix_for else None)
            if run.returncode != 0:
                raise CliFailure(run)
            return run

        return Instance(name, call, summarize, lambda r: r.stdout, seeded, name, trivial)

    return [make(*c) for c in commands]


def build(workload, seed, root, answers, env=None, paths=None, prefix_for=None):
    if workload == "plateau":
        return plateau_instances(seed, root, answers)
    if workload == "deform":
        return deform_instances(seed, root, answers)
    if workload == "flatnorm":
        return flatnorm_instances(seed, root, answers)
    if workload == "cli":
        return cli_instances(seed, root, answers, env, paths, prefix_for)
    raise ValueError(f"unknown workload {workload!r}")
