"""Command-line surface.

Subcommands read chain or pair JSON, dispatch to the library, and write
a JSON report (stdout or --output) plus optional OFF/OBJ meshes.  All
runs are deterministic for a fixed argument vector: seeds default to 0
and every report is emitted with sorted keys.

A subcommand loads only the modules it runs.  The solvers (flatnorm,
natural_norm, deformation, plateau), loops, the simplicial ops, the pair
ops and spanning check (dipolyhedra) and meshes are imported inside the
handlers, and the branches, that call them; the base (io_formats, grid,
pairs, rationals, records) loads no radical arithmetic (exact).  So on
a grid input, mass, boundary, flatnorm and eflat load no exact,
geometry, simplicial, overlay or spanning code; natural-norm and
plateau load no flat-norm solver; diagnostics loads only loops beyond
the base; only --mesh-prefix loads meshes; cone, clamp and pushforward
of a chain load no pair op or overlay; and --help loads none of them.
No process loads dataclasses or inspect: records are plain classes.

Exit codes: 0 on success, 2 on malformed input or violated
preconditions, 3 when a solver could certify only an upper bound and
--require-exact was given, 4 when an internal verification failed (a
result did not pass its own check, or an exact comparison could not be
decided); each error is one line on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import io_formats as iof
from .grid import BoxRegion, GridChain, GridSpec, boundary_grid, restrict_grid
from .pairs import Dipolyhedron, boundary_dip, chain_mass, energy
from .rationals import UndecidableComparison, parse_fraction

if TYPE_CHECKING:
    from .simplicial import SimplicialChain


def _fracs(text: str, n: int, what: str) -> list[Fraction]:
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"{what}: expected {n} comma-separated rationals")
    return [parse_fraction(p) for p in parts]


def _dims(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("--dims: expected 3 comma-separated positive integers")
    dims = tuple(int(p) for p in parts)
    if min(dims) <= 0:
        raise ValueError(f"--dims: cell counts must be positive, got {text}")
    return dims


def _emit(args, payload, op: str) -> None:
    doc = iof.to_jsonable(payload)
    if isinstance(doc, dict):
        doc.setdefault("op", op)
        doc.setdefault("schema", iof.SCHEMA)
    text = iof.dumps_json(doc)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_meshes(prefix: str, chains: list) -> None:
    """Write PREFIX-NAME.off for each named 2-chain and PREFIX-NAME.obj for
    each 1-chain (main has created PREFIX's directory); other dimensions
    have no mesh format and are skipped.  Callers write meshes before the
    report, so a failed write leaves no report behind its exit code 2."""
    from .meshes import write_obj, write_off

    for name, chain in chains:
        if chain.k == 2:
            write_off(chain, f"{prefix}-{name}.off")
        elif chain.k == 1:
            write_obj(chain, f"{prefix}-{name}.obj")


def _load(path: str):
    return iof.parse_input(iof.load_document(path))


def _solver_config(args):
    from .flatnorm import SolverConfig

    overrides = {
        name: getattr(args, name)
        for name in ("node_budget", "exhaustive_limit")
        if getattr(args, name, None) is not None
    }
    return SolverConfig(**overrides)


def _status_exit(args, status: str) -> int:
    if status != "exact" and getattr(args, "require_exact", False):
        return 3
    return 0


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_mass(args) -> int:
    obj = _load(args.input)
    if isinstance(obj, Dipolyhedron):
        split = energy(obj)
        _emit(args, {"value": split.energy, "split": split}, "mass")
    else:
        _emit(args, {"value": chain_mass(obj)}, "mass")
    return 0


def _cmd_boundary(args) -> int:
    obj = _load(args.input)
    if isinstance(obj, Dipolyhedron):
        _emit(args, boundary_dip(obj), "boundary")
    elif isinstance(obj, GridChain):
        _emit(args, boundary_grid(obj), "boundary")
    else:
        from .simplicial import boundary_simplicial

        _emit(args, boundary_simplicial(obj), "boundary")
    return 0


def _cmd_flatnorm(args) -> int:
    from .flatnorm import flat_norm

    obj = _load(args.input)
    if not isinstance(obj, GridChain):
        raise ValueError("flatnorm expects a grid chain")
    cert = flat_norm(obj, method=args.method, config=_solver_config(args))
    _emit(args, cert, "flatnorm")
    return _status_exit(args, cert.status)


def _cmd_eflat(args) -> int:
    from .flatnorm import energy_flat_norm

    obj = _load(args.input)
    if not isinstance(obj, Dipolyhedron):
        raise ValueError("eflat expects a dipolyhedron")
    cert = energy_flat_norm(obj, method=args.method, config=_solver_config(args))
    _emit(args, cert, "eflat")
    return _status_exit(args, cert.status)


def _cmd_cone(args) -> int:
    from .simplicial import as_simplicial, cone

    obj = _load(args.input)
    apex = tuple(_fracs(args.apex, 3, "--apex"))
    if isinstance(obj, Dipolyhedron):
        from .dipolyhedra import cone_dip

        _emit(args, cone_dip(apex, obj), "cone")
    else:
        _emit(args, cone(apex, as_simplicial(obj)), "cone")
    return 0


def _cmd_clamp(args) -> int:
    from .simplicial import as_simplicial, clamp_to_cube

    obj = _load(args.input)
    r = parse_fraction(args.radius)
    if isinstance(obj, Dipolyhedron):
        from .dipolyhedra import clamp_dip

        _emit(args, clamp_dip(r, obj), "clamp")
    else:
        _emit(args, clamp_to_cube(as_simplicial(obj), r), "clamp")
    return 0


def _cmd_pushforward(args) -> int:
    from .simplicial import PLMap, as_simplicial, pushforward

    obj = _load(args.input)
    m = _fracs(args.matrix, 9, "--matrix")
    matrix = (tuple(m[0:3]), tuple(m[3:6]), tuple(m[6:9]))
    offset = tuple(_fracs(args.offset, 3, "--offset"))
    f = PLMap.affine(matrix, offset, parse_fraction(args.lipschitz))
    if isinstance(obj, Dipolyhedron):
        from .dipolyhedra import pushforward_dip

        _emit(args, pushforward_dip(f, obj), "pushforward")
    else:
        _emit(args, pushforward(f, as_simplicial(obj)), "pushforward")
    return 0


def _auto_grid(chain: SimplicialChain, eps: Fraction) -> GridSpec:
    los = [min(v[a] for s in chain.simplices for v in s) for a in range(3)]
    his = [max(v[a] for s in chain.simplices for v in s) for a in range(3)]
    base = [int((lo / eps).__floor__()) - 1 for lo in los]
    tops = [int((hi / eps).__ceil__()) + 1 for hi in his]
    return GridSpec(
        origin=tuple(eps * b for b in base),
        epsilon=eps,
        dims=tuple(t - b for t, b in zip(tops, base)),
    )


def _cmd_deform(args) -> int:
    from .deformation import DeformConfig, deform_chain
    from .simplicial import as_simplicial

    obj = _load(args.input)
    if isinstance(obj, Dipolyhedron):
        raise ValueError("deform expects a chain; pairs go through the plateau pipeline")
    eps = parse_fraction(args.eps)
    obj = as_simplicial(obj)
    if obj.is_zero_presentation():
        raise ValueError("deform expects a nonempty chain")
    cfg = DeformConfig(
        epsilon=eps,
        candidate_centers=args.centers,
        tau=parse_fraction(args.tau),
        seed=args.seed,
        c_max=args.cmax,
    )
    if (args.origin is None) != (args.dims is None):
        raise ValueError("--origin and --dims must be given together")
    if args.origin is not None:
        grid = GridSpec(
            origin=tuple(_fracs(args.origin, 3, "--origin")),
            epsilon=eps,
            dims=_dims(args.dims),
        )
    else:
        grid = _auto_grid(obj, eps)
    result = deform_chain(obj, grid, cfg)
    if args.mesh_prefix:
        stages = [("P", as_simplicial(result.P)), ("Q", result.Q), ("R", result.R)]
        _write_meshes(args.mesh_prefix, stages)
    _emit(args, result, "deform")
    return 0


def _cmd_span_check(args) -> int:
    from .dipolyhedra import default_directions, spanning_check

    obj = _load(args.input)
    if not isinstance(obj, Dipolyhedron):
        raise ValueError("span-check expects a dipolyhedron")
    curve = _load(args.curve)
    if isinstance(curve, Dipolyhedron):
        raise ValueError("--curve must be a chain")
    dirs = default_directions(args.seed, args.dirs)
    _emit(args, spanning_check(obj, curve, dirs), "span-check")
    return 0


def _cmd_plateau(args) -> int:
    from .dipolyhedra import default_directions
    from .plateau import minimize_weight, plateau_problem

    curve = _load(args.curve)
    if not isinstance(curve, GridChain):
        raise ValueError("plateau expects a grid 1-chain curve")
    if args.eps is not None and parse_fraction(args.eps) != curve.grid.epsilon:
        raise ValueError(
            f"--eps {args.eps} disagrees with the curve grid spacing {curve.grid.epsilon}"
        )
    lam = parse_fraction(args.lam) if args.lam is not None else None
    dirs = default_directions(args.seed, args.dirs)
    problem = plateau_problem(curve, lam=lam, dirs=dirs, seed=args.seed)
    solution = minimize_weight(problem, method=args.method, node_budget=args.node_budget)
    if args.mesh_prefix:
        pair = solution.pair
        _write_meshes(args.mesh_prefix, [("B", pair.B), ("C", pair.C), ("gamma", curve)])
    _emit(args, solution, "plateau")
    return _status_exit(args, solution.optimality)


def _cmd_restrict(args) -> int:
    obj = _load(args.input)
    vals = args.box.split(",")
    if len(vals) != 6:
        raise ValueError("--box: expected lo1,lo2,lo3,hi1,hi2,hi3")
    if isinstance(obj, Dipolyhedron) and obj.rep == "grid" or isinstance(obj, GridChain):
        lo = tuple(int(v) for v in vals[:3])
        hi = tuple(int(v) for v in vals[3:])
        box = BoxRegion(lo, hi)
    else:
        lo = tuple(parse_fraction(v) for v in vals[:3])
        hi = tuple(parse_fraction(v) for v in vals[3:])
        box = (lo, hi)
    if isinstance(obj, Dipolyhedron):
        from .dipolyhedra import restrict_dip

        inside, report = restrict_dip(obj, box)
        _emit(args, {"inside": inside, "report": report}, "restrict")
    else:
        if isinstance(obj, GridChain):
            inside, outside = restrict_grid(obj, box)
        else:
            from .simplicial import restrict_simplicial

            inside, outside = restrict_simplicial(obj, lo, hi)
        _emit(
            args,
            {
                "inside": inside,
                "outside": outside,
                "mass_inside": chain_mass(inside),
                "mass_outside": chain_mass(outside),
            },
            "restrict",
        )
    return 0


def _cmd_natural_norm(args) -> int:
    from .natural_norm import natural_norm_upper

    obj = _load(args.input)
    if not isinstance(obj, GridChain):
        raise ValueError("natural-norm expects a grid chain")
    decomp = natural_norm_upper(obj, args.levels, translation_radius=args.radius)
    _emit(args, decomp, "natural-norm")
    return _status_exit(args, decomp.status)


def _cmd_diagnostics(args) -> int:
    from .loops import diagnostics

    obj = _load(args.input)
    if not isinstance(obj, Dipolyhedron):
        raise ValueError("diagnostics expects a dipolyhedron")
    _emit(args, diagnostics(obj), "diagnostics")
    return 0


# ---------------------------------------------------------------------------
# parser


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with one-line usage errors and negative rational values.

    A value such as "-3,-3,-3" or "-1/2" is taken as the option's value,
    not as an unknown flag (argparse 3.13 reads negative numbers this
    way).  Usage errors raise _UsageError instead of printing the usage
    block and exiting.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="filmlab",
        description="mod-2 films, flat norms, deformation, and Plateau search",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, help_text, with_input=True):
        p = sub.add_parser(name, help=help_text)
        if with_input:
            p.add_argument("input", help="chain or dipolyhedron JSON file")
        p.add_argument("-o", "--output", help="report path (default stdout)")
        p.add_argument("--require-exact", action="store_true",
                       help="exit 3 unless the result is certified exact")
        p.set_defaults(handler=handler)
        return p

    add("mass", _cmd_mass, "mass of a chain or energy of a pair")
    add("boundary", _cmd_boundary, "boundary chain/pair")

    search = ("exhaustive: the branch-and-bound without a node budget, refused past "
              "--exhaustive-limit free cells of the input's lattice box, not of its grid "
              "(default 24); bnb: the same under --node-budget (default 10^6)")
    p = add("flatnorm", _cmd_flatnorm, "flat norm of a grid chain with certificate")
    p.add_argument("--method", choices=("exhaustive", "bnb"), default="exhaustive",
                   help="search used when the root cannot answer (the cover for k=2, "
                   "the projection bound for k=1); " + search)
    p.add_argument("--node-budget", type=int)
    p.add_argument("--exhaustive-limit", type=int)

    p = add("eflat", _cmd_eflat, "energy flat norm of a grid pair with certificate")
    p.add_argument("--method", choices=("exhaustive", "bnb"), default="exhaustive", help=search)
    p.add_argument("--node-budget", type=int)
    p.add_argument("--exhaustive-limit", type=int)

    p = add("cone", _cmd_cone, "cone from an apex")
    p.add_argument("--apex", default="0,0,0", help="rational point x,y,z")

    p = add("clamp", _cmd_clamp, "clamp onto the cube |x|_sup <= r")
    p.add_argument("--radius", required=True, help="rational half-side r")

    p = add("pushforward", _cmd_pushforward, "affine image with verified stretch bound")
    p.add_argument("--matrix", required=True, help="nine rationals, row major")
    p.add_argument("--offset", default="0,0,0")
    p.add_argument("--lipschitz", required=True, help="declared bound (rational)")

    p = add("deform", _cmd_deform, "push a chain onto a grid with certified residue")
    p.add_argument("--eps", required=True, help="grid spacing (rational)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--centers", type=int, default=16, help="candidate centers per cell")
    p.add_argument("--tau", default="1/8", help="clearance fraction in (0, 1/2)")
    p.add_argument("--cmax", type=int, default=100, help="constant ceiling for the report")
    p.add_argument("--origin", help="grid origin x,y,z (default: fit the chain)")
    p.add_argument("--dims", help="grid cell counts a,b,c")
    p.add_argument(
        "--mesh-prefix",
        help="write PREFIX-P, -Q and -R meshes, .off for 2-chains and .obj for 1-chains; "
        "R of a 2-chain is a 3-chain and is not written",
    )

    p = add("span-check", _cmd_span_check, "spanning verdict for a pair")
    p.add_argument("--curve", required=True, help="closed curve JSON")
    p.add_argument("--dirs", type=int, default=10, help="extra oblique directions")
    p.add_argument("--seed", type=int, default=0)

    p = add("plateau", _cmd_plateau, "least-weight spanning film", with_input=False)
    p.add_argument("--curve", required=True, help="grid 1-cycle JSON")
    p.add_argument("--lambda", dest="lam", help="energy budget (default: twice cone energy)")
    p.add_argument("--eps", help="expected grid spacing; errors if it disagrees")
    p.add_argument("--method", choices=("exhaustive", "bnb", "local"), default="exhaustive",
                   help="exhaustive: label every coset of the invisible cycles; "
                        "bnb: the same under a node budget (default 10^6); "
                        "local: the root node of the coset C = 0")
    p.add_argument("--dirs", type=int, default=10, help="extra oblique directions")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--node-budget", type=int)
    p.add_argument("--mesh-prefix", help="write PREFIX-B.off, PREFIX-C.obj, PREFIX-gamma.obj")

    p = add("restrict", _cmd_restrict, "part inside an axis box, with measures")
    p.add_argument("--box", required=True,
                   help="lo1,lo2,lo3,hi1,hi2,hi3 (lattice for grid, world otherwise)")

    p = add("natural-norm", _cmd_natural_norm, "translation-structured cost bound")
    p.add_argument("--levels", type=int, default=0, help="merge levels r (0..3)")
    p.add_argument("--radius", type=int, default=2, help="translation radius in cells")

    add("diagnostics", _cmd_diagnostics, "loop decomposition and film components")
    return top


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        # create the output directories before any work, so a path that
        # cannot be created fails at once
        for path in (args.output, getattr(args, "mesh_prefix", None)):
            if path:
                os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        return args.handler(args)
    except (iof.SchemaError, ValueError, OSError) as exc:
        print(f"filmlab {args.subcommand}: error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, AssertionError, UndecidableComparison) as exc:
        detail = " ".join(str(exc).split()) or "no detail"
        print(
            f"filmlab {args.subcommand}: internal error ({type(exc).__name__}): {detail}",
            file=sys.stderr,
        )
        return 4


if __name__ == "__main__":
    sys.exit(main())
