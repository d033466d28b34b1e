"""Mod-2 films with mass: chains, pairs, flat norms, deformation, and
a small discrete soap-film solver.

Importing the package loads no submodule.  A public name, or a submodule
named in ``__all__``, is imported on first access (PEP 562) and then
kept in the package globals.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "rationals": ("UndecidableComparison", "format_fraction", "parse_fraction"),
    "exact": ("RadicalSum",),
    "geom": (),
    "grid": (
        "BoxRegion",
        "GridCell",
        "GridChain",
        "GridSpec",
        "boundary_grid",
        "cell_from_label",
        "chain_of",
        "empty_chain",
        "mass_grid",
        "restrict_grid",
    ),
    "simplicial": (
        "PLMap",
        "SimplicialChain",
        "boundary_simplicial",
        "clamp_to_cube",
        "cone",
        "embed_grid_chain",
        "mass_simplicial",
        "pushforward",
        "restrict_simplicial",
        "simplicial_chain",
    ),
    "overlay": ("chains_equal_mod2", "is_zero_geometric"),
    "pairs": ("Dipolyhedron", "boundary_dip", "energy", "make_dipole", "make_massive"),
    "dipolyhedra": (
        "ProjectionDir",
        "SpanningContext",
        "clamp_dip",
        "cone_dip",
        "pushforward_dip",
        "restrict_dip",
        "spanning_check",
    ),
    "cover": (),
    "flatnorm": (
        "SolverConfig",
        "energy_flat_norm",
        "flat_norm",
        "verify_certificate",
    ),
    "natural_norm": ("natural_norm_upper",),
    "deformation": ("DeformConfig", "deform_chain", "deform_dipolyhedron", "snap_parity"),
    "plateau": (
        "BudgetError",
        "PlateauProblem",
        "clamp_improvement",
        "gamma_membership",
        "initial_cone_solution",
        "minimize_weight",
        "plateau_problem",
    ),
    "loops": ("diagnostics", "loop_decomposition"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    if name in _EXPORTS:
        value = _import_module(f".{name}", __name__)
    elif name in _MODULE_OF:
        value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
