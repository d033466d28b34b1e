"""The package's public surface: names, their defining modules, lazy access."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import types

import pytest

import filmlab

# submodule -> the public names it defines
SURFACE = {
    "rationals": ["UndecidableComparison", "format_fraction", "parse_fraction"],
    "exact": ["RadicalSum"],
    "geom": [],
    "grid": [
        "BoxRegion", "GridCell", "GridChain", "GridSpec", "boundary_grid", "cell_from_label",
        "chain_of", "empty_chain", "mass_grid", "restrict_grid",
    ],
    "simplicial": [
        "PLMap", "SimplicialChain", "boundary_simplicial", "clamp_to_cube", "cone",
        "embed_grid_chain", "mass_simplicial", "pushforward", "restrict_simplicial",
        "simplicial_chain",
    ],
    "overlay": ["chains_equal_mod2", "is_zero_geometric"],
    "pairs": ["Dipolyhedron", "boundary_dip", "energy", "make_dipole", "make_massive"],
    "dipolyhedra": [
        "ProjectionDir", "SpanningContext", "clamp_dip", "cone_dip", "pushforward_dip",
        "restrict_dip", "spanning_check",
    ],
    "cover": [],
    "flatnorm": [
        "SolverConfig", "energy_flat_norm", "flat_norm", "verify_certificate",
    ],
    "natural_norm": ["natural_norm_upper"],
    "deformation": ["DeformConfig", "deform_chain", "deform_dipolyhedron", "snap_parity"],
    "plateau": [
        "BudgetError", "PlateauProblem", "clamp_improvement", "gamma_membership",
        "initial_cone_solution", "minimize_weight", "plateau_problem",
    ],
    "loops": ["diagnostics", "loop_decomposition"],
}
NAMES = sorted([*SURFACE, *(name for names in SURFACE.values() for name in names)])


def test_all_is_pinned():
    assert len(NAMES) == 70
    assert sorted(filmlab.__all__) == NAMES


@pytest.mark.parametrize("module", sorted(SURFACE))
def test_names_are_their_defining_modules_objects(module):
    mod = importlib.import_module(f"filmlab.{module}")
    assert getattr(filmlab, module) is mod
    assert isinstance(mod, types.ModuleType)
    for name in SURFACE[module]:
        assert getattr(filmlab, name) is getattr(mod, name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from filmlab import *", namespace)
    for name in NAMES:
        assert namespace[name] is getattr(filmlab, name), name


def test_dir_lists_every_name():
    assert set(NAMES) <= set(dir(filmlab))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        filmlab.no_such_name
    assert not hasattr(filmlab, "no_such_name")


SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(filmlab.__path__))


def test_every_submodule_is_listed():
    assert set(SUBMODULES) == set(SURFACE) | {"cli", "io_formats", "meshes", "records"}


def test_no_submodule_shadows_a_public_name():
    """Importing a submodule binds it on the package; a submodule named like
    a public function (say ``diagnostics``) would replace the function."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(filmlab.__file__)))
    run = (
        "import importlib, filmlab\n"
        f"for module in {SUBMODULES!r}:\n"
        "    importlib.import_module(f'filmlab.{module}')\n"
        "for name in filmlab.__all__:\n"
        "    if name in filmlab._MODULE_OF:\n"
        "        home = importlib.import_module(f'filmlab.{filmlab._MODULE_OF[name]}')\n"
        "        assert getattr(filmlab, name) is getattr(home, name), name\n"
        "    else:\n"
        "        assert getattr(filmlab, name) is importlib.import_module(f'filmlab.{name}'), name\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", run],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_imports_first_in_a_fresh_interpreter(module):
    """No import cycle that only another module's earlier import hides, and
    no import of dataclasses or inspect (the records are plain classes)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(filmlab.__file__)))
    run = (
        f"import sys, filmlab.{module}\n"
        "print(*[m for m in ('dataclasses', 'inspect') if m in sys.modules])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", run],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with its line; imports under
    ``if TYPE_CHECKING:`` and from ``__future__`` are left out."""
    names: dict[str, int] = {}
    skip: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            skip.update(id(inner) for inner in ast.walk(node))
        elif id(node) in skip or getattr(node, "module", None) == "__future__":
            continue
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


@pytest.mark.parametrize("module", SUBMODULES)
def test_no_unused_imports(module):
    """Every name a module imports is used in it (the package's __init__,
    which binds names for others, is not a module here)."""
    path = os.path.join(os.path.dirname(filmlab.__file__), f"{module}.py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert unused == {}
