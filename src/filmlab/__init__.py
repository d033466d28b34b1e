"""Mod-2 films with mass: chains, pairs, flat norms, deformation, and
a small discrete soap-film solver."""

from .exact import RadicalSum, UndecidableComparison, format_fraction, parse_fraction
from .grid import (
    BoxRegion,
    GridCell,
    GridChain,
    GridSpec,
    boundary_grid,
    cell_from_label,
    chain_of,
    empty_chain,
    mass_grid,
    restrict_grid,
)
from .simplicial import (
    PLMap,
    SimplicialChain,
    boundary_simplicial,
    clamp_to_cube,
    cone,
    embed_grid_chain,
    mass_simplicial,
    pushforward,
    restrict_simplicial,
    simplicial_chain,
)
from .overlay import chains_equal_mod2, is_zero_geometric
from .dipolyhedra import (
    Dipolyhedron,
    ProjectionDir,
    SpanningContext,
    boundary_dip,
    clamp_dip,
    cone_dip,
    energy,
    make_dipole,
    make_massive,
    pushforward_dip,
    restrict_dip,
    spanning_check,
)
from .flatnorm import (
    SolverConfig,
    energy_flat_norm,
    flat_norm,
    natural_norm_upper,
    verify_certificate,
)
from .deformation import DeformConfig, deform_chain, deform_dipolyhedron, snap_parity
from .plateau import (
    BudgetError,
    PlateauProblem,
    clamp_improvement,
    diagnostics,
    gamma_membership,
    initial_cone_solution,
    loop_decomposition,
    minimize_weight,
    plateau_problem,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
