"""Symmetry indices for one-dimensional quantum walks.

Topological classification of gapped, symmetric walks on the line: symmetry
representations and their indices, half-space and eigenspace indices of
walks, bulk invariants (winding numbers and phase indices), canonical gentle
decoupling, and certified boundary-mode counts for finite systems.
"""

from .decoupling import (
    DecouplingResult,
    decouple_segment,
    direct_rotation,
    gentle_decoupling,
)
from .errors import WalkIndexError
from .finite import (
    SweepRecord,
    TempleKatoCertificate,
    certify_boundary_modes,
    crossover_sweep,
    join_crossover,
    localization_profile,
    temple_kato,
)
from .indices import (
    FredholmReport,
    PerturbationReport,
    bulk_right_index,
    fredholm_index,
    index_matrix,
    relative_index,
    si_left_right,
    si_pm,
    si_total,
    verify_bulk_boundary,
    verify_locpert,
)
from .lattice import CellStructure, LatticeOperator, LocalSymmetryRep
from .operators import check_admissible, check_unitary, eig_unitary
from .serialize import (
    dumps_canonical,
    operator_from_spec,
    sweep_csv,
    walk_from_spec,
)
from .symmetry import (
    IndexGroup,
    IndexValue,
    SymmetryClass,
    SymmetryOperator,
    SymmetryRep,
    forget_index,
    forget_rep,
    rep_index,
)
from .tolerances import DEFAULT_TOL, Tolerances
from .walks import (
    TIWalk,
    berry_phase,
    build_lattice,
    builtin_walk,
    make_doubled,
    make_generating_example,
    make_shift,
    make_split_step,
    make_trivial,
    ti_gap_margin,
    truncate_ti,
    validate_ti,
    winding_number,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "CellStructure",
    "DecouplingResult",
    "FredholmReport",
    "IndexGroup",
    "IndexValue",
    "LatticeOperator",
    "LocalSymmetryRep",
    "PerturbationReport",
    "SweepRecord",
    "SymmetryClass",
    "SymmetryOperator",
    "SymmetryRep",
    "TIWalk",
    "TempleKatoCertificate",
    "Tolerances",
    "WalkIndexError",
    "berry_phase",
    "build_lattice",
    "builtin_walk",
    "bulk_right_index",
    "certify_boundary_modes",
    "check_admissible",
    "check_unitary",
    "crossover_sweep",
    "decouple_segment",
    "direct_rotation",
    "dumps_canonical",
    "eig_unitary",
    "fredholm_index",
    "forget_index",
    "forget_rep",
    "gentle_decoupling",
    "index_matrix",
    "join_crossover",
    "localization_profile",
    "make_doubled",
    "make_generating_example",
    "make_shift",
    "make_split_step",
    "make_trivial",
    "operator_from_spec",
    "relative_index",
    "rep_index",
    "si_left_right",
    "si_pm",
    "si_total",
    "sweep_csv",
    "temple_kato",
    "ti_gap_margin",
    "truncate_ti",
    "validate_ti",
    "verify_bulk_boundary",
    "verify_locpert",
    "walk_from_spec",
    "winding_number",
]
