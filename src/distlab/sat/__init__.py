"""SAT encoding, solving and counterexample-guided search."""
from .cnf import CnfFormula, VarMap, emit_dimacs, parse_dimacs
from .dpll import DpllSolver
from .encode import (
    build_formula,
    decode_model,
    encode_b_definition,
    encode_diam2_exclusion,
    encode_diameter_cap,
    encode_free_vertex_ordering,
    encode_g2_min_degree,
    encode_p2_fixing,
    encode_p2_geodesic,
)
from .external import SolverError, run_external
from .search import (
    BudgetExhausted,
    EncodingMismatch,
    SearchParams,
    SearchStats,
    Unsat,
    Witness,
    cap_levels,
    search,
    verify_witness,
)

__all__ = [
    "CnfFormula",
    "VarMap",
    "emit_dimacs",
    "parse_dimacs",
    "DpllSolver",
    "build_formula",
    "decode_model",
    "encode_b_definition",
    "encode_diam2_exclusion",
    "encode_diameter_cap",
    "encode_free_vertex_ordering",
    "encode_g2_min_degree",
    "encode_p2_fixing",
    "encode_p2_geodesic",
    "SolverError",
    "run_external",
    "BudgetExhausted",
    "EncodingMismatch",
    "SearchParams",
    "SearchStats",
    "Unsat",
    "Witness",
    "cap_levels",
    "search",
    "verify_witness",
]
