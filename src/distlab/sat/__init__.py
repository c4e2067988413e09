"""SAT encoding, solving and counterexample-guided search."""
from .cnf import CnfFormula, VarMap, emit_dimacs, parse_dimacs
from .dpll import DpllSolver
from .encode import (
    FormulaSizeError,
    build_formula,
    decode_model,
    encode_b_definition,
    encode_diam2_exclusion,
    encode_diameter_cap,
    encode_free_vertex_ordering,
    encode_g2_min_degree,
    encode_p2_fixing,
    encode_shortcut_forbidding,
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
    "FormulaSizeError",
    "build_formula",
    "decode_model",
    "encode_b_definition",
    "encode_diam2_exclusion",
    "encode_diameter_cap",
    "encode_free_vertex_ordering",
    "encode_g2_min_degree",
    "encode_p2_fixing",
    "encode_shortcut_forbidding",
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
