"""SAT encoding and solving; ``search`` is left in its module, :mod:`.search`."""
from .cnf import CnfFormula, VarMap, emit_dimacs, parse_dimacs
from .dpll import DpllSolver
from .encode import (
    build_formula,
    decode_model,
    encode_b_definition,
    encode_diam2_exclusion,
    encode_diameter_cap,
    encode_free_vertex_ordering,
    encode_g2_connected,
    encode_p2_fixing,
    encode_p2_geodesic,
)
from .search import (
    BudgetExhausted,
    EncodingMismatch,
    SearchParams,
    SearchStats,
    Unsat,
    Witness,
    cap_levels,
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
    "encode_g2_connected",
    "encode_p2_fixing",
    "encode_p2_geodesic",
    "BudgetExhausted",
    "EncodingMismatch",
    "SearchParams",
    "SearchStats",
    "Unsat",
    "Witness",
    "cap_levels",
    "verify_witness",
]
