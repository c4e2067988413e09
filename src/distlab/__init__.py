"""distlab: exact k-distance graph transforms, surveys and witness search."""
from .bounds import (
    HOLDS,
    HOLDS_VACUOUSLY,
    NOT_APPLICABLE,
    VIOLATION,
    BoundReport,
    check_bounds,
    family_graph,
)
from .canon import canonical_form
from .enumeration import SurveyTable, enumerate_connected, survey
from .graphs import (
    MAX_VERTICES,
    UNREACHABLE,
    Graph,
    all_pairs_distances,
    diameter,
    diameter_pair,
    from_edge_list,
    k_distance,
)
from .sat.cnf import CnfFormula, VarMap
from .sat.encode import build_formula, decode_model
from .sat.search import BudgetExhausted, SearchParams, Unsat, Witness, search

__version__ = "0.1.0"

__all__ = [
    "HOLDS",
    "HOLDS_VACUOUSLY",
    "NOT_APPLICABLE",
    "VIOLATION",
    "BoundReport",
    "check_bounds",
    "family_graph",
    "canonical_form",
    "SurveyTable",
    "enumerate_connected",
    "survey",
    "MAX_VERTICES",
    "UNREACHABLE",
    "Graph",
    "all_pairs_distances",
    "diameter",
    "diameter_pair",
    "from_edge_list",
    "k_distance",
    "BudgetExhausted",
    "CnfFormula",
    "SearchParams",
    "Unsat",
    "VarMap",
    "Witness",
    "build_formula",
    "decode_model",
    "search",
    "__version__",
]
