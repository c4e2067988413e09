"""distlab: exact k-distance graph transforms, surveys and witness search.

``import distlab`` loads no submodule.  Each public name is imported from
the submodule that defines it on first access (PEP 562), so a census
loads no SAT layer and a search no enumeration.
"""
from importlib import import_module

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "bounds": ("HOLDS", "HOLDS_VACUOUSLY", "NOT_APPLICABLE", "VIOLATION",
               "BoundReport", "check_bounds", "family_graph"),
    "canon": ("canonical_form",),
    "enumeration": ("SurveyTable", "enumerate_connected", "survey"),
    "graphs": ("MAX_VERTICES", "UNREACHABLE", "Graph", "all_pairs_distances", "diameter",
               "diameter_pair", "from_edge_list", "k_distance"),
    "sat.cnf": ("CnfFormula", "VarMap"),
    "sat.encode": ("build_formula", "decode_model"),
    "sat.search": ("BudgetExhausted", "SearchParams", "Unsat", "Witness", "search"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_OWNER, "__version__"]


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
