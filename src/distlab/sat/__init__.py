"""SAT encoding (:mod:`.encode`, :mod:`.cnf`), the DPLL solver and the witness search."""
