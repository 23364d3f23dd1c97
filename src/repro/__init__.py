"""Reproduction library for conf_asplos_SunYZ26.

Subpackages and modules:

* :mod:`repro.smtlib` — the SMT-LIB front end: lexer, s-expressions, sorts,
  terms, script parser, type checker, simplifier/evaluator, CNF lowering
  and round-trip printer.
* :mod:`repro.sat` — the CDCL propositional solver (two-watched-literal
  propagation, first-UIP learning, VSIDS decay, Luby restarts) plus DIMACS
  import/export.
* :mod:`repro.engine` — script execution: runs ``assert`` /
  ``check-sat`` / ``get-model`` / ``get-value`` / ``push`` / ``pop`` and
  decides quantifier-free boolean structure (``python -m repro`` is the
  CLI).
* :mod:`repro.portfolio` — parallel portfolio solving: races diversified
  :class:`~repro.sat.SolverConfig` strategies across worker processes
  with cooperative cancellation.
* :mod:`repro.errors` — the shared exception hierarchy.
"""

from . import errors
from .engine import CheckSatResult, Engine, ScriptResult, run_script, solve_script
from .errors import ReproError, SmtLibError, SolverError
from .limits import ensure_recursion_limit
from .portfolio import PortfolioOutcome, solve_portfolio
from .sat import SolverConfig

__version__ = "0.1.0"

__all__ = [
    "errors",
    "ReproError",
    "SmtLibError",
    "SolverError",
    "Engine",
    "CheckSatResult",
    "ScriptResult",
    "run_script",
    "solve_script",
    "SolverConfig",
    "PortfolioOutcome",
    "solve_portfolio",
    "ensure_recursion_limit",
    "__version__",
]
