"""Script execution: the DPLL(T) engine.

The engine layer is split by responsibility:

* :mod:`repro.engine.context` — assertion-stack :class:`Frame` bookkeeping
  and :class:`~repro.engine.context.Preparation`, the one memoized walk
  that expands ``define-fun`` and ``let`` binders, splits n-ary
  equalities, linear equalities and chained comparisons, and simplifies.
* :mod:`repro.engine.solve` — :class:`Engine` itself: the incremental
  CDCL(T) loop with selector-literal ``push``/``pop`` over one
  long-lived Tseitin encoder (so unchanged assertions are never
  re-encoded across ``check-sat`` calls), the theory-hook adapter, model
  assembly and validation against the asserted terms.
* :mod:`repro.engine.result` — :class:`CheckSatResult` /
  :class:`ScriptResult`.

``python -m repro`` is the CLI front end.
"""

from .result import CheckSatResult, ScriptResult
from .solve import Engine, run_script, solve_script

__all__ = [
    "CheckSatResult",
    "ScriptResult",
    "Engine",
    "run_script",
    "solve_script",
]
