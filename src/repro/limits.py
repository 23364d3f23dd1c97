"""Process-level resource guards shared by every entry point.

The term pipeline (parse → typecheck → prepare → NNF → Tseitin) is
recursive over term depth, and generated scripts nest deeply — a 4000-long
xor chain recurses tens of thousands of frames through ``to_nnf``.  The
CLI used to band-aid this with ``sys.setrecursionlimit(1_000_000)``, which
left library callers (and portfolio worker processes) to crash with
``RecursionError`` on the very same scripts, while a million frames is
deep enough to exhaust the C stack and hard-crash CPython outright on
some platforms.

:func:`ensure_recursion_limit` is the one guard, applied at the entry
points where the recursion starts: :func:`repro.smtlib.parse_script`
(every text input, API or CLI, goes through it),
:meth:`repro.engine.Engine.run` (every solve path, including scripts
built in code) and :func:`repro.portfolio.solve_portfolio` (which renders
a built script back to text).  It only ever *raises* the limit — a caller
that installed a higher one keeps it — and it is bounded: 100k Python frames
live on the heap (cheap in CPython ≥ 3.11) and cover every workload in
the corpus and benchmark suites with an order of magnitude to spare.
The guard counts Python frames only.  A pass whose recursion runs
through C — a generator expression around the recursive call, or
pickling — also spends C stack per level, which can crash the
interpreter before the limit is reached, and CPython 3.12 caps such
recursion at 1,500 C frames whatever the limit.  Recursive passes
should call themselves from plain loops or list comprehensions.
"""

from __future__ import annotations

import sys

#: Deep enough for every corpus/benchmark workload (the deepest, a
#: 20k-node simplify chain, stays well under half of it).
DEFAULT_RECURSION_LIMIT = 100_000


def ensure_recursion_limit(limit: int = DEFAULT_RECURSION_LIMIT) -> int:
    """Raise the interpreter recursion limit to at least ``limit``.

    Never lowers an already-higher limit.  Returns the limit in effect
    after the call."""
    current = sys.getrecursionlimit()
    if current < limit:
        sys.setrecursionlimit(limit)
        return limit
    return current


__all__ = ["DEFAULT_RECURSION_LIMIT", "ensure_recursion_limit"]
