"""Process-level resource guards shared by every entry point.

Most of the term pipeline — the parser's term interpretation, engine
preparation and the simplifier, the evaluator, the printer — is recursive
over term depth, and generated scripts nest deeply: the parser recurses
at least once per level of a ``(not … (not p))`` chain.  (The CNF encoder
does not recurse: its walks run on explicit stacks.)  The CLI used to
band-aid this with ``sys.setrecursionlimit(1_000_000)``, which
left library callers (and portfolio worker processes) to crash with
``RecursionError`` on the very same scripts, while a million frames is
deep enough to exhaust the C stack and hard-crash CPython outright on
some platforms.

:func:`ensure_recursion_limit` is the one guard, applied at the entry
points where the recursion starts: :func:`repro.smtlib.parse_script`
(every text input, API or CLI, goes through it; reading the text into
lists is iterative, interpreting each term recurses over its depth),
:meth:`repro.engine.Engine.run` (every solve path, including scripts
built in code), :func:`repro.portfolio.solve_portfolio` (which renders
a built script back to text) and the public walks a library caller
reaches directly: ``simplify``, ``simplify_script``, ``evaluate``,
``term_to_smtlib``, ``check`` and ``check_script``.  It only ever
*raises* the limit — a caller that installed a higher one keeps it —
and it is bounded: 100k Python frames live on the heap (cheap in
CPython ≥ 3.11) and cover every workload in the corpus and benchmark
suites with an order of magnitude to spare.
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
