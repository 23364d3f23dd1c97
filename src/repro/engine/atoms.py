"""The persistent atom ↔ SAT-variable registry.

One :class:`AtomRegistry` lives for the whole life of an
:class:`~repro.engine.Engine`: it wraps a single
:class:`~repro.smtlib.cnf.TseitinEncoder` whose node → literal memo and
variable counter survive across ``check-sat`` calls.  Because terms are
hash-consed, re-encoding an unchanged assertion is a dictionary hit — the
second ``check-sat`` on the same assertion set performs *zero* Tseitin
work, which is exactly the invariant the incremental tests assert through
the ``engine.tseitin_new_vars`` / ``engine.tseitin_new_clauses`` metrics.

The registry also allocates frame *selector* variables from the same
space, so solver, encoder and engine agree on one numbering, and exposes
``atom_vars`` — the stable atom → variable map the engine inverts (over
the owned subset) for the theory hook.
"""

from __future__ import annotations

from ..smtlib.cnf import TseitinEncoder
from ..smtlib.terms import Term


class AtomRegistry:
    """Stable atom ↔ variable mapping plus incremental clause draining."""

    def __init__(self) -> None:
        self._encoder = TseitinEncoder()
        self._clause_cursor = 0

    @property
    def num_vars(self) -> int:
        """Variables allocated so far (atoms, auxiliaries and selectors)."""
        return self._encoder.formula.num_vars

    @property
    def atom_vars(self) -> dict[Term, int]:
        """Atom term → variable, for every atom ever encoded."""
        return self._encoder.formula.atom_vars

    def encode(self, term: Term) -> int:
        """The root literal for a boolean term (memoized across checks)."""
        return self._encoder.encode(term)

    def new_selector(self) -> int:
        """A fresh selector variable in the shared numbering."""
        return self._encoder.new_var()

    def drain_clauses(self) -> list[tuple[int, ...]]:
        """Gate clauses produced since the previous drain."""
        clauses = self._encoder.formula.clauses
        fresh = clauses[self._clause_cursor :]
        self._clause_cursor = len(clauses)
        return fresh


__all__ = ["AtomRegistry"]
