"""The persistent atom ↔ SAT-variable registry.

One :class:`AtomRegistry` lives for the whole life of an
:class:`~repro.engine.Engine`: it wraps a single
:class:`~repro.smtlib.cnf.TseitinEncoder` whose node → literal memo and
variable counter survive across ``check-sat`` calls.  Because terms are
hash-consed, re-encoding an unchanged assertion is a dictionary hit — the
second ``check-sat`` on the same assertion set performs *zero* Tseitin
work, which is exactly the invariant the incremental tests assert through
the ``engine.tseitin_new_vars`` / ``engine.tseitin_new_clauses`` metrics.

An assertion enters through :meth:`AtomRegistry.root_clauses`: its root
structure comes back as clauses (a conjunction splits, a disjunction is
one clause, a boolean ``=`` two), for the engine to ship bare in the base
frame or guarded by a selector in a pushed frame; only subterms below
the root get Tseitin gates, which :meth:`AtomRegistry.drain_clauses`
hands out.  The registry also allocates frame *selector* variables from
the same space, so solver, encoder and engine agree on one numbering,
and exposes ``atom_vars`` — the stable atom → variable map the engine
inverts (over the owned subset) for the theory hook.  The bit-vector
blaster shares the encoder too: its bit and gate variables come from the
same counter, its gate clauses drain with the Tseitin gates, and each
lowered atom is bound to its circuit literal in the encoder memo, so the
skeleton above it encodes against that literal.
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
    def encoder(self) -> TseitinEncoder:
        """The shared encoder; the bit-vector blaster allocates its bit and
        gate variables and binds lowered atoms here."""
        return self._encoder

    @property
    def num_vars(self) -> int:
        """Variables allocated so far (atoms, auxiliaries and selectors)."""
        return self._encoder.formula.num_vars

    @property
    def atom_vars(self) -> dict[Term, int]:
        """Atom term → variable, for every atom ever encoded."""
        return self._encoder.formula.atom_vars

    @property
    def literals(self) -> dict[Term, int]:
        """Term → literal for every term ever encoded or bound."""
        return self._encoder.literals

    def encode(self, term: Term) -> int:
        """The literal for a boolean term (memoized across checks)."""
        return self._encoder.encode(term)

    def root_clauses(self, term: Term) -> list[tuple[int, ...]]:
        """An asserted term's root clauses (see
        :meth:`~repro.smtlib.cnf.TseitinEncoder.root_clauses`); the gate
        clauses of its subterms wait for :meth:`drain_clauses`."""
        return self._encoder.root_clauses(term)

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
