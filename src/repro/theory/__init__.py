"""The pluggable theory layer of the DPLL(T) engine.

* :mod:`repro.theory.core` — the :class:`Theory` interface every plugin
  implements (``assert_literal`` / ``check`` / ``explain``-via-conflicts /
  ``push`` / ``pop`` / ``model``), the :class:`TheoryConflict` explanation
  shape, the :class:`TheoryClause` lazy-lemma channel, and the
  :class:`SortValueAllocator` that mints pairwise-distinct model values
  per sort (and repeatable defaults for don't-cares).
* :mod:`repro.theory.euf` — congruence closure over the hash-consed DAG
  (union-find with a proof forest, congruence table keyed on interned
  children, disequality and distinguished-constant tracking), deciding
  QF_UF with checkable models and minimal-ish explanations.  The same
  e-graph decides extensional arrays (QF_AX-style ``select``/``store``):
  read-over-write axioms are instantiated lazily, and symbolic index case
  splits ship to the SAT core as :class:`~repro.theory.core.TheoryClause`
  lemmas.  An application is uninterpreted when its operator is not in
  the signature table.
* :mod:`repro.theory.arith` — linear rational/integer arithmetic
  (QF_LRA/QF_LIA) by Dutertre–de Moura dual simplex over δ-rationals,
  with Bland's-rule pivoting and minimal bound-clash and row
  explanations.  Integer solutions come from splitting on demand: a
  fractional ``Int`` symbol ``x`` becomes the case split ``(<= x k) ∨
  (>= x k+1)``, a :class:`~repro.theory.core.TheoryClause` the SAT core
  branches on, budgeted per run.  The kernel runs on Python integers:
  integer tableau rows over one denominator and integer δ-rational
  triples compared by cross-multiplication.
* :mod:`repro.theory.bv` — not a lazy plugin but the *eager* path:
  :class:`~repro.theory.bv.BvBlaster` lowers QF_BV atoms to gates over
  the encoder's literals while encoding, so bit-vector reasoning rides
  the plain CDCL/proof pipeline.
* :class:`~repro.theory.core.UndoLogTheory` — the undo log both
  plugins keep their assignment-dependent state in: ``push`` marks it,
  ``pop(levels)`` replays it back to a mark in one pass.

The engine builds the plugin tuple ``(ArithTheory(), EufTheory())``
once per run, so plugin caches, emitted lemmas and counters outlive
individual ``check-sat`` commands, and drives it itself: the SAT core
(:mod:`repro.sat`) knows nothing about terms and theories, and one
:class:`repro.sat.TheoryHook` in :mod:`repro.engine` routes each trail
literal straight to the first plugin that owns its atom, with one
checkpoint on every plugin per batch of trail literals it syncs.  See
``docs/THEORIES.md`` for the plugin-author contract.
"""

from .arith import ArithTheory
from .bv import BvBlaster
from .core import (
    SortValueAllocator,
    Theory,
    TheoryClause,
    TheoryConflict,
    TheoryModel,
)
from .euf import EufTheory

__all__ = [
    "Theory",
    "TheoryConflict",
    "TheoryClause",
    "TheoryModel",
    "SortValueAllocator",
    "EufTheory",
    "ArithTheory",
    "BvBlaster",
]
