"""Tseitin transformation: boolean term skeletons → CNF clauses.

The encoder lowers a boolean term DAG to clauses over integer literals
(the :mod:`repro.sat` convention: variables ``1..n``, a literal is ``±v``).
Every *atom* — a boolean symbol, a theory application such as ``(< x y)``,
a quantified subterm — gets a propositional variable, and every internal
connective node gets an *auxiliary* variable constrained to be equivalent
to the connective applied to its children's literals (the full,
both-direction Tseitin encoding, so the result does not depend on the
polarity at which a node occurs).

Two invariants the rest of the solving layer builds on:

* **Equisatisfiability** — ``assert_term(t)`` adds clauses satisfiable
  exactly when ``t`` is satisfiable over its atoms: any model of the
  clauses restricted to the atom variables satisfies ``t``, and any atom
  assignment satisfying ``t`` extends (uniquely, gate by gate) to a model
  of the clauses.  The encoding is linear: O(1) clauses per connective
  node, never the exponential distribution-based CNF.
* **Shared nodes share variables** — terms are hash-consed, and the
  encoder memoizes node → literal, so a subterm shared by many parents is
  encoded once and contributes one auxiliary variable no matter how often
  it occurs.  Feeding the encoder :func:`repro.smtlib.simplify.to_nnf`
  output keeps this sharp: NNF re-shares negations instead of duplicating
  DAG nodes.

The encoder accepts any boolean skeleton, NNF or not (``not`` simply flips
the child literal and ``=>`` encodes as its ``or`` form).

An asserted *root* is clausified rather than Tseitin-encoded
(:meth:`TseitinEncoder.root_clauses`): a root ``and`` splits into its
distinct conjuncts, an ``or`` conjunct ships as one clause over its
children's literals, a binary boolean ``=`` as its two implication
clauses, and anything else as the unit clause of its literal.  Only the
structure *below* those clauses gets auxiliary variables, so a script
that is already CNF reaches the SAT core as exactly its own clauses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .sorts import BOOL
from .terms import FALSE, TRUE, Apply, Constant, Term

#: Connective operators the encoder interprets structurally; every other
#: boolean term is an atom.  ``=``/``distinct`` count only when their
#: arguments are boolean, ``ite`` only when its result is.
CONNECTIVES = frozenset({"not", "and", "or", "xor", "=>", "=", "distinct", "ite"})


def is_connective(term: Term) -> bool:
    """True when ``term`` is a boolean connective node (its children belong
    to the boolean skeleton); False for atoms and non-boolean terms."""
    if not isinstance(term, Apply) or term.sort != BOOL or term.op not in CONNECTIVES:
        return False
    if term.op in ("=", "distinct"):
        return bool(term.args) and term.args[0].sort == BOOL
    return True


def skeleton_atoms(term: Term) -> list[Term]:
    """The atoms of ``term``'s boolean skeleton, in first-occurrence order.

    Descends through connectives only; each distinct atom is reported once
    (hash-consing makes the dedup an identity check).  ``true``/``false``
    are not reported — they denote no model choice, and matching
    :attr:`CnfFormula.atom_vars` never assigns them a variable either.
    """
    atoms: list[Term] = []
    seen: set[Term] = set()
    stack = [term]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if is_connective(node):
            stack.extend(reversed(node.children()))
        elif node is not TRUE and node is not FALSE:
            atoms.append(node)
    return atoms


@dataclass
class CnfFormula:
    """The output of Tseitin encoding.

    ``atom_vars`` maps each atom term to its variable; every other variable
    up to ``num_vars`` is a Tseitin auxiliary.  ``clauses`` hold the gate
    definitions plus the root clauses of every asserted term.
    """

    num_vars: int = 0
    clauses: list[tuple[int, ...]] = field(default_factory=list)
    atom_vars: dict[Term, int] = field(default_factory=dict)

    @property
    def num_atoms(self) -> int:
        return len(self.atom_vars)

    @property
    def num_aux(self) -> int:
        """Auxiliary (non-atom) variables introduced by the encoding."""
        return self.num_vars - len(self.atom_vars)


class TseitinEncoder:
    """Stateful encoder; feed it terms with :meth:`assert_term` (or get a
    term's literal with :meth:`encode`, its root clauses with
    :meth:`root_clauses`) and read the result via :attr:`formula`.
    Asserting several terms encodes their conjunction."""

    def __init__(self) -> None:
        self.formula = CnfFormula()
        self._literals: dict[Term, int] = {}
        self._true_var = 0

    # -- public surface -----------------------------------------------------

    def assert_term(self, term: Term) -> None:
        """Constrain ``term`` to hold: add its root clauses."""
        self.formula.clauses.extend(self.root_clauses(term))

    def root_clauses(self, term: Term) -> list[tuple[int, ...]]:
        """Clauses whose conjunction is equivalent to ``term`` over the
        literals of its root's children.

        The root ``and`` (nested ``and``s included) splits into its
        distinct conjuncts; an ``or`` conjunct is one clause over its
        children's literals, a binary boolean ``=`` the two clauses
        ``(¬a ∨ b)``, ``(a ∨ ¬b)``, and any other conjunct the unit clause
        of its literal.  Gate clauses for the children go to
        :attr:`formula` as usual; the returned clauses do not, so the
        caller can guard them.  The flatten walks each hash-consed node
        once, so a shared ``and`` DAG costs its size, not its paths.
        """
        clauses: list[tuple[int, ...]] = []
        seen: set[Term] = set()
        stack = [term]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if not isinstance(node, Apply):
                clauses.append((self.encode(node),))
            elif node.op == "and":
                stack.extend(reversed(node.args))
            elif node.op == "or":
                clauses.append(tuple([self.encode(arg) for arg in node.args]))
            elif node.op == "=" and len(node.args) == 2 and node.args[0].sort == BOOL:
                a, b = self.encode(node.args[0]), self.encode(node.args[1])
                clauses.append((-a, b))
                clauses.append((a, -b))
            else:
                clauses.append((self.encode(node),))
        return clauses

    def new_var(self) -> int:
        """Allocate a fresh non-atom variable in the encoder's space.

        The incremental engine draws its frame *selector* literals from
        here so clauses, atoms and selectors share one numbering.
        """
        return self._new_var()

    def true_literal(self) -> int:
        """The constant-true literal, allocated (with its unit clause) on
        first use."""
        if not self._true_var:
            self._true_var = self._new_var()
            self.formula.clauses.append((self._true_var,))
        return self._true_var

    @property
    def literals(self) -> dict[Term, int]:
        """The node → literal memo (read-only view)."""
        return self._literals

    def bind(self, term: Term, literal: int) -> None:
        """Make ``literal`` the encoding of ``term``, so every later
        :meth:`encode` of it returns that literal.  A term already encoded
        under another literal is tied to it by two equivalence clauses."""
        current = self._literals.get(term)
        if current is None:
            self._literals[term] = literal
        elif current != literal:
            self.formula.clauses.extend(((-current, literal), (current, -literal)))

    def encode(self, term: Term) -> int:
        """The literal equivalent to ``term`` (memoized per DAG node)."""
        if term.sort != BOOL:
            raise ValueError(f"cannot CNF-encode a term of sort {term.sort}")
        cached = self._literals.get(term)
        if cached is not None:
            return cached
        literal = self._encode_node(term)
        self._literals[term] = literal
        return literal

    # -- gates --------------------------------------------------------------

    def _new_var(self) -> int:
        self.formula.num_vars += 1
        return self.formula.num_vars

    def _atom(self, term: Term) -> int:
        var = self._new_var()
        self.formula.atom_vars[term] = var
        return var

    def _encode_node(self, term: Term) -> int:
        if isinstance(term, Constant):
            if term is TRUE:
                return self.true_literal()
            if term is FALSE:
                return -self.true_literal()
            return self._atom(term)  # qualified boolean constant: opaque
        if not is_connective(term):
            return self._atom(term)
        assert isinstance(term, Apply)
        op = term.op
        if op == "not":
            return -self.encode(term.args[0])
        lits = [self.encode(arg) for arg in term.args]
        if op == "and":
            return self._and_gate(lits)
        if op == "or":
            return self._or_gate(lits)
        if op == "=>":
            return self._or_gate([-lit for lit in lits[:-1]] + [lits[-1]])
        if op == "xor":
            return self._xor_chain(lits)
        if op == "=":
            if len(lits) == 2:
                return self._iff_gate(lits[0], lits[1])
            pairs = [self._iff_gate(a, b) for a, b in zip(lits, lits[1:])]
            return self._and_gate(pairs)
        if op == "distinct":
            if len(lits) > 2:
                # No three booleans are pairwise distinct.
                return -self.true_literal()
            return self._xor_gate(lits[0], lits[1])
        if op == "ite":
            return self._ite_gate(lits[0], lits[1], lits[2])
        raise AssertionError(f"unhandled connective {op!r}")  # pragma: no cover

    def _and_gate(self, lits: list[int]) -> int:
        if len(lits) == 1:
            return lits[0]
        v = self._new_var()
        clauses = self.formula.clauses
        for lit in lits:
            clauses.append((-v, lit))
        clauses.append(tuple([v] + [-lit for lit in lits]))
        return v

    def _or_gate(self, lits: list[int]) -> int:
        if len(lits) == 1:
            return lits[0]
        v = self._new_var()
        clauses = self.formula.clauses
        for lit in lits:
            clauses.append((v, -lit))
        clauses.append(tuple([-v] + lits))
        return v

    def _xor_gate(self, a: int, b: int) -> int:
        v = self._new_var()
        self.formula.clauses.extend(
            [(-v, a, b), (-v, -a, -b), (v, -a, b), (v, a, -b)]
        )
        return v

    def _iff_gate(self, a: int, b: int) -> int:
        v = self._new_var()
        self.formula.clauses.extend(
            [(-v, -a, b), (-v, a, -b), (v, a, b), (v, -a, -b)]
        )
        return v

    def _xor_chain(self, lits: list[int]) -> int:
        acc = lits[0]
        for lit in lits[1:]:
            acc = self._xor_gate(acc, lit)
        return acc

    def _ite_gate(self, c: int, t: int, e: int) -> int:
        v = self._new_var()
        self.formula.clauses.extend(
            [
                (-v, -c, t),
                (-v, c, e),
                (v, -c, -t),
                (v, c, -e),
                # Redundant but propagation-strengthening:
                (-v, t, e),
                (v, -t, -e),
            ]
        )
        return v


def tseitin(term: Term) -> CnfFormula:
    """Encode a single asserted boolean term; convenience over the class."""
    encoder = TseitinEncoder()
    encoder.assert_term(term)
    return encoder.formula


__all__ = [
    "CONNECTIVES",
    "CnfFormula",
    "TseitinEncoder",
    "tseitin",
    "is_connective",
    "skeleton_atoms",
]
