"""Tseitin transformation: boolean term skeletons → CNF clauses.

The encoder lowers a boolean term DAG to clauses over integer literals
(the :mod:`repro.sat` convention: variables ``1..n``, a literal is ``±v``).
Every *atom* — a boolean symbol, a theory application such as ``(< x y)``,
a quantified subterm — gets a propositional variable, and every internal
connective node gets an *auxiliary* variable constrained to be equivalent
to the connective applied to its children's literals (the full,
both-direction Tseitin encoding, so the result does not depend on the
polarity at which a node occurs: ``not`` is a sign flip, ``=>`` encodes
as its ``or`` form).

Two invariants the rest of the solving layer builds on:

* **Equisatisfiability** — ``assert_term(t)`` adds clauses satisfiable
  exactly when ``t`` is satisfiable over its atoms: any model of the
  clauses restricted to the atom variables satisfies ``t``, and any atom
  assignment satisfying ``t`` extends (uniquely, gate by gate) to a model
  of the clauses.  The encoding is linear: O(1) clauses per connective
  node, never the exponential distribution-based CNF.
* **Shared nodes share variables** — terms are hash-consed, and the
  encoder memoizes node → literal for its whole life, so a subterm shared
  by many parents or assertions is encoded once and contributes one
  auxiliary variable no matter how often, or under which polarity, it
  occurs.

An assertion is encoded by one walk, :meth:`TseitinEncoder.clausify`,
which returns its *root clauses* and its *theory atoms*.  At the root the
walk tracks polarity: ``not`` flips it; ``and``, a negated ``or`` and a
negated ``=>`` split into conjuncts; an ``or``, a negated ``and`` and an
``=>`` become one clause over their children's literals; a boolean ``=``
or a negated binary ``distinct`` becomes two implication clauses per
adjacent pair of arguments, and a negated boolean ``=`` one clause over
its adjacent pairs' negated equalities; anything else becomes the unit
clause of its signed literal.  Only the structure *below* those clauses
gets auxiliary variables, so a script that is already CNF reaches the
SAT core as exactly its own clauses.

Below the root, one post-order pass gives every node its literal.  It
reports each atom once per walk, in first-occurrence order, also below
nodes an earlier walk encoded, and first hands it to the walk's optional
:data:`Lowering` hook: the engine's bit-blaster binds a bit-vector atom
to its circuit literal there and answers the theory atoms the circuit
left (those inside a bit-vector ``ite`` condition), which are reported
in the atom's place.  ``true``/``false`` are not atoms.  Neither the root
walk nor the pass below it recurses: both run on explicit stacks, so a
skeleton's depth is bounded by memory, not by the interpreter's
recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .sorts import BOOL
from .terms import FALSE, TRUE, Apply, Term

#: Connective operators the encoder interprets structurally; every other
#: boolean term is an atom.  ``=``/``distinct`` count only when their
#: arguments are boolean, ``ite`` only when its result is.
CONNECTIVES = frozenset({"not", "and", "or", "xor", "=>", "=", "distinct", "ite"})

Clause = tuple[int, ...]

#: The lowering hook of a walk, called once per walk on each atom before
#: the atom gets a literal.  It returns None to keep the atom a theory
#: atom, or — having bound the atom's literal with
#: :meth:`TseitinEncoder.bind` — the theory atoms to report in its place.
Lowering = Callable[[Term], Optional[Sequence[Term]]]

#: Stack marker of the post-order pass: the node below it has its
#: children's literals and gets its own.
_EXIT = object()


def is_connective(term: Term) -> bool:
    """True when ``term`` is a boolean connective node (its children belong
    to the boolean skeleton); False for atoms and non-boolean terms."""
    if not isinstance(term, Apply) or term.sort != BOOL or term.op not in CONNECTIVES:
        return False
    if term.op in ("=", "distinct"):
        return bool(term.args) and term.args[0].sort == BOOL
    return True


@dataclass
class CnfFormula:
    """The output of Tseitin encoding.

    ``atom_vars`` maps each atom term to its variable; every other variable
    up to ``num_vars`` is a Tseitin auxiliary.  ``clauses`` hold the gate
    definitions plus the root clauses of every asserted term.
    """

    num_vars: int = 0
    clauses: list[Clause] = field(default_factory=list)
    atom_vars: dict[Term, int] = field(default_factory=dict)

    @property
    def num_atoms(self) -> int:
        return len(self.atom_vars)

    @property
    def num_aux(self) -> int:
        """Auxiliary (non-atom) variables introduced by the encoding."""
        return self.num_vars - len(self.atom_vars)


class TseitinEncoder:
    """Stateful encoder; feed it terms with :meth:`assert_term` (or get an
    assertion's root clauses and atoms with :meth:`clausify`, a term's
    literal with :meth:`encode`) and read the result via :attr:`formula`.
    Asserting several terms encodes their conjunction."""

    def __init__(self) -> None:
        self.formula = CnfFormula()
        self._literals: dict[Term, int] = {}
        self._true_var = 0

    # -- public surface -----------------------------------------------------

    def assert_term(self, term: Term) -> None:
        """Constrain ``term`` to hold: add its root clauses."""
        self.formula.clauses.extend(self.clausify(term)[0])

    def clausify(
        self, term: Term, lower: Optional[Lowering] = None
    ) -> tuple[list[Clause], list[Term]]:
        """The root clauses of ``term`` and its theory atoms, in one walk.

        The clauses' conjunction is equivalent to ``term`` over the
        literals of the root's children (the shapes are in the module
        docstring).  Gate clauses for the nodes below go to
        :attr:`formula` as usual; the returned clauses do not, so the
        caller can guard them.  The atoms come in first-occurrence order,
        each once, after ``lower``.  The root walk visits each hash-consed
        node once per polarity, so a shared ``and`` DAG costs its size,
        not its paths.
        """
        if term.sort != BOOL:
            raise ValueError(f"cannot CNF-encode a term of sort {term.sort}")
        clauses: list[Clause] = []
        atoms: list[Term] = []
        seen: set[Term] = set()
        walk = self._walk
        # Root nodes already clausified, under negative and positive polarity.
        done: tuple[set[Term], set[Term]] = (set(), set())
        op: Optional[str]
        args: tuple[Term, ...]
        stack = [(term, True)]
        while stack:
            node, positive = stack.pop()
            op, args = (node.op, node.args) if isinstance(node, Apply) else (None, ())
            if op == "not":
                stack.append((args[0], not positive))
                continue
            visited = done[positive]
            if node in visited:
                continue
            visited.add(node)
            if op == ("and" if positive else "or"):
                stack.extend([(arg, positive) for arg in reversed(args)])
            elif op == "=>" and not positive:
                stack.append((args[-1], False))
                stack.extend([(arg, True) for arg in reversed(args[:-1])])
            elif op == ("or" if positive else "and"):
                if positive:
                    clauses.append(tuple([walk(arg, lower, atoms, seen) for arg in args]))
                else:
                    clauses.append(tuple([-walk(arg, lower, atoms, seen) for arg in args]))
            elif op == "=>":
                lits = [-walk(arg, lower, atoms, seen) for arg in args]
                lits[-1] = -lits[-1]
                clauses.append(tuple(lits))
            elif (op == "=" if positive else op == "distinct" and len(args) == 2) and is_connective(node):
                lits = [walk(arg, lower, atoms, seen) for arg in args]
                for a, b in zip(lits, lits[1:]):
                    clauses.append((-a, b))
                    clauses.append((a, -b))
            elif op == "=" and is_connective(node):
                # Negated: some adjacent pair differs.
                pairs = [Apply("=", pair, BOOL) for pair in zip(args, args[1:])]
                clauses.append(tuple([-walk(pair, lower, atoms, seen) for pair in pairs]))
            else:
                lit = walk(node, lower, atoms, seen)
                clauses.append((lit if positive else -lit,))
        return clauses, atoms

    def encode(
        self,
        term: Term,
        lower: Optional[Lowering] = None,
        atoms: Optional[list[Term]] = None,
    ) -> int:
        """The literal equivalent to ``term`` (memoized per DAG node).

        The walk hands each atom below ``term`` to ``lower`` first, as
        :meth:`clausify` does, and appends the theory atoms to ``atoms``
        when a list is given.  Without ``lower`` no atom is lowered: an
        atom gets a plain variable unless one is already bound to it.
        """
        if term.sort != BOOL:
            raise ValueError(f"cannot CNF-encode a term of sort {term.sort}")
        return self._walk(term, lower, [] if atoms is None else atoms, set())

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
        """Make ``literal`` the encoding of ``term``, so every later walk
        reaching it uses that literal.  A term already encoded under
        another literal is tied to it by two equivalence clauses."""
        current = self._literals.get(term)
        if current is None:
            self._literals[term] = literal
        elif current != literal:
            self.formula.clauses.extend(((-current, literal), (current, -literal)))

    # -- the walk below the root ---------------------------------------------

    def _walk(
        self, term: Term, lower: Optional[Lowering], atoms: list[Term], seen: set[Term]
    ) -> int:
        """The literal of ``term``, by a post-order pass over an explicit
        stack.  ``seen`` holds the nodes this walk has finished (their
        atoms are in ``atoms``); a node the memo already knows is still
        descended once per walk, for its atoms, but gets no new gate."""
        literals = self._literals
        if term in seen:
            return literals[term]
        stack: list = [term]
        while stack:
            node = stack.pop()
            if node is _EXIT:
                node = stack.pop()
                seen.add(node)
                if node not in literals:
                    literals[node] = self._gate(node)
            elif node in seen:
                continue
            elif is_connective(node):
                stack.append(node)
                stack.append(_EXIT)
                args = node.args
                if node.op != "distinct" or len(args) <= 2:
                    stack.extend([arg for arg in reversed(args) if arg not in seen])
            else:
                seen.add(node)
                self._leaf(node, lower, atoms)
        return literals[term]

    def _leaf(self, term: Term, lower: Optional[Lowering], atoms: list[Term]) -> None:
        """Give a non-connective its literal (the hook's binding, an
        earlier one, or a fresh atom variable) and report its atoms."""
        literals = self._literals
        if term is TRUE or term is FALSE:
            if term not in literals:
                true = self.true_literal()
                literals[term] = true if term is TRUE else -true
            return
        inner = None if lower is None else lower(term)
        if term not in literals:
            literals[term] = self._atom(term)
        if inner is None:
            atoms.append(term)
        else:
            atoms.extend(inner)

    # -- gates --------------------------------------------------------------

    def _new_var(self) -> int:
        self.formula.num_vars += 1
        return self.formula.num_vars

    def _atom(self, term: Term) -> int:
        var = self._new_var()
        self.formula.atom_vars[term] = var
        return var

    def _gate(self, term: Apply) -> int:
        """The literal of a connective whose children all have literals."""
        op = term.op
        literals = self._literals
        if op == "not":
            return -literals[term.args[0]]
        if op == "distinct" and len(term.args) > 2:
            # No three booleans are pairwise distinct.
            return -self.true_literal()
        lits = [literals[arg] for arg in term.args]
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
    "Lowering",
    "TseitinEncoder",
    "tseitin",
    "is_connective",
]
