"""Linear arithmetic: a dual-simplex theory plugin for QF_LRA / QF_LIA.

The second concrete :class:`~repro.theory.core.Theory` implements the
general simplex of Dutertre–de Moura ("A Fast Linear-Arithmetic Solver
for DPLL(T)", CAV'06), and hands integer branching to the SAT core:

* **Atoms** are binary comparisons ``lhs ▷ rhs`` (``<``, ``<=``, ``>``,
  ``>=``) whose difference is *linear* over Int/Real symbols (the
  fragment :func:`~repro.smtlib.linarith.linear_form` accepts).  Each
  atom compiles once, from the difference of its sides' cached linear
  forms, into a bound ``v ▷ c`` on a single simplex variable: the
  symbol itself for one-variable forms, otherwise a
  *slack* variable defined by the canonically-scaled linear expression.
  Slack definitions are shared — ``x + 2y <= 3`` and ``2x + 4y >= 10``
  bound the same slack — so the tableau grows with distinct expressions,
  not with asserted literals.
* **Assert** updates one bound: a clash against the opposite bound is an
  immediate conflict explained by exactly the two responsible literals;
  a non-basic variable pushed outside its bounds is repaired by the
  standard ``update`` sweep over the columns.
* **Check** runs the dual simplex to a feasible assignment or a
  *minimal-by-construction* infeasibility explanation (the violated
  bound plus the limiting bound of every variable in its row), with
  Bland's rule (smallest variable index first) guaranteeing termination.
* **Exact integer kernel** — the tableau, the assignment and the bounds
  are Python integers.  The row of basic variable ``b`` is integer
  coefficients ``a_j`` over one positive denominator ``den``, meaning
  ``den·x_b = Σ a_j·x_j``, divided through by the gcd of its entries
  after every definition and pivot (so ``den`` is the lcm of the reduced
  coefficients' denominators, and the sign of ``a_j`` is the sign of the
  coefficient).  Values are integer δ-rational triples (:data:`_Value`)
  compared by cross-multiplication, so every comparison is exact and
  cheap.  A :class:`~fractions.Fraction` appears only where an atom is
  compiled and where a model is extracted.
* **Strict bounds** use δ-rationals: ``x < c`` is ``x <= c - δ`` for a
  symbolic infinitesimal δ, materialized at model-extraction time by
  choosing a concrete δ small enough for every asserted bound.  Integer
  variables avoid δ entirely — their strict bounds tighten to the
  nearest integer (``x < 5/2`` becomes ``x <= 2``), which also
  strengthens propagation.
* **Integers** are split on demand (Barrett, Nieuwenhuis, Oliveras &
  Tinelli, LPAR 2006): a final check whose assignment gives an ``Int``
  symbol ``x`` the fractional value ``v`` queues the valid clause
  ``(<= x ⌊v⌋) ∨ (>= x ⌊v⌋+1)`` through :meth:`ArithTheory.pending_lemmas`,
  and the SAT core branches on it, as it does on the array case splits.
  Only symbols the asserted bounds constrain are split (they are the
  model's symbols, and integral symbols make every bounded ``Int``
  slack integral), each ``(symbol, cut)`` once per run, at most
  :data:`SPLIT_BUDGET` times; past the budget the check reports
  ``branch-budget-exhausted`` and the answer degrades to ``unknown``.
  Every conflict is a bound clash or a tableau row at its bounds, over
  asserted literals.
* **Backtracking** restores bounds (and the conflict flag) through the
  undo log EUF uses too (:class:`~repro.theory.core.UndoLogTheory`).  The
  tableau, the variable assignment and all slack definitions persist
  across ``pop`` — rows are definitional identities, and relaxing bounds
  can never invalidate the non-basic-within-bounds invariant — so
  backtracking costs O(bounds changed), never a rebuild.  They persist
  across checks too (the plugin lives for the whole engine run): a
  variable only atoms of an earlier check mention stays in the tableau,
  unbounded, and out of the model.

Equality atoms are deliberately **not** owned: the engine's preparation
pass splits every pure-arithmetic ``(= a b)`` into
``(and (<= a b) (>= a b))``, whose negation the SAT core case-splits
into strict inequalities — the theory never needs disequality reasoning.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from ..smtlib.linarith import difference_form, linear_form
from ..smtlib.sorts import BOOL, INT, REAL
from ..smtlib.terms import Apply, Constant, Symbol, Term, int_const
from .core import (
    SortValueAllocator,
    TheoryClause,
    TheoryConflict,
    TheoryModel,
    UndoLogTheory,
)

#: Cap on integer splits per plugin (one engine run); a final check that
#: needs one more reports ``branch-budget-exhausted`` instead of
#: splitting forever (``x = 2y ∧ x = 2z + 1`` has no bounded refutation).
SPLIT_BUDGET = 1_000

#: A bound's provenance: the asserted ``(atom, positive)`` literal.
_Lit = tuple[Term, bool]

#: An integer δ-rational ``(p, q, d)``: the value ``(p + q·δ)/d`` for a
#: symbolic positive infinitesimal δ, with ``d > 0`` and
#: ``gcd(p, q, d) = 1``.  Ordered by the real part, then the δ part —
#: exactly the order that makes the strict bound ``x < c`` equivalent to
#: ``x <= c - δ`` for every sufficiently small positive δ.
_Value = tuple[int, int, int]

_ZERO: _Value = (0, 0, 1)

_ARITH_OPS = ("<", "<=", ">", ">=")
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
_NEGATE = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def _value(p: int, q: int, d: int) -> _Value:
    """The normalized triple of ``(p + q·δ)/d`` for ``d > 0``."""
    g = gcd(p, q, d)
    if g == 1:
        return p, q, d
    return p // g, q // g, d // g


def _lt(a: _Value, b: _Value) -> bool:
    """``a < b``: real parts first, then δ parts, by cross-multiplying
    (both denominators are positive)."""
    left = a[0] * b[2]
    right = b[0] * a[2]
    return left < right or (left == right and a[1] * b[2] < b[1] * a[2])


def _add_scaled(x: _Value, y: _Value, num: int, den: int) -> _Value:
    """``x + y·num/den`` for ``den > 0``."""
    xp, xq, xd = x
    yp, yq, yd = y
    scale = yd * den
    factor = num * xd
    return _value(xp * scale + yp * factor, xq * scale + yq * factor, xd * scale)


def _is_integral(value: _Value) -> bool:
    """Integral exactly when δ-free over denominator 1 (normalized)."""
    return value[1] == 0 and value[2] == 1


def _floor(value: _Value) -> int:
    """The largest integer at or below the value (strictly below when the
    real part is integral and the δ part negative)."""
    p, q, d = value
    base, rest = divmod(p, d)
    if rest == 0 and q < 0:
        return base - 1
    return base


def _ceil(value: _Value) -> int:
    p, q, d = value
    return -_floor((-p, -q, d))


def _normalize_row(row: dict[int, int], den: int) -> int:
    """Divide ``row`` and its denominator by their gcd; the new
    denominator.  The gcd divides ``den``, so the scan stops as soon as
    it reaches 1 (at once for an integral row)."""
    g = den
    for entry in row.values():
        if g == 1:
            return den
        g = gcd(g, entry)
    if g != 1:
        for column in row:
            row[column] //= g
        den //= g
    return den


class ArithTheory(UndoLogTheory):
    """Dual simplex over δ-rationals, splitting ``Int`` symbols on demand
    (see the module docstring)."""

    name = "arith"

    def __init__(self) -> None:
        super().__init__()
        # Variable space: externals (script symbols) and slacks share it.
        self._is_int: list[bool] = []
        self._var_of: dict[Symbol, int] = {}
        self._slack_of: dict[tuple, int] = {}
        # The tableau: basic variable -> sparse integer row over non-basic
        # ones and its positive denominator, plus the column index
        # (non-basic -> rows that mention it).
        self._rows: dict[int, dict[int, int]] = {}
        self._dens: dict[int, int] = {}
        self._cols: defaultdict[int, set[int]] = defaultdict(set)
        self._assign: list[_Value] = []
        self._lower: dict[int, tuple[_Value, _Lit]] = {}
        self._upper: dict[int, tuple[_Value, _Lit]] = {}
        self._compiled: dict[Term, tuple] = {}
        #: ``(symbol, cut)`` pairs whose splits have been queued this run.
        self._splits: set[tuple[Symbol, int]] = set()
        self._incomplete = False
        self.stats = {
            "literals": 0,
            "conflicts": 0,
            "pivots": 0,
            "branches": 0,
            "checks": 0,
            "bb_exhausted": 0,
        }

    # -- fragment membership -------------------------------------------------

    def owns_atom(self, atom: Term) -> bool:
        """Binary ``<``/``<=``/``>``/``>=`` whose sides are linear over
        Int/Real symbols."""
        return (
            isinstance(atom, Apply)
            and not atom.indices
            and atom.op in _ARITH_OPS
            and len(atom.args) == 2
            and linear_form(atom.args[0]) is not None
            and linear_form(atom.args[1]) is not None
        )

    # -- variable and slack registration ------------------------------------

    def _new_var(self, is_int: bool) -> int:
        index = len(self._assign)
        self._is_int.append(is_int)
        self._assign.append(_ZERO)
        return index

    def _var_index(self, symbol: Symbol) -> int:
        index = self._var_of.get(symbol)
        if index is None:
            index = self._new_var(symbol.sort == INT)
            self._var_of[symbol] = index
        return index

    def _slack_index(self, coeffs: dict[Symbol, int | Fraction]) -> tuple[int, Fraction]:
        """The (shared) slack variable for a multi-variable linear
        expression, plus the scale mapping the caller's coefficients onto
        the canonical ones (coprime integers, positive leading
        coefficient, variables ordered by name)."""
        items = sorted(coeffs.items(), key=lambda entry: entry[0].name)
        multiple = lcm(*(coeff.denominator for _, coeff in items))
        scaled = [coeff.numerator * (multiple // coeff.denominator) for _, coeff in items]
        divisor = gcd(*scaled)
        if scaled[0] < 0:
            divisor = -divisor
        key = tuple((symbol, entry // divisor) for (symbol, _), entry in zip(items, scaled))
        scale = Fraction(multiple, divisor)
        existing = self._slack_of.get(key)
        if existing is not None:
            return existing, scale
        # New definition: express the row over the current non-basic
        # variables (substituting any basic variable's row keeps the
        # tableau in solved form) and enter it as a basic variable whose
        # assignment is the current value of the expression.
        rows, dens, assign = self._rows, self._dens, self._assign
        row: dict[int, int] = {}
        den = 1
        p, q, d = _ZERO
        is_int = True
        for symbol, coeff in key:
            index = self._var_index(symbol)
            if symbol.sort != INT:
                is_int = False
            vp, vq, vd = assign[index]
            p, q, d = p * vd + coeff * vp * d, q * vd + coeff * vq * d, d * vd
            # row/den + coeff·(expansion/expansion_den) over the lcm; a
            # non-basic variable expands to itself.
            if index in rows:
                expansion, expansion_den = rows[index], dens[index]
            else:
                expansion, expansion_den = {index: 1}, 1
            widen = expansion_den // gcd(den, expansion_den)
            if widen != 1:
                for column in row:
                    row[column] *= widen
                den *= widen
            factor = coeff * (den // expansion_den)
            for column, entry in expansion.items():
                updated = row.get(column, 0) + factor * entry
                if updated:
                    row[column] = updated
                else:
                    row.pop(column, None)
        slack = self._new_var(is_int)
        assign[slack] = _value(p, q, d)
        rows[slack] = row
        dens[slack] = _normalize_row(row, den)
        for column in row:
            self._cols[column].add(slack)
        self._slack_of[key] = slack
        return slack, scale

    # -- atom compilation ----------------------------------------------------

    def _compile(self, atom: Apply) -> tuple:
        cached = self._compiled.get(atom)
        if cached is not None:
            return cached
        form = difference_form(*atom.args)
        assert form is not None, f"not an arithmetic atom: {atom!r}"
        coeffs, constant = form
        target = -constant  # the atom is  Σ coeffs · x  ▷  target
        compiled: tuple
        if not coeffs:
            truth = {
                "<": 0 < target,
                "<=": 0 <= target,
                ">": 0 > target,
                ">=": 0 >= target,
            }[atom.op]
            compiled = ("const", truth)
        else:
            if len(coeffs) == 1:
                symbol, coeff = next(iter(coeffs.items()))
                var = self._var_index(symbol)
                scale = Fraction(1) / coeff
            else:
                var, scale = self._slack_index(coeffs)
            bound = target * scale
            op = atom.op if scale > 0 else _FLIP[atom.op]
            is_int = self._is_int[var]
            compiled = (
                "bound",
                var,
                self._bound_for(op, bound, is_int),
                self._bound_for(_NEGATE[op], bound, is_int),
            )
        self._compiled[atom] = compiled
        return compiled

    @staticmethod
    def _bound_for(op: str, bound: Fraction, is_int: bool) -> tuple[bool, _Value]:
        """``(is_upper, value)`` for ``v op bound``; integer variables
        tighten to integral δ-free bounds."""
        n, d = bound.numerator, bound.denominator
        exact: _Value = (n, 0, d)
        if op == "<=":
            return True, (_floor(exact), 0, 1) if is_int else exact
        if op == "<":
            return True, (_ceil(exact) - 1, 0, 1) if is_int else (n, -d, d)
        if op == ">=":
            return False, (_ceil(exact), 0, 1) if is_int else exact
        assert op == ">"
        return False, (_floor(exact) + 1, 0, 1) if is_int else (n, d, d)

    # -- bound maintenance ---------------------------------------------------

    def _assert_bound(
        self, var: int, is_upper: bool, value: _Value, lit: _Lit
    ) -> Optional[list[_Lit]]:
        """Tighten one bound; return the two clashing literals on an
        immediate lower/upper contradiction, ``None`` otherwise."""
        if is_upper:
            current = self._upper.get(var)
            if current is not None and not _lt(value, current[0]):
                return None  # weaker than what is already known
            other = self._lower.get(var)
            if other is not None and _lt(value, other[0]):
                return [lit, other[1]]
            self._save(self._upper, var)
            self._upper[var] = (value, lit)
            if var not in self._rows and _lt(value, self._assign[var]):
                self._update(var, value)
        else:
            current = self._lower.get(var)
            if current is not None and not _lt(current[0], value):
                return None
            other = self._upper.get(var)
            if other is not None and _lt(other[0], value):
                return [lit, other[1]]
            self._save(self._lower, var)
            self._lower[var] = (value, lit)
            if var not in self._rows and _lt(self._assign[var], value):
                self._update(var, value)
        return None

    def _update(self, var: int, value: _Value) -> None:
        """Move a non-basic variable, carrying every dependent basic."""
        assign, rows, dens = self._assign, self._rows, self._dens
        delta = _add_scaled(value, assign[var], -1, 1)
        for basic in self._cols.get(var, ()):
            assign[basic] = _add_scaled(assign[basic], delta, rows[basic][var], dens[basic])
        assign[var] = value

    # -- the simplex core ----------------------------------------------------

    def _simplex(self) -> Optional[list[_Lit]]:
        """Pivot to feasibility; ``None`` when feasible, otherwise the
        infeasibility explanation (a list of bound literals)."""
        rows, assign = self._rows, self._assign
        lower, upper = self._lower, self._upper
        while True:
            violated: Optional[tuple[int, bool]] = None
            # The compares of :func:`_lt`, inlined: this is the hot loop.
            for basic in sorted(rows):
                p, q, d = assign[basic]
                low = lower.get(basic)
                if low is not None:
                    bp, bq, bd = low[0]
                    left, right = p * bd, bp * d
                    if left < right or (left == right and q * bd < bq * d):
                        violated = (basic, True)
                        break
                high = upper.get(basic)
                if high is not None:
                    bp, bq, bd = high[0]
                    left, right = p * bd, bp * d
                    if left > right or (left == right and q * bd > bq * d):
                        violated = (basic, False)
                        break
            if violated is None:
                return None
            basic, need_increase = violated
            row = rows[basic]
            chosen: Optional[int] = None
            for column in sorted(row):  # Bland's rule: smallest index
                # The column must rise when its coefficient's sign agrees
                # with the direction the basic variable has to move.
                if (row[column] > 0) == need_increase:
                    bound = upper.get(column)
                    if bound is None or _lt(assign[column], bound[0]):
                        chosen = column
                        break
                else:
                    bound = lower.get(column)
                    if bound is None or _lt(bound[0], assign[column]):
                        chosen = column
                        break
            if chosen is None:
                # Every row variable is at its limiting bound: the row is
                # an inconsistent combination of exactly these bounds.
                if need_increase:
                    explanation = [lower[basic][1]]
                    for column in sorted(row):
                        side = upper if row[column] > 0 else lower
                        explanation.append(side[column][1])
                else:
                    explanation = [upper[basic][1]]
                    for column in sorted(row):
                        side = lower if row[column] > 0 else upper
                        explanation.append(side[column][1])
                return explanation
            target = lower[basic][0] if need_increase else upper[basic][0]
            self._pivot_and_update(basic, chosen, target)
            self.stats["pivots"] += 1

    def _pivot_and_update(self, basic: int, entering: int, value: _Value) -> None:
        rows, dens, cols, assign = self._rows, self._dens, self._cols, self._assign
        row = rows.pop(basic)
        den = dens.pop(basic)
        coeff = row[entering]
        sign = 1 if coeff > 0 else -1
        # θ = (value − x_b)·den/coeff moves x_entering so x_b lands on value.
        vp, vq, vd = value
        bp, bq, bd = assign[basic]
        theta = _value(
            (vp * bd - bp * vd) * den * sign,
            (vq * bd - bq * vd) * den * sign,
            vd * bd * coeff * sign,
        )
        # Assignments first (they need the old column index).
        assign[basic] = value
        for other in cols.get(entering, ()):
            if other != basic:
                assign[other] = _add_scaled(assign[other], theta, rows[other][entering], dens[other])
        assign[entering] = _add_scaled(assign[entering], theta, 1, 1)
        # Structural pivot: solve ``basic``'s row for ``entering``
        # (coeff·x_e = den·x_b − Σ a_j·x_j; its entries keep the row's
        # gcd of 1) ...
        for column in row:
            cols[column].discard(basic)
        entering_den = coeff * sign
        entering_row: dict[int, int] = {basic: den * sign}
        for column, entry in row.items():
            if column != entering:
                entering_row[column] = -entry * sign
        # ... and substitute it into every other row that mentions it:
        # den_o·x_o = … + c_e·x_e becomes, scaled by entering_den/g,
        # an integer row again, then divided by its gcd.
        targets = [(column, entry, cols[column]) for column, entry in entering_row.items()]
        for other in cols.pop(entering, ()):
            other_row = rows[other]
            factor = other_row.pop(entering)
            g = gcd(factor, entering_den)
            widen = entering_den // g
            factor //= g
            if widen != 1:
                for column in other_row:
                    other_row[column] *= widen
            for column, entry, members in targets:
                previous = other_row.get(column)
                if previous is None:
                    other_row[column] = factor * entry
                    members.add(other)
                else:
                    updated = previous + factor * entry
                    if updated:
                        other_row[column] = updated
                    else:
                        del other_row[column]
                        members.discard(other)
            dens[other] = _normalize_row(other_row, dens[other] * widen)
        rows[entering] = entering_row
        dens[entering] = entering_den
        for _, _, members in targets:
            members.add(entering)

    # -- the Theory interface ------------------------------------------------

    def assert_literal(self, atom: Term, positive: bool) -> Optional[TheoryConflict]:
        if self._conflict is not None:
            return self._conflict
        self.stats["literals"] += 1
        assert isinstance(atom, Apply), f"not an arithmetic atom: {atom!r}"
        compiled = self._compile(atom)
        if compiled[0] == "const":
            if compiled[1] != positive:
                self._set_conflict(TheoryConflict(((atom, positive),), source=self.name))
            return self._conflict
        _, var, positive_bound, negative_bound = compiled
        is_upper, value = positive_bound if positive else negative_bound
        clash = self._assert_bound(var, is_upper, value, (atom, positive))
        if clash is not None:
            self._set_conflict(TheoryConflict(tuple(clash), source=self.name))
        return self._conflict

    def check(self) -> Optional[TheoryConflict]:
        if self._conflict is not None:
            return self._conflict
        self.stats["checks"] += 1
        self._incomplete = False
        conflict = self._simplex()
        if conflict is not None:
            self._set_conflict(TheoryConflict(tuple(conflict), source=self.name))
            return self._conflict
        assign = self._assign
        for symbol, var in self._constrained():
            value = assign[var]
            if self._is_int[var] and not _is_integral(value):
                self._split(symbol, _floor(value))
                break
        return None

    def _split(self, symbol: Symbol, cut: int) -> None:
        """Queue ``(<= x cut) ∨ (>= x cut+1)`` for the SAT core, which
        picks the branch (under its default phase a fresh atom is decided
        false, the lowest variable first, so the upper branch comes
        first).  A pair that already shipped cannot recur while its atoms
        reach this plugin, so meeting one again stops the search like the
        budget."""
        key = (symbol, cut)
        if key in self._splits or len(self._splits) >= SPLIT_BUDGET:
            self._incomplete = True
            self.stats["bb_exhausted"] += 1
            return
        self._splits.add(key)
        self.stats["branches"] += 1
        below = Apply("<=", (symbol, int_const(cut)), BOOL)
        above = Apply(">=", (symbol, int_const(cut + 1)), BOOL)
        self._lemmas.append(TheoryClause(((below, True), (above, True)), source=self.name))

    def _constrained(self) -> list[tuple[Symbol, int]]:
        """The symbols the asserted literals constrain, with their
        variables: every bounded symbol (an asserted atom always leaves a
        bound on its variable; a weaker one finds a bound already there)
        and the symbols of every bounded slack.  Symbols only an earlier
        check's atoms mention stay out."""
        live = self._lower.keys() | self._upper.keys()
        for key, slack in self._slack_of.items():
            if slack in live:
                live.update(self._var_of[symbol] for symbol, _ in key)
        return [(symbol, var) for symbol, var in self._var_of.items() if var in live]

    def model(self, allocator: SortValueAllocator) -> Optional[TheoryModel]:
        """Concrete rational/integer values for the constrained symbols:
        the simplex assignment with δ instantiated small enough to honor
        every strict bound."""
        if self._conflict is not None or self._incomplete:
            return None
        if self._simplex() is not None:
            return None  # pragma: no cover - defensive; check() runs first
        delta = self._delta_value()
        model = TheoryModel()
        for symbol, var in self._constrained():
            p, q, d = self._assign[var]
            exact = (p + q * delta) / d  # a Fraction: δ is one
            if self._is_int[var]:
                if exact.denominator != 1:
                    return None  # pragma: no cover - defensive
                constant = int_const(exact.numerator)
            else:
                constant = Constant(exact, REAL)
            allocator.reserve(constant)
            model.values[symbol.name] = constant
        return model

    def incomplete_reason(self) -> Optional[str]:
        if self._incomplete:
            return "branch-budget-exhausted"
        return None

    def _delta_value(self) -> Fraction:
        """A concrete positive δ preserving every bound comparison once
        substituted: for each ``a₁ + b₁δ ≤ a₂ + b₂δ`` with ``b₁ > b₂``
        the substitution stays true for δ up to ``(a₂ − a₁)/(b₁ − b₂)``."""
        delta = Fraction(1)
        for var, (vp, vq, vd) in enumerate(self._assign):
            low = self._lower.get(var)
            if low is not None:
                bp, bq, bd = low[0]
                gap, slope = vp * bd - bp * vd, bq * vd - vq * bd
                if gap > 0 and slope > 0:
                    delta = min(delta, Fraction(gap, slope))
            high = self._upper.get(var)
            if high is not None:
                bp, bq, bd = high[0]
                gap, slope = bp * vd - vp * bd, vq * bd - bq * vd
                if gap > 0 and slope > 0:
                    delta = min(delta, Fraction(gap, slope))
        return delta

    # -- introspection -------------------------------------------------------

    def tableau_size(self) -> tuple[int, int]:
        """``(variables, basic rows)`` — the live tableau dimensions."""
        return len(self._assign), len(self._rows)


__all__ = ["ArithTheory"]
