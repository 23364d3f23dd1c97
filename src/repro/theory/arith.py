"""Linear arithmetic: a dual-simplex theory plugin for QF_LRA / QF_LIA.

The second concrete :class:`~repro.theory.core.Theory` implements the
general simplex of Dutertre–de Moura ("A Fast Linear-Arithmetic Solver
for DPLL(T)", CAV'06), plus branch-and-bound for integer solutions:

* **Atoms** are binary comparisons ``lhs ▷ rhs`` (``<``, ``<=``, ``>``,
  ``>=``) whose difference is *linear* over Int/Real symbols (the
  fragment :func:`~repro.smtlib.linarith.linear_form` accepts).  Each
  atom compiles once into a bound ``v ▷ c`` on a single simplex
  variable: the symbol itself for one-variable forms, otherwise a *slack*
  variable defined by the canonically-scaled linear expression.  Slack
  definitions are shared — ``x + 2y <= 3`` and ``2x + 4y >= 10`` bound
  the same slack — so the tableau grows with distinct expressions, not
  with asserted literals.
* **Assert** updates one bound: a clash against the opposite bound is an
  immediate conflict explained by exactly the two responsible literals;
  a non-basic variable pushed outside its bounds is repaired by the
  standard ``update`` sweep over the columns.
* **Check** runs the dual simplex to a feasible assignment or a
  *minimal-by-construction* infeasibility explanation (the violated
  bound plus the limiting bound of every variable in its row), with
  Bland's rule (smallest variable index first) guaranteeing termination.
* **Strict bounds** use δ-rationals (:class:`DeltaRational`): ``x < c``
  is ``x <= c - δ`` for a symbolic infinitesimal δ, materialized at
  model-extraction time by choosing a concrete δ small enough for every
  asserted bound.  Integer variables avoid δ entirely — their strict
  bounds tighten to the nearest integer (``x < 5/2`` becomes
  ``x <= 2``), which also strengthens propagation.
* **Integers** get branch-and-bound on top of the rational relaxation:
  a fractional integer variable ``x`` with value ``v`` splits into
  ``x <= ⌊v⌋`` and ``x >= ⌊v⌋ + 1`` on an internal trail, bounded by a
  branch budget.  Both branches refuting proves integer infeasibility;
  the explanation is the union of the *external* literals appearing in
  the leaf conflicts (the internal branch bounds resolve away because
  the two cuts are exhaustive over the integers).  An exhausted budget
  degrades to ``unknown`` — the theory stays sound, never complete by
  accident.
* **Float filter** — every variable keeps a float image of the real
  part of its exact δ-rational assignment (refreshed at each exact
  write), and bound values cache a float image on first use.  The
  bound-violation scan and Bland column selection compare floats first
  and only fall back to exact ``Fraction`` comparison inside a relative
  guard band (:data:`_FLOAT_GUARD`): floats *steer* the search to the
  comparisons that matter, but every decided comparison is provably
  equal to the exact one (the band dwarfs the 1/2-ulp conversion
  error), so verdicts never depend on floating point.  Overflowing
  conversions degrade to ``±inf``, which always lands in the guard band
  and thus falls back to exact arithmetic.
* **Backtracking** restores bounds (and the conflict flag) through the
  same undo-log discipline as EUF.  The tableau, the variable
  assignment and all slack definitions persist across ``pop`` — rows
  are definitional identities, and relaxing bounds can never invalidate
  the non-basic-within-bounds invariant — so backtracking costs
  O(bounds changed), never a rebuild.  They persist across checks too
  (the plugin lives for the whole engine run): a variable only atoms of
  an earlier check mention stays in the tableau, unbounded, and out of
  the model.

Equality atoms are deliberately **not** owned: the engine's preparation
pass splits every pure-arithmetic ``(= a b)`` into
``(and (<= a b) (>= a b))``, whose negation the SAT core case-splits
into strict inequalities — the theory never needs disequality reasoning.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Union

from ..obs.spans import trace_span
from ..smtlib.linarith import difference_form
from ..smtlib.sorts import INT, REAL
from ..smtlib.terms import Apply, Constant, Symbol, Term, int_const
from .core import SortValueAllocator, Theory, TheoryConflict, TheoryModel

_MISSING = object()

#: A bound's provenance: an asserted ``(atom, positive)`` literal, or
#: ``None`` for the internal cuts branch-and-bound asserts.
_Lit = Optional[tuple[Term, bool]]

_ARITH_OPS = ("<", "<=", ">", ">=")
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
_NEGATE = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}

#: Relative guard band for the simplex float filter: a float comparison
#: whose operands differ by no more than ``_FLOAT_GUARD * (1 + |a| + |b|)``
#: is treated as undecided and re-run exactly.  The band is ~10⁷ times the
#: worst-case ``float(Fraction)`` conversion error (1/2 ulp ≈ 1.1e-16
#: relative), so a float verdict outside the band always matches the
#: exact one.
_FLOAT_GUARD = 1e-9


def _to_float(value: Fraction) -> float:
    """Correctly-rounded float image of a rational; ``±inf`` on overflow
    (always inside the guard band, hence always re-checked exactly)."""
    try:
        return float(value)
    except OverflowError:
        return float("inf") if value > 0 else float("-inf")


def _floor(value: Fraction) -> int:
    return value.numerator // value.denominator


def _ceil(value: Fraction) -> int:
    return -((-value.numerator) // value.denominator)


class DeltaRational:
    """A rational plus a symbolic-infinitesimal multiple: ``r + k·δ``.

    Ordered lexicographically — exactly the order that makes the strict
    bound ``x < c`` equivalent to ``x <= c - δ`` for every sufficiently
    small positive δ.  Supports the ring operations the simplex needs
    (addition, subtraction, scaling by :class:`~fractions.Fraction`).
    """

    __slots__ = ("real", "delta", "_freal")

    def __init__(
        self, real: Union[int, Fraction], delta: Union[int, Fraction] = 0
    ) -> None:
        self.real = Fraction(real)
        self.delta = Fraction(delta)

    @property
    def freal(self) -> float:
        """Float image of the real part, cached on first use — what the
        simplex float filter compares before falling back to exact
        arithmetic.  ``±inf`` on overflow."""
        try:
            return self._freal
        except AttributeError:
            image = _to_float(self.real)
            self._freal = image
            return image

    def __add__(self, other: "DeltaRational") -> "DeltaRational":
        return DeltaRational(self.real + other.real, self.delta + other.delta)

    def __sub__(self, other: "DeltaRational") -> "DeltaRational":
        return DeltaRational(self.real - other.real, self.delta - other.delta)

    def scaled(self, factor: Fraction) -> "DeltaRational":
        return DeltaRational(self.real * factor, self.delta * factor)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeltaRational):
            return NotImplemented
        return self.real == other.real and self.delta == other.delta

    def __lt__(self, other: "DeltaRational") -> bool:
        return (self.real, self.delta) < (other.real, other.delta)

    def __le__(self, other: "DeltaRational") -> bool:
        return (self.real, self.delta) <= (other.real, other.delta)

    def __gt__(self, other: "DeltaRational") -> bool:
        return (self.real, self.delta) > (other.real, other.delta)

    def __ge__(self, other: "DeltaRational") -> bool:
        return (self.real, self.delta) >= (other.real, other.delta)

    def __hash__(self) -> int:
        return hash((self.real, self.delta))

    @property
    def is_integral(self) -> bool:
        return self.delta == 0 and self.real.denominator == 1

    def floor(self) -> int:
        """The largest integer (strictly) below a non-integral value, the
        value itself when integral."""
        if self.real.denominator == 1:
            base = int(self.real)
            return base - 1 if self.delta < 0 else base
        return _floor(self.real)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeltaRational({self.real!r}, {self.delta!r})"


class ArithTheory(Theory):
    """Dual simplex over δ-rationals with branch-and-bound for ``Int``.

    ``branch_limit`` caps the number of branch-and-bound nodes explored
    per ``check``; exhausting it makes the theory incomplete for that
    check (``model`` returns ``None``, the engine answers ``unknown``)
    but never unsound.
    """

    name = "arith"

    def __init__(self, branch_limit: int = 2000) -> None:
        super().__init__()
        self._branch_limit = branch_limit
        # Variable space: externals (script symbols) and slacks share it.
        self._terms: list[Optional[Symbol]] = []
        self._is_int: list[bool] = []
        self._var_of: dict[Symbol, int] = {}
        self._slack_of: dict[tuple, int] = {}
        # The tableau: basic variable -> sparse row over non-basic ones,
        # plus the column index (non-basic -> rows that mention it).
        self._rows: dict[int, dict[int, Fraction]] = {}
        self._cols: dict[int, set[int]] = {}
        self._assign: list[DeltaRational] = []
        # Float shadow of the real parts of _assign, refreshed at every
        # exact write.  Assignments are never rolled back by the undo
        # log, so the shadow needs no undo handling either.
        self._freal: list[float] = []
        self._lower: dict[int, tuple[DeltaRational, _Lit]] = {}
        self._upper: dict[int, tuple[DeltaRational, _Lit]] = {}
        self._compiled: dict[Term, tuple] = {}
        self._owned: dict[Term, bool] = {}
        self._conflict: Optional[TheoryConflict] = None
        self._incomplete = False
        self._trail: list[tuple] = []
        self._marks: list[int] = []
        self._internal_marks: list[int] = []
        self.stats = {
            "literals": 0,
            "conflicts": 0,
            "pivots": 0,
            "branches": 0,
            "checks": 0,
            "bb_exhausted": 0,
            "float_skips": 0,
            "float_fallbacks": 0,
        }

    # -- fragment membership -------------------------------------------------

    def owns_atom(self, atom: Term) -> bool:
        """Binary ``<``/``<=``/``>``/``>=`` whose difference is linear
        over Int/Real symbols."""
        cached = self._owned.get(atom)
        if cached is not None:
            return cached
        result = (
            isinstance(atom, Apply)
            and not atom.indices
            and atom.op in _ARITH_OPS
            and len(atom.args) == 2
            and difference_form(atom.args[0], atom.args[1]) is not None
        )
        self._owned[atom] = result
        return result

    # -- undo log ------------------------------------------------------------

    def push(self) -> None:
        self._marks.append(len(self._trail))

    def pop(self, levels: int = 1) -> None:
        for _ in range(levels):
            self._undo_to(self._marks.pop())

    def _undo_to(self, mark: int) -> None:
        trail = self._trail
        while len(trail) > mark:
            entry = trail.pop()
            if entry[0] == "d":
                _, mapping, key, old = entry
                if old is _MISSING:
                    mapping.pop(key, None)
                else:
                    mapping[key] = old
            else:  # "c": conflict flag
                self._conflict = entry[1]

    def _save(self, mapping: dict, key: int) -> None:
        self._trail.append(("d", mapping, key, mapping.get(key, _MISSING)))

    def _set_conflict(self, conflict: TheoryConflict) -> None:
        self._trail.append(("c", self._conflict))
        self._conflict = conflict
        self.stats["conflicts"] += 1

    # -- variable and slack registration ------------------------------------

    def _new_var(self, term: Optional[Symbol], is_int: bool) -> int:
        index = len(self._assign)
        self._terms.append(term)
        self._is_int.append(is_int)
        self._assign.append(DeltaRational(0))
        self._freal.append(0.0)
        return index

    def _var_index(self, symbol: Symbol) -> int:
        index = self._var_of.get(symbol)
        if index is None:
            index = self._new_var(symbol, symbol.sort == INT)
            self._var_of[symbol] = index
        return index

    def _slack_index(self, coeffs: dict[Symbol, Fraction]) -> tuple[int, Fraction]:
        """The (shared) slack variable for a multi-variable linear
        expression, plus the scale mapping the caller's coefficients onto
        the canonical ones (coprime integers, positive leading
        coefficient, variables ordered by name)."""
        items = sorted(coeffs.items(), key=lambda entry: entry[0].name)
        denominator_lcm = 1
        for _, coeff in items:
            denominator_lcm = (
                denominator_lcm
                * coeff.denominator
                // gcd(denominator_lcm, coeff.denominator)
            )
        numerator_gcd = 0
        for _, coeff in items:
            numerator_gcd = gcd(numerator_gcd, int(coeff * denominator_lcm))
        scale = Fraction(denominator_lcm, numerator_gcd)
        if items[0][1] < 0:
            scale = -scale
        key = tuple((symbol, coeff * scale) for symbol, coeff in items)
        existing = self._slack_of.get(key)
        if existing is not None:
            return existing, scale
        # New definition: express the row over the current non-basic
        # variables (substituting any basic variable's row keeps the
        # tableau in solved form) and enter it as a basic variable whose
        # assignment is the current value of the expression.
        row: dict[int, Fraction] = {}
        value = DeltaRational(0)
        is_int = True
        for symbol, coeff in key:
            index = self._var_index(symbol)
            if symbol.sort != INT:
                is_int = False
            value = value + self._assign[index].scaled(coeff)
            basic_row = self._rows.get(index)
            if basic_row is None:
                updated = row.get(index, Fraction(0)) + coeff
                if updated == 0:
                    row.pop(index, None)
                else:
                    row[index] = updated
            else:
                for column, entry in basic_row.items():
                    updated = row.get(column, Fraction(0)) + coeff * entry
                    if updated == 0:
                        row.pop(column, None)
                    else:
                        row[column] = updated
        slack = self._new_var(None, is_int)
        self._assign[slack] = value
        self._freal[slack] = _to_float(value.real)
        self._rows[slack] = row
        for column in row:
            self._cols.setdefault(column, set()).add(slack)
        self._slack_of[key] = slack
        return slack, scale

    # -- atom compilation ----------------------------------------------------

    def _compile(self, atom: Apply) -> tuple:
        cached = self._compiled.get(atom)
        if cached is not None:
            return cached
        form = difference_form(atom.args[0], atom.args[1])
        assert form is not None, f"not an arithmetic atom: {atom!r}"
        coeffs, constant = form
        target = -constant  # the atom is  Σ coeffs · x  ▷  target
        compiled: tuple
        if not coeffs:
            zero = Fraction(0)
            truth = {
                "<": zero < target,
                "<=": zero <= target,
                ">": zero > target,
                ">=": zero >= target,
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
    def _bound_for(
        op: str, bound: Fraction, is_int: bool
    ) -> tuple[bool, DeltaRational]:
        """``(is_upper, value)`` for ``v op bound``; integer variables
        tighten to integral δ-free bounds."""
        if op == "<=":
            return True, DeltaRational(_floor(bound)) if is_int else DeltaRational(bound)
        if op == "<":
            if is_int:
                return True, DeltaRational(_ceil(bound) - 1)
            return True, DeltaRational(bound, -1)
        if op == ">=":
            return False, DeltaRational(_ceil(bound)) if is_int else DeltaRational(bound)
        assert op == ">"
        if is_int:
            return False, DeltaRational(_floor(bound) + 1)
        return False, DeltaRational(bound, 1)

    # -- bound maintenance ---------------------------------------------------

    def _assert_bound(
        self, var: int, is_upper: bool, value: DeltaRational, lit: _Lit
    ) -> Optional[list[_Lit]]:
        """Tighten one bound; return the two clashing literals on an
        immediate lower/upper contradiction, ``None`` otherwise."""
        if is_upper:
            current = self._upper.get(var)
            if current is not None and current[0] <= value:
                return None  # weaker than what is already known
            other = self._lower.get(var)
            if other is not None and value < other[0]:
                return [lit, other[1]]
            self._save(self._upper, var)
            self._upper[var] = (value, lit)
            if var not in self._rows and self._assign[var] > value:
                self._update(var, value)
        else:
            current = self._lower.get(var)
            if current is not None and current[0] >= value:
                return None
            other = self._upper.get(var)
            if other is not None and value > other[0]:
                return [lit, other[1]]
            self._save(self._lower, var)
            self._lower[var] = (value, lit)
            if var not in self._rows and self._assign[var] < value:
                self._update(var, value)
        return None

    def _update(self, var: int, value: DeltaRational) -> None:
        """Move a non-basic variable, carrying every dependent basic."""
        assign, freal = self._assign, self._freal
        delta = value - assign[var]
        for basic in self._cols.get(var, ()):
            moved = assign[basic] + delta.scaled(self._rows[basic][var])
            assign[basic] = moved
            freal[basic] = _to_float(moved.real)
        assign[var] = value
        freal[var] = _to_float(value.real)

    # -- the simplex core ----------------------------------------------------

    def _below_upper(self, var: int) -> bool:
        """Strictly below the upper bound?  Float-filtered: the shadow
        decides outside the guard band, exact δ-rationals inside it."""
        bound = self._upper.get(var)
        if bound is None:
            return True
        af = self._freal[var]
        bf = bound[0].freal
        band = _FLOAT_GUARD * (1.0 + abs(af) + abs(bf))
        diff = bf - af
        if diff > band:
            self.stats["float_skips"] += 1
            return True
        if diff < -band:
            self.stats["float_skips"] += 1
            return False
        self.stats["float_fallbacks"] += 1
        return self._assign[var] < bound[0]

    def _above_lower(self, var: int) -> bool:
        """Strictly above the lower bound?  Float-filtered like
        :meth:`_below_upper`."""
        bound = self._lower.get(var)
        if bound is None:
            return True
        af = self._freal[var]
        bf = bound[0].freal
        band = _FLOAT_GUARD * (1.0 + abs(af) + abs(bf))
        diff = af - bf
        if diff > band:
            self.stats["float_skips"] += 1
            return True
        if diff < -band:
            self.stats["float_skips"] += 1
            return False
        self.stats["float_fallbacks"] += 1
        return self._assign[var] > bound[0]

    def _simplex(self) -> Optional[list[_Lit]]:
        """Pivot to feasibility; ``None`` when feasible, otherwise the
        infeasibility explanation (a list of bound literals).

        The violated-row scan runs on the float shadow: a row whose float
        image sits decisively inside (or outside) its bounds never touches
        exact arithmetic; only comparisons inside the guard band re-run on
        the δ-rationals.  Floats pick where to look — every verdict that
        reaches the caller is exact."""
        freal = self._freal
        guard = _FLOAT_GUARD
        skips = 0
        fallbacks = 0
        try:
            while True:
                violated: Optional[tuple[int, bool]] = None
                for basic in sorted(self._rows):
                    af = freal[basic]
                    low = self._lower.get(basic)
                    if low is not None:
                        bf = low[0].freal
                        band = guard * (1.0 + abs(af) + abs(bf))
                        diff = af - bf
                        if diff < -band:
                            skips += 1
                            violated = (basic, True)
                            break
                        if diff <= band:
                            fallbacks += 1
                            if self._assign[basic] < low[0]:
                                violated = (basic, True)
                                break
                        else:
                            skips += 1
                    high = self._upper.get(basic)
                    if high is not None:
                        bf = high[0].freal
                        band = guard * (1.0 + abs(af) + abs(bf))
                        diff = af - bf
                        if diff > band:
                            skips += 1
                            violated = (basic, False)
                            break
                        if diff >= -band:
                            fallbacks += 1
                            if self._assign[basic] > high[0]:
                                violated = (basic, False)
                                break
                        else:
                            skips += 1
                if violated is None:
                    return None
                basic, need_increase = violated
                row = self._rows[basic]
                chosen: Optional[int] = None
                for column in sorted(row):  # Bland's rule: smallest index
                    coeff = row[column]
                    if need_increase:
                        suitable = (coeff > 0 and self._below_upper(column)) or (
                            coeff < 0 and self._above_lower(column)
                        )
                    else:
                        suitable = (coeff < 0 and self._below_upper(column)) or (
                            coeff > 0 and self._above_lower(column)
                        )
                    if suitable:
                        chosen = column
                        break
                if chosen is None:
                    # Every row variable is at its limiting bound: the row is
                    # an inconsistent combination of exactly these bounds.
                    if need_increase:
                        explanation = [self._lower[basic][1]]
                        for column in sorted(row):
                            side = self._upper if row[column] > 0 else self._lower
                            explanation.append(side[column][1])
                    else:
                        explanation = [self._upper[basic][1]]
                        for column in sorted(row):
                            side = self._lower if row[column] > 0 else self._upper
                            explanation.append(side[column][1])
                    return explanation
                target = (
                    self._lower[basic][0] if need_increase else self._upper[basic][0]
                )
                self._pivot_and_update(basic, chosen, target)
                self.stats["pivots"] += 1
        finally:
            self.stats["float_skips"] += skips
            self.stats["float_fallbacks"] += fallbacks

    def _pivot_and_update(self, basic: int, entering: int, value: DeltaRational) -> None:
        row = self._rows[basic]
        coeff = row[entering]
        assign, freal = self._assign, self._freal
        theta = (value - assign[basic]).scaled(Fraction(1) / coeff)
        # Assignments first (they need the old column index).
        assign[basic] = value
        freal[basic] = _to_float(value.real)
        for other in self._cols.get(entering, ()):
            if other != basic:
                moved = assign[other] + theta.scaled(self._rows[other][entering])
                assign[other] = moved
                freal[other] = _to_float(moved.real)
        entered = assign[entering] + theta
        assign[entering] = entered
        freal[entering] = _to_float(entered.real)
        # Structural pivot: solve ``basic``'s row for ``entering`` ...
        del self._rows[basic]
        for column in row:
            self._cols[column].discard(basic)
        inverse = Fraction(1) / coeff
        entering_row: dict[int, Fraction] = {basic: inverse}
        for column, entry in row.items():
            if column != entering:
                entering_row[column] = -entry * inverse
        # ... and substitute it into every other row that mentions it.
        for other in self._cols.pop(entering, set()):
            other_row = self._rows[other]
            factor = other_row.pop(entering)
            for column, entry in entering_row.items():
                previous = other_row.get(column)
                updated = (previous or Fraction(0)) + factor * entry
                if updated == 0:
                    if previous is not None:
                        del other_row[column]
                        self._cols[column].discard(other)
                else:
                    other_row[column] = updated
                    if previous is None:
                        self._cols.setdefault(column, set()).add(other)
        self._rows[entering] = entering_row
        for column in entering_row:
            self._cols.setdefault(column, set()).add(entering)

    # -- branch and bound ----------------------------------------------------

    def _fractional_int_var(self) -> Optional[int]:
        for var, is_int in enumerate(self._is_int):
            if is_int and not self._assign[var].is_integral:
                return var
        return None

    def _push_internal(self) -> None:
        self._internal_marks.append(len(self._trail))

    def _pop_internal(self) -> None:
        self._undo_to(self._internal_marks.pop())

    #: Branch-and-bound recursion cap: each node is one Python stack
    #: frame, so the depth must stay well below the *default*
    #: interpreter recursion limit (1000) — library callers do not get
    #: the CLI's raised limit.  Deeper searches degrade to ``unknown``.
    _DEPTH_LIMIT = 200

    def _branch(
        self, budget: list[int], depth: int = 0
    ) -> tuple[str, dict[tuple[Term, bool], None]]:
        """Exhaust the integer search below the current bounds; returns
        ``("sat", _)``, ``("unknown", _)`` or ``("unsat", literals)``
        where ``literals`` are the *external* bounds used by the refuted
        leaves (internal cuts resolve away)."""
        budget[0] -= 1
        if budget[0] <= 0 or depth >= self._DEPTH_LIMIT:
            return "unknown", {}
        conflict = self._simplex()
        if conflict is not None:
            return "unsat", dict.fromkeys(l for l in conflict if l is not None)
        var = self._fractional_int_var()
        if var is None:
            return "sat", {}
        cut = self._assign[var].floor()
        self.stats["branches"] += 1
        accumulated: dict[tuple[Term, bool], None] = {}
        exhausted = False
        for is_upper, bound in ((True, cut), (False, cut + 1)):
            self._push_internal()
            clash = self._assert_bound(var, is_upper, DeltaRational(bound), None)
            if clash is None:
                verdict, literals = self._branch(budget, depth + 1)
            else:
                verdict = "unsat"
                literals = dict.fromkeys(l for l in clash if l is not None)
            if verdict == "sat":
                # Keep the integral assignment: the internal cuts only
                # tightened bounds, so relaxing them on pop leaves the
                # assignment feasible.
                self._pop_internal()
                return "sat", {}
            self._pop_internal()
            if verdict == "unknown":
                exhausted = True
            else:
                accumulated.update(literals)
        if exhausted:
            return "unknown", {}
        return "unsat", accumulated

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
            literals = tuple(l for l in clash if l is not None)
            self._set_conflict(TheoryConflict(literals, source=self.name))
        return self._conflict

    def check(self) -> Optional[TheoryConflict]:
        if self._conflict is not None:
            return self._conflict
        self.stats["checks"] += 1
        self._incomplete = False
        conflict = self._simplex()
        if conflict is not None:
            literals = tuple(dict.fromkeys(l for l in conflict if l is not None))
            if not literals:  # defensive: never ship an empty explanation
                self._incomplete = True
                return None
            self._set_conflict(TheoryConflict(literals, source=self.name))
            return self._conflict
        if self._fractional_int_var() is None:
            return None
        with trace_span("branch-and-bound", merge=True):
            verdict, accumulated = self._branch([self._branch_limit])
        if verdict == "unsat" and accumulated:
            self._set_conflict(TheoryConflict(tuple(accumulated), source=self.name))
            return self._conflict
        if verdict != "sat":
            self._incomplete = True
            self.stats["bb_exhausted"] += 1
        return None

    def model(self, allocator: SortValueAllocator) -> Optional[TheoryModel]:
        """Concrete rational/integer values: the simplex assignment with
        δ instantiated small enough to honor every strict bound."""
        if self._conflict is not None or self._incomplete:
            return None
        if self._simplex() is not None or self._fractional_int_var() is not None:
            return None  # pragma: no cover - defensive; check() runs first
        delta = self._delta_value()
        # The model covers the variables the asserted literals constrain:
        # every bounded variable (an asserted atom always leaves a bound on
        # its variable; a weaker one finds a bound already there) and the
        # symbols of every bounded slack.  Variables of an earlier check's
        # atoms stay out of it.
        live = self._lower.keys() | self._upper.keys()
        for key, slack in self._slack_of.items():
            if slack in live:
                live.update(self._var_of[symbol] for symbol, _ in key)
        model = TheoryModel()
        for symbol, var in self._var_of.items():
            if var not in live:
                continue
            value = self._assign[var]
            exact = value.real + value.delta * delta
            if self._is_int[var]:
                if exact.denominator != 1:
                    return None  # pragma: no cover - defensive
                constant = int_const(int(exact))
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
        for var, value in enumerate(self._assign):
            low = self._lower.get(var)
            if low is not None:
                bound = low[0]
                if bound.real < value.real and bound.delta > value.delta:
                    delta = min(
                        delta,
                        (value.real - bound.real) / (bound.delta - value.delta),
                    )
            high = self._upper.get(var)
            if high is not None:
                bound = high[0]
                if value.real < bound.real and value.delta > bound.delta:
                    delta = min(
                        delta,
                        (bound.real - value.real) / (value.delta - bound.delta),
                    )
        return delta

    # -- introspection -------------------------------------------------------

    def assignment(self) -> dict[Symbol, DeltaRational]:
        """The current (δ-symbolic) assignment per script symbol, for
        tests and debugging."""
        return {symbol: self._assign[var] for symbol, var in self._var_of.items()}

    def tableau_size(self) -> tuple[int, int]:
        """``(variables, basic rows)`` — the live tableau dimensions."""
        return len(self._assign), len(self._rows)


__all__ = ["ArithTheory", "DeltaRational"]
