"""Linear-arithmetic normal form: ``Σ cᵢ·xᵢ + k`` over Int/Real terms.

:func:`linear_form` rewrites a numeric term into a sparse linear
polynomial — a mapping from :class:`~repro.smtlib.terms.Symbol` to
exact rational coefficients plus a rational constant — or reports that
the term is not linear (``None``).  The walk accumulates in ``int`` while
every value is integral and switches to :class:`~fractions.Fraction` only
when a ``Real`` literal or a ``/`` makes one non-integral; an integral
coefficient or constant always comes back as an ``int`` (which compares
and hashes equal to the ``Fraction`` of the same value).  The supported
fragment is the linear one of ``Ints``/``Reals``:

* numerals and decimals (exact rationals),
* ``Int``/``Real`` symbols (the *variables* of the form),
* ``+``, binary/n-ary/unary ``-``,
* ``*`` with at most one non-constant factor,
* ``/`` by non-zero constants, and
* ``to_real`` coercions (transparent: the form is sort-agnostic).

Anything else — ``div``/``mod``/``abs``, non-linear products, ``ite``,
uninterpreted applications, division by zero or by a symbolic term —
makes the term non-linear and the function returns ``None``.  Division
by literal zero is deliberately rejected even though ``(/ x 0)`` is a
well-sorted term: SMT-LIB leaves its value unspecified, so no algebraic
rewriting may decide it.

The normal form is the shared vocabulary of two consumers that must
agree with each other:

* the simplifier folds comparison/equality atoms whose *difference* is a
  ground form (``(< x (+ x 1))`` → ``true``), and
* the :class:`~repro.theory.arith.ArithTheory` plugin compiles atoms
  into simplex bounds ``Σ cᵢxᵢ ▷ k``.

Both build on the same :func:`linear_form`, so the theory can never
disagree with the simplifier about what an atom means.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .sorts import INT, REAL
from .terms import Apply, Constant, Symbol, Term

#: A sparse linear polynomial: coefficients per variable plus a constant.
#: Integral values are ``int``; only non-integral ones are ``Fraction``.
LinearForm = tuple[dict[Symbol, int | Fraction], int | Fraction]

_NUMERIC = (INT, REAL)


def is_numeric_term(term: Term) -> bool:
    """True when the term's sort is ``Int`` or ``Real``."""
    return term.sort in _NUMERIC


def _number(value: int | Fraction) -> int | Fraction:
    """An integral rational as an ``int``; any other value unchanged."""
    if type(value) is Fraction and value.denominator == 1:
        return value.numerator
    return value


def _finish(coeffs: dict[Symbol, int | Fraction], constant: int | Fraction) -> LinearForm:
    """Drop zero coefficients and hand integral values back as ``int``."""
    return (
        {symbol: _number(coeff) for symbol, coeff in coeffs.items() if coeff},
        _number(constant),
    )


def linear_form(term: Term) -> Optional[LinearForm]:
    """The linear normal form of a numeric term, or ``None``.

    The returned coefficient mapping never contains zero entries, so a
    ground (variable-free) term yields an empty mapping and the form's
    value is the constant alone.
    """
    coeffs: dict[Symbol, int | Fraction] = {}
    constant = _accumulate(term, 1, coeffs)
    if constant is None:
        return None
    return _finish(coeffs, constant)


def _accumulate(
    term: Term, scale: int | Fraction, coeffs: dict[Symbol, int | Fraction]
) -> Optional[int | Fraction]:
    """Add ``scale * term`` into ``coeffs``; return the constant part
    contributed, or ``None`` when the term is not linear."""
    if isinstance(term, Constant):
        if term.sort not in _NUMERIC or term.qualifier:
            return None
        return scale * _number(term.value)  # type: ignore[arg-type]
    if isinstance(term, Symbol):
        if term.sort not in _NUMERIC:
            return None
        coeffs[term] = coeffs.get(term, 0) + scale
        return 0
    if not isinstance(term, Apply) or term.indices:
        return None
    op = term.op
    if op == "to_real":
        return _accumulate(term.args[0], scale, coeffs)
    if op == "+":
        total: int | Fraction = 0
        for arg in term.args:
            part = _accumulate(arg, scale, coeffs)
            if part is None:
                return None
            total += part
        return total
    if op == "-":
        if len(term.args) == 1:
            return _accumulate(term.args[0], -scale, coeffs)
        first = _accumulate(term.args[0], scale, coeffs)
        if first is None:
            return None
        total = first
        for arg in term.args[1:]:
            part = _accumulate(arg, -scale, coeffs)
            if part is None:
                return None
            total += part
        return total
    if op == "*":
        # Linear only when at most one factor is non-constant.
        factor: int | Fraction = 1
        symbolic: Optional[Term] = None
        for arg in term.args:
            literal = _ground_value(arg)
            if literal is not None:
                factor *= literal
            elif symbolic is None:
                symbolic = arg
            else:
                return None
        factor = _number(factor)
        if symbolic is None:
            return scale * factor
        return _accumulate(symbolic, scale * factor, coeffs)
    if op == "/":
        divisor: int | Fraction = 1
        for arg in term.args[1:]:
            literal = _ground_value(arg)
            if literal is None or literal == 0:
                return None  # symbolic or unspecified (zero) divisor
            divisor *= literal
        # Fraction division: ``int / int`` would be a float.
        return _accumulate(term.args[0], _number(Fraction(scale) / divisor), coeffs)
    return None


def _ground_value(term: Term) -> Optional[int | Fraction]:
    """The rational value of a *ground* linear term, or ``None``."""
    if isinstance(term, Constant):
        if term.sort not in _NUMERIC or term.qualifier:
            return None
        return _number(term.value)  # type: ignore[arg-type]
    if isinstance(term, Apply) and not term.indices:
        nested: dict[Symbol, int | Fraction] = {}
        constant = _accumulate(term, 1, nested)
        if constant is not None and not any(nested.values()):
            return constant
    return None


def difference_form(lhs: Term, rhs: Term) -> Optional[LinearForm]:
    """The linear form of ``lhs - rhs``, or ``None`` when either side is
    not linear.  Shared-term cancellation falls out of the arithmetic:
    ``difference_form(x, x)`` is the empty form."""
    coeffs: dict[Symbol, int | Fraction] = {}
    left = _accumulate(lhs, 1, coeffs)
    if left is None:
        return None
    right = _accumulate(rhs, -1, coeffs)
    if right is None:
        return None
    return _finish(coeffs, left + right)


__all__ = ["LinearForm", "linear_form", "difference_form", "is_numeric_term"]
