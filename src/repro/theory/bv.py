"""Eager bit-blasting: QF_BV atoms → gates over solver literals.

Unlike the lazy plugins (:class:`~repro.theory.arith.ArithTheory`,
:class:`~repro.theory.euf.EufTheory`), bit-vector reasoning is handled
*eagerly*: the engine's :class:`~repro.smtlib.cnf.TseitinEncoder` walk
hands every atom of an assertion's boolean skeleton to
:meth:`BvBlaster.lower`, which lowers each supported bit-vector atom to
one encoder literal and binds it in the encoder memo, so only the
skeleton is Tseitin-encoded.
There are no bit symbols: each bit of a bit-vector symbol is an encoder
variable keyed by the declared :class:`Symbol` term (name *and* sort), so
generated names cannot collide with script identifiers and there is one
variable numbering.  Gates are and/xor/ite over integer literals whose
clauses go straight into the encoder's clause list; a circuit never
becomes a :class:`Term`, so it skips interning and Tseitin.  Gates
are structurally hashed in the style of an and-inverter graph: negation
is a sign flip, ``or`` is ``¬and(¬a, ¬b)``, commutative inputs are sorted
(``xor`` and ``ite`` also move input signs to the output), and every
constructor folds constants.  Consequences:

* blasted clauses are ordinary *input* clauses of the proof log — a BV
  ``unsat`` is fully RUP-certified by the independent checker with no
  trusted lemma steps, and
* the word, atom and gate memos live as long as the engine: a
  ``check-sat`` after ``push``/``pop`` re-blasts nothing for unchanged
  assertions.

The circuit constructors mirror :func:`repro.smtlib.evaluate.fold_apply`
operation by operation (ripple-carry adder, shift-add multiplier,
restoring divider with the SMT-LIB total semantics for division by zero,
barrel shifters with the ``shift >= width`` clamp, the signed
``bvsdiv``/``bvsrem``/``bvsmod`` definitional expansions), which makes
``fold_apply`` the blaster's semantic oracle: every ``sat`` model is
validated by evaluating the *pre-blast* assertions, and the differential
fuzzer compares both against exhaustive enumeration.

Atoms whose bit-vector leaves are not plain symbols or constants (an
uninterpreted application, an array ``select`` ...) are not lowered; they
stay ordinary atoms for the lazy plugins or remain abstracted, which
keeps every answer sound.  The atoms inside a bit-vector ``ite``
condition that are not lowered themselves are reported in the lowered
atom's place, so theory dispatch and model building still see them.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..obs.spans import trace_span
from ..smtlib.cnf import TseitinEncoder
from ..smtlib.sorts import is_bitvec
from ..smtlib.terms import Apply, Constant, Symbol, Term, bitvec_const

#: Widths past this are not blasted (the circuits grow quadratically for
#: multiplication/division); the atom stays abstracted instead.
MAX_BLAST_WIDTH = 256

#: The constant-true pseudo-literal inside circuits (``-_TOP`` is false).
#: No encoder variable gets this large; a circuit that folds to a constant
#: maps it to the encoder's true literal only at the atom boundary.
_TOP = 1 << 62

_UNSIGNED_CMP = {"bvult": False, "bvule": True, "bvugt": False, "bvuge": True}
_SIGNED_CMP = frozenset({"bvslt", "bvsle", "bvsgt", "bvsge"})


class _Unsupported(Exception):
    """Internal control flow: the atom leaves the supported fragment."""


def _bitvec_atom(atom: Term) -> bool:
    """True when ``atom`` is a non-indexed application over bit-vectors,
    the only shape the blaster tries to lower."""
    return (
        isinstance(atom, Apply)
        and not atom.indices
        and bool(atom.args)
        and is_bitvec(atom.args[0].sort)
    )


class BvBlaster:
    """Lowers bit-vector atoms to gates over one encoder's literals.

    One instance lives as long as the engine: the symbol, word, atom and
    gate memos survive ``push``/``pop``, so incremental re-checks re-blast
    nothing, and :meth:`decode` can read every blasted symbol's value back
    out of any later SAT model.
    """

    name = "bv"

    def __init__(
        self, encoder: TseitinEncoder, max_width: int = MAX_BLAST_WIDTH
    ) -> None:
        self.max_width = max_width
        self.stats: dict[str, int] = {
            "atoms_blasted": 0,
            "atoms_skipped": 0,
            "symbols": 0,
            "bits": 0,
            "gates": 0,
        }
        self._encoder = encoder
        self._formula = encoder.formula
        #: declared symbol → its LSB-first bit variables.
        self._symbol_bits: dict[Symbol, tuple[int, ...]] = {}
        self._words: dict[Term, list[int]] = {}
        #: atom → circuit literal (``±_TOP`` when constant), None if unsupported.
        self._atoms: dict[Term, Optional[int]] = {}
        self._ands: dict[tuple[int, int], int] = {}
        self._xors: dict[tuple[int, int], int] = {}
        self._ites: dict[tuple[int, int, int], int] = {}
        # Atoms inside bit-vector ``ite`` conditions that stay theory
        # atoms, collected while blasting and memoized per word and atom.
        self._inner: list[Term] = []
        self._word_inner: dict[Term, tuple[Term, ...]] = {}
        self._atom_inner: dict[Term, tuple[Term, ...]] = {}

    # -- public surface -----------------------------------------------------

    def lower(self, atom: Term) -> Optional[tuple[Term, ...]]:
        """The encoder walk's lowering hook
        (:data:`~repro.smtlib.cnf.Lowering`): lower a supported bit-vector
        atom, binding its literal in the encoder memo, and return the
        theory atoms inside its ``ite`` conditions; None when the atom is
        not lowered.  Blasting a new atom runs in the ``blast`` span."""
        if not _bitvec_atom(atom):
            return None
        if atom in self._atoms:
            return self._lower(atom)
        with trace_span("blast", merge=True):
            return self._lower(atom)

    def symbol_bits(self, symbol: Symbol) -> tuple[int, ...]:
        """The bit variables of a blasted symbol, least significant first
        (empty when the symbol was never blasted)."""
        return self._symbol_bits.get(symbol, ())

    def decode(
        self, model: Sequence[bool], symbols: Iterable[Symbol]
    ) -> dict[str, Constant]:
        """The word value of every blasted symbol among ``symbols`` in a
        SAT model indexed by variable."""
        out: dict[str, Constant] = {}
        for symbol in symbols:
            bits = self.symbol_bits(symbol)
            if not bits:
                continue
            value = 0
            for position, bit in enumerate(bits):
                if model[bit]:
                    value |= 1 << position
            out[symbol.name] = bitvec_const(value, len(bits))
        return out

    # -- atom lowering ------------------------------------------------------

    def _lower(self, atom: Term) -> Optional[tuple[Term, ...]]:
        if self._atom_literal(atom) is None:
            return None
        return self._atom_inner.get(atom, ())

    def _atom_literal(self, atom: Term) -> Optional[int]:
        """The atom's circuit literal (memoized), or None when the atom is
        not a supported bit-vector atom.  A fresh literal is bound in the
        encoder memo, so the skeleton encoding above it reuses it."""
        if atom in self._atoms:
            return self._atoms[atom]
        start = len(self._inner)
        lit = self._try_blast(atom)
        inner = self._inner[start:]
        del self._inner[start:]
        self._atoms[atom] = lit
        if lit is None:
            return None
        self.stats["atoms_blasted"] += 1
        if inner:
            self._atom_inner[atom] = tuple(dict.fromkeys(inner))
        if lit == _TOP or lit == -_TOP:
            true = self._encoder.true_literal()
            self._encoder.bind(atom, true if lit > 0 else -true)
        else:
            self._encoder.bind(atom, lit)
        return lit

    def _try_blast(self, atom: Term) -> Optional[int]:
        if not _bitvec_atom(atom):
            return None
        assert isinstance(atom, Apply)
        op, args = atom.op, atom.args
        try:
            if op == "=" and len(args) >= 2:
                words = [self._bits(arg) for arg in args]
                result = _TOP
                for left, right in zip(words, words[1:]):
                    result = self._and(result, self._word_eq(left, right))
                return result
            if op in _UNSIGNED_CMP and len(args) == 2:
                return self._unsigned_cmp(op, *args)
            if op in _SIGNED_CMP and len(args) == 2:
                return self._signed_cmp(op, *args)
        except _Unsupported:
            pass
        # A bit-vector atom left abstract: unsupported leaves, a width past
        # ``max_width``, or an operator the blaster does not lower.
        self.stats["atoms_skipped"] += 1
        return None

    def _condition(self, cond: Term) -> int:
        """The literal of a bit-vector ``ite`` condition, by the encoder
        walk: it lowers the condition's bit-vector atoms and records the
        theory atoms for dispatch.  A lowered atom as the whole condition
        answers its circuit literal, so a constant one still folds."""
        lit = self._encoder.encode(cond, self._lower, self._inner)
        circuit = self._atoms.get(cond)
        return lit if circuit is None else circuit

    def _unsigned_cmp(self, op: str, lhs: Term, rhs: Term) -> int:
        xs, ys = self._bits(lhs), self._bits(rhs)
        if op in ("bvugt", "bvuge"):
            xs, ys = ys, xs  # a > b  ≡  b < a
        if _UNSIGNED_CMP[op]:  # non-strict: a <= b ≡ ¬(b < a)
            return -self._ult(ys, xs)
        return self._ult(xs, ys)

    def _signed_cmp(self, op: str, lhs: Term, rhs: Term) -> int:
        xs, ys = self._bits(lhs), self._bits(rhs)
        if op in ("bvsgt", "bvsge"):
            xs, ys = ys, xs
            op = {"bvsgt": "bvslt", "bvsge": "bvsle"}[op]
        if op == "bvsle":
            return -self._slt(ys, xs)
        return self._slt(xs, ys)

    # -- word construction ---------------------------------------------------

    def _bits(self, term: Term) -> list[int]:
        """The LSB-first literal list of a bit-vector term."""
        cached = self._words.get(term)
        if cached is not None:
            if self._word_inner:
                inner = self._word_inner.get(term)
                if inner:
                    self._inner.extend(inner)
            return cached
        start = len(self._inner)
        result = self._bits_of(term)
        self._words[term] = result
        if len(self._inner) > start:
            self._word_inner[term] = tuple(self._inner[start:])
        return result

    def _bits_of(self, term: Term) -> list[int]:
        if not is_bitvec(term.sort) or term.sort.width > self.max_width:
            raise _Unsupported(term)
        width = term.sort.width
        if isinstance(term, Constant):
            if not isinstance(term.value, int):
                raise _Unsupported(term)
            return [
                _TOP if (term.value >> i) & 1 else -_TOP for i in range(width)
            ]
        if isinstance(term, Symbol):
            return list(self._symbol_word(term))
        if not isinstance(term, Apply):
            raise _Unsupported(term)
        op, args = term.op, term.args
        if term.indices:
            return self._indexed(term)
        if op in ("bvadd", "bvmul", "bvand", "bvor", "bvxor"):
            acc = self._bits(args[0])
            for arg in args[1:]:
                rhs = self._bits(arg)
                if op == "bvadd":
                    acc = self._add(acc, rhs)
                elif op == "bvmul":
                    acc = self._mul(acc, rhs)
                else:
                    gate = {"bvand": self._and, "bvor": self._or, "bvxor": self._xor}[op]
                    acc = [gate(x, y) for x, y in zip(acc, rhs)]
            return acc
        if op == "bvnot":
            return [-b for b in self._bits(args[0])]
        if op == "bvneg":
            return self._neg(self._bits(args[0]))
        if op == "bvsub":
            xs, ys = self._bits(args[0]), self._bits(args[1])
            return self._add(xs, [-y for y in ys], carry=_TOP)
        if op in ("bvudiv", "bvurem"):
            quotient, remainder = self._udivrem(
                self._bits(args[0]), self._bits(args[1])
            )
            return quotient if op == "bvudiv" else remainder
        if op in ("bvsdiv", "bvsrem", "bvsmod"):
            return self._signed_divrem(
                op, self._bits(args[0]), self._bits(args[1])
            )
        if op in ("bvshl", "bvlshr", "bvashr"):
            return self._shift(op, self._bits(args[0]), self._bits(args[1]))
        if op == "concat":
            out: list[int] = []
            for arg in reversed(args):  # the last operand is least significant
                out.extend(self._bits(arg))
            return out
        if op == "ite" and len(args) == 3:
            condition = self._condition(args[0])
            then_bits = self._bits(args[1])
            else_bits = self._bits(args[2])
            return [
                self._ite(condition, t, e)
                for t, e in zip(then_bits, else_bits)
            ]
        raise _Unsupported(term)

    def _indexed(self, term: Apply) -> list[int]:
        op, indices = term.op, term.indices
        bits = self._bits(term.args[0]) if term.args else []
        width = len(bits)
        if op == "extract":
            high, low = indices
            return bits[low : high + 1]
        if op == "zero_extend":
            return bits + [-_TOP] * indices[0]
        if op == "sign_extend":
            return bits + [bits[-1]] * indices[0]
        if op == "rotate_left":
            k = indices[0] % width
            return bits[width - k :] + bits[: width - k] if k else bits
        if op == "rotate_right":
            k = indices[0] % width
            return bits[k:] + bits[:k] if k else bits
        if op == "repeat":
            return bits * indices[0]
        raise _Unsupported(term)

    def _symbol_word(self, symbol: Symbol) -> tuple[int, ...]:
        bits = self._symbol_bits.get(symbol)
        if bits is None:
            formula = self._formula
            first = formula.num_vars + 1
            formula.num_vars += symbol.sort.width
            bits = tuple(range(first, formula.num_vars + 1))
            self._symbol_bits[symbol] = bits
            self.stats["symbols"] += 1
            self.stats["bits"] += len(bits)
        return bits

    # -- gate constructors (constant-folding, structurally hashed) ----------

    def _gate(self) -> int:
        self.stats["gates"] += 1
        self._formula.num_vars += 1
        return self._formula.num_vars

    def _and(self, a: int, b: int) -> int:
        if a == _TOP:
            return b
        if b == _TOP or a == b:
            return a
        if a == -_TOP or b == -_TOP or a == -b:
            return -_TOP
        if a > b:
            a, b = b, a
        key = (a, b)
        g = self._ands.get(key)
        if g is None:
            g = self._ands[key] = self._gate()
            self._formula.clauses.extend(((-g, a), (-g, b), (g, -a, -b)))
        return g

    def _or(self, a: int, b: int) -> int:
        return -self._and(-a, -b)

    def _xor(self, a: int, b: int) -> int:
        if a == -_TOP:
            return b
        if b == -_TOP:
            return a
        if a == _TOP:
            return -b
        if b == _TOP:
            return -a
        if a == b:
            return -_TOP
        if a == -b:
            return _TOP
        flip = (a < 0) != (b < 0)
        if a < 0:
            a = -a
        if b < 0:
            b = -b
        if a > b:
            a, b = b, a
        key = (a, b)
        g = self._xors.get(key)
        if g is None:
            g = self._xors[key] = self._gate()
            self._formula.clauses.extend(
                ((-g, a, b), (-g, -a, -b), (g, -a, b), (g, a, -b))
            )
        return -g if flip else g

    def _iff(self, a: int, b: int) -> int:
        return -self._xor(a, b)

    def _ite(self, c: int, t: int, e: int) -> int:
        if c == _TOP:
            return t
        if c == -_TOP:
            return e
        if t == e:
            return t
        if t == _TOP:
            return self._or(c, e)
        if t == -_TOP:
            return self._and(-c, e)
        if e == -_TOP:
            return self._and(c, t)
        if e == _TOP:
            return self._or(-c, t)
        if c < 0:
            c, t, e = -c, e, t
        flip = t < 0
        if flip:
            t, e = -t, -e
        key = (c, t, e)
        g = self._ites.get(key)
        if g is None:
            g = self._ites[key] = self._gate()
            self._formula.clauses.extend(
                (
                    (-g, -c, t),
                    (-g, c, e),
                    (g, -c, -t),
                    (g, c, -e),
                    # Redundant but propagation-strengthening:
                    (-g, t, e),
                    (g, -t, -e),
                )
            )
        return -g if flip else g

    # -- word-level circuits -------------------------------------------------

    def _word_eq(self, xs: list[int], ys: list[int]) -> int:
        result = _TOP
        for x, y in zip(xs, ys):
            result = self._and(result, self._iff(x, y))
        return result

    def _add(self, xs: list[int], ys: list[int], carry: int = -_TOP) -> list[int]:
        out = []
        for x, y in zip(xs, ys):
            partial = self._xor(x, y)
            out.append(self._xor(partial, carry))
            carry = self._or(self._and(x, y), self._and(partial, carry))
        return out

    def _neg(self, xs: list[int]) -> list[int]:
        return self._add([-x for x in xs], [-_TOP] * len(xs), carry=_TOP)

    def _mul(self, xs: list[int], ys: list[int]) -> list[int]:
        width = len(xs)
        acc: list[int] = [-_TOP] * width
        for shift, y in enumerate(ys):
            if y == -_TOP:
                continue
            partial = [-_TOP] * shift + [
                self._and(y, x) for x in xs[: width - shift]
            ]
            acc = self._add(acc, partial)
        return acc

    def _ult(self, xs: list[int], ys: list[int]) -> int:
        # Borrow chain of xs - ys: a final borrow means xs < ys.
        borrow = -_TOP
        for x, y in zip(xs, ys):
            same = self._iff(x, y)
            borrow = self._or(self._and(-x, y), self._and(same, borrow))
        return borrow

    def _slt(self, xs: list[int], ys: list[int]) -> int:
        sign_x, sign_y = xs[-1], ys[-1]
        # Different signs: the negative side (sign bit 1) is smaller.
        return self._ite(self._xor(sign_x, sign_y), sign_x, self._ult(xs, ys))

    def _shift(self, op: str, xs: list[int], amount: list[int]) -> list[int]:
        width = len(xs)
        sign = xs[-1]
        fill = sign if op == "bvashr" else -_TOP
        result = list(xs)
        overflow = -_TOP
        for stage, bit in enumerate(amount):
            step = 1 << stage
            if step >= width:
                # This amount bit alone shifts everything out.
                overflow = self._or(overflow, bit)
                continue
            if op == "bvshl":
                shifted = [
                    result[i - step] if i >= step else -_TOP
                    for i in range(width)
                ]
            else:
                shifted = [
                    result[i + step] if i + step < width else fill
                    for i in range(width)
                ]
            result = [self._ite(bit, s, r) for s, r in zip(shifted, result)]
        return [self._ite(overflow, fill, r) for r in result]

    def _udivrem(
        self, xs: list[int], ys: list[int]
    ) -> tuple[list[int], list[int]]:
        """Restoring division; SMT-LIB totality: x/0 = all-ones, x%0 = x."""
        width = len(xs)
        divisor = ys + [-_TOP]  # one headroom bit for the trial subtraction
        remainder: list[int] = [-_TOP] * (width + 1)
        quotient: list[int] = [-_TOP] * width
        for i in reversed(range(width)):
            remainder = [xs[i]] + remainder[:width]
            fits = -self._ult(remainder, divisor)
            difference = self._add(remainder, [-d for d in divisor], carry=_TOP)
            remainder = [
                self._ite(fits, d, r) for d, r in zip(difference, remainder)
            ]
            quotient[i] = fits
        zero_divisor = _TOP
        for y in ys:
            zero_divisor = self._and(zero_divisor, -y)
        quotient = [self._ite(zero_divisor, _TOP, q) for q in quotient]
        remainder = [
            self._ite(zero_divisor, x, r)
            for x, r in zip(xs, remainder[:width])
        ]
        return quotient, remainder

    def _signed_divrem(self, op: str, xs: list[int], ys: list[int]) -> list[int]:
        """The SMT-LIB definitional expansions over ``bvudiv``/``bvurem``
        (mirrors ``_fold_bv_signed`` in the evaluator)."""
        sign_x, sign_y = xs[-1], ys[-1]
        abs_x = [self._ite(sign_x, n, x) for n, x in zip(self._neg(xs), xs)]
        abs_y = [self._ite(sign_y, n, y) for n, y in zip(self._neg(ys), ys)]
        quotient, remainder = self._udivrem(abs_x, abs_y)
        if op == "bvsdiv":
            flip = self._xor(sign_x, sign_y)
            negated = self._neg(quotient)
            return [self._ite(flip, n, q) for n, q in zip(negated, quotient)]
        if op == "bvsrem":
            negated = self._neg(remainder)
            return [self._ite(sign_x, n, r) for n, r in zip(negated, remainder)]
        # bvsmod: the result takes the divisor's sign.
        rem_zero = _TOP
        for r in remainder:
            rem_zero = self._and(rem_zero, -r)
        same_sign = self._iff(sign_x, sign_y)
        both_negative = self._and(sign_x, sign_y)
        negated = self._neg(remainder)
        plain = [
            self._ite(both_negative, n, r) for n, r in zip(negated, remainder)
        ]
        adjusted_neg = self._add(ys, [-r for r in remainder], carry=_TOP)  # t - urem
        adjusted_pos = self._add(remainder, ys)  # urem + t
        mixed = [
            self._ite(sign_x, a, b) for a, b in zip(adjusted_neg, adjusted_pos)
        ]
        take_plain = self._or(rem_zero, same_sign)
        return [self._ite(take_plain, p, m) for p, m in zip(plain, mixed)]


__all__ = ["BvBlaster", "MAX_BLAST_WIDTH"]
