"""SMT-LIB sorts.

A :class:`Sort` is an immutable tree: a head symbol, optional *numeral
indices* (for indexed sorts such as ``(_ BitVec 8)`` and
``(_ FiniteField 3)``) and optional *sort arguments* (for parametric sorts
such as ``(Seq Int)`` and ``(Array Int Bool)``).

The module also provides the standard sorts used throughout the library and
helper constructors for the parametric ones, including the solver-specific
extensions exercised by the paper (sequences, sets, relations, bags and
finite fields in cvc5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .lexer import quote_identifier


@dataclass(frozen=True)
class Sort:
    """An SMT-LIB sort such as ``Int``, ``(_ BitVec 8)`` or ``(Seq Int)``."""

    name: str
    args: tuple["Sort", ...] = ()
    indices: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        # Cache the structural hash: the hash-consed term layer hashes sorts
        # on every construction, so sort hashing must be O(1) after this.
        object.__setattr__(
            self, "_hash", hash((self.name, self.args, self.indices))
        )

    def __hash__(self) -> int:
        return self._hash

    # -- structural queries -------------------------------------------------

    def element(self, position: int = 0) -> "Sort":
        """Return the sort argument at ``position`` (element sort of ``Seq`` etc.)."""
        return self.args[position]

    @property
    def width(self) -> int:
        """Bit width of a ``BitVec`` sort (or first index of any indexed sort)."""
        if not self.indices:
            raise ValueError(f"sort {self} has no indices")
        return self.indices[0]

    def walk(self) -> Iterable["Sort"]:
        """Yield this sort and every sort nested inside it (pre-order)."""
        yield self
        for arg in self.args:
            yield from arg.walk()

    # -- rendering ----------------------------------------------------------

    def to_smtlib(self) -> str:
        """Render the sort in concrete SMT-LIB syntax.

        Declared sort names that are not simple symbols (or collide with
        reserved words) are ``|...|``-quoted, like any other identifier."""
        head = quote_identifier(self.name)
        if self.indices:
            head = "(_ {} {})".format(head, " ".join(str(i) for i in self.indices))
        if not self.args:
            return head
        return "({} {})".format(head, " ".join(a.to_smtlib() for a in self.args))

    def __str__(self) -> str:  # pragma: no cover - convenience only
        return self.to_smtlib()


# ---------------------------------------------------------------------------
# Standard non-parametric sorts.
# ---------------------------------------------------------------------------

BOOL = Sort("Bool")
INT = Sort("Int")
REAL = Sort("Real")
STRING = Sort("String")
REGLAN = Sort("RegLan")
ROUNDING_MODE = Sort("RoundingMode")
UNIT_TUPLE = Sort("UnitTuple")


# ---------------------------------------------------------------------------
# Parametric / indexed sort constructors.
# ---------------------------------------------------------------------------


def bitvec_sort(width: int) -> Sort:
    """``(_ BitVec width)`` — fixed-width bit-vectors."""
    if width <= 0:
        raise ValueError("bit-vector width must be positive")
    return Sort("BitVec", indices=(width,))


def finite_field_sort(order: int) -> Sort:
    """``(_ FiniteField p)`` — cvc5's prime-order finite fields."""
    if order < 2:
        raise ValueError("finite field order must be at least 2")
    return Sort("FiniteField", indices=(order,))


def seq_sort(element: Sort) -> Sort:
    """``(Seq element)`` — cvc5's sequence theory."""
    return Sort("Seq", args=(element,))


def set_sort(element: Sort) -> Sort:
    """``(Set element)`` — cvc5's finite-set theory."""
    return Sort("Set", args=(element,))


def bag_sort(element: Sort) -> Sort:
    """``(Bag element)`` — cvc5's bag (multiset) theory."""
    return Sort("Bag", args=(element,))


def array_sort(index: Sort, value: Sort) -> Sort:
    """``(Array index value)`` — the standard array theory."""
    return Sort("Array", args=(index, value))


def tuple_sort(*elements: Sort) -> Sort:
    """``(Tuple e1 ... en)`` — cvc5 tuples; ``UnitTuple`` when empty."""
    if not elements:
        return UNIT_TUPLE
    return Sort("Tuple", args=tuple(elements))


def relation_sort(*elements: Sort) -> Sort:
    """``(Relation e1 ... en)`` = ``(Set (Tuple e1 ... en))`` in cvc5."""
    return set_sort(tuple_sort(*elements))


def uninterpreted_sort(name: str) -> Sort:
    """A user-declared uninterpreted sort (``declare-sort``)."""
    return Sort(name)


# ---------------------------------------------------------------------------
# Classification helpers.
# ---------------------------------------------------------------------------

_NUMERIC_NAMES = frozenset({"Int", "Real"})
_CONTAINER_NAMES = frozenset({"Seq", "Set", "Bag", "Array", "Tuple"})
_BUILTIN_NAMES = frozenset(
    {
        "Bool",
        "Int",
        "Real",
        "String",
        "RegLan",
        "RoundingMode",
        "BitVec",
        "FiniteField",
        "UnitTuple",
    }
) | _CONTAINER_NAMES


def is_numeric(sort: Sort) -> bool:
    """True for ``Int`` and ``Real``."""
    return sort.name in _NUMERIC_NAMES


def is_bitvec(sort: Sort) -> bool:
    """True for ``(_ BitVec n)``."""
    return sort.name == "BitVec"


def is_finite_field(sort: Sort) -> bool:
    """True for ``(_ FiniteField p)``."""
    return sort.name == "FiniteField"


def is_array(sort: Sort) -> bool:
    """True for ``(Array index value)``."""
    return sort.name == "Array"


def is_container(sort: Sort) -> bool:
    """True for the parametric container sorts (Seq/Set/Bag/Array/Tuple)."""
    return sort.name in _CONTAINER_NAMES


def is_builtin(sort: Sort) -> bool:
    """True when the head symbol is defined by SMT-LIB or a solver extension."""
    return sort.name in _BUILTIN_NAMES


__all__ = [
    "Sort",
    "BOOL",
    "INT",
    "REAL",
    "STRING",
    "REGLAN",
    "ROUNDING_MODE",
    "UNIT_TUPLE",
    "bitvec_sort",
    "finite_field_sort",
    "seq_sort",
    "set_sort",
    "bag_sort",
    "array_sort",
    "tuple_sort",
    "relation_sort",
    "uninterpreted_sort",
    "is_numeric",
    "is_bitvec",
    "is_finite_field",
    "is_array",
    "is_container",
    "is_builtin",
]
