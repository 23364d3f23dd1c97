"""SMT-LIB sorts.

A :class:`Sort` is an immutable tree: a head symbol, optional *numeral
indices* (for indexed sorts such as ``(_ BitVec 8)`` and
``(_ FiniteField 3)``) and optional *sort arguments* (for parametric sorts
such as ``(Seq Int)`` and ``(Array Int Bool)``).

Sorts are hash-consed like terms: one object per distinct ``(name, args,
indices)`` in a dict of keyed weak references, so ``==`` is ``is``, a sort
hashes by identity and dies with its last user.  Hash values, and so the
order of a set of sorts, differ between runs and processes; no code may
depend on them.  Pickling and copying re-intern through the constructor.

The module also provides the standard sorts used throughout the library and
helper constructors for the parametric ones, including the solver-specific
extensions exercised by the paper (sequences, sets, relations, bags and
finite fields in cvc5).
"""

from __future__ import annotations

import weakref
from _weakref import _remove_dead_weakref  # type: ignore[attr-defined]
from typing import Iterable

from .lexer import quote_identifier


class _KeyedRef(weakref.ref):
    """An intern-table entry: a weak reference that carries its key."""

    __slots__ = ("key",)

    key: tuple


_SORT_TABLE: dict[tuple, _KeyedRef] = {}


def _drop_dead_sort(ref: _KeyedRef) -> None:
    """Remove a dead sort's entry, unless a live sort has taken its key."""
    _remove_dead_weakref(_SORT_TABLE, ref.key)


class Sort:
    """An SMT-LIB sort such as ``Int``, ``(_ BitVec 8)`` or ``(Seq Int)``."""

    __slots__ = ("name", "args", "indices", "__weakref__")

    name: str
    args: tuple["Sort", ...]
    indices: tuple[int, ...]

    def __new__(cls, name: str, args: Iterable["Sort"] = (), indices: Iterable[int] = ()) -> "Sort":
        args = tuple(args)
        indices = tuple([int(i) for i in indices]) if indices else ()
        key = (name, args, indices)
        ref = _SORT_TABLE.get(key)
        if ref is not None:
            existing = ref()
            if existing is not None:
                return existing
        sort = object.__new__(cls)
        object.__setattr__(sort, "name", name)
        object.__setattr__(sort, "args", args)
        object.__setattr__(sort, "indices", indices)
        ref = _KeyedRef(sort, _drop_dead_sort)
        ref.key = key
        _SORT_TABLE[key] = ref
        return sort

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"sorts are immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"sorts are immutable: cannot delete {name!r}")

    def __repr__(self) -> str:
        return f"Sort(name={self.name!r}, args={self.args!r}, indices={self.indices!r})"

    def __reduce__(self):
        return (Sort, (self.name, self.args, self.indices))

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
