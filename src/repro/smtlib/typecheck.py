"""Well-sortedness checking for SMT-LIB terms.

The heart of the module is the operator signature table: for every operator
in Core, Ints, Reals, BitVec, Strings and Arrays — plus the cvc5 extensions
the sorts module supports (Seq, Set, Relation, Bag, FiniteField, Tuple) — a
rule mapping (indices, argument sorts) to the result sort, raising
:class:`~repro.errors.TypeCheckError` on mismatch.

Two entry points:

* :func:`apply_sort` — compute the result sort of one application.  The
  parser uses this to assign sorts while building terms.
* :func:`check` — recursively verify that an already-built term is
  well-sorted, i.e. every node's stored sort agrees with what the signature
  table (and the declaration context, for free symbols) derives.

With the hash-consed term core, ``check`` doubles as the simplifier's
safety net: every rewrite rule is sort-preserving, so
``check(simplify(t))`` must succeed at ``t.sort`` — the test suite
enforces this across the whole corpus.  :func:`well_sorted` wraps
``check`` as a predicate for callers (benchmarks, generators) that only
need a verdict.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Optional

from ..errors import TypeCheckError, UnknownSymbolError
from ..limits import ensure_recursion_limit
from .script import DeclarationContext
from .sorts import (
    BOOL,
    INT,
    REAL,
    REGLAN,
    STRING,
    Sort,
    bitvec_sort,
    is_bitvec,
    is_finite_field,
    relation_sort,
    tuple_sort,
)
from .terms import Apply, Constant, Let, Quantifier, Symbol, Term, pop_scope, push_scope

SignatureRule = Callable[[str, tuple[int, ...], tuple[Sort, ...]], Sort]


def _fail(op: str, indices: tuple[int, ...], args: tuple[Sort, ...], why: str) -> TypeCheckError:
    rendered = " ".join(str(s) for s in args) or "<none>"
    shown = f"(_ {op} {' '.join(map(str, indices))})" if indices else op
    return TypeCheckError(f"ill-sorted application of {shown} to ({rendered}): {why}")


def _expect_arity(op, indices, args, count):
    if len(args) != count:
        raise _fail(op, indices, args, f"expected {count} argument(s), got {len(args)}")


def _expect_no_indices(op, indices, args):
    if indices:
        raise _fail(op, indices, args, "operator takes no indices")


def _expect_same(op, indices, args):
    if any(a != args[0] for a in args[1:]):
        raise _fail(op, indices, args, "arguments must share one sort")


# -- rule combinators -------------------------------------------------------


def _fixed(params: tuple[Sort, ...], result: Sort) -> SignatureRule:
    def rule(op, indices, args):
        _expect_no_indices(op, indices, args)
        _expect_arity(op, indices, args, len(params))
        for expected, actual in zip(params, args):
            if expected != actual:
                raise _fail(op, indices, args, f"expected ({' '.join(map(str, params))})")
        return result

    return rule


def _nary_same(element: Optional[Sort], result: Optional[Sort], minimum: int = 2) -> SignatureRule:
    """At least ``minimum`` same-sorted arguments; ``None`` means polymorphic
    (element: any shared sort; result: the shared argument sort)."""

    def rule(op, indices, args):
        _expect_no_indices(op, indices, args)
        if len(args) < minimum:
            raise _fail(op, indices, args, f"expected at least {minimum} argument(s)")
        _expect_same(op, indices, args)
        if element is not None and args[0] != element:
            raise _fail(op, indices, args, f"arguments must have sort {element}")
        return result if result is not None else args[0]

    return rule


def _numeric_nary(minimum: int = 2) -> SignatureRule:
    def rule(op, indices, args):
        _expect_no_indices(op, indices, args)
        if len(args) < minimum:
            raise _fail(op, indices, args, f"expected at least {minimum} argument(s)")
        _expect_same(op, indices, args)
        if args[0] not in (INT, REAL):
            raise _fail(op, indices, args, "arguments must be Int or Real")
        return args[0]

    return rule


def _numeric_compare(op, indices, args):
    _expect_no_indices(op, indices, args)
    if len(args) < 2:
        raise _fail(op, indices, args, "expected at least 2 arguments")
    _expect_same(op, indices, args)
    if args[0] not in (INT, REAL):
        raise _fail(op, indices, args, "arguments must be Int or Real")
    return BOOL


def _bv_nary(minimum: int = 2) -> SignatureRule:
    def rule(op, indices, args):
        _expect_no_indices(op, indices, args)
        if len(args) < minimum:
            raise _fail(op, indices, args, f"expected at least {minimum} argument(s)")
        _expect_same(op, indices, args)
        if not is_bitvec(args[0]):
            raise _fail(op, indices, args, "arguments must be bit-vectors")
        return args[0]

    return rule


def _bv_binary(result_bool: bool = False) -> SignatureRule:
    def rule(op, indices, args):
        _expect_no_indices(op, indices, args)
        _expect_arity(op, indices, args, 2)
        _expect_same(op, indices, args)
        if not is_bitvec(args[0]):
            raise _fail(op, indices, args, "arguments must be bit-vectors")
        return BOOL if result_bool else args[0]

    return rule


def _bv_unary(op, indices, args):
    _expect_no_indices(op, indices, args)
    _expect_arity(op, indices, args, 1)
    if not is_bitvec(args[0]):
        raise _fail(op, indices, args, "argument must be a bit-vector")
    return args[0]


def _container(name: str, sort: Sort) -> bool:
    return sort.name == name and len(sort.args) >= 1


def _ff_nary(minimum: int) -> SignatureRule:
    def rule(op, indices, args):
        _expect_no_indices(op, indices, args)
        if len(args) < minimum:
            raise _fail(op, indices, args, f"expected at least {minimum} argument(s)")
        _expect_same(op, indices, args)
        if not is_finite_field(args[0]):
            raise _fail(op, indices, args, "arguments must be finite-field elements")
        return args[0]

    return rule


# -- individually defined rules ---------------------------------------------


def _rule_eq(op, indices, args):
    _expect_no_indices(op, indices, args)
    if len(args) < 2:
        raise _fail(op, indices, args, "expected at least 2 arguments")
    _expect_same(op, indices, args)
    return BOOL


def _rule_ite(op, indices, args):
    _expect_no_indices(op, indices, args)
    _expect_arity(op, indices, args, 3)
    if args[0] != BOOL:
        raise _fail(op, indices, args, "condition must be Bool")
    if args[1] != args[2]:
        raise _fail(op, indices, args, "branches must share one sort")
    return args[1]


def _rule_minus(op, indices, args):
    # Unary negation or n-ary subtraction over one numeric sort.
    _expect_no_indices(op, indices, args)
    if not args:
        raise _fail(op, indices, args, "expected at least 1 argument")
    _expect_same(op, indices, args)
    if args[0] not in (INT, REAL):
        raise _fail(op, indices, args, "arguments must be Int or Real")
    return args[0]


def _rule_divisible(op, indices, args):
    if len(indices) != 1 or indices[0] <= 0:
        raise _fail(op, indices, args, "requires one positive index")
    _expect_arity(op, indices, args, 1)
    if args[0] != INT:
        raise _fail(op, indices, args, "argument must be Int")
    return BOOL


def _rule_concat(op, indices, args):
    _expect_no_indices(op, indices, args)
    if len(args) < 2:
        raise _fail(op, indices, args, "expected at least 2 arguments")
    if not all(is_bitvec(a) for a in args):
        raise _fail(op, indices, args, "arguments must be bit-vectors")
    return bitvec_sort(sum(a.width for a in args))


def _rule_extract(op, indices, args):
    if len(indices) != 2:
        raise _fail(op, indices, args, "requires two indices (_ extract i j)")
    _expect_arity(op, indices, args, 1)
    if not is_bitvec(args[0]):
        raise _fail(op, indices, args, "argument must be a bit-vector")
    high, low = indices
    if not (0 <= low <= high < args[0].width):
        raise _fail(op, indices, args, f"extract bounds out of range for width {args[0].width}")
    return bitvec_sort(high - low + 1)


def _rule_extend(op, indices, args):
    if len(indices) != 1 or indices[0] < 0:
        raise _fail(op, indices, args, "requires one non-negative index")
    _expect_arity(op, indices, args, 1)
    if not is_bitvec(args[0]):
        raise _fail(op, indices, args, "argument must be a bit-vector")
    return bitvec_sort(args[0].width + indices[0])


def _rule_rotate(op, indices, args):
    if len(indices) != 1 or indices[0] < 0:
        raise _fail(op, indices, args, "requires one non-negative index")
    _expect_arity(op, indices, args, 1)
    if not is_bitvec(args[0]):
        raise _fail(op, indices, args, "argument must be a bit-vector")
    return args[0]


def _rule_repeat(op, indices, args):
    if len(indices) != 1 or indices[0] <= 0:
        raise _fail(op, indices, args, "requires one positive index")
    _expect_arity(op, indices, args, 1)
    if not is_bitvec(args[0]):
        raise _fail(op, indices, args, "argument must be a bit-vector")
    return bitvec_sort(args[0].width * indices[0])


def _rule_select(op, indices, args):
    _expect_no_indices(op, indices, args)
    _expect_arity(op, indices, args, 2)
    array = args[0]
    if array.name != "Array" or len(array.args) != 2:
        raise _fail(op, indices, args, "first argument must be an Array")
    if args[1] != array.args[0]:
        raise _fail(op, indices, args, f"index must have sort {array.args[0]}")
    return array.args[1]


def _rule_store(op, indices, args):
    _expect_no_indices(op, indices, args)
    _expect_arity(op, indices, args, 3)
    array = args[0]
    if array.name != "Array" or len(array.args) != 2:
        raise _fail(op, indices, args, "first argument must be an Array")
    if args[1] != array.args[0] or args[2] != array.args[1]:
        raise _fail(op, indices, args, f"expected index {array.args[0]} and value {array.args[1]}")
    return array


def _seq_rule(arity: int, tail: tuple[Sort, ...], result: Optional[str]) -> SignatureRule:
    """First argument ``(Seq A)``, then fixed tail sorts; result is the Seq
    itself (``"seq"``), its element (``"elem"``), or a concrete sort name."""

    def rule(op, indices, args):
        _expect_no_indices(op, indices, args)
        _expect_arity(op, indices, args, arity)
        if not _container("Seq", args[0]):
            raise _fail(op, indices, args, "first argument must be a Seq")
        for expected, actual in zip(tail, args[1:]):
            target = args[0].element() if expected is None else expected
            if actual != target:
                raise _fail(op, indices, args, f"expected argument of sort {target}")
        if result == "seq":
            return args[0]
        if result == "elem":
            return args[0].element()
        return Sort(result) if result else BOOL

    return rule


def _rule_seq_unit(op, indices, args):
    _expect_no_indices(op, indices, args)
    _expect_arity(op, indices, args, 1)
    return Sort("Seq", args=(args[0],))


def _rule_seq_concat(op, indices, args):
    _expect_no_indices(op, indices, args)
    if len(args) < 2:
        raise _fail(op, indices, args, "expected at least 2 arguments")
    _expect_same(op, indices, args)
    if not _container("Seq", args[0]):
        raise _fail(op, indices, args, "arguments must be sequences")
    return args[0]


def _rule_seq_contains_like(op, indices, args):
    _expect_no_indices(op, indices, args)
    _expect_arity(op, indices, args, 2)
    _expect_same(op, indices, args)
    if not _container("Seq", args[0]):
        raise _fail(op, indices, args, "arguments must be sequences")
    return BOOL


def _set_binary(op, indices, args):
    _expect_no_indices(op, indices, args)
    _expect_arity(op, indices, args, 2)
    _expect_same(op, indices, args)
    if not _container("Set", args[0]):
        raise _fail(op, indices, args, "arguments must be sets")
    return args[0]


def _set_compare(op, indices, args):
    _expect_no_indices(op, indices, args)
    _expect_arity(op, indices, args, 2)
    _expect_same(op, indices, args)
    if not _container("Set", args[0]):
        raise _fail(op, indices, args, "arguments must be sets")
    return BOOL


def _rule_set_member(op, indices, args):
    _expect_no_indices(op, indices, args)
    _expect_arity(op, indices, args, 2)
    if not _container("Set", args[1]) or args[0] != args[1].element():
        raise _fail(op, indices, args, "expected (A (Set A))")
    return BOOL


def _rule_set_singleton(op, indices, args):
    _expect_no_indices(op, indices, args)
    _expect_arity(op, indices, args, 1)
    return Sort("Set", args=(args[0],))


def _rule_set_insert(op, indices, args):
    _expect_no_indices(op, indices, args)
    if len(args) < 2:
        raise _fail(op, indices, args, "expected at least 2 arguments")
    target = args[-1]
    if not _container("Set", target):
        raise _fail(op, indices, args, "last argument must be a Set")
    if any(a != target.element() for a in args[:-1]):
        raise _fail(op, indices, args, f"inserted elements must have sort {target.element()}")
    return target


def _rule_set_card(op, indices, args):
    _expect_no_indices(op, indices, args)
    _expect_arity(op, indices, args, 1)
    if not _container("Set", args[0]):
        raise _fail(op, indices, args, "argument must be a Set")
    return INT


def _rule_set_complement(op, indices, args):
    _expect_no_indices(op, indices, args)
    _expect_arity(op, indices, args, 1)
    if not _container("Set", args[0]):
        raise _fail(op, indices, args, "argument must be a Set")
    return args[0]


def _is_relation(sort: Sort) -> bool:
    return (
        _container("Set", sort)
        and sort.element().name in ("Tuple", "UnitTuple")
    )


def _rel_columns(sort: Sort) -> tuple[Sort, ...]:
    return sort.element().args


def _rule_rel_transpose(op, indices, args):
    _expect_no_indices(op, indices, args)
    _expect_arity(op, indices, args, 1)
    if not _is_relation(args[0]):
        raise _fail(op, indices, args, "argument must be a Relation (Set of Tuple)")
    return relation_sort(*reversed(_rel_columns(args[0])))


def _rule_rel_product(op, indices, args):
    _expect_no_indices(op, indices, args)
    _expect_arity(op, indices, args, 2)
    if not (_is_relation(args[0]) and _is_relation(args[1])):
        raise _fail(op, indices, args, "arguments must be Relations")
    return relation_sort(*(_rel_columns(args[0]) + _rel_columns(args[1])))


def _rule_rel_join(op, indices, args):
    _expect_no_indices(op, indices, args)
    _expect_arity(op, indices, args, 2)
    if not (_is_relation(args[0]) and _is_relation(args[1])):
        raise _fail(op, indices, args, "arguments must be Relations")
    left, right = _rel_columns(args[0]), _rel_columns(args[1])
    if not left or not right or left[-1] != right[0]:
        raise _fail(op, indices, args, "join columns do not match")
    return relation_sort(*(left[:-1] + right[1:]))


def _rule_rel_tclosure(op, indices, args):
    _expect_no_indices(op, indices, args)
    _expect_arity(op, indices, args, 1)
    if not _is_relation(args[0]):
        raise _fail(op, indices, args, "argument must be a Relation")
    columns = _rel_columns(args[0])
    if len(columns) != 2 or columns[0] != columns[1]:
        raise _fail(op, indices, args, "transitive closure needs a homogeneous binary Relation")
    return args[0]


def _rule_bag(op, indices, args):
    _expect_no_indices(op, indices, args)
    _expect_arity(op, indices, args, 2)
    if args[1] != INT:
        raise _fail(op, indices, args, "multiplicity must be Int")
    return Sort("Bag", args=(args[0],))


def _bag_binary(op, indices, args):
    _expect_no_indices(op, indices, args)
    _expect_arity(op, indices, args, 2)
    _expect_same(op, indices, args)
    if not _container("Bag", args[0]):
        raise _fail(op, indices, args, "arguments must be bags")
    return args[0]


def _rule_bag_count(op, indices, args):
    _expect_no_indices(op, indices, args)
    _expect_arity(op, indices, args, 2)
    if not _container("Bag", args[1]) or args[0] != args[1].element():
        raise _fail(op, indices, args, "expected (A (Bag A))")
    return INT


def _rule_bag_card(op, indices, args):
    _expect_no_indices(op, indices, args)
    _expect_arity(op, indices, args, 1)
    if not _container("Bag", args[0]):
        raise _fail(op, indices, args, "argument must be a Bag")
    return INT


def _rule_tuple(op, indices, args):
    _expect_no_indices(op, indices, args)
    return tuple_sort(*args)


def _rule_tuple_select(op, indices, args):
    if len(indices) != 1 or indices[0] < 0:
        raise _fail(op, indices, args, "requires one non-negative index")
    _expect_arity(op, indices, args, 1)
    if args[0].name != "Tuple" or indices[0] >= len(args[0].args):
        raise _fail(op, indices, args, "index out of range for tuple sort")
    return args[0].args[indices[0]]


# ---------------------------------------------------------------------------
# The table itself.
# ---------------------------------------------------------------------------

SIGNATURES: dict[str, SignatureRule] = {
    # Core
    "not": _fixed((BOOL,), BOOL),
    "and": _nary_same(BOOL, BOOL),
    "or": _nary_same(BOOL, BOOL),
    "xor": _nary_same(BOOL, BOOL),
    "=>": _nary_same(BOOL, BOOL),
    "=": _rule_eq,
    "distinct": _rule_eq,
    "ite": _rule_ite,
    # Ints / Reals
    "+": _numeric_nary(),
    "*": _numeric_nary(),
    "-": _rule_minus,
    "div": _nary_same(INT, INT),
    "mod": _fixed((INT, INT), INT),
    "abs": _fixed((INT,), INT),
    "/": _nary_same(REAL, REAL),
    "<": _numeric_compare,
    "<=": _numeric_compare,
    ">": _numeric_compare,
    ">=": _numeric_compare,
    "to_real": _fixed((INT,), REAL),
    "to_int": _fixed((REAL,), INT),
    "is_int": _fixed((REAL,), BOOL),
    "divisible": _rule_divisible,
    # BitVec
    "concat": _rule_concat,
    "extract": _rule_extract,
    "zero_extend": _rule_extend,
    "sign_extend": _rule_extend,
    "rotate_left": _rule_rotate,
    "rotate_right": _rule_rotate,
    "repeat": _rule_repeat,
    "bvnot": _bv_unary,
    "bvneg": _bv_unary,
    "bvand": _bv_nary(),
    "bvor": _bv_nary(),
    "bvxor": _bv_nary(),
    "bvadd": _bv_nary(),
    "bvmul": _bv_nary(),
    "bvsub": _bv_binary(),
    "bvudiv": _bv_binary(),
    "bvurem": _bv_binary(),
    "bvsdiv": _bv_binary(),
    "bvsrem": _bv_binary(),
    "bvsmod": _bv_binary(),
    "bvshl": _bv_binary(),
    "bvlshr": _bv_binary(),
    "bvashr": _bv_binary(),
    "bvult": _bv_binary(result_bool=True),
    "bvule": _bv_binary(result_bool=True),
    "bvugt": _bv_binary(result_bool=True),
    "bvuge": _bv_binary(result_bool=True),
    "bvslt": _bv_binary(result_bool=True),
    "bvsle": _bv_binary(result_bool=True),
    "bvsgt": _bv_binary(result_bool=True),
    "bvsge": _bv_binary(result_bool=True),
    # Strings
    "str.++": _nary_same(STRING, STRING),
    "str.len": _fixed((STRING,), INT),
    "str.at": _fixed((STRING, INT), STRING),
    "str.substr": _fixed((STRING, INT, INT), STRING),
    "str.contains": _fixed((STRING, STRING), BOOL),
    "str.prefixof": _fixed((STRING, STRING), BOOL),
    "str.suffixof": _fixed((STRING, STRING), BOOL),
    "str.indexof": _fixed((STRING, STRING, INT), INT),
    "str.replace": _fixed((STRING, STRING, STRING), STRING),
    "str.replace_all": _fixed((STRING, STRING, STRING), STRING),
    "str.to_int": _fixed((STRING,), INT),
    "str.from_int": _fixed((INT,), STRING),
    "str.<": _fixed((STRING, STRING), BOOL),
    "str.<=": _fixed((STRING, STRING), BOOL),
    "str.to_re": _fixed((STRING,), REGLAN),
    "str.in_re": _fixed((STRING, REGLAN), BOOL),
    "re.++": _nary_same(REGLAN, REGLAN),
    "re.union": _nary_same(REGLAN, REGLAN),
    "re.inter": _nary_same(REGLAN, REGLAN),
    "re.*": _fixed((REGLAN,), REGLAN),
    "re.+": _fixed((REGLAN,), REGLAN),
    "re.opt": _fixed((REGLAN,), REGLAN),
    "re.range": _fixed((STRING, STRING), REGLAN),
    # Arrays
    "select": _rule_select,
    "store": _rule_store,
    # Sequences (cvc5)
    "seq.unit": _rule_seq_unit,
    "seq.++": _rule_seq_concat,
    "seq.len": _seq_rule(1, (), "Int"),
    "seq.extract": _seq_rule(3, (INT, INT), "seq"),
    "seq.at": _seq_rule(2, (INT,), "seq"),
    "seq.nth": _seq_rule(2, (INT,), "elem"),
    "seq.update": _seq_rule(3, (INT, None), "seq"),
    "seq.contains": _rule_seq_contains_like,
    "seq.prefixof": _rule_seq_contains_like,
    "seq.suffixof": _rule_seq_contains_like,
    # Sets (cvc5)
    "set.union": _set_binary,
    "set.inter": _set_binary,
    "set.minus": _set_binary,
    "set.subset": _set_compare,
    "set.member": _rule_set_member,
    "set.singleton": _rule_set_singleton,
    "set.insert": _rule_set_insert,
    "set.card": _rule_set_card,
    "set.complement": _rule_set_complement,
    # Relations (cvc5)
    "rel.transpose": _rule_rel_transpose,
    "rel.product": _rule_rel_product,
    "rel.join": _rule_rel_join,
    "rel.tclosure": _rule_rel_tclosure,
    # Bags (cvc5)
    "bag": _rule_bag,
    "bag.union_max": _bag_binary,
    "bag.union_disjoint": _bag_binary,
    "bag.inter_min": _bag_binary,
    "bag.difference_subtract": _bag_binary,
    "bag.count": _rule_bag_count,
    "bag.card": _rule_bag_card,
    # Finite fields (cvc5)
    "ff.add": _ff_nary(2),
    "ff.mul": _ff_nary(2),
    "ff.neg": _ff_nary(1),
    # Tuples (cvc5)
    "tuple": _rule_tuple,
    "tuple.select": _rule_tuple_select,
}


# Nullary theory constants that appear as bare symbols in concrete syntax.
BUILTIN_CONSTANTS: dict[str, Sort] = {
    "re.none": REGLAN,
    "re.all": REGLAN,
    "re.allchar": REGLAN,
}

# Qualified nullary constructors ``(as <name> <sort>)`` → required sort head.
QUALIFIED_CONSTANT_HEADS: dict[str, str] = {
    "seq.empty": "Seq",
    "set.empty": "Set",
    "set.universe": "Set",
    "bag.empty": "Bag",
}


def is_builtin_operator(op: str) -> bool:
    """True when ``op`` has an entry in the signature table."""
    return op in SIGNATURES


def apply_sort(
    op: str,
    indices: tuple[int, ...],
    arg_sorts: tuple[Sort, ...],
    context: Optional[DeclarationContext] = None,
) -> Sort:
    """Result sort of applying ``op`` (with ``indices``) to ``arg_sorts``.

    Built-in operators are resolved through the signature table; everything
    else is looked up in ``context`` as a declared function.  Raises
    :class:`TypeCheckError` on sort mismatch and
    :class:`~repro.errors.UnknownSymbolError` for unknown operators.
    """
    rule = SIGNATURES.get(op)
    if rule is not None:
        return rule(op, tuple(indices), tuple(arg_sorts))
    if context is not None:
        signature = context.lookup_fun(op)
        if signature is not None:
            if indices:
                raise _fail(op, indices, arg_sorts, "declared functions take no indices")
            if signature.params != tuple(arg_sorts):
                raise _fail(
                    op, indices, arg_sorts,
                    f"declared signature is ({' '.join(map(str, signature.params))}) {signature.result}",
                )
            return signature.result
    raise UnknownSymbolError(op)


# ---------------------------------------------------------------------------
# Constant validation.
# ---------------------------------------------------------------------------


def check_constant(constant: Constant) -> None:
    """Verify that a constant's value is representable at its sort."""
    sort, value = constant.sort, constant.value
    if constant.qualifier:
        qualifier = constant.qualifier
        if is_finite_field(sort):
            match = re.fullmatch(r"ff(\d+)", qualifier)
            if match is None:
                raise TypeCheckError(f"finite-field constant needs an ff qualifier, got {qualifier!r}")
            if not isinstance(value, int) or not 0 <= value < sort.width:
                raise TypeCheckError(f"finite-field value {value!r} out of range for {sort}")
            if int(match.group(1)) != value:
                raise TypeCheckError(
                    f"finite-field qualifier {qualifier!r} does not encode value {value!r}"
                )
            return
        head = QUALIFIED_CONSTANT_HEADS.get(qualifier)
        if head is None:
            raise TypeCheckError(f"unknown qualified constant {qualifier!r}")
        if sort.name != head or not sort.args:
            raise TypeCheckError(f"qualified constant {qualifier!r} requires a {head} sort, got {sort}")
        return
    if sort == BOOL:
        if not isinstance(value, bool):
            raise TypeCheckError(f"Bool constant with non-bool value {value!r}")
    elif sort == INT:
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeCheckError(f"Int constant with non-int value {value!r}")
    elif sort == REAL:
        if not isinstance(value, (int, Fraction)) or isinstance(value, bool):
            raise TypeCheckError(f"Real constant with non-rational value {value!r}")
    elif sort == STRING:
        if not isinstance(value, str):
            raise TypeCheckError(f"String constant with non-string value {value!r}")
    elif is_bitvec(sort):
        if not isinstance(value, int) or not 0 <= value < (1 << sort.width):
            raise TypeCheckError(f"bit-vector value {value!r} out of range for {sort}")
    elif is_finite_field(sort):
        raise TypeCheckError(f"finite-field constant must carry an ff qualifier: {constant!r}")
    else:
        raise TypeCheckError(f"unqualified constant of non-literal sort {sort}")


# ---------------------------------------------------------------------------
# The recursive checker.
# ---------------------------------------------------------------------------


def check(term: Term, context: Optional[DeclarationContext] = None) -> Sort:
    """Verify that ``term`` is well-sorted and return its sort.

    Every ``Apply`` node's stored sort must equal what the signature table
    derives from its children; quantifier bodies must be ``Bool``; ``let``
    bodies must agree with the stored sort.  When ``context`` is given, free
    symbols must match their declared zero-arity signatures.  Raises
    :class:`TypeCheckError` or :class:`~repro.errors.UnknownSymbolError`.

    The checker memoizes per binder scope: with hash-consed terms a subterm
    shared by many parents inside one scope is verified once, so checking
    is linear in DAG size; the bound-variable dict is mutated and restored
    around binders, so deep binder chains are linear too.
    """
    ensure_recursion_limit()  # the checker recurses over term depth
    return _check(term, context, {}, {})


def well_sorted(term: Term, context: Optional[DeclarationContext] = None) -> bool:
    """Predicate form of :func:`check`: ``True`` when the term passes."""
    try:
        check(term, context)
    except (TypeCheckError, UnknownSymbolError):
        return False
    return True


def reject_duplicate_names(what: str, names: list[str], exc: type = TypeCheckError) -> None:
    """Raise ``exc`` if ``names`` contains a repeat (shared by parser and
    checker so the two validation layers cannot drift)."""
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise exc(f"duplicate {what} binding: {name!r}")
        seen.add(name)


def _check(
    term: Term,
    context: Optional[DeclarationContext],
    bound: dict[str, Sort],
    cache: dict[Term, Sort],
) -> Sort:
    # ``cache`` is the memo for the *current binder scope*: shared subterms
    # inside one scope are verified once (O(1) per node thanks to
    # hash-consing), and each binder opens a fresh cache that dies with the
    # scope, so memory stays proportional to the live binder path.  The
    # single ``bound`` dict is mutated and restored around binders rather
    # than copied, keeping deep binder chains linear.
    cached = cache.get(term)
    if cached is not None:
        return cached
    sort = _check_uncached(term, context, bound, cache)
    cache[term] = sort
    return sort


def _check_uncached(
    term: Term,
    context: Optional[DeclarationContext],
    bound: dict[str, Sort],
    cache: dict[Term, Sort],
) -> Sort:
    if isinstance(term, Constant):
        check_constant(term)
        return term.sort
    if isinstance(term, Symbol):
        if term.name in bound:
            declared = bound[term.name]
        elif term.name in BUILTIN_CONSTANTS:
            declared = BUILTIN_CONSTANTS[term.name]
        elif context is not None:
            signature = context.lookup_fun(term.name)
            if signature is None:
                raise UnknownSymbolError(term.name)
            if signature.arity != 0:
                raise TypeCheckError(f"symbol {term.name!r} has arity {signature.arity}, used as a constant")
            declared = signature.result
        else:
            return term.sort
        if declared != term.sort:
            raise TypeCheckError(
                f"symbol {term.name!r} declared with sort {declared}, used at {term.sort}"
            )
        return term.sort
    if isinstance(term, Apply):
        # Plain loop, not a genexpr, so deep chains check in linear time.
        checked = []
        for arg in term.args:
            checked.append(_check(arg, context, bound, cache))
        arg_sorts = tuple(checked)
        # Same rule as the parser: a bound variable shadows even builtin
        # operator names, and bound variables can never be applied.
        if term.op in bound:
            raise TypeCheckError(f"bound variable {term.op!r} cannot be applied")
        if context is None and term.op not in SIGNATURES:
            # Without a context we cannot validate a declared function's rank;
            # trust the stored sort, mirroring the free-Symbol behaviour.
            return term.sort
        derived = apply_sort(term.op, term.indices, arg_sorts, context)
        if derived != term.sort:
            raise TypeCheckError(
                f"application of {term.op} stores sort {term.sort}, derived {derived}"
            )
        return derived
    if isinstance(term, Quantifier):
        if not term.bindings:
            raise TypeCheckError("quantifier with no bindings")
        reject_duplicate_names("quantifier", [n for n, _ in term.bindings])
        saved = push_scope(bound, term.bindings)
        try:
            body_sort = _check(term.body, context, bound, {})
        finally:
            pop_scope(bound, saved)
        if body_sort != BOOL:
            raise TypeCheckError(f"quantifier body must be Bool, got {body_sort}")
        return BOOL
    if isinstance(term, Let):
        if not term.bindings:
            raise TypeCheckError("let with no bindings")
        reject_duplicate_names("let", [n for n, _ in term.bindings])
        # Values are checked in the enclosing scope (parallel let).
        value_sorts = []
        for name, value in term.bindings:
            value_sorts.append((name, _check(value, context, bound, cache)))
        saved = push_scope(bound, value_sorts)
        try:
            return _check(term.body, context, bound, {})
        finally:
            pop_scope(bound, saved)
    raise TypeCheckError(f"unknown term node: {term!r}")


def check_script(script) -> None:
    """Check every defined body and asserted term of a script in context."""
    from ..obs.spans import trace_span
    from .script import Assert, DefineFun, apply_command

    ensure_recursion_limit()  # the checker recurses over term depth
    with trace_span("typecheck"):
        context = DeclarationContext()
        for command in script.commands:
            if isinstance(command, DefineFun):
                # Parameters are bound variables (they may shadow
                # declarations), not declarations of their own.
                reject_duplicate_names(
                    "define-fun parameter", [n for n, _ in command.params]
                )
                body_sort = _check(command.body, context, dict(command.params), {})
                if body_sort != command.result:
                    raise TypeCheckError(
                        f"define-fun {command.name!r} declares result "
                        f"{command.result}, body has {body_sort}"
                    )
            elif isinstance(command, Assert):
                if _check(command.term, context, {}, {}) != BOOL:
                    raise TypeCheckError("asserted term must be Bool")
            apply_command(command, context)


__all__ = [
    "SIGNATURES",
    "BUILTIN_CONSTANTS",
    "QUALIFIED_CONSTANT_HEADS",
    "is_builtin_operator",
    "apply_sort",
    "check_constant",
    "check",
    "check_script",
    "well_sorted",
]
