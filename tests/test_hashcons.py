"""Tests for the hash-consed term core: interning uniqueness, identity
equality, cached sorts/hashes, weak collection, and the acceptance
criterion that parsing any corpus script twice yields identical term
object graphs."""

import copy
import gc
import pickle
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from repro.smtlib import parse_script, sorts, terms
from repro.smtlib.sorts import (
    BOOL,
    INT,
    REAL,
    Sort,
    array_sort,
    bitvec_sort,
    seq_sort,
    set_sort,
    uninterpreted_sort,
)
from repro.smtlib.terms import (
    FALSE,
    TRUE,
    Apply,
    Constant,
    Let,
    Quantifier,
    Symbol,
    bool_const,
    int_const,
    intern_stats,
    qualified_constant,
    reset_intern_stats,
)

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.smt2"))


def test_every_node_kind_interns_to_one_object():
    assert Constant(3, INT) is Constant(3, INT)
    assert Symbol("x", INT) is Symbol("x", INT)
    x = Symbol("x", INT)
    assert Apply("+", (x, int_const(1)), INT) is Apply("+", [x, int_const(1)], INT)
    body = Apply("<", (x, int_const(1)), BOOL)
    assert Quantifier("forall", (("x", INT),), body) is Quantifier(
        "forall", [("x", INT)], body
    )
    assert Let((("y", x),), body) is Let([("y", x)], body)


def test_equality_is_identity_and_hash_is_structural():
    a = Apply("+", (Symbol("x", INT), int_const(1)), INT)
    b = Apply("+", (Symbol("x", INT), int_const(1)), INT)
    assert a is b and a == b and hash(a) == hash(b)
    c = Apply("+", (Symbol("x", INT), int_const(2)), INT)
    assert a is not c and a != c


def test_distinct_value_types_stay_distinct():
    # bool == int in Python (True == 1), but Bool true and an Int 1 must
    # never collapse to one node.
    assert Constant(True, BOOL) is not Constant(1, INT)
    assert bool_const(True) is TRUE and bool_const(False) is FALSE
    # Real constants normalise ints to Fraction, so 2 and Fraction(2) merge.
    assert Constant(2, REAL) is Constant(Fraction(2), REAL)
    assert Constant(2, REAL).value == Fraction(2)


def test_qualified_constants_intern_per_qualifier():
    empty = qualified_constant("seq.empty", seq_sort(INT))
    assert empty is qualified_constant("seq.empty", seq_sort(INT))
    universe = qualified_constant("set.universe", seq_sort(INT))
    assert empty is not universe


def test_cached_sorts():
    x = Symbol("x", INT)
    body = Apply("<", (x, int_const(1)), BOOL)
    assert Quantifier("exists", (("x", INT),), body).sort == BOOL
    assert Let((("y", int_const(1)),), x).sort == INT


def test_terms_are_immutable():
    t = int_const(1)
    with pytest.raises(AttributeError):
        t.value = 2
    with pytest.raises(AttributeError):
        del t.sort


def test_copy_and_pickle_preserve_identity():
    t = Apply("+", (Symbol("x", INT), int_const(1)), INT)
    assert copy.copy(t) is t
    assert copy.deepcopy(t) is t
    assert pickle.loads(pickle.dumps(t)) is t


NESTED_SORTS = [
    BOOL,
    bitvec_sort(8),
    array_sort(INT, bitvec_sort(8)),
    seq_sort(set_sort(BOOL)),
]


@pytest.mark.parametrize("sort", NESTED_SORTS, ids=lambda s: s.to_smtlib())
def test_copy_and_pickle_preserve_sort_identity(sort):
    assert copy.copy(sort) is sort
    assert copy.deepcopy(sort) is sort
    assert pickle.loads(pickle.dumps(sort)) is sort
    assert Sort(sort.name, list(sort.args), list(sort.indices)) is sort
    # A term over the sort re-interns with it.
    array = Symbol("nested_sort_array", array_sort(INT, sort))
    term = Apply("select", (array, int_const(0)), sort)
    assert copy.copy(term) is term
    assert copy.deepcopy(term) is term
    assert pickle.loads(pickle.dumps(term)) is term


def _one_of_each():
    x = Symbol("x", INT)
    body = Apply("<", (x, int_const(1)), BOOL)
    return [
        (int_const(1), ("sort", "value", "qualifier")),
        (x, ("sort", "name")),
        (Apply("bvnot", (Symbol("b", bitvec_sort(4)),), bitvec_sort(4)), ("sort", "op", "args", "indices")),
        (Quantifier("forall", (("x", INT),), body), ("sort", "kind", "bindings", "body")),
        (Let((("y", x),), body), ("sort", "bindings", "body")),
        (array_sort(INT, bitvec_sort(8)), ("name", "args", "indices")),
    ]


@pytest.mark.parametrize(
    "node,field",
    [(node, field) for node, fields in _one_of_each() for field in fields],
    ids=lambda v: v if isinstance(v, str) else type(v).__name__,
)
def test_every_public_field_is_read_only(node, field):
    value = getattr(node, field)
    with pytest.raises(AttributeError):
        setattr(node, field, value)
    with pytest.raises(AttributeError):
        delattr(node, field)
    assert getattr(node, field) is value


@pytest.mark.parametrize(
    "table,drop,make",
    [
        (terms._INTERN_TABLE, terms._drop_dead, lambda: Symbol("stale_entry", INT)),
        (sorts._SORT_TABLE, sorts._drop_dead_sort, lambda: uninterpreted_sort("StaleEntry")),
    ],
    ids=["terms", "sorts"],
)
def test_a_stale_removal_callback_leaves_the_live_entry(table, drop, make):
    def dead_ref(key):
        class Gone:
            pass

        ref = sorts._KeyedRef(Gone())
        ref.key = key
        gc.collect()
        assert ref() is None
        return ref

    live = make()
    # Iterate a copy: a collector callback may drop an entry meanwhile.
    (key,) = [key for key, ref in table.copy().items() if ref() is live]
    # The entry under ``key`` already holds a live node: the late callback
    # of a dead node it replaced must not evict it.
    drop(dead_ref(key))
    assert table[key]() is live
    assert make() is live
    # A callback for an entry that really is dead removes it.
    probe = dead_ref(("stale-probe",))
    table[probe.key] = probe
    drop(probe)
    assert probe.key not in table


def test_unreferenced_sorts_are_collected():
    sort = array_sort(uninterpreted_sort("Fleeting"), bitvec_sort(3))
    term = Symbol("fleeting", sort)
    probe = weakref.ref(sort)
    del sort
    gc.collect()
    assert probe() is term.sort  # the term keeps its sort alive
    del term
    gc.collect()
    assert probe() is None
    assert not [key for key in sorts._SORT_TABLE.copy() if key[0] == "Fleeting"]


def test_intern_stats_count_hits_and_misses():
    reset_intern_stats()
    before = intern_stats()
    assert before["hits"] == 0 and before["misses"] == 0
    first = Apply("*", (Symbol("fresh_sym", INT), int_const(991)), INT)
    second = Apply("*", (Symbol("fresh_sym", INT), int_const(991)), INT)
    assert first is second
    after = intern_stats()
    assert after["misses"] >= 1 and after["hits"] >= 1


def test_unreferenced_terms_are_collected():
    t = Apply("+", (Symbol("collectable_sym", INT), int_const(424242)), INT)
    live_with = intern_stats()["live"]
    del t
    gc.collect()
    assert intern_stats()["live"] < live_with


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_double_parse_yields_identical_object_graphs(path):
    text = path.read_text()
    first = parse_script(text)
    second = parse_script(text)
    assert first == second
    for a, b in zip(first.assertions(), second.assertions()):
        assert a is b


def test_dag_size_counts_unique_nodes():
    x = Symbol("x", INT)
    shared = Apply("+", (x, x), INT)
    doubled = Apply("+", (shared, shared), INT)
    assert doubled.size() == 7  # tree view: occurrences
    assert doubled.dag_size() == 3  # DAG view: x, shared, doubled


def test_dag_walk_yields_first_occurrences_in_walk_order():
    x, y = Symbol("x", INT), Symbol("y", INT)
    shared = Apply("+", (x, y), INT)
    term = Apply("*", (shared, Apply("-", (y, shared), INT)), INT)
    first_seen = list(dict.fromkeys(term.walk()))
    assert list(term.dag_walk()) == first_seen
    assert len(first_seen) == term.dag_size() == 5


def test_deep_free_symbols_is_linear_via_sharing():
    t = Apply("+", (Symbol("x", INT), int_const(1)), INT)
    for _ in range(64):  # tree size 2^64+: only tractable on the DAG
        t = Apply("+", (t, t), INT)
    assert t.free_symbols() == {"x": INT}
    assert t.dag_size() == 67
