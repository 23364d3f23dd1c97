#!/usr/bin/env python3
"""Benchmark suite for the hash-consed term core and the simplifier.

Generates deterministic deep/wide/shared term workloads, then builds,
simplifies and (where ground) evaluates each one, plus a corpus-reparse
workload.  Each row times the ``build`` (``parse``), ``simplify`` and
``evaluate`` spans and counts:

* tree and DAG node counts before and after simplification
  (``nodes.*``; tree sizes only where the tree is tractable),
* the intern-table hits, misses and hit rate of the construction phase
  (``build.*``, or ``parse.*`` for the corpus's second parse),
* the intern table's counters at the end of the row (``intern.*``).

Every row is verified after its spans: a simplified term keeps its sort,
is a simplify fixpoint and re-typechecks, and a ground term's value
equals its simplified form; the corpus's simplified scripts print,
reparse and print identically.

Usage::

    PYTHONPATH=src python benchmarks/bench_simplify.py [--mode {smoke,full}] [--out PATH] [--corpus DIR]
"""

from __future__ import annotations

import os
from functools import partial
from pathlib import Path

from _harness import Outcome, Workload, main, prefixed  # also puts src/ on sys.path
from repro.smtlib import (
    BOOL,
    INT,
    STRING,
    Apply,
    Let,
    Symbol,
    Term,
    bitvec_const,
    bitvec_sort,
    bool_const,
    check,
    evaluate,
    int_const,
    intern_stats,
    parse_script,
    reset_intern_stats,
    script_to_smtlib,
    simplify,
    simplify_script,
    string_const,
)

BV8 = bitvec_sort(8)
CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests", "corpus")


# ---------------------------------------------------------------------------
# Workload generators.  All deterministic: same n → same term.
# ---------------------------------------------------------------------------


def deep_ground_add(n: int) -> Term:
    """Left-nested all-literal addition chain: folds to one constant."""
    term: Term = int_const(1)
    for i in range(n):
        term = Apply("+", (term, int_const(i % 7)), INT)
    return term


def deep_mixed_add(n: int) -> Term:
    """Left-nested addition chain over one symbol: folds to ``(+ x c)``."""
    term: Term = Symbol("x", INT)
    for i in range(n):
        term = Apply("+", (term, int_const(i % 7)), INT)
    return term


def wide_and(n: int) -> Term:
    """Wide conjunction with duplicates and ``true`` units interleaved."""
    args: list[Term] = []
    for i in range(n):
        args.append(Symbol(f"b{i % max(1, n // 4)}", BOOL))  # ~4x duplication
        if i % 5 == 0:
            args.append(bool_const(True))
    return Apply("and", tuple(args), BOOL)


def bv_mix(n: int) -> Term:
    """Bit-vector chain mixing bvadd/bvand/bvxor with literal runs."""
    term: Term = Symbol("v", BV8)
    for i in range(n):
        op = ("bvadd", "bvand", "bvxor")[i % 3]
        term = Apply(op, (term, bitvec_const(i * 37, 8)), BV8)
    return term


def string_runs(n: int) -> Term:
    """``str.++`` with long literal runs around a few symbols."""
    args: list[Term] = []
    for i in range(n):
        args.append(string_const(f"lit{i % 11}"))
        if i % 16 == 15:
            args.append(Symbol(f"s{i % 3}", STRING))
    if len(args) < 2:
        args.append(string_const("pad"))
    return Apply("str.++", tuple(args), STRING)


def ite_chain(n: int) -> Term:
    """Nested ``ite`` with literal conditions: collapses to one branch."""
    term: Term = int_const(0)
    for i in range(n):
        term = Apply(
            "ite", (bool_const(i % 2 == 0), int_const(i), term), INT
        )
    return term


def nested_lets(n: int) -> Term:
    """Deep nested-``let`` spine with literal-propagating bindings: the
    accumulated environment folds the whole chain to one constant.
    Exercises the binder path (scope handling, env restriction)."""
    from repro.smtlib.sorts import BOOL

    body: Term = Apply("<", (Symbol(f"a{n-1}", INT), int_const(0)), BOOL)
    for i in reversed(range(n)):
        if i == 0:
            value: Term = int_const(7)
        else:
            value = Apply("+", (Symbol(f"a{i-1}", INT), int_const(1)), INT)
        body = Let(((f"a{i}", value),), body)
    return body


def shared_doubling(n: int) -> Term:
    """``t = (+ t t)`` repeated: tree size 2^n, DAG size O(n).

    Exercises the intern table (every level is one node) and the
    simplifier's memoization plus the flattening cap.
    """
    term: Term = Apply("+", (Symbol("x", INT), int_const(1)), INT)
    for _ in range(n):
        term = Apply("+", (term, term), INT)
    return term


# Workload sizes per tier, by generator.
MODES = {
    "smoke": {
        deep_ground_add: 200,
        deep_mixed_add: 200,
        wide_and: 500,
        bv_mix: 200,
        string_runs: 200,
        ite_chain: 200,
        nested_lets: 200,
        shared_doubling: 40,
    },
    "full": {
        deep_ground_add: 20_000,
        deep_mixed_add: 20_000,
        wide_and: 50_000,
        bv_mix: 10_000,
        string_runs: 20_000,
        ite_chain: 10_000,
        nested_lets: 10_000,
        shared_doubling: 400,
    },
}


# ---------------------------------------------------------------------------
# Runners.
# ---------------------------------------------------------------------------


def _intern_counts(phase: str, stats: dict[str, int]) -> dict[str, float]:
    """One phase's intern-table counters and its hit rate."""
    hit_rate = stats["hits"] / max(1, stats["hits"] + stats["misses"])
    return {**prefixed(phase, stats), f"{phase}.hit_rate": round(hit_rate, 4)}


def _node_counts(before: list[Term], after: list[Term], trees: bool) -> dict[str, int]:
    counts = {
        "nodes.dag_before": sum(t.dag_size() for t in before),
        "nodes.dag_after": sum(t.dag_size() for t in after),
    }
    if trees:
        counts["nodes.tree_before"] = sum(t.size() for t in before)
        counts["nodes.tree_after"] = sum(t.size() for t in after)
    return counts


def run_term(build, n: int, tracer) -> Outcome:
    reset_intern_stats()
    with tracer.span("build"):
        term = build(n)
    built = intern_stats()
    with tracer.span("simplify"):
        simplified = simplify(term)
    if not term.free_symbols():
        with tracer.span("evaluate"):
            value = evaluate(term)
        assert simplified is value or simplified == value
    assert simplified.sort == term.sort
    assert simplify(simplified) is simplified
    check(simplified)
    return Outcome(
        "fixpoint",
        {
            # The doubling workload's tree size is exponential in n.
            **_node_counts([term], [simplified], trees=build is not shared_doubling),
            **_intern_counts("build", built),
            **prefixed("intern", intern_stats()),
        },
    )


def run_corpus(paths: list[str], tracer) -> Outcome:
    """Parse every corpus script twice (measuring intern hits on the second
    pass), then simplify and round-trip print each one."""
    texts = [Path(p).read_text(encoding="utf-8") for p in paths]
    with tracer.span("parse"):
        first = [parse_script(text) for text in texts]
        reset_intern_stats()
        second = [parse_script(text) for text in texts]
    parsed = intern_stats()
    with tracer.span("simplify"):
        simplified = [simplify_script(script) for script in second]
    for a, b in zip(first, second):
        for ta, tb in zip(a.assertions(), b.assertions()):
            assert ta is tb, "double parse must yield identical object graphs"
    for script in simplified:
        reparsed = parse_script(script_to_smtlib(script))
        assert script_to_smtlib(reparsed) == script_to_smtlib(script)
    before = [t for s in second for t in s.assertions()]
    after = [t for s in simplified for t in s.assertions()]
    return Outcome(
        "round-trip",
        {
            **_node_counts(before, after, trees=True),
            **_intern_counts("parse", parsed),
            **prefixed("intern", intern_stats()),
        },
    )


def workloads(sizes, corpus: str):
    for build, n in sizes.items():
        yield Workload(build.__name__, n, partial(run_term, build, n))
    if os.path.isdir(corpus):
        paths = sorted(os.path.join(corpus, f) for f in os.listdir(corpus) if f.endswith(".smt2"))
        yield Workload("corpus_reparse", len(paths), partial(run_corpus, paths))


if __name__ == "__main__":
    raise SystemExit(
        main(
            "simplify",
            MODES,
            workloads,
            columns=("nodes.dag_before", "nodes.dag_after"),
            options=(("--corpus", CORPUS, "corpus directory for the reparse workload"),),
        )
    )
