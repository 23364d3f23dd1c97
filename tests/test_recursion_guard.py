"""The public term walks raise the recursion limit themselves.

``simplify``, ``simplify_script``, ``evaluate``, the printer, ``check``
and ``check_script`` still recurse over term depth, so each calls
:func:`repro.limits.ensure_recursion_limit` on entry, as ``parse_script``
and ``Engine.run`` do.  A library caller at the interpreter's default
limit of 1,000 must get the same headroom whether or not the process has
parsed a script before.
"""

from __future__ import annotations

import sys

import pytest

from repro.smtlib import (
    BOOL,
    INT,
    Apply,
    Assert,
    Script,
    check,
    check_script,
    evaluate,
    int_const,
    script_to_smtlib,
    simplify,
    simplify_script,
    term_to_smtlib,
)

DEPTH = 5000


def _chain() -> Apply:
    """``(+ (+ … (+ 1 1) …) 1)``, ``DEPTH`` applications deep, built
    iteratively."""
    term = int_const(1)
    for _ in range(DEPTH):
        term = Apply("+", (term, int_const(1)), INT)
    return term


def _script() -> Script:
    return Script((Assert(Apply(">", (_chain(), int_const(0)), BOOL)),))


WALKS = {
    "simplify": lambda: simplify(_chain()),
    "simplify_script": lambda: simplify_script(_script()),
    "evaluate": lambda: evaluate(_chain()),
    "term_to_smtlib": lambda: term_to_smtlib(_chain()),
    "str": lambda: str(_chain()),
    "script_to_smtlib": lambda: script_to_smtlib(_script()),
    "check": lambda: check(_chain()),
    "check_script": lambda: check_script(_script()),
}


@pytest.mark.parametrize("walk", sorted(WALKS))
def test_walk_raises_the_recursion_limit_itself(walk):
    build_and_walk = WALKS[walk]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        build_and_walk()
    finally:
        sys.setrecursionlimit(limit)
