"""Seeded SMT-LIB text generators for the four benchmark workloads.

Every generator is a pure function of its ``random.Random``: the same
seed yields byte-identical script text.  The solver only ever sees that
text; the expected status of each ``check-sat`` travels beside it in a
:class:`Case`, never inside the script.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Case:
    """One generated script.

    ``family`` names the generator that made it; the benchmark warms up
    one script per family before its clock starts.  ``expected`` holds
    one entry per ``(check-sat)``: ``"sat"`` or ``"unsat"`` when the
    status is known by construction, ``None`` when only the model check
    or the proof replay can vouch for the answer.  ``proofs`` marks a
    script that turns proofs on: every ``unsat`` answer it gives must
    come with a proof that ``check_proof`` accepts.
    """

    family: str
    text: str
    expected: tuple[Optional[str], ...]
    proofs: bool = False


# ---------------------------------------------------------------------------
# fuzz_mix: Once4All-style Boolean skeletons with theory-term holes.
# ---------------------------------------------------------------------------

_CONNECTIVES = ("and", "or", "not", "=>", "ite", "xor", "=")


class _Skeleton:
    """Random Boolean structure over a hole filler.

    Shapes follow real benchmark formulas: n-ary ``and``/``or``, binary
    ``=>``/``xor``/``=``, ``ite`` over formulas, and ``let`` binders that
    name a sub-formula and use it twice.  Once ``budget`` holes are
    filled every open branch closes with a hole, which bounds a
    script's size: unbounded skeletons make a seed's run time and peak
    memory hinge on its few largest scripts.
    """

    def __init__(self, rng: random.Random, hole: Callable[[], str], budget: int) -> None:
        self.rng = rng
        self._hole = hole
        self.budget = budget
        self.lets = 0

    def hole(self) -> str:
        self.budget -= 1
        return self._hole()

    def formula(self, depth: int) -> str:
        rng = self.rng
        if depth <= 0 or self.budget <= 0 or rng.random() < 0.2:
            return self.hole()
        if rng.random() < 0.12:
            name = f"?b{self.lets}"
            self.lets += 1
            bound = self.formula(depth - 1)
            other = self.formula(depth - 1)
            op = rng.choice(("and", "or", "xor", "=>"))
            return f"(let (({name} {bound})) ({op} {name} (or {name} {other})))"
        op = rng.choice(_CONNECTIVES)
        if op == "not":
            return f"(not {self.formula(depth - 1)})"
        if op in ("and", "or"):
            parts = [self.formula(depth - 1) for _ in range(rng.randint(2, 4))]
            return f"({op} {' '.join(parts)})"
        if op == "ite":
            parts = [self.formula(depth - 1) for _ in range(3)]
            return f"(ite {' '.join(parts)})"
        return f"({op} {self.formula(depth - 1)} {self.formula(depth - 1)})"


def _int_lit(value: int) -> str:
    return str(value) if value >= 0 else f"(- {-value})"


def _linear(rng: random.Random, names: list[str], lit: Callable[[int], str]) -> str:
    terms = []
    for name in rng.sample(names, rng.randint(1, min(3, len(names)))):
        coeff = rng.choice((-3, -2, -1, 1, 1, 2, 3))
        terms.append(name if coeff == 1 else f"(* {lit(coeff)} {name})")
    return terms[0] if len(terms) == 1 else f"(+ {' '.join(terms)})"


def _arith_atom(rng: random.Random, names: list[str], lit: Callable[[int], str]) -> str:
    op = rng.choice(("<=", "<", ">=", ">", "=", "<=", ">="))
    return f"({op} {_linear(rng, names, lit)} {lit(rng.randint(-6, 6))})"


def _real_lit(value: int) -> str:
    text = f"{abs(value) / 2:.1f}"
    return text if value >= 0 else f"(- {text})"


class _Family:
    """Declarations, ``define-fun`` helpers and holes of one theory."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.decls: list[str] = []
        self.defs: list[str] = []
        self.facts: list[str] = []
        self.calls: list[Callable[[], str]] = []

    def atom(self) -> str:
        raise NotImplementedError

    def hole(self) -> str:
        if self.calls and self.rng.random() < 0.15:
            return self.rng.choice(self.calls)()
        return self.atom()


class _Core(_Family):
    def __init__(self, rng: random.Random) -> None:
        super().__init__(rng)
        self.vars = [f"p{i}" for i in range(8)]
        self.decls = [f"(declare-const {v} Bool)" for v in self.vars]
        self.defs = ["(define-fun maj ((u Bool) (v Bool) (w Bool)) Bool "
                     "(or (and u v) (and v w) (and u w)))"]
        self.calls = [lambda: f"(maj {' '.join(self.rng.sample(self.vars, 3))})"]

    def atom(self) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.6:
            return rng.choice(self.vars)
        if roll < 0.85:
            return f"(not {rng.choice(self.vars)})"
        return f"(distinct {' '.join(rng.sample(self.vars, 2))})"


class _Lia(_Family):
    def __init__(self, rng: random.Random) -> None:
        super().__init__(rng)
        self.vars = [f"x{i}" for i in range(5)]
        self.decls = [f"(declare-const {v} Int)" for v in self.vars]
        self.defs = ["(define-fun inbox ((u Int) (lo Int) (hi Int)) Bool "
                     "(and (<= lo u) (<= u hi)))"]
        self.calls = [
            lambda: f"(inbox {self.rng.choice(self.vars)} "
            f"{_int_lit(self.rng.randint(-5, 0))} {_int_lit(self.rng.randint(0, 5))})"
        ]
        # Boxed integers, as in most generated seeds: unbounded equalities
        # such as 2x = 2y + 1 exhaust branch-and-bound's budget.
        self.facts = [f"(and {' '.join(f'(inbox {v} (- 8) 8)' for v in self.vars)})"]

    def atom(self) -> str:
        return _arith_atom(self.rng, self.vars, _int_lit)


class _Lra(_Family):
    def __init__(self, rng: random.Random) -> None:
        super().__init__(rng)
        self.vars = [f"r{i}" for i in range(4)]
        self.decls = [f"(declare-const {v} Real)" for v in self.vars]
        self.defs = ["(define-fun near ((u Real) (v Real)) Bool "
                     "(and (<= (- u v) 1.5) (<= (- v u) 1.5)))"]
        self.calls = [lambda: f"(near {' '.join(self.rng.sample(self.vars, 2))})"]

    def atom(self) -> str:
        return _arith_atom(self.rng, self.vars, _real_lit)


class _Uf(_Family):
    def __init__(self, rng: random.Random) -> None:
        super().__init__(rng)
        self.consts = [f"a{i}" for i in range(4)]
        self.decls = ["(declare-sort U 0)"]
        self.decls += [f"(declare-const {c} U)" for c in self.consts]
        self.decls += [
            "(declare-fun f (U) U)",
            "(declare-fun g (U U) U)",
            "(declare-fun P (U) Bool)",
        ]
        self.defs = ["(define-fun fixed ((u U)) Bool (= (f u) u))"]
        self.calls = [lambda: f"(fixed {self.term(1)})"]

    def term(self, depth: int) -> str:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.45:
            return rng.choice(self.consts)
        if rng.random() < 0.6:
            return f"(f {self.term(depth - 1)})"
        return f"(g {self.term(depth - 1)} {self.term(depth - 1)})"

    def atom(self) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.55:
            return f"(= {self.term(2)} {self.term(2)})"
        if roll < 0.8:
            return f"(P {self.term(2)})"
        return f"(distinct {self.term(1)} {self.term(1)} {self.term(1)})"


class _Bv(_Family):
    WIDTH = 6

    def __init__(self, rng: random.Random) -> None:
        super().__init__(rng)
        self.vars = [f"w{i}" for i in range(4)]
        sort = f"(_ BitVec {self.WIDTH})"
        self.decls = [f"(declare-const {v} {sort})" for v in self.vars]
        self.defs = [f"(define-fun lowbit ((u {sort})) Bool "
                     f"(= ((_ extract 0 0) u) #b1))"]
        self.calls = [lambda: f"(lowbit {self.term(1)})"]

    def const(self) -> str:
        return f"(_ bv{self.rng.randrange(1 << self.WIDTH)} {self.WIDTH})"

    def term(self, depth: int) -> str:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.3:
            return rng.choice(self.vars) if rng.random() < 0.8 else self.const()
        op = rng.choice(("bvadd", "bvsub", "bvand", "bvor", "bvxor", "bvnot", "bvshl", "bvmul"))
        if op == "bvnot":
            return f"(bvnot {self.term(depth - 1)})"
        if op in ("bvshl", "bvmul"):
            # Shifts and products by a constant keep the circuits small;
            # a variable-by-variable multiplier would own the whole run.
            return f"({op} {self.term(depth - 1)} {self.const()})"
        return f"({op} {self.term(depth - 1)} {self.term(depth - 1)})"

    def atom(self) -> str:
        op = self.rng.choice(("bvult", "bvule", "bvslt", "bvsle", "=", "="))
        return f"({op} {self.term(2)} {self.term(2)})"


class _Arrays(_Family):
    def __init__(self, rng: random.Random) -> None:
        super().__init__(rng)
        self.arrays = ["m0", "m1"]
        self.indices = [f"i{k}" for k in range(3)]
        self.values = [f"v{k}" for k in range(3)]
        self.decls = ["(declare-sort U 0)"]
        self.decls += [f"(declare-const {a} (Array U U))" for a in self.arrays]
        self.decls += [f"(declare-const {c} U)" for c in self.indices + self.values]
        self.defs = ["(define-fun written ((m (Array U U)) (k U) (v U)) Bool "
                     "(= (select m k) v))"]
        self.calls = [
            lambda: f"(written {self.array(1)} {self.rng.choice(self.indices)} "
            f"{self.rng.choice(self.values)})"
        ]

    def array(self, depth: int) -> str:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.5:
            return rng.choice(self.arrays)
        return (f"(store {self.array(depth - 1)} {rng.choice(self.indices)} "
                f"{self.value(0)})")

    def value(self, depth: int) -> str:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.5:
            return rng.choice(self.values)
        return f"(select {self.array(depth - 1)} {rng.choice(self.indices)})"

    def atom(self) -> str:
        # Only reads are compared.  Equalities between arrays or between
        # indices hit known gaps of the array model builder and would
        # answer ``unknown``; index aliasing still arises through reads.
        return f"(= {self.value(2)} {self.value(2)})"


class _UfLia(_Family):
    """UF over Int beside linear arithmetic, meeting only in the Boolean
    skeleton.  Arithmetic over UF applications, or UF arguments that
    arithmetic also constrains, needs theory combination the engine does
    not have yet (ROADMAP) and would answer ``unknown``."""

    def __init__(self, rng: random.Random) -> None:
        super().__init__(rng)
        self.vars = [f"x{i}" for i in range(3)]
        self.keys = [f"k{i}" for i in range(3)]
        self.decls = [f"(declare-const {v} Int)" for v in self.vars + self.keys]
        self.decls += ["(declare-fun h (Int) Int)", "(declare-fun Q (Int) Bool)"]
        self.defs = [
            "(define-fun stable ((u Int)) Bool (= (h (h u)) (h u)))",
            "(define-fun inbox ((u Int) (lo Int) (hi Int)) Bool "
            "(and (<= lo u) (<= u hi)))",
        ]
        self.calls = [lambda: f"(stable {self.rng.choice(self.keys)})"]
        self.facts = [f"(and {' '.join(f'(inbox {v} (- 8) 8)' for v in self.vars)})"]

    def term(self, depth: int) -> str:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.4:
            return f"(h {rng.choice(self.keys)})"
        return f"(h {self.term(depth - 1)})"

    def atom(self) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.45:
            return _arith_atom(rng, self.vars, _int_lit)
        if roll < 0.8:
            return f"(= {self.term(1)} {self.term(1)})"
        return f"(Q {self.term(1)})"


class _UfLiaCombined(_UfLia):
    """UF+LIA where arithmetic also ranges over UF applications: the
    theory-combination fragment the engine answers ``unknown`` on today
    (``abstracted-atoms``, ``model-validation-failed``)."""

    def atom(self) -> str:
        rng = self.rng
        if rng.random() < 0.5:
            return _arith_atom(rng, self.vars + [self.term(0) for _ in range(2)], _int_lit)
        return super().atom()


FUZZ_FAMILIES: dict[str, tuple[str, type[_Family]]] = {
    "core": ("QF_UF", _Core),
    "lia": ("QF_LIA", _Lia),
    "lra": ("QF_LRA", _Lra),
    "uf": ("QF_UF", _Uf),
    "bv": ("QF_BV", _Bv),
    "arrays": ("QF_AX", _Arrays),
    "uflia": ("QF_UFLIA", _UfLia),
}
#: Families outside the engine's decided fragments, for ``fuzz_combo``.
HOLE_FAMILIES: dict[str, tuple[str, type[_Family]]] = {
    "uflia+": ("QF_UFLIA", _UfLiaCombined),
}


def fuzz_script(rng: random.Random, family: str, holes: int) -> Case:
    """One skeleton-filled script: declarations, ``define-fun`` helpers,
    two to four assertions with about ``holes`` theory terms between
    them, one ``check-sat``."""
    logic, make = {**FUZZ_FAMILIES, **HOLE_FAMILIES}[family]
    theory = make(rng)
    skeleton = _Skeleton(rng, theory.hole, holes)
    lines = [f"(set-logic {logic})", *theory.decls, *theory.defs]
    lines += [f"(assert {fact})" for fact in theory.facts]
    for _ in range(rng.randint(2, 4)):
        lines.append(f"(assert {skeleton.formula(rng.randint(2, 4))})")
    lines.append("(check-sat)")
    return Case(family, "\n".join(lines) + "\n", (None,))


def fuzz_mix(
    rng: random.Random, per_family: int, holes: int, families=tuple(FUZZ_FAMILIES)
) -> list[Case]:
    """``per_family`` scripts of every family, interleaved."""
    return [
        fuzz_script(rng, family, holes)
        for _ in range(per_family)
        for family in families
    ]


# ---------------------------------------------------------------------------
# hard_search: CDCL-bound propositional scripts with known status.
# ---------------------------------------------------------------------------


def _cnf_script(clauses: list[list[int]], name: Callable[[int], str]) -> str:
    """Clauses over integer literals as ``declare-const``/``assert (or ...)``."""
    used = sorted({abs(lit) for clause in clauses for lit in clause})
    lines = ["(set-logic QF_UF)"]
    lines += [f"(declare-const {name(v)} Bool)" for v in used]
    for clause in clauses:
        lits = [name(lit) if lit > 0 else f"(not {name(-lit)})" for lit in clause]
        lines.append(f"(assert {lits[0]})" if len(lits) == 1 else f"(assert (or {' '.join(lits)}))")
    return "\n".join(lines)


def pigeonhole_clauses(holes: int) -> list[list[int]]:
    """PHP(holes+1, holes): every pigeon in a hole, no hole shared."""
    pigeons = holes + 1

    def var(i: int, j: int) -> int:
        return i * holes + j + 1

    clauses = [[var(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for a in range(pigeons):
            for b in range(a + 1, pigeons):
                clauses.append([-var(a, j), -var(b, j)])
    return clauses


def planted_3sat_clauses(rng: random.Random, num_vars: int, ratio: float) -> list[list[int]]:
    """Random 3-SAT at ``ratio`` clauses per variable, keeping only
    clauses a hidden assignment satisfies, so the formula is sat."""
    planted = [rng.random() < 0.5 for _ in range(num_vars + 1)]
    clauses: list[list[int]] = []
    while len(clauses) < round(ratio * num_vars):
        clause = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3)]
        if any(planted[abs(lit)] == (lit > 0) for lit in clause):
            clauses.append(clause)
    return clauses


def pigeonhole(rng: random.Random, holes: int) -> Case:
    """PHP in canonical clause order under seeded variable names.  The
    search trajectory follows clause order, so renaming alone keeps the
    refutation's cost fixed across seeds; shuffled orders vary it by a
    factor of three."""
    names = rng.sample(range(1, holes * (holes + 1) + 1), holes * (holes + 1))
    text = _cnf_script(pigeonhole_clauses(holes), lambda v: f"q{names[v - 1]}")
    return Case("php", text + "\n(check-sat)\n", ("unsat",))


def planted_3sat(rng: random.Random, num_vars: int, ratio: float = 4.2) -> Case:
    """A planted 3-SAT formula drawn from a sub-seed fixed by its size,
    under seeded variable names.  Planted formulas' costs are
    heavy-tailed, so drawing them from the run's seed would make a
    seed's figures hinge on its hardest formula; renaming keeps the
    search trajectory, hence the cost, fixed."""
    clauses = planted_3sat_clauses(random.Random(num_vars), num_vars, ratio)
    names = rng.sample(range(1, num_vars + 1), num_vars)
    text = _cnf_script(clauses, lambda v: f"s{names[v - 1]}")
    return Case("3sat", text + "\n(check-sat)\n", ("sat",))


def parity(rng: random.Random, length: int) -> Case:
    """Two XOR chains over the same inputs, one summing them in a seeded
    order and claiming odd parity, the other summing them in reverse
    and claiming even parity: unsat.  The reversed order keeps the
    refutation's size fixed across seeds (a random second order makes
    it heavy-tailed); the seed renames the inputs."""
    xs = [f"x{i}" for i in range(length)]
    order = rng.sample(xs, length)
    lines = ["(set-logic QF_UF)"]
    lines += [f"(declare-const {x} Bool)" for x in xs]
    for chain, parity_value, inputs in (("y", "true", order), ("z", "false", order[::-1])):
        lines += [f"(declare-const {chain}{i} Bool)" for i in range(length)]
        lines.append(f"(assert (= {chain}0 {inputs[0]}))")
        for i in range(1, length):
            lines.append(f"(assert (= {chain}{i} (xor {chain}{i - 1} {inputs[i]})))")
        lines.append(f"(assert (= {chain}{length - 1} {parity_value}))")
    return Case("parity", "\n".join(lines) + "\n(check-sat)\n", ("unsat",))


def ladder(low: int, high: int, steps: int) -> list[int]:
    """``steps`` sizes spread evenly from ``low`` to ``high``.  A fixed
    ladder, not random draws, keeps a set's total work the same for
    every seed while its script costs still spread continuously."""
    return [low + (high - low) * i // max(1, steps - 1) for i in range(steps)]


def hard_search(
    rng: random.Random, rounds: int, holes: int, chain: int, sat_vars: int
) -> list[Case]:
    """``rounds`` groups of one pigeonhole, three parity contradictions
    and one planted 3-SAT instance.  Chain lengths and 3-SAT sizes climb
    ladders up to ``chain`` and ``sat_vars``.  The seed only renames
    variables, so the search work is the same for every seed.  Planted
    3-SAT text is long for its search work, so it stays a fifth."""
    chains = ladder(chain // 6, chain, 3 * rounds)
    sizes = ladder(sat_vars // 2, sat_vars, rounds)
    cases: list[Case] = []
    for r in range(rounds):
        cases.append(pigeonhole(rng, holes))
        cases += [parity(rng, chains[3 * r + k]) for k in range(3)]
        cases.append(planted_3sat(rng, sizes[r]))
    return cases


# ---------------------------------------------------------------------------
# incremental: symbolic-execution sessions over BV and LIA path conditions.
# ---------------------------------------------------------------------------


def _bv(value: int, width: int) -> str:
    return f"(_ bv{value % (1 << width)} {width})"


def _signed(value: int, width: int) -> int:
    return value - (1 << width) if value >> (width - 1) else value


BRANCH_KINDS = 6


def _branch(rng: random.Random, env: dict[str, int], width: int, kind: int) -> tuple[str, bool]:
    """A branch condition of the given kind over the program inputs and
    its truth value under the planted input ``env``."""
    mask = (1 << width) - 1
    bvs = [name for name in env if name.startswith("b")]
    ints = [name for name in env if name.startswith("n")]
    k = rng.randrange(1 << width)
    if kind == 0:
        a, b = rng.sample(bvs, 2)
        return f"(bvult (bvadd {a} {_bv(k, width)}) {b})", (env[a] + k) & mask < env[b]
    if kind == 1:
        a = rng.choice(bvs)
        m = rng.randrange(1 << width)
        return f"(= (bvand {a} {_bv(m, width)}) {_bv(k & m, width)})", env[a] & m == k & m
    if kind == 2:
        a, b = rng.sample(bvs, 2)
        value = _signed(env[a] ^ env[b], width) <= _signed(k, width)
        return f"(bvsle (bvxor {a} {b}) {_bv(k, width)})", value
    if kind == 3:
        a = rng.choice(bvs)
        c = rng.randrange(3, 16, 2)
        return f"(bvuge (bvmul {a} {_bv(c, width)}) {_bv(k, width)})", (env[a] * c) & mask >= k
    if kind == 4:
        a, b = rng.sample(ints, 2)
        c, k = rng.randint(1, 3), rng.randint(-20, 20)
        return f"(<= (+ {a} (* {c} {b})) {_int_lit(k)})", env[a] + c * env[b] <= k
    a = rng.choice(ints)
    k = rng.randint(-10, 10)
    return f"(< {a} {_int_lit(k)})", env[a] < k


def session(rng: random.Random, depth: int, width: int = 8) -> Case:
    """One symbolic-execution session: a depth-first walk down the path
    a planted input takes, checking the untaken side of every branch
    before descending into the taken side.

    Taken sides stay true under the planted input, so their checks are
    ``sat`` by construction; untaken sides may go either way.  Every
    session draws the branch kinds in equal numbers, in seeded order, so
    sessions cost about the same.
    """
    env = {f"b{i}": rng.randrange(1 << width) for i in range(4)}
    env.update({f"n{i}": rng.randint(-10, 10) for i in range(3)})
    lines = ["(set-logic ALL)"]
    lines += [f"(declare-const {name} (_ BitVec {width}))" for name in env if name[0] == "b"]
    lines += [f"(declare-const {name} Int)" for name in env if name[0] == "n"]
    # Input bounds, as an executor's harness would assume them.
    lines += [f"(assert (and (<= (- 10) {n}) (<= {n} 10)))" for n in env if n[0] == "n"]
    expected: list[Optional[str]] = []
    kinds = [i % BRANCH_KINDS for i in range(depth)]
    rng.shuffle(kinds)
    for kind in kinds:
        condition, value = _branch(rng, env, width, kind)
        taken, untaken = (condition, f"(not {condition})")
        if not value:
            taken, untaken = untaken, taken
        lines += ["(push 1)", f"(assert {untaken})", "(check-sat)", "(pop 1)"]
        expected.append(None)
        lines += ["(push 1)", f"(assert {taken})", "(check-sat)"]
        expected.append("sat")
    lines += ["(pop 1)"] * depth
    return Case("session", "\n".join(lines) + "\n", tuple(expected))


def incremental(rng: random.Random, sessions: int, depth: int) -> list[Case]:
    """``sessions`` independent sessions of ``2 * depth`` checks each."""
    return [session(rng, depth) for _ in range(sessions)]


# ---------------------------------------------------------------------------
# certify: unsat scripts solved with proofs on and replayed by the checker.
# ---------------------------------------------------------------------------

_PROOFS = "(set-option :produce-proofs true)"


def _certified(case: Case) -> Case:
    return Case(case.family, f"{_PROOFS}\n{case.text}", case.expected, proofs=True)


def bv_miter(rng: random.Random, width: int) -> Case:
    """A miter denying that multiplication distributes over addition,
    with the products commuted on the right for about half the seeds:
    unsat through blasted multiplier circuits."""
    a, b, c = (f"u{i}" for i in range(3))
    sort = f"(_ BitVec {width})"
    left = f"(bvmul {a} (bvadd {b} {c}))"
    right = f"(bvadd (bvmul {a} {b}) (bvmul {a} {c}))"
    if rng.random() < 0.5:
        right = f"(bvadd (bvmul {c} {a}) (bvmul {b} {a}))"
    lines = [_PROOFS, "(set-logic QF_BV)"]
    lines += [f"(declare-const {v} {sort})" for v in (a, b, c)]
    lines.append(f"(assert (not (= {left} {right})))")
    return Case("bvmiter", "\n".join(lines) + "\n(check-sat)\n", ("unsat",), proofs=True)


def bv_cycle(rng: random.Random, length: int, width: int) -> Case:
    """A strict unsigned ``bvult`` cycle over seeded names: unsat through
    blasted comparators."""
    names = [f"c{i}" for i in range(length)]
    rng.shuffle(names)
    lines = [_PROOFS, "(set-logic QF_BV)"]
    lines += [f"(declare-const {v} (_ BitVec {width}))" for v in sorted(names)]
    for i in range(length):
        lines.append(f"(assert (bvult {names[i]} {names[(i + 1) % length]}))")
    return Case("bvcycle", "\n".join(lines) + "\n(check-sat)\n", ("unsat",), proofs=True)


def euf_diamond(rng: random.Random, length: int) -> Case:
    """a0 = ... = an through a chain of two-way diamonds, yet
    f(a0) != f(an): every refutation needs congruence lemmas."""
    lines = [_PROOFS, "(set-logic QF_UF)", "(declare-sort U 0)", "(declare-fun f (U) U)"]
    lines += [f"(declare-const {p}{i} U)" for i in range(length) for p in "abc"]
    lines.append(f"(declare-const a{length} U)")
    for i in range(length):
        via = ["b", "c"]
        rng.shuffle(via)
        lines.append(
            f"(assert (or (and (= a{i} {via[0]}{i}) (= {via[0]}{i} a{i + 1})) "
            f"(and (= a{i} {via[1]}{i}) (= {via[1]}{i} a{i + 1}))))"
        )
    lines.append(f"(assert (not (= (f a0) (f a{length}))))")
    return Case("eufdiamond", "\n".join(lines) + "\n(check-sat)\n", ("unsat",), proofs=True)


def lia_diamond(rng: random.Random, length: int) -> Case:
    """Each step raises x by 1 or 2, yet x_n - x_0 < n: unsat through
    arithmetic conflicts across every branch."""
    lines = [_PROOFS, "(set-logic QF_LIA)"]
    lines += [f"(declare-const x{i} Int)" for i in range(length + 1)]
    for i in range(length):
        steps = [1, 2]
        rng.shuffle(steps)
        lines.append(
            f"(assert (or (>= x{i + 1} (+ x{i} {steps[0]})) (>= x{i + 1} (+ x{i} {steps[1]}))))"
        )
    lines.append(f"(assert (< (- x{length} x0) {length}))")
    return Case("liadiamond", "\n".join(lines) + "\n(check-sat)\n", ("unsat",), proofs=True)


def certify(rng: random.Random, rounds: int, scale: int) -> list[Case]:
    """``rounds`` groups of a boolean, two BV and two theory-lemma
    refutations, with sizes climbing ladders that ``scale`` widens.  EUF
    diamonds double in cost with every link past seven and a 4-bit
    miter costs seconds, so those ladders stop at 7 and 3."""
    php = ladder(2, scale + 2, rounds)
    miter = ladder(2, min(3, scale + 1), rounds)
    cycle = ladder(3, 4 * scale, rounds)
    euf = ladder(3, min(7, 3 * scale + 1), rounds)
    lia = ladder(2, 5 * scale, rounds)
    cases: list[Case] = []
    for r in range(rounds):
        cases.append(_certified(pigeonhole(rng, php[r])))
        cases.append(bv_miter(rng, miter[r]))
        cases.append(bv_cycle(rng, cycle[r], cycle[rounds - 1 - r]))
        cases.append(euf_diamond(rng, euf[r]))
        cases.append(lia_diamond(rng, lia[r]))
    return cases
