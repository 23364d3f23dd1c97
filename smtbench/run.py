#!/usr/bin/env python3
"""End-to-end SMT-LIB benchmark: generated text in, checked answers out.

One closed-loop client in one process sends each generated script of a
workload through ``repro.run_script`` (the path ``python -m repro``
takes), waits for the answers, checks them and sends the next.  The
solver only ever receives script text.

Usage (from the root of a checkout)::

    python3 smtbench/run.py --workload fuzz_mix --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` is the
traced run: the benchmark times its own calls into the lexer, the
parser, ``Engine.run`` and the proof checker, reads the engine's phase
spans and counter deltas, and reports per-layer self times, counts and
unit costs, plus the tracing overhead against untraced runs of the same
scripts.  The last line of standard output is one JSON object; the lines
before it are a human-readable report.  A wrong verdict, or a counter
that differs between two executions of the same script, exits with
status 1.  See ``smtbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Callable, Optional

import workloads
from workloads import Case

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Per-script wall-clock budget; an expired script answers ``unknown``.
SCRIPT_TIMEOUT_S = 10.0
#: Fresh interpreter starts per run for ``setup_s``.
SETUP_STARTS = 15
#: The host-speed probe runs between scripts at most this often...
PROBE_EVERY_S = 0.1
#: ...and an execution is scaled by the median of the probes taken
#: within this many seconds of it.
PROBE_REACH_S = 0.25
#: The probe's time on a 2.1 GHz Xeon vCPU in a quiet stretch; the
#: end-to-end times are scaled to a host on which the probe takes this.
PROBE_REF_S = 0.002
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import repro; "
    "repro.run_script('(declare-const p Bool) (assert p) (check-sat)')"
)

#: Workload name -> seeded script-set builder.  Every set holds at least
#: 100 scripts, so ``latency_p90_ms`` has ten beyond it, and one pass
#: takes at most about a third of a 35-second run, so every script
#: runs several times.
WORKLOADS: dict[str, Callable[[random.Random], list[Case]]] = {
    "fuzz_mix": lambda rng: workloads.fuzz_mix(rng, per_family=120, holes=16),
    "hard_search": lambda rng: workloads.hard_search(rng, 20, holes=5, chain=80, sat_vars=100),
    "incremental": lambda rng: workloads.incremental(rng, sessions=100, depth=10),
    "certify": lambda rng: workloads.certify(rng, rounds=30, scale=3),
    "fuzz_combo": lambda rng: workloads.fuzz_mix(
        rng, per_family=100, holes=16, families=tuple(workloads.HOLE_FAMILIES)
    ),
}
#: Tiny instances of the same workloads, for ``smoke.py``.
SMOKE_WORKLOADS: dict[str, Callable[[random.Random], list[Case]]] = {
    "fuzz_mix": lambda rng: workloads.fuzz_mix(rng, per_family=15, holes=4),
    "hard_search": lambda rng: workloads.hard_search(rng, 20, holes=3, chain=8, sat_vars=12),
    "incremental": lambda rng: workloads.incremental(rng, sessions=100, depth=2),
    "certify": lambda rng: workloads.certify(rng, rounds=20, scale=1),
    "fuzz_combo": lambda rng: workloads.fuzz_mix(
        rng, per_family=100, holes=4, families=tuple(workloads.HOLE_FAMILIES)
    ),
}

#: Counters that must repeat exactly for every execution of a script.
DETERMINISTIC = (
    "search.conflicts",
    "search.propagations",
    "encode.clauses",
    "blast.gates",
    "theory.arith.pivots",
    "proof.rup_checked",
)

UNKNOWN_REASONS = (
    "timeout",
    "conflict-limit",
    "abstracted-atoms",
    "model-validation-failed",
    "model-construction-failed",
    "branch-budget-exhausted",
    "array-lemma-budget",
    "error",
    "other",
)


class WrongVerdict(Exception):
    """An answer contradicts its known status, its model or its proof,
    or a program counter changed between executions of one script."""


def load_program():
    """Import the solver from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        raise ImportError(f"repro imported from {repro.__file__}, not from {SRC}")
    return repro


# ---------------------------------------------------------------------------
# Counters of one script execution.
# ---------------------------------------------------------------------------


def check_counters(result, proof_stats: list[dict]) -> dict[str, int]:
    """Per-script program counters, summed over its ``check-sat``s."""
    counters = dict.fromkeys(
        DETERMINISTIC
        + (
            "search.decisions",
            "encode.vars",
            "theory.checks",
            "theory.lemmas",
            "theory.conflicts",
            "theory.euf.merges",
            "proof.steps",
            "proof.checker_propagations",
        ),
        0,
    )
    for check in result.check_results:
        m = check.metrics
        counters["search.conflicts"] += m.get("sat.conflicts", 0)
        counters["search.propagations"] += m.get("sat.propagations", 0)
        counters["search.decisions"] += m.get("sat.decisions", 0)
        counters["encode.clauses"] += m.get("engine.clauses_shipped", 0)
        counters["blast.gates"] += m.get("theory.bv.gates", 0)
        counters["theory.checks"] += m.get("sat.theory_checks", 0)
        counters["theory.lemmas"] += m.get("sat.theory_lemmas", 0)
        counters["theory.conflicts"] += m.get("sat.theory_conflicts", 0)
        counters["theory.arith.pivots"] += m.get("theory.arith.pivots", 0)
        counters["theory.euf.merges"] += m.get("theory.euf.merges", 0)
        if check.proof is not None:
            counters["proof.steps"] += len(check.proof.steps)
    # engine.vars is a gauge: the variable count after the last check.
    if result.check_results:
        counters["encode.vars"] = result.check_results[-1].metrics.get("engine.vars", 0)
    for stats in proof_stats:
        counters["proof.rup_checked"] += stats.get("rup_checked", 0)
        counters["proof.checker_propagations"] += stats.get("propagations", 0)
    return counters


# ---------------------------------------------------------------------------
# The verdict oracle.
# ---------------------------------------------------------------------------


class _Defined:
    """A ``define-fun`` as a callable the evaluator applies to argument
    constants, so the oracle evaluates the parsed assertions as written,
    without the engine's inlining."""

    def __init__(self, repro, command, bindings: dict, funs: dict) -> None:
        self._evaluate = repro.smtlib.evaluate
        self._command = command
        self._bindings = bindings
        self._funs = funs

    def __call__(self, args):
        env = dict(self._bindings)
        env.update(zip((name for name, _ in self._command.params), args))
        return self._evaluate(self._command.body, env, self._funs)


def check_verdicts(repro, case: Case, result) -> None:
    """Raise :class:`WrongVerdict` unless every definite answer of
    ``result`` agrees with the known status and, for ``sat``, with the
    benchmark's own evaluation of the parsed assertions under the model.
    ``unsat`` answers without a known status are replayed with proofs
    on and every proof goes through ``check_proof``."""
    smt = repro.smtlib
    answers = [check.answer for check in result.check_results]
    if len(answers) != len(case.expected):
        raise WrongVerdict(f"{case.family}: {len(answers)} answers for {len(case.expected)} checks")
    for index, (answer, expected) in enumerate(zip(answers, case.expected)):
        if expected is not None and answer in ("sat", "unsat") and answer != expected:
            raise WrongVerdict(f"{case.family} check {index}: {answer}, expected {expected}")

    frames: list[list] = [[]]
    defines: list = []
    index = 0
    for command in repro.smtlib.parse_script(case.text).commands:
        if isinstance(command, smt.Assert):
            frames[-1].append(command.term)
        elif isinstance(command, smt.DefineFun):
            defines.append(command)
        elif isinstance(command, smt.Push):
            frames += [[] for _ in range(command.levels)]
        elif isinstance(command, smt.Pop):
            del frames[len(frames) - command.levels :]
        elif isinstance(command, smt.CheckSat):
            check = result.check_results[index]
            if check.answer == "sat":
                _check_model(repro, case, index, check, defines, [t for f in frames for t in f])
            index += 1

    if any(a == "unsat" and e is None for a, e in zip(answers, case.expected)):
        certified = repro.run_script(case.text, produce_proofs=True, timeout=SCRIPT_TIMEOUT_S)
        for index, check in enumerate(certified.check_results):
            if check.answer != answers[index] and "unknown" not in (check.answer, answers[index]):
                raise WrongVerdict(f"{case.family} check {index}: answers differ with proofs on")
            if check.answer == "unsat":
                _check_proof(repro, case, index, check)


def _check_model(repro, case: Case, index: int, check, defines: list, assertions: list) -> None:
    evaluate = repro.smtlib.evaluate
    bindings = dict(check.model or {})
    funs = dict(check.fun_interps or {})
    for command in defines:
        if command.params:
            funs[command.name] = _Defined(repro, command, bindings, funs)
        else:
            bindings[command.name] = evaluate(command.body, bindings, funs)
    for term in assertions:
        try:
            value = evaluate(term, bindings, funs)
        except repro.errors.EvaluationError as exc:
            raise WrongVerdict(f"{case.family} check {index}: model does not evaluate: {exc}")
        if value is not repro.smtlib.TRUE:
            raise WrongVerdict(f"{case.family} check {index}: sat model falsifies an assertion")


def check_proofs(repro, case: Case, result) -> list[dict]:
    """Replay the proof of every ``unsat`` answer of a script that turns
    proofs on.  Returns the checker's stats per proof; an ``unsat``
    without a proof is a wrong verdict."""
    if not case.proofs:
        return []
    return [
        _check_proof(repro, case, index, check)
        for index, check in enumerate(result.check_results)
        if check.answer == "unsat"
    ]


def _check_proof(repro, case: Case, index: int, check) -> dict:
    if check.proof is None:
        raise WrongVerdict(f"{case.family} check {index}: unsat without a proof")
    verdict = repro.proof.check_proof(check.proof)
    if not verdict.ok:
        raise WrongVerdict(f"{case.family} check {index}: proof rejected: {verdict.error}")
    return verdict.stats


# ---------------------------------------------------------------------------
# The two measured paths.
# ---------------------------------------------------------------------------


def run_plain(repro, case: Case):
    """Untraced: text through ``run_script``; proofs produced by the
    script's own ``set-option`` are checked inside the timed region.
    Returns ``(wall_s, result, proof_stats)``."""
    start = time.perf_counter()
    result = repro.run_script(case.text, timeout=SCRIPT_TIMEOUT_S)
    proof_stats = check_proofs(repro, case, result)
    return time.perf_counter() - start, result, proof_stats


def run_traced(repro, case: Case):
    """Traced: the same work split at the layer boundaries.  Returns
    ``(wall_s, result, proof_stats, layers)``; ``wall_s`` leaves out the
    standalone lexer probe, whose work ``parse_script`` repeats."""
    from repro.obs import Observability

    t0 = time.perf_counter()
    tokens = repro.smtlib.tokenize(case.text)
    t1 = time.perf_counter()
    script = repro.smtlib.parse_script(case.text)
    t2 = time.perf_counter()
    engine = repro.Engine(obs=Observability.tracing(), timeout=SCRIPT_TIMEOUT_S)
    result = engine.run(script)
    t3 = time.perf_counter()
    proof_stats = check_proofs(repro, case, result)
    t4 = time.perf_counter()

    layers = dict.fromkeys(LAYERS, 0.0)
    layers["lexer"] = t1 - t0
    layers["parser"] = (t2 - t1) - (t1 - t0)
    phase_s = 0.0
    for check in result.check_results:
        p = {key: ns / 1e9 for key, ns in check.phases.items()}
        layers["prepare"] += p.get("prepare", 0.0) - p.get("prepare/simplify", 0.0)
        layers["simplify"] += p.get("prepare/simplify", 0.0)
        layers["encode"] += p.get("encode", 0.0) - p.get("encode/blast", 0.0)
        layers["blast"] += p.get("encode/blast", 0.0)
        layers["search"] += p.get("search", 0.0) - p.get("search/theory-check", 0.0)
        layers["theory"] += p.get("search/theory-check", 0.0)
        layers["proof_log"] += p.get("proof", 0.0)
        layers["model"] += p.get("model", 0.0)
        layers["validate"] += p.get("validate", 0.0)
        layers["bnb"] += p.get("search/theory-check/branch-and-bound", 0.0)
        phase_s += sum(p.get(key, 0.0) for key in TOP_PHASES)
    layers["engine_residual"] = (t3 - t2) - phase_s
    layers["proof_check"] = t4 - t3
    wall = t4 - t1
    layers["unattributed"] = wall - sum(layers[name] for name in SELF_TIMES)
    layers["tokens"] = len(tokens)
    layers["chars"] = len(case.text)
    return wall, result, proof_stats, layers


TOP_PHASES = ("prepare", "encode", "search", "proof", "model", "validate")
#: Self-time rows of the traced report; with ``unattributed`` they add up
#: to the script wall time.
SELF_TIMES = (
    "lexer",
    "parser",
    "prepare",
    "simplify",
    "blast",
    "encode",
    "search",
    "theory",
    "model",
    "validate",
    "proof_log",
    "engine_residual",
    "proof_check",
)
LAYERS = SELF_TIMES + ("unattributed", "bnb", "tokens", "chars")


# ---------------------------------------------------------------------------
# Host speed.
# ---------------------------------------------------------------------------


class _Node:
    """A small object for :func:`host_probe` to build."""

    __slots__ = ("key", "name")

    def __init__(self, key: int, name: str) -> None:
        self.key = key
        self.name = name


def host_probe() -> float:
    """Wall time of a fixed piece of pure-Python work that shares no code
    with the solver: half integer arithmetic, half object, string and
    dict work.

    The shared machines the benchmark runs on switch between a quiet and
    a slow state for seconds to minutes at a time; in the slow state the
    solver's scripts take up to 1.8 times as long.  Integer loops alone
    slowed down less than the solver and object-heavy loops more; this
    mix of the two tracked the slowdown of the solver's scripts on
    fuzz_mix, hard_search and certify to within a few percent."""
    start = time.perf_counter()
    acc = 0
    for i in range(15_000):
        acc = (acc * 31 + i) & 0xFFFF
    table = {}
    for i in range(2_000):
        node = _Node(i, str(i))
        table[node.name] = node
    return time.perf_counter() - start


class HostSpeed:
    """Probe times taken through a run, and the factor by which the host
    was slower than the reference around any interval of it."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.seconds: list[float] = []

    def probe(self) -> float:
        """Runs the probe; returns the wall time it took, probe included."""
        start = time.perf_counter()
        seconds = host_probe()
        self.times.append(start)
        self.seconds.append(seconds)
        return time.perf_counter() - start

    def factor(self, start: float, end: float) -> float:
        """Host slowness over ``[start, end]``: the median of the probes
        taken within ``PROBE_REACH_S`` of it over the reference time."""
        lo = bisect.bisect_left(self.times, start - PROBE_REACH_S)
        hi = bisect.bisect_right(self.times, end + PROBE_REACH_S)
        if lo == hi:  # none in reach: the next one, or the last
            hi = min(lo + 1, len(self.times))
            lo = hi - 1
        return statistics.median(self.seconds[lo:hi]) / PROBE_REF_S


# ---------------------------------------------------------------------------
# The closed loop.
# ---------------------------------------------------------------------------


class Loop:
    """Runs the script set round-robin, checks every script's first
    answers, and compares each later execution's counters against the
    first.  Answers are tallied on a script's first execution only, so
    ``attempted``, ``failed`` and ``unknown`` are per pass over the set,
    like the program counters."""

    def __init__(self, repro, cases: list[Case]) -> None:
        self.repro = repro
        self.cases = cases
        self.first_counters: list[Optional[dict]] = [None] * len(cases)
        self.counted = [False] * len(cases)
        self.attempted = 0
        self.failed = 0
        #: Time spent in the oracle, which the run's clock leaves out.
        self.oracle_s = 0.0
        self.unknown = dict.fromkeys(UNKNOWN_REASONS, 0)

    def execute(self, index: int, path):
        """One timed execution; returns ``(wall_s, layers)`` where
        ``layers`` is the traced path's record, ``None`` for the plain
        path or a script that raised."""
        case = self.cases[index]
        start = time.perf_counter()
        try:
            wall, result, proof_stats, *extra = path(self.repro, case)
        except WrongVerdict:
            raise
        except Exception:  # a crashing script is a failed query, not a crashed run
            print(f"# {case.family} script {index}:", file=sys.stderr)
            traceback.print_exc()
            self._count(index, ["error"] * len(case.expected), ["error"] * len(case.expected))
            return time.perf_counter() - start, None
        answers = [check.answer for check in result.check_results]
        self._count(index, answers, [check.reason for check in result.check_results])
        counters = check_counters(result, proof_stats)
        first = self.first_counters[index]
        if first is None:
            start = time.perf_counter()
            check_verdicts(self.repro, case, result)
            self.oracle_s += time.perf_counter() - start
            self.first_counters[index] = counters
        else:
            for key in DETERMINISTIC:
                if counters[key] != first[key]:
                    raise WrongVerdict(
                        f"{case.family} script {index}: {key} was {first[key]}, "
                        f"now {counters[key]} on the same input"
                    )
        return wall, (extra[0] if extra else None)

    def _count(self, index: int, answers: list[str], reasons: list) -> None:
        if self.counted[index]:
            return
        self.counted[index] = True
        case = self.cases[index]
        self.attempted += len(case.expected)
        for answer, reason in zip(answers, reasons):
            if answer not in ("sat", "unsat"):
                self.failed += 1
                key = reason if reason in self.unknown else "other"
                self.unknown[key] += 1
        # Checks a failed script never reached are failed too.
        missing = len(case.expected) - len(answers)
        self.failed += max(0, missing)

    def totals(self) -> dict[str, int]:
        """Program counters of one pass over the set."""
        total: dict[str, int] = {}
        for counters in self.first_counters:
            for key, value in (counters or {}).items():
                total[key] = total.get(key, 0) + value
        return total


def measure(repro, cases: list[Case], seconds: float, traced: bool, setup_starts: int) -> dict:
    """The closed loop for ``seconds`` of script time, with
    ``setup_starts`` fresh-interpreter starts spread over it."""
    loop = Loop(repro, cases)
    # Warm-up outside the clock: one script of every family, untraced,
    # so lazy imports and first-call costs are not charged to a script.
    seen: set[str] = set()
    for case in cases:
        if case.family not in seen:
            seen.add(case.family)
            run_plain(repro, case)
    # Garbage from one script is collected before the next starts, so
    # no script's clock pays for another's; freezing the long-lived
    # objects keeps those collections short.
    gc.collect()
    gc.freeze()

    # (start, wall) of every untraced execution of every script.
    plain: list[list[tuple[float, float]]] = [[] for _ in cases]
    traced_s: list[list[float]] = [[] for _ in cases]
    layer_sums: list[dict] = [dict.fromkeys(LAYERS, 0.0) for _ in cases]
    # Set-up starts are spread over the run, between scripts and off the
    # clock, each with a probe just before and after it.
    setups: list[tuple[float, float]] = []
    host = HostSpeed()
    off_clock = host.probe()
    start = last_probe = time.perf_counter()
    index = 0
    passes = 0
    while True:
        # In the traced run each script also runs untraced, alternating
        # which goes first, so the overhead compares like with like.
        paths = (run_plain,) if not traced else (
            (run_plain, run_traced) if passes % 2 == 0 else (run_traced, run_plain)
        )
        for path in paths:
            began = time.perf_counter()
            wall, layers = loop.execute(index, path)
            if path is run_plain:
                plain[index].append((began, wall))
            else:
                traced_s[index].append(wall)
                for key, value in (layers or {}).items():
                    layer_sums[index][key] += value
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            off_clock += host.probe()
            last_probe = time.perf_counter()
        gc.collect()
        index += 1
        if index == len(cases):
            index = 0
            passes += 1
        clock = time.perf_counter() - start - loop.oracle_s - off_clock
        if len(setups) < setup_starts and clock >= len(setups) * seconds / setup_starts:
            off_clock += _timed_setup(host, setups)
        # Always finish the first pass, so every script is measured.
        if passes >= 1 and clock >= seconds:
            break
        if passes == 1 and index == 0:
            # The oracle ran in the first pass; memory is measured over
            # the passes that only run the solver.
            reset_peak_rss()
    while len(setups) < setup_starts:
        _timed_setup(host, setups)

    def scaled(began: float, wall: float) -> float:
        return wall / host.factor(began, began + wall)

    # Only complete passes count, so every script weighs the same.
    complete = min(len(runs) for runs in plain)
    samples = [[scaled(*e) for e in runs[:complete]] for runs in plain]
    out = {
        "loop": loop,
        "host": host,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(scaled(*s) for s in setups) if setups else 0.0,
        "passes": passes + index / len(cases),
        # Every execution of the complete passes, each scaled by the
        # host's speed around it: the latency samples.
        "samples": [s for per_script in samples for s in per_script],
        # Each script's mean scaled latency; they add up to a pass.
        "latencies": [statistics.fmean(per_script) for per_script in samples],
        # Unscaled, the fastest execution: what tracing overhead compares.
        "fastest": [min(wall for _, wall in runs) for runs in plain],
    }
    if traced:
        # Per script, each layer's mean over its traced executions.
        out["script_layers"] = [
            {key: value / len(runs) for key, value in sums.items()}
            for sums, runs in zip(layer_sums, traced_s)
        ]
        out["layers"] = {
            key: sum(script[key] for script in out["script_layers"]) for key in LAYERS
        }
        out["traced_latencies"] = [min(runs) for runs in traced_s]
    return out


# ---------------------------------------------------------------------------
# Metrics and report.
# ---------------------------------------------------------------------------


def setup_start() -> float:
    """Wall time of a fresh interpreter importing the solver and
    answering a trivial script."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, SRC], check=True)
    return time.perf_counter() - start


def _timed_setup(host: HostSpeed, setups: list[tuple[float, float]]) -> float:
    """One set-up start between two probes, recorded as ``(start, wall)``
    in ``setups``; returns the time all three took."""
    began = time.perf_counter()
    host.probe()
    at = time.perf_counter()
    setups.append((at, setup_start()))
    host.probe()
    return time.perf_counter() - began


def reset_peak_rss() -> None:
    """Lower the process's peak resident memory to its current one
    (Linux ``clear_refs``); elsewhere the peak stays the lifetime one."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident memory since the last :func:`reset_peak_rss`."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(values: list[float], fraction: float) -> float:
    """The ``fraction`` quantile, only where at least ten samples lie
    beyond it."""
    if len(values) - math.ceil(fraction * len(values)) < 10:
        raise RuntimeError(
            f"{len(values)} latency samples cannot support a p{round(fraction * 100)}"
        )
    return statistics.quantiles(values, n=100)[round(fraction * 100) - 1]


def end_to_end(run: dict) -> dict[str, tuple[float, str]]:
    latencies, samples = run["latencies"], run["samples"]
    return {
        "scripts_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (percentile(samples, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (percentile(samples, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "setup_s": (run["setup_s"], "s"),
    }


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _unit_us(seconds: float, count: float) -> float:
    return seconds * 1e6 / count if count else 0.0


def per_layer(run: dict) -> dict[str, tuple[float, str]]:
    layers = run["layers"]
    counts = run["loop"].totals()
    out: dict[str, tuple[float, str]] = {
        "lexer.s": (layers["lexer"], "s"),
        "lexer.tokens_per_s": (_rate(layers["tokens"], layers["lexer"]), "1/s"),
        "parser.s": (layers["parser"], "s"),
        "parser.chars_per_s": (_rate(layers["chars"], layers["parser"]), "1/s"),
        "prepare.s": (layers["prepare"], "s"),
        "simplify.s": (layers["simplify"], "s"),
        "blast.s": (layers["blast"], "s"),
        "blast.gates": (counts["blast.gates"], "count"),
        "encode.s": (layers["encode"], "s"),
        "encode.clauses": (counts["encode.clauses"], "count"),
        "encode.vars": (counts["encode.vars"], "count"),
        "search.self_s": (layers["search"], "s"),
        "search.conflicts": (counts["search.conflicts"], "count"),
        "search.propagations": (counts["search.propagations"], "count"),
        "search.decisions": (counts["search.decisions"], "count"),
        "search.us_per_conflict": (_unit_us(layers["search"], counts["search.conflicts"]), "us"),
        "search.us_per_propagation": (
            _unit_us(layers["search"], counts["search.propagations"]),
            "us",
        ),
        "theory.s": (layers["theory"], "s"),
        "theory.checks": (counts["theory.checks"], "count"),
        "theory.us_per_check": (_unit_us(layers["theory"], counts["theory.checks"]), "us"),
        "theory.lemmas": (counts["theory.lemmas"], "count"),
        "theory.conflicts": (counts["theory.conflicts"], "count"),
        "theory.arith.pivots": (counts["theory.arith.pivots"], "count"),
        "theory.arith.bnb_s": (layers["bnb"], "s"),
        "theory.euf.merges": (counts["theory.euf.merges"], "count"),
        "model.s": (layers["model"], "s"),
        "validate.s": (layers["validate"], "s"),
        "proof.log_s": (layers["proof_log"], "s"),
        "engine.residual_s": (layers["engine_residual"], "s"),
        "proof.steps": (counts["proof.steps"], "count"),
        "proof.check_s": (layers["proof_check"], "s"),
        "proof.rup_checked": (counts["proof.rup_checked"], "count"),
        "proof.checker_propagations": (counts["proof.checker_propagations"], "count"),
        "proof.us_per_rup": (_unit_us(layers["proof_check"], counts["proof.rup_checked"]), "us"),
        "unattributed.s": (layers["unattributed"], "s"),
        "script.s": (_traced_pass(layers), "s"),
        "trace.overhead_frac": (sum(run["traced_latencies"]) / sum(run["fastest"]) - 1, "frac"),
    }
    for reason, count in run["loop"].unknown.items():
        out[f"unknown.{reason}"] = (count, "count")
    return out


def _traced_pass(layers: dict) -> float:
    """Mean traced pass time: the self times plus the remainder."""
    return sum(layers[name] for name in SELF_TIMES + ("unattributed",))


def family_shares(run: dict, cases: list[Case]) -> dict[str, float]:
    """Each family's share of the untraced pass time."""
    shares: dict[str, float] = {}
    for case, latency in zip(cases, run["latencies"]):
        shares[case.family] = shares.get(case.family, 0.0) + latency
    total = sum(run["latencies"])
    return {family: seconds / total for family, seconds in shares.items()}


def layer_table(run: dict, cases: list[Case]) -> list[str]:
    """Each layer's self time per pass, then its share of the traced
    script wall time in several groups of scripts: all of them, those
    whose untraced latency ranks between the 40th and 60th percentiles
    (the median band) or at the 90th and beyond (the tail), and each
    family.  The ``share of pass`` row gives each group's own share of
    the traced pass time; every column adds up to 100%."""
    order = sorted(range(len(cases)), key=lambda i: run["latencies"][i])
    n = len(order)
    groups = {"all": order, "p40-60": order[2 * n // 5 : 3 * n // 5], "p90+": order[9 * n // 10 :]}
    for family in dict.fromkeys(case.family for case in cases):
        groups[family] = [i for i, case in enumerate(cases) if case.family == family]
    rows = SELF_TIMES + ("unattributed",)
    scripts = run["script_layers"]
    sums = {g: {r: sum(scripts[i][r] for i in members) for r in rows} for g, members in groups.items()}
    walls = {g: sum(by_row.values()) for g, by_row in sums.items()}
    lines = [f"{'layer':<16} {'s/pass':>8} " + " ".join(f"{g:>10}" for g in groups)]
    lines.append(f"{'share of pass':<16} {walls['all']:>8.4f} "
                 + " ".join(f"{walls[g] / walls['all']:>10.1%}" for g in groups))
    for r in rows:
        lines.append(f"{r:<16} {sums['all'][r]:>8.4f} "
                     + " ".join(f"{sums[g][r] / walls[g]:>10.1%}" for g in groups))
    return lines


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end SMT-LIB benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for smoke.py")
    args = parser.parse_args(argv)

    try:
        repro = load_program()
    except ImportError as exc:
        print(f"error: cannot load the solver: {exc}", file=sys.stderr)
        return 2

    builders = SMOKE_WORKLOADS if args.smoke else WORKLOADS
    cases = builders[args.workload](random.Random(args.seed))
    try:
        run = measure(
            repro, cases, args.seconds, traced=bool(args.trace),
            setup_starts=0 if args.trace else SETUP_STARTS,
        )
    except WrongVerdict as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    loop = run["loop"]
    metrics = per_layer(run) if args.trace else end_to_end(run)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"scripts={len(cases)} passes={run['passes']:.2f} "
          f"pass_s={sum(run['latencies']):.3f} oracle_s={loop.oracle_s:.3f}")
    probes = run["host"].seconds
    print(f"# host probe: {len(probes)} taken, median {statistics.median(probes) * 1e3:.3f} ms, "
          f"fastest {min(probes) * 1e3:.3f} ms, reference {PROBE_REF_S * 1e3:.3f} ms; "
          f"unscaled fastest-execution pass_s={sum(run['fastest']):.3f}")
    print(f"# cpus={os.cpu_count()} python={sys.version.split()[0]}")
    print(f"# check-sat attempted={loop.attempted} failed={loop.failed} "
          f"failed_frac={loop.failed / loop.attempted:.4f} "
          f"latency_samples={len(run['samples'])}")
    print(f"# counters per pass: {json.dumps({k: loop.totals()[k] for k in DETERMINISTIC})}")
    print("# family share of untraced pass time: " + ", ".join(
        f"{family} {share:.1%}" for family, share in family_shares(run, cases).items()))
    if args.trace:
        for line in layer_table(run, cases):
            print(f"# {line}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
