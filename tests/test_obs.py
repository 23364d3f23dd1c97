"""The observability layer: metrics registry, span tracing, event log,
profile rendering, engine/CLI integration and the overhead guard."""

from __future__ import annotations

import io
import json
import time
from pathlib import Path

import pytest

from repro.engine import Engine, run_script, solve_script
from repro.obs import (
    EVENT_SCHEMA,
    EventLog,
    MetricsRegistry,
    NULL_SPAN,
    Observability,
    Tracer,
    format_phase_table,
    get_current_tracer,
    open_memory_log,
    phase_seconds,
    phase_totals,
    set_current_tracer,
    trace_span,
    validate_event,
    validate_trace,
)
from repro.smtlib import parse_script


# ---------------------------------------------------------------------------
# Metrics registry.
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_source_namespacing_and_unregister(self):
        registry = MetricsRegistry()
        stats = {"hits": 3, "level": 9}
        registry.register_source("ns", lambda: stats, gauges=("level",))
        snap = registry.snapshot()
        assert snap == {"ns.hits": 3, "ns.level": 9}
        assert registry.gauge_keys() == frozenset({"ns.level"})
        registry.unregister_prefix("ns")
        assert registry.snapshot() == {}

    def test_unregister_prefix(self):
        registry = MetricsRegistry()
        registry.register_source("theory.euf", lambda: {"merges": 1})
        registry.register_source("theory.arith", lambda: {"pivots": 2})
        registry.register_source("sat", lambda: {"conflicts": 3})
        registry.unregister_prefix("theory.")
        assert registry.snapshot() == {"sat.conflicts": 3}

    def test_delta_counts_new_sources_from_zero(self):
        registry = MetricsRegistry()
        stats = {"conflicts": 2}
        registry.register_source("sat", lambda: stats)
        before = registry.snapshot()
        stats["conflicts"] = 7
        registry.register_source("theory.euf", lambda: {"merges": 11})
        delta = registry.delta(before)
        assert delta["sat.conflicts"] == 5
        assert delta["theory.euf.merges"] == 11  # absent in before: from zero

    def test_delta_gauges_keep_after_value(self):
        registry = MetricsRegistry()
        level = {"live": 100, "hits": 10}
        registry.register_source("intern", lambda: level, gauges=("live",))
        before = registry.snapshot()
        level["live"] = 40
        level["hits"] = 25
        delta = registry.delta(before)
        assert delta["intern.live"] == 40  # the level, not 40 - 100
        assert delta["intern.hits"] == 15

    def test_reregistering_source_replaces_supplier(self):
        registry = MetricsRegistry()
        registry.register_source("sat", lambda: {"conflicts": 1})
        registry.register_source("sat", lambda: {"conflicts": 99})
        assert registry.snapshot() == {"sat.conflicts": 99}


# ---------------------------------------------------------------------------
# Span tracing.
# ---------------------------------------------------------------------------


class TestSpans:
    def test_nesting_structure(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner2"):
                pass
        assert [span.name for span in tracer.roots] == ["outer"]
        assert [span.name for span in tracer.roots[0].children] == ["inner", "inner2"]
        assert tracer.depth == 0

    def test_reentrant_same_name_nests(self):
        tracer = Tracer()
        with tracer.span("solve"):
            with tracer.span("solve"):
                pass
        root = tracer.roots[0]
        assert root.name == "solve"
        assert [span.name for span in root.children] == ["solve"]

    def test_reentering_open_handle_raises(self):
        tracer = Tracer()
        handle = tracer.span("x")
        with handle:
            with pytest.raises(RuntimeError):
                handle.__enter__()

    def test_merge_folds_closed_siblings(self):
        tracer = Tracer()
        with tracer.span("parent"):
            for _ in range(5):
                with tracer.span("hot", merge=True):
                    pass
        children = tracer.roots[0].children
        assert len(children) == 1
        assert children[0].name == "hot"
        assert children[0].count == 5

    def test_merge_folds_children_recursively(self):
        tracer = Tracer()
        with tracer.span("parent"):
            for _ in range(4):
                with tracer.span("hot", merge=True):
                    with tracer.span("sub"):
                        pass
        hot = tracer.roots[0].children[0]
        assert hot.count == 4
        # One merged subtree, not one "sub" child per activation.
        assert [span.name for span in hot.children] == ["sub"]
        assert hot.children[0].count == 4

    def test_span_total_is_monotonic_and_covers_children(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.001)
        outer = tracer.roots[0]
        inner = outer.children[0]
        assert inner.total_ns >= 1_000_000
        assert outer.total_ns >= inner.total_ns

    def test_spans_close_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        assert tracer.depth == 0
        assert tracer.roots[0].children[0].name == "inner"

    def test_trace_span_without_tracer_is_null(self):
        assert get_current_tracer() is None
        assert trace_span("anything") is NULL_SPAN
        with trace_span("anything"):
            pass  # no-op context manager

    def test_set_current_tracer_save_restore(self):
        tracer = Tracer()
        previous = set_current_tracer(tracer)
        try:
            assert previous is None
            assert get_current_tracer() is tracer
            with trace_span("via-module"):
                pass
            assert tracer.roots[0].name == "via-module"
        finally:
            set_current_tracer(previous)
        assert get_current_tracer() is None

    def test_to_dict_shape(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        shape = tracer.roots[0].to_dict()
        assert shape["name"] == "a"
        assert shape["children"][0]["name"] == "b"
        assert "ns" in shape and "count" in shape


# ---------------------------------------------------------------------------
# Profile rendering.
# ---------------------------------------------------------------------------


class TestProfile:
    def _tracer(self):
        tracer = Tracer()
        with tracer.span("check-sat"):
            with tracer.span("search"):
                with tracer.span("theory-check", merge=True):
                    pass
        with tracer.span("check-sat"):
            pass
        return tracer

    def test_phase_totals_keys_on_paths(self):
        totals = phase_totals(self._tracer())
        assert set(totals) == {
            "check-sat",
            "check-sat/search",
            "check-sat/search/theory-check",
        }
        assert totals["check-sat"]["count"] == 2  # same-path roots accumulate

    def test_phase_seconds_shape(self):
        seconds = phase_seconds(self._tracer())
        assert all(isinstance(v, float) for v in seconds.values())

    def test_format_phase_table_prefix_and_indent(self):
        table = format_phase_table(self._tracer(), prefix="; ")
        lines = table.splitlines()
        assert all(line.startswith("; ") for line in lines)
        assert any("  search" in line for line in lines)  # depth-1 indent


# ---------------------------------------------------------------------------
# Event log.
# ---------------------------------------------------------------------------


class TestEventLog:
    def test_envelope_and_schema_valid(self):
        log, buffer = open_memory_log()
        log.emit("decision", var=3, level=1)
        log.emit("conflict", level=1, size=4)
        log.close()
        records = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert [r["kind"] for r in records] == ["decision", "conflict", "summary"]
        assert [r["seq"] for r in records] == [0, 1, 2]
        for record in records:
            assert validate_event(record) == []

    def test_cap_and_sampling_stride(self):
        log, buffer = open_memory_log(cap_per_kind=5, sample_stride=3)
        for conflicts in range(20):
            log.emit("restart", conflicts=conflicts)
        log.close()
        records = [json.loads(line) for line in buffer.getvalue().splitlines()]
        restarts = [r for r in records if r["kind"] == "restart"]
        # 5 full-rate + every 3rd of the remaining 15.
        assert len(restarts) == 10
        summary = records[-1]
        assert summary["kind"] == "summary"
        assert summary["counts"]["restart"] == 20
        assert summary["dropped"]["restart"] == 10
        assert validate_trace(io.StringIO(buffer.getvalue())) == []

    def test_close_idempotent_and_emit_after_close(self):
        log, buffer = open_memory_log()
        log.emit("restart", conflicts=1)
        log.close()
        log.close()
        log.emit("restart", conflicts=2)  # silently ignored
        records = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert [r["kind"] for r in records] == ["restart", "summary"]

    def test_path_sink_owned(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with EventLog(path) as log:
            log.emit("script", path="x.smt2")
        assert validate_trace(path) == []

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            open_memory_log(cap_per_kind=0)
        with pytest.raises(ValueError):
            open_memory_log(sample_stride=0)

    def test_validate_event_catches_problems(self):
        assert validate_event([]) != []
        assert any(
            "unknown event kind" in e
            for e in validate_event({"seq": 0, "t_ns": 0, "kind": "nope"})
        )
        assert any(
            "missing field" in e
            for e in validate_event({"seq": 0, "t_ns": 0, "kind": "learn"})
        )
        assert any(
            "missing envelope" in e for e in validate_event({"kind": "restart"})
        )

    def test_validate_trace_catches_problems(self):
        assert validate_trace(io.StringIO("")) == ["trace is empty"]
        no_summary = '{"seq": 0, "t_ns": 0, "kind": "restart", "conflicts": 1}\n'
        assert any(
            "summary" in error for error in validate_trace(io.StringIO(no_summary))
        )
        bad_seq = (
            '{"seq": 0, "t_ns": 0, "kind": "restart", "conflicts": 1}\n'
            '{"seq": 5, "t_ns": 0, "kind": "summary", "counts": {}, "dropped": {}}\n'
        )
        assert any("seq" in error for error in validate_trace(io.StringIO(bad_seq)))
        assert any(
            "invalid JSON" in error for error in validate_trace(io.StringIO("{nope\n"))
        )

    def test_every_schema_kind_roundtrips(self):
        payloads = {
            "script": {"path": "a.smt2"},
            "push": {"levels": 1, "depth": 2},
            "pop": {"levels": 1, "depth": 1},
            "check-begin": {"index": 0},
            "check-end": {"index": 0, "answer": "sat"},
            "unknown": {"index": 0, "reason": "conflict-limit"},
            "decision": {"var": 1, "level": 1},
            "conflict": {"level": 1, "size": 2},
            "learn": {"size": 2, "lbd": 1, "backjump": 0},
            "restart": {"conflicts": 10},
            "theory-lemma": {"size": 3},
            "theory-conflict": {"plugin": "euf", "size": 3},
        }
        assert set(payloads) | {"summary"} == set(EVENT_SCHEMA)
        log, buffer = open_memory_log()
        for kind, fields in payloads.items():
            log.emit(kind, **fields)
        log.close()
        assert validate_trace(io.StringIO(buffer.getvalue())) == []


# ---------------------------------------------------------------------------
# Engine integration.
# ---------------------------------------------------------------------------

DIAMOND = """
(set-info :status unsat)
(declare-const x0 Real)
(declare-const x1 Real)
(declare-const x2 Real)
(declare-const x3 Real)
(assert (>= x0 0.0)) (assert (<= x0 0.0))
(assert (or (and (<= x1 (+ x0 1.0)) (>= x1 (+ x0 1.0)))
            (and (<= x1 (+ x0 2.0)) (>= x1 (+ x0 2.0)))))
(assert (or (and (<= x2 (+ x1 1.0)) (>= x2 (+ x1 1.0)))
            (and (<= x2 (+ x1 2.0)) (>= x2 (+ x1 2.0)))))
(assert (or (and (<= x3 (+ x2 1.0)) (>= x3 (+ x2 1.0)))
            (and (<= x3 (+ x2 2.0)) (>= x3 (+ x2 2.0)))))
(assert (>= x3 100.0))
(check-sat)
"""

INCREMENTAL = """
(declare-const p Bool)
(declare-const q Bool)
(assert (or p q))
(check-sat)
(push 1)
(assert (not p))
(assert (not q))
(check-sat)
(pop 1)
(check-sat)
"""


class TestEngineIntegration:
    def test_trace_path_produces_valid_jsonl_and_phases(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        result = run_script(DIAMOND, trace=str(path))
        assert result.answers == ["unsat"]
        assert validate_trace(path) == []
        kinds = {json.loads(line)["kind"] for line in path.read_text().splitlines()}
        assert {"check-begin", "check-end", "summary"} <= kinds
        assert "parse" in result.phases
        assert any(key.startswith("check-sat") for key in result.phases)
        check = result.check_results[0]
        assert "total" in check.phases and "search" in check.phases
        assert check.phases["total"] >= check.phases["search"]

    def test_trace_records_search_and_theory_events(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        run_script(DIAMOND, trace=str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        by_kind: dict[str, list[dict]] = {}
        for record in records:
            by_kind.setdefault(record["kind"], []).append(record)
        assert by_kind["decision"], "diamond search must branch"
        assert by_kind["conflict"], "diamond search must conflict"
        learns = by_kind["learn"]
        assert all(r["lbd"] >= 1 and r["size"] >= 1 for r in learns)
        lemmas = by_kind.get("theory-lemma", []) + by_kind.get("theory-conflict", [])
        assert lemmas, "arithmetic vetoes must be logged"
        for record in by_kind.get("theory-conflict", []):
            assert record["plugin"] == "arith"

    def test_push_pop_and_unknown_events(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        run_script(INCREMENTAL, trace=str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        pushes = [r for r in records if r["kind"] == "push"]
        pops = [r for r in records if r["kind"] == "pop"]
        assert pushes and pushes[0]["depth"] == 2
        assert pops and pops[0]["depth"] == 1
        ends = [r for r in records if r["kind"] == "check-end"]
        assert [r["answer"] for r in ends] == ["sat", "unsat", "sat"]
        assert [r["index"] for r in ends] == [0, 1, 2]

    def test_unknown_reason_event(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        source = """
        (declare-const p Bool)
        (declare-const q Bool)
        (assert (or p q))
        (assert (or (not p) q))
        (assert (or p (not q)))
        (assert (or (not p) (not q)))
        (check-sat)
        """
        results = solve_script(source, conflict_limit=0, trace=str(path))
        assert results[0].answer == "unknown"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        unknowns = [r for r in records if r["kind"] == "unknown"]
        assert unknowns and unknowns[0]["reason"] == "conflict-limit"

    def test_shared_event_log_left_open(self):
        log, buffer = open_memory_log()
        run_script("(check-sat)", trace=log)
        run_script("(check-sat)", trace=log)
        log.close()
        records = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert sum(1 for r in records if r["kind"] == "check-begin") == 2
        assert records[-1]["kind"] == "summary"

    def test_metrics_delta_namespaced_and_consistent_with_stats(self):
        result = solve_script(DIAMOND)[0]
        assert {key.split(".")[0] for key in result.metrics} == {
            "sat",
            "theory",
            "intern",
            "engine",
        }
        assert "theory.arith.pivots" in result.metrics
        assert "theory.euf.merges" in result.metrics
        assert "intern.hits" in result.metrics
        assert "engine.guard_clauses" in result.metrics

    def test_metrics_per_check_delta_resets_between_checks(self):
        results = solve_script(INCREMENTAL)
        # Second check re-encodes only the pushed assertions.
        assert results[1].metrics["engine.checks"] == 1
        # Theory counters are per-check absolutes even though the
        # registry persists across checks.
        for result in results:
            assert result.metrics.get("theory.euf.merges", 0) >= 0

    def test_guard_clauses_not_counted_as_tseitin_output(self):
        base, pushed = (
            solve_script(
                f"""
                (declare-const p Bool)
                {prefix}
                (assert p)
                (check-sat)
                (check-sat)
                """
            )
            for prefix in ("", "(push 1)")
        )
        # One asserted atom in the base frame: its root clause ships
        # bare, and the encoder itself emits no gate clauses.
        first = base[0].metrics
        assert first["engine.tseitin_new_clauses"] == 0
        assert first["engine.guard_clauses"] == 0
        assert first["engine.clauses_shipped"] == 1
        # After (push 1) the same root clause carries the frame's guard,
        # which counts as shipped but not as Tseitin output.
        guarded = pushed[0].metrics
        assert guarded["engine.tseitin_new_clauses"] == 0
        assert guarded["engine.guard_clauses"] == 1
        assert guarded["engine.clauses_shipped"] == 1
        # Unchanged re-check: nothing new on either ledger.
        for again in (base[1].metrics, pushed[1].metrics):
            assert again["engine.tseitin_new_clauses"] == 0
            assert again["engine.tseitin_new_vars"] == 0
            assert again["engine.guard_clauses"] == 0

    def test_trivial_check_keeps_zeroed_legacy_shape(self):
        result = solve_script("(assert false)(check-sat)")[0]
        assert result.answer == "unsat"
        assert result.metrics["engine.trivial"] == 1
        assert result.metrics["sat.conflicts"] == 0
        assert result.metrics["engine.vars"] == 0
        assert result.metrics["sat.decisions"] == 0

    def test_nontrivial_check_has_trivial_zero(self):
        result = solve_script("(declare-const p Bool)(assert p)(check-sat)")[0]
        assert result.metrics["engine.trivial"] == 0

    def test_engine_metrics_property_snapshot(self):
        engine = Engine()
        engine.run(parse_script("(declare-const p Bool)(assert p)(check-sat)"))
        snapshot = engine.metrics.snapshot()
        assert snapshot["engine.checks"] == 1
        assert snapshot["sat.decisions"] >= 0
        assert engine.obs.tracer is None  # default engine does not trace

    def test_no_tracing_no_phases(self):
        result = run_script(DIAMOND)
        assert result.phases == {}
        assert result.check_results[0].phases == {}

    def test_current_tracer_restored_after_run(self):
        outer = Tracer()
        previous = set_current_tracer(outer)
        try:
            run_script(DIAMOND, trace=None, obs=Observability.tracing())
            assert get_current_tracer() is outer
        finally:
            set_current_tracer(previous)


# ---------------------------------------------------------------------------
# Overhead guard: disabled instrumentation must stay in the noise.
# ---------------------------------------------------------------------------


class TestOverheadGuard:
    # The same generous bar + floor clamp check_regression applies to the
    # benchmark suites: sub-floor timings cannot flake on scheduler
    # jitter, and anything past 2.5x is a genuine hot-path tax.
    THRESHOLD = 2.5
    FLOOR = 0.05

    def _workload(self):
        lines = ["(set-info :status unsat)"]
        holes, pigeons = 4, 5
        for p in range(pigeons):
            lines.append(f"(declare-const f{p} Int)")
        for p in range(pigeons):
            lines.append(f"(assert (>= f{p} 0)) (assert (< f{p} {holes}))")
        for a in range(pigeons):
            for b in range(a + 1, pigeons):
                lines.append(f"(assert (not (= f{a} f{b})))")
        lines.append("(check-sat)")
        return "\n".join(lines)

    def test_disabled_instrumentation_overhead_within_gate(self):
        source = self._workload()
        script = parse_script(source)

        def run_plain():
            t0 = time.perf_counter()
            result = Engine().run(script)
            return time.perf_counter() - t0, result

        def run_traced():
            log, _ = open_memory_log()
            obs = Observability.tracing(events=log)
            t0 = time.perf_counter()
            result = Engine(obs=obs).run(script)
            elapsed = time.perf_counter() - t0
            log.close()
            return elapsed, result

        # Warm up once (intern table, bytecode), then take the best of 2.
        run_plain()
        plain_s, plain_result = min(run_plain(), run_plain(), key=lambda x: x[0])
        traced_s, traced_result = min(run_traced(), run_traced(), key=lambda x: x[0])

        assert plain_result.answers == ["unsat"]
        # Instrumentation must not change the search itself.  intern.*
        # tracks the process-wide weak intern table, so its counts depend
        # on what earlier runs left alive.
        traced, plain = (
            {
                key: value
                for key, value in result.check_results[0].metrics.items()
                if not key.startswith("intern.")
            }
            for result in (traced_result, plain_result)
        )
        assert traced == plain
        ratio = max(traced_s, self.FLOOR) / max(plain_s, self.FLOOR)
        assert ratio <= self.THRESHOLD, (
            f"enabled instrumentation costs {ratio:.2f}x "
            f"(traced {traced_s:.4f}s vs plain {plain_s:.4f}s)"
        )


# ---------------------------------------------------------------------------
# CLI flags.
# ---------------------------------------------------------------------------


class TestCliObservability:
    def run_cli(self, capsys, *argv):
        from repro.__main__ import main

        status = main(list(argv))
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    @pytest.fixture()
    def script_path(self, tmp_path):
        path = tmp_path / "a.smt2"
        path.write_text(DIAMOND)
        return str(path)

    def test_stats_json_is_pure_json(self, capsys, script_path, tmp_path):
        other = tmp_path / "b.smt2"
        other.write_text("(declare-const p Bool)(assert p)(check-sat)")
        status, out, _ = self.run_cli(capsys, script_path, str(other), "--stats-json")
        assert status == 0
        document = json.loads(out)  # exactly one JSON document on stdout
        assert [f["answers"] for f in document["files"]] == [["unsat"], ["sat"]]
        check = document["files"][0]["checks"][0]
        assert "stats" not in check
        assert "sat.conflicts" in check["metrics"]
        assert "total" in check["phases"]
        assert any(k.startswith("parse") for k in document["files"][0]["phases"])

    def test_trace_flag_writes_valid_jsonl(self, capsys, script_path, tmp_path):
        trace = tmp_path / "out.jsonl"
        status, out, _ = self.run_cli(capsys, script_path, "--trace", str(trace))
        assert status == 0
        assert out.strip() == "unsat"
        assert validate_trace(trace) == []
        kinds = [json.loads(line)["kind"] for line in trace.read_text().splitlines()]
        assert kinds[0] == "script"
        assert kinds[-1] == "summary"

    def test_trace_shared_across_files(self, capsys, script_path, tmp_path):
        other = tmp_path / "b.smt2"
        other.write_text("(check-sat)")
        trace = tmp_path / "out.jsonl"
        status, _, _ = self.run_cli(
            capsys, script_path, str(other), "--trace", str(trace)
        )
        assert status == 0
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        scripts = [r["path"] for r in records if r["kind"] == "script"]
        assert scripts == [script_path, str(other)]
        assert sum(1 for r in records if r["kind"] == "summary") == 1

    def test_profile_prints_comment_table(self, capsys, script_path):
        status, out, _ = self.run_cli(capsys, script_path, "--profile")
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "unsat"  # solver output first, untouched
        table = [line for line in lines if line.startswith("; ")]
        assert any("phase" in line for line in table)
        assert any("search" in line for line in table)

    def test_profile_with_stats_json_goes_to_stderr(self, capsys, script_path):
        status, out, err = self.run_cli(
            capsys, script_path, "--stats-json", "--profile"
        )
        assert status == 0
        json.loads(out)  # stdout stays machine-readable
        assert "phase" in err

    def test_stats_json_with_strict_status_mismatch(self, capsys, tmp_path):
        path = tmp_path / "wrong.smt2"
        path.write_text("(set-info :status unsat)(check-sat)")
        status, out, err = self.run_cli(
            capsys, str(path), "--stats-json", "--strict-status"
        )
        assert status == 2
        json.loads(out)
        assert "warning" in err
