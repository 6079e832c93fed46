"""Tests for the engine layer: events, sinks, registry, protocol driving.

The event bus and registry are the refactor's new public surface; this
file covers their contracts directly — vocabulary enforcement, sink
behavior (in-memory, JSONL trace, composite), registry CRUD including
plugin engines, the prepare/step/finalize protocol being equivalent to
``run()``, and the CLI's ``--trace-file`` / ``--search`` wiring.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.detector import SubspaceOutlierDetector
from repro.engine.context import RunContext
from repro.engine.events import (
    EVENT_TYPES,
    CompositeSink,
    Event,
    InMemoryEventSink,
    JsonlTraceSink,
    NullSink,
    emit_event,
    register_event_type,
)
from repro.engine.registry import (
    create_engine,
    engine_names,
    engine_spec,
    register_engine,
    unregister_engine,
)
from repro.engine.stats import StatsAssemblySink, merge_backend_health
from repro.exceptions import ValidationError
from repro.search.evolutionary.config import EvolutionaryConfig
from repro.search.evolutionary.engine import EvolutionarySearch
from repro.search.local import RandomSearch


# ----------------------------------------------------------------------
# Events and sinks


class TestEmitEvent:
    def test_none_sink_is_noop(self):
        emit_event(None, "run_started", algorithm="x")  # must not raise

    def test_unknown_type_rejected(self):
        with pytest.raises(ValidationError, match="unknown event type"):
            emit_event(InMemoryEventSink(), "made_up_event")  # repro-lint: disable=RPL010

    def test_register_event_type_widens_vocabulary(self):
        name = "plugin_tick_test"
        assert name not in EVENT_TYPES
        try:
            register_event_type(name)
            sink = InMemoryEventSink()
            emit_event(sink, name, n=1)
            assert sink.of_type(name)[0].payload == {"n": 1}
        finally:
            EVENT_TYPES.discard(name)

    def test_register_rejects_empty(self):
        with pytest.raises(ValidationError):
            register_event_type("")

    def test_payload_and_timestamp(self):
        sink = InMemoryEventSink()
        emit_event(sink, "generation_end", generation=3)
        event = sink.events[0]
        assert event.type == "generation_end"
        assert event.payload == {"generation": 3}
        assert event.timestamp > 0


class TestInMemoryEventSink:
    def test_order_and_helpers(self):
        sink = InMemoryEventSink()
        emit_event(sink, "run_started")
        emit_event(sink, "generation_end", generation=0)
        emit_event(sink, "generation_end", generation=1)
        emit_event(sink, "engine_finished")
        assert len(sink) == 4
        assert sink.types() == ["run_started", "generation_end", "engine_finished"]
        assert [e.payload["generation"] for e in sink.of_type("generation_end")] == [
            0,
            1,
        ]

    def test_context_manager(self):
        with InMemoryEventSink() as sink:
            sink.emit(Event(type="run_started"))
        assert len(sink) == 1  # close() keeps the recorded events


class TestJsonlTraceSink:
    def test_lines_parse_and_seq_increments(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            emit_event(sink, "run_started", algorithm="demo")
            emit_event(sink, "level_end", depth=1, n_survivors=4)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["seq"] for line in lines] == [0, 1]
        assert lines[0]["type"] == "run_started"
        assert lines[1]["n_survivors"] == 4

    def test_lazy_open_no_events_no_file(self, tmp_path):
        path = tmp_path / "never.jsonl"
        with JsonlTraceSink(path):
            pass
        assert not path.exists()

    def test_non_json_payload_stringified(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(path)
        emit_event(sink, "run_started", weird=np.int64(7))
        sink.close()
        sink.close()  # idempotent
        record = json.loads(path.read_text())
        assert record["weird"] in (7, "7")


class TestCompositeSink:
    def test_fans_out_and_skips_none(self):
        a, b = InMemoryEventSink(), InMemoryEventSink()
        composite = CompositeSink(a, None, b)
        emit_event(composite, "run_started")
        assert len(a) == len(b) == 1
        composite.close()

    def test_null_sink_drops(self):
        emit_event(NullSink(), "run_started")


class TestStatsHelpers:
    def test_merge_backend_health_sums_and_ors(self):
        merged = merge_backend_health(
            [
                {"retries": 1, "timeouts": 0, "pool_degraded": False},
                {"retries": 2, "fallbacks": 3, "pool_degraded": True},
            ]
        )
        assert merged["retries"] == 3
        assert merged["fallbacks"] == 3
        assert merged["pool_degraded"] is True

    def test_stats_sink_counts_events(self, small_counter):
        sink = StatsAssemblySink()
        engine = RandomSearch(
            small_counter, 2, 5, max_evaluations=200, random_state=0
        )
        outcome = engine.run(context=RunContext(counter=small_counter, sink=sink))
        stats = sink.assemble(outcome, small_counter, elapsed=1.5)
        assert stats["total_elapsed_seconds"] == 1.5
        assert stats["stopped_reason"] == outcome.stopped_reason
        assert stats["events"]["run_started"] == 1
        assert stats["events"]["engine_finished"] == 1
        assert "counter_stats" in stats and "backend_health" in stats


# ----------------------------------------------------------------------
# Registry


class TestRegistry:
    def test_builtins_registered(self):
        names = engine_names()
        for name in (
            "evolutionary",
            "brute_force",
            "random",
            "hill_climbing",
            "simulated_annealing",
        ):
            assert name in names

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValidationError, match="evolutionary"):
            engine_spec("no_such_engine")

    def test_checkpoint_support_flags(self):
        assert engine_spec("evolutionary").supports_checkpoint
        assert engine_spec("brute_force").supports_checkpoint
        assert not engine_spec("random").supports_checkpoint

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValidationError, match="already registered"):
            register_engine("evolutionary", lambda *a, **k: None)

    def test_kwargs_filtered_per_engine(self, small_counter):
        # `patience` belongs to hill climbing only; `config` to the GA.
        engine = create_engine(
            "random",
            small_counter,
            2,
            5,
            max_evaluations=100,
            patience=5,
            config=EvolutionaryConfig(),
            random_state=0,
        )
        assert isinstance(engine, RandomSearch)
        assert engine.max_evaluations == 100

    def test_plugin_register_use_unregister(self, small_counter, small_data):
        calls = {}

        @register_engine("random_twin_test", description="test plugin")
        def _factory(counter, dimensionality, n_projections, **kwargs):
            calls["kwargs"] = dict(kwargs)
            return RandomSearch(
                counter,
                dimensionality,
                n_projections,
                max_evaluations=150,
                random_state=kwargs.get("random_state"),
            )

        try:
            assert "random_twin_test" in engine_names()
            detector = SubspaceOutlierDetector(
                dimensionality=2,
                n_ranges=4,
                n_projections=5,
                method="random_twin_test",
                random_state=0,
            )
            result = detector.detect(small_data)
            assert result.stats["algorithm"] == "RandomSearch"
            assert calls["kwargs"].get("random_state") == 0
        finally:
            unregister_engine("random_twin_test")
        with pytest.raises(ValidationError):
            engine_spec("random_twin_test")

    def test_replace_allows_override(self):
        spec = engine_spec("random")
        register_engine(
            "random", spec.factory, accepts=spec.accepts, replace=True
        )
        assert engine_spec("random").factory is spec.factory


# ----------------------------------------------------------------------
# Protocol driving


class TestProtocolDriving:
    def test_manual_drive_equals_run(self, small_counter):
        config = EvolutionaryConfig(population_size=20, max_generations=8)

        def build():
            return EvolutionarySearch(
                small_counter, 2, 5, config=config, random_state=11
            )

        auto = build().run()

        engine = build()
        context = RunContext(counter=small_counter)
        engine.prepare(context)
        steps = 0
        while engine.step(context):
            steps += 1
        manual = engine.finalize(context)

        assert steps > 0
        assert manual.projections == auto.projections
        assert manual.stats["evaluations"] == auto.stats["evaluations"]
        assert manual.stopped_reason == auto.stopped_reason

    def test_early_finalize_is_cancellation(self, small_counter):
        engine = EvolutionarySearch(
            small_counter,
            2,
            5,
            config=EvolutionaryConfig(population_size=20, max_generations=50),
            random_state=0,
        )
        context = RunContext(counter=small_counter, sink=InMemoryEventSink())
        engine.prepare(context)
        assert engine.step(context)
        outcome = engine.finalize(context)
        assert outcome.stopped_reason == "cancelled"
        assert not outcome.completed
        finished = context.sink.of_type("engine_finished")
        assert len(finished) == 1
        assert finished[0].payload["stopped_reason"] == "cancelled"

    def test_run_emits_bracketing_events(self, small_counter):
        sink = InMemoryEventSink()
        engine = EvolutionarySearch(
            small_counter,
            2,
            5,
            config=EvolutionaryConfig(population_size=20, max_generations=5),
            random_state=0,
        )
        engine.run(context=RunContext(counter=small_counter, sink=sink))
        types = sink.types()
        assert types[0] == "run_started"
        assert types[-1] == "engine_finished"
        assert sink.of_type("generation_end")


# ----------------------------------------------------------------------
# CLI wiring


class TestCliTraceAndSearch:
    def test_trace_file_writes_parseable_jsonl(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        code = main(
            [
                "detect",
                "--dataset",
                "machine",
                "--method",
                "brute_force",
                "--trace-file",
                str(trace),
            ]
        )
        assert code == 0
        capsys.readouterr()
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        assert lines, "trace file must not be empty"
        types = {line["type"] for line in lines}
        assert "run_started" in types
        assert "engine_finished" in types
        assert [line["seq"] for line in lines] == list(range(len(lines)))

    def test_search_flag_overrides_method(self, capsys):
        code = main(
            [
                "detect",
                "--dataset",
                "machine",
                "--method",
                "brute_force",
                "--search",
                "random",
                "--output",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["algorithm"] == "RandomSearch"

    def test_search_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            main(["detect", "--dataset", "machine", "--search", "bogus"])
