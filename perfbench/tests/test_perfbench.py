"""Tests of the benchmark itself: output checks, span tree, exact counts.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import traced  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from repro import SubspaceOutlierDetector  # noqa: E402


@pytest.fixture(scope="module")
def small_data():
    return workloads.correlated_set(3, 3000)


def _detect(run, data, seed=0):
    detector = SubspaceOutlierDetector(random_state=seed, **workloads.GA_PARAMS)
    result = workloads.detect_op(
        run, "ga_wide", 0, lambda: detector.detect(data),
        lambda: detector.model_, seed,
    )
    return detector, result


def test_good_outputs_pass(small_data):
    run = workloads.Run(checks.References())
    detector, result = _detect(run, small_data)
    workloads.stream_op(run, detector.model_, small_data[:200], 0)
    assert result is not None
    assert (run.attempted, run.failed) == (3, 0), run.problems


def test_corrupted_detect_fails(small_data, monkeypatch):
    original = SubspaceOutlierDetector.detect

    def corrupted(self, data, *args, **kwargs):
        result = original(self, data, *args, **kwargs)
        first = result.projections[0]
        bad = dataclasses.replace(first, coefficient=first.coefficient + 1e-9)
        return dataclasses.replace(result, projections=(bad, *result.projections[1:]))

    monkeypatch.setattr(SubspaceOutlierDetector, "detect", corrupted)
    run = workloads.Run(checks.References())
    _detect(run, small_data)
    assert run.failed == 1
    assert any("Eq. 1" in p for p in run.problems)


def test_corrupted_scores_fail(small_data, monkeypatch):
    run = workloads.Run(checks.References())
    detector, _ = _detect(run, small_data)
    model = detector.model_
    original = type(model).score

    def corrupted(self, points):
        scores = original(self, points)
        scores[0] = -1.0 if np.isnan(scores[0]) else np.nan
        return scores

    monkeypatch.setattr(type(model), "score", corrupted)
    workloads.stream_op(run, model, small_data[:200], 0)
    assert run.failed == 1


def test_repeat_is_held_to_its_first_output(small_data, monkeypatch):
    # A repeated op skips the oracle; its digest must still catch a change.
    run = workloads.Run(checks.References())
    _detect(run, small_data)
    original = SubspaceOutlierDetector.detect

    def corrupted(self, data, *args, **kwargs):
        result = original(self, data, *args, **kwargs)
        return dataclasses.replace(
            result, outlier_indices=result.outlier_indices[:-1]
        )

    monkeypatch.setattr(SubspaceOutlierDetector, "detect", corrupted)
    _detect(run, small_data)
    assert (run.attempted, run.failed) == (2, 1)
    assert any("different result" in p for p in run.problems)


def test_times_are_scaled_to_reference_speed():
    import run as bench

    run = workloads.Run(checks.References())
    # Slot 0's median round is 2.0 s, slot 1's 5.0 s: the median slot is 3.5 s.
    run.detect_s = {0: [(0.0, 1.0), (10.0, 3.0)], 1: [(20.0, 5.0)]}
    run.update_s = {0: [(30.0, 0.020)]}
    run.score_s = {0: [(30.1, 0.002)]}
    run.attempted = 5
    setup = ([1.0, 3.0, 2.0], (0.0, 1.0))
    metrics = bench.end_to_end(workloads, run, setup, lambda start, end: 2.0)
    assert metrics["setup_s"] == 1.0
    assert metrics["detect_s_p50"] == 1.75
    assert metrics["update_ms_p50"] == pytest.approx(10.0)
    assert metrics["stream_rows_per_s"] == pytest.approx(2000 / 0.011)
    assert metrics["success_rate"] == 1.0


def test_host_speed_factor_uses_probes_on_both_sides():
    speed = hostspeed.HostSpeed()
    speed.probe()
    assert speed.probes[0][1] > 0
    speed.probes = [(float(t), float(t)) for t in range(10)]
    # An op from 4.5 to 6.5 is scaled by the probes at 2-4 and 7-9.
    assert speed.factor(4.5, 6.5) == 5.5
    assert speed.factor(-1.0, -0.5) == 1.0
    assert speed.factor(20.0, 21.0) == 8.0


def test_digest_mismatch_fails(small_data):
    run = workloads.Run(checks.References({"detect": {"0": "0" * 64}}))
    _detect(run, small_data)
    assert run.failed == 1
    assert any("reference" in p for p in run.problems)


def test_brute_force_oracle_finds_missed_cube():
    data = workloads.make_inputs("brute_segmentation", 5)[:400, :8]
    detector = SubspaceOutlierDetector(
        method="brute_force", **dict(workloads.BRUTE_PARAMS, dimensionality=3)
    )
    result = detector.detect(data)
    params = {"phi": 4, "k": 3, "m": 20}
    assert checks.check_brute_optimal(result, detector.model_, **params) == []
    worse = result.projections[-1]
    swapped = dataclasses.replace(
        result,
        projections=result.projections[:-1]
        + (dataclasses.replace(worse, coefficient=worse.coefficient + 1.0),),
    )
    assert checks.check_brute_optimal(swapped, detector.model_, **params)


def _traced_schedule(data):
    tracer = tracing.Tracer()
    run = workloads.Run(checks.References(), tracer=tracer)
    installed = tracing.install(tracer)
    try:
        model = workloads.mine_round(run, "ga_wide", data, seeds=(0, 1))[0]
        for index in range(3):
            workloads.stream_op(run, model, workloads.stream_batch(data, 3, index), index)
    finally:
        installed.remove()
    return tracer, run


def test_span_tree_reconciles(small_data):
    tracer, run = _traced_schedule(small_data)
    assert run.failed == 0, run.problems
    assert tracing.reconcile(tracer) == []
    reduced = tracing.reduce_spans(tracer)
    assert reduced.calls["core.detector"] == 2
    assert reduced.calls["model.grid_model.update"] == 3
    metrics = traced.layer_metrics(tracer, reduced, run.op_counts, 0.0)
    assert set(metrics) == set(traced.UNITS)
    assert metrics["search.evolutionary.crossover.count_calls"] > 0
    # Break the accounting of one span: the check must notice.
    tracer.spans[1][tracing.SELF] += 1
    assert tracing.reconcile(tracer)


def test_wrappers_are_removed(small_data):
    from repro.grid.counter import CubeCounter

    before = CubeCounter.count
    _traced_schedule(small_data)
    assert CubeCounter.count is before


def test_counts_repeat_exactly(small_data):
    _, first = _traced_schedule(small_data)
    _, second = _traced_schedule(small_data)
    assert first.op_counts and first.op_counts[0]["subspaces_constructed"] > 0
    assert traced.count_mismatches(first.op_counts, second.op_counts) == []


def test_bare_directory_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    out = subprocess.run(
        [sys.executable, *command[1:], "--workload", "ga_wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_declared_metrics_match_reported():
    import run

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", run.UNITS), ("per_layer", traced.UNITS)):
        assert {m["name"]: m["unit"] for m in declared[key]} == units
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
