"""The traced run: one round, plain then traced, reduced per layer.

One round of the workload's detects runs twice in one process: first plain, then with the span
wrappers of ``tracer.py`` installed around a fresh set-up.  The plain
pass gives the baseline for ``trace.overhead_pct`` and the per-op
counts the traced pass must repeat exactly.  The traced pass gives
every per-layer metric, reduced from its spans.

``ga_wide`` then replays its first detect through an 8-shard
``mmap_dir`` store under a tracer of its own.  That pass gives the
``grid.sharded.*`` metrics, and its result must equal the in-memory
one bit for bit.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import tracer as tracing

CROSSOVER = "search.evolutionary.crossover"
COUNTS = ("grid.counter.count", "grid.sharded.count")
BATCHES = ("grid.counter.count_batch", "grid.sharded.count_batch")
MAX_LEVEL = 4

#: Per-layer metric -> unit, in report order.
UNITS = {
    f"{CROSSOVER}.calls": "count",
    f"{CROSSOVER}.busy_s": "s",
    f"{CROSSOVER}.self_s": "s",
    f"{CROSSOVER}.count_calls": "count",
    "search.evolutionary.selection.calls": "count",
    "search.evolutionary.selection.busy_s": "s",
    "search.evolutionary.mutation.calls": "count",
    "search.evolutionary.mutation.busy_s": "s",
    "search.evolutionary.fitness.score_batch_calls": "count",
    "search.evolutionary.fitness.busy_s": "s",
    "engine.generations": "count",
    "engine.evaluations": "count",
    "core.subspace.constructed": "count",
    "search.best_set.offer_calls": "count",
    "search.best_set.offer_s": "s",
    "search.best_set.accept_ratio": "ratio",
    "sparsity.coefficient.calls": "count",
    "sparsity.coefficient.busy_s": "s",
    **{f"search.brute_force.level_s.{k}": "s" for k in range(1, MAX_LEVEL + 1)},
    "grid.counter.count_calls": "count",
    "grid.counter.count_s": "s",
    "grid.counter.cache_hit_ratio": "ratio",
    "grid.counter.cache_entries": "count",
    "grid.counter.batch_calls": "count",
    "grid.counter.batch_cubes": "count",
    "grid.counter.batch_s": "s",
    "grid.counter.extension_calls": "count",
    "grid.counter.extension_s": "s",
    "grid.counter.bytes_computed": "bytes",
    "grid.counter.build_s": "s",
    "grid.counter.append_calls": "count",
    "grid.counter.append_rows": "count",
    "grid.counter.append_s": "s",
    "grid.discretizer.fit_s": "s",
    "grid.discretizer.transform_calls": "count",
    "grid.discretizer.transform_s": "s",
    "model.grid_model.update_s": "s",
    "model.grid_model.score_s": "s",
    "grid.sharded.shards_counted": "count",
    "grid.sharded.store_build_s": "s",
    "grid.sharded.count_s": "s",
    "grid.parallel.chunks_parallel": "count",
    "core.detector.self_s": "s",
    "trace.overhead_pct": "%",
}

#: Per-op counts that must repeat exactly between two runs of one code.
EXACT_COUNTS = (
    "count_calls", "subspaces_constructed", "batch_cubes",
    "shards_counted", "cache_entries", "generations",
)


def layer_metrics(tracer: tracing.Tracer, red: tracing.Reduced,
                  op_counts: list[dict], overhead_pct: float) -> dict:
    def secs(ns: int) -> float:
        return ns / 1e9

    def busy(*names: str) -> float:
        return secs(sum(red.busy_ns.get(n, 0) for n in names))

    def calls(*names: str) -> int:
        return sum(red.calls.get(n, 0) for n in names)

    def leaf_calls(*names: str) -> int:
        return sum(red.leaf_calls.get(n, 0) for n in names)

    def leaf_s(*names: str) -> float:
        return secs(sum(red.leaf_ns.get(n, 0) for n in names))

    def total(key: str) -> int:
        return sum(op.get(key, 0) for op in op_counts)

    counters = tracer.counters
    offers = leaf_calls("search.best_set.offer")
    lookups = counters["grid.counter.lookups"]
    metrics = {
        f"{CROSSOVER}.calls": calls(CROSSOVER),
        f"{CROSSOVER}.busy_s": busy(CROSSOVER),
        f"{CROSSOVER}.self_s": secs(red.self_ns.get(CROSSOVER, 0)),
        f"{CROSSOVER}.count_calls": sum(
            red.leaf_calls_under.get((CROSSOVER, n), 0) for n in COUNTS
        ),
        "search.evolutionary.selection.calls": calls("search.evolutionary.selection"),
        "search.evolutionary.selection.busy_s": busy("search.evolutionary.selection"),
        "search.evolutionary.mutation.calls": calls("search.evolutionary.mutation"),
        "search.evolutionary.mutation.busy_s": busy("search.evolutionary.mutation"),
        "search.evolutionary.fitness.score_batch_calls": calls(
            "search.evolutionary.fitness"
        ),
        "search.evolutionary.fitness.busy_s": busy("search.evolutionary.fitness"),
        "engine.generations": total("generations"),
        "engine.evaluations": total("evaluations"),
        "core.subspace.constructed": counters["core.subspace.constructed"],
        "search.best_set.offer_calls": offers,
        "search.best_set.offer_s": leaf_s("search.best_set.offer"),
        "search.best_set.accept_ratio": (
            red.leaf_accepted.get("search.best_set.offer", 0) / offers if offers else 0.0
        ),
        "sparsity.coefficient.calls": leaf_calls("sparsity.coefficient"),
        "sparsity.coefficient.busy_s": leaf_s("sparsity.coefficient"),
        **{
            f"search.brute_force.level_s.{k}": secs(red.level_ns.get(k, 0))
            for k in range(1, MAX_LEVEL + 1)
        },
        "grid.counter.count_calls": leaf_calls(*COUNTS),
        "grid.counter.count_s": leaf_s(*COUNTS),
        "grid.counter.cache_hit_ratio": (
            counters["grid.counter.hits"] / lookups if lookups else 0.0
        ),
        "grid.counter.cache_entries": max(
            (op["cache_entries"] for op in op_counts), default=0
        ),
        "grid.counter.batch_calls": calls(*BATCHES),
        "grid.counter.batch_cubes": counters["grid.counter.batch_cubes"],
        "grid.counter.batch_s": busy(*BATCHES),
        "grid.counter.extension_calls": leaf_calls("grid.counter.extension_counts"),
        "grid.counter.extension_s": leaf_s("grid.counter.extension_counts"),
        "grid.counter.bytes_computed": counters["grid.counter.bytes_computed"],
        "grid.counter.build_s": busy("grid.counter.build"),
        "grid.counter.append_calls": calls("grid.counter.append_rows"),
        "grid.counter.append_rows": counters["grid.counter.append_rows"],
        "grid.counter.append_s": busy("grid.counter.append_rows"),
        "grid.discretizer.fit_s": busy("grid.discretizer.fit"),
        "grid.discretizer.transform_calls": calls("grid.discretizer.transform"),
        "grid.discretizer.transform_s": busy("grid.discretizer.transform"),
        "model.grid_model.update_s": busy("model.grid_model.update"),
        "model.grid_model.score_s": busy("model.grid_model.score"),
        "grid.sharded.shards_counted": total("shards_counted"),
        "grid.sharded.store_build_s": busy("grid.sharded.store_build"),
        "grid.sharded.count_s": busy("grid.sharded.count_batch")
        + leaf_s("grid.sharded.count"),
        "grid.parallel.chunks_parallel": total("chunks_parallel"),
        "core.detector.self_s": secs(red.self_ns.get("core.detector", 0)),
        "trace.overhead_pct": overhead_pct,
    }
    return metrics


def count_mismatches(plain: list[dict], traced: list[dict]) -> list[str]:
    """Per-op counts of two runs of one schedule must agree exactly."""
    problems = []
    if len(plain) != len(traced):
        problems.append(f"{len(plain)} ops plain, {len(traced)} traced")
    for a, b in zip(plain, traced):
        for key in EXACT_COUNTS:
            if key in a and key in b and a[key] != b[key]:
                problems.append(
                    f"op {a['op']} {a['kind']} {a['key']}: {key} {a[key]} vs {b[key]}"
                )
    return problems


#: Metrics taken from the sharded pass of ``ga_wide``.
SHARDED = ("grid.sharded.shards_counted", "grid.sharded.store_build_s",
           "grid.sharded.count_s")


def sharded_pass(workloads, traced, data, workdir):
    """``ga_wide``'s first detect through an 8-shard mask store, traced.

    Returns the ``grid.sharded.*`` metrics, the reconciliation problems,
    the op's exact counts and the spans.
    """
    tracer = tracing.Tracer()
    sharded = workloads.Run(traced.refs, tracer=tracer, digests=traced.digests,
                            speed=traced.speed)
    installed = tracing.install(tracer)
    try:
        store = workloads.build_store(data, workdir / "masks")
        workloads.mine_round(sharded, "ga_wide", data, mmap_dir=store,
                             seeds=workloads.ROUND_GA_SEEDS[:1])
    finally:
        installed.remove()
    metrics = layer_metrics(
        tracer, tracing.reduce_spans(tracer), sharded.op_counts, 0.0
    )
    for counts in sharded.op_counts:
        counts["kind"] = "sharded detect"
    traced.attempted += sharded.attempted
    traced.failed += sharded.failed
    traced.problems += sharded.problems
    spans = tracer.to_dict()
    return ({name: metrics[name] for name in SHARDED},
            tracing.reconcile(tracer), sharded.op_counts, spans)


def run_traced(workloads, plain, args, data, workdir):
    """Plain pass, traced pass, reduction and the soundness checks."""
    workloads.run_workload(
        plain, args.workload, data, args.seed,
        seconds=args.seconds, rounds=1, serve_tail=False,
    )
    tracer = tracing.Tracer()
    traced = workloads.Run(plain.refs, tracer=tracer, speed=plain.speed)
    installed = tracing.install(tracer)
    try:
        workloads.run_workload(
            traced, args.workload, data, args.seed,
            seconds=args.seconds, rounds=1,
        )
    finally:
        installed.remove()
    problems = tracing.reconcile(tracer) + count_mismatches(
        plain.op_counts, traced.op_counts
    )

    plain.speed.probe()

    def median_detect(run) -> float:
        return statistics.median(
            seconds / run.speed.factor(start, start + seconds)
            for timings in run.detect_s.values() for start, seconds in timings
        )

    overhead = 100.0 * (
        median_detect(traced) / median_detect(plain) - 1.0
    ) if plain.detect_s and traced.detect_s else 0.0
    metrics = layer_metrics(
        tracer, tracing.reduce_spans(tracer), traced.op_counts, overhead
    )
    detail = {
        "plain_op_counts": plain.op_counts,
        "trace_problems": problems,
        "trace": tracer.to_dict(),
    }
    op_counts = traced.op_counts
    if args.workload == "ga_wide":
        sharded, sharded_problems, sharded_counts, spans = sharded_pass(
            workloads, traced, data, workdir
        )
        metrics.update(sharded)
        problems += sharded_problems
        op_counts = op_counts + sharded_counts
        detail["sharded_trace"] = spans
    # Fold the traced pass into the reported run.  The trace check counts
    # as one more op: a trace that does not reconcile fails the run like
    # a bad output would.
    plain.attempted += traced.attempted + 1
    plain.failed += traced.failed
    plain.problems += traced.problems
    plain.op_counts = op_counts
    if problems:
        plain.fail("trace", problems)
    return metrics, detail


def main(argv: list[str]) -> int:
    """Compare the exact per-op counts of two traced-run records."""
    if len(argv) != 2:
        print("usage: python3 perfbench/traced.py RECORD_A.json RECORD_B.json",
              file=sys.stderr)
        return 2
    first, second = (
        json.loads(Path(path).read_text())["op_counts"] for path in argv
    )
    problems = count_mismatches(first, second)
    for problem in problems:
        print(problem)
    print(f"{len(first)} ops compared, {len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
