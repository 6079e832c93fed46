"""End-to-end benchmark of the subspace outlier detector.

Run from the repository root::

    python3 perfbench/run.py --workload ga_wide --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload ga_wide --seed 1 --seconds 45 --trace 1

``--trace 0`` (a plain run) repeats the workload's schedule in rounds
for ``--seconds`` and prints the end-to-end metrics; ``--trace 1`` runs
one round twice, plain and then traced, and prints the per-layer
metrics.  Every metric is printed by name with its
unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(run metadata, samples, per-op counts, and for traced runs every span)
is written to ``.perfbench_out/`` at the repository root.

See ``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
#: Fresh processes that time the set-up, besides the run's own.
IMPORT_PROBES = 2

UNITS = {
    "setup_s": "s", "detect_s_p50": "s",
    "update_ms_p50": "ms", "update_ms_p90": "ms",
    "score_ms_p50": "ms", "score_ms_p90": "ms",
    "stream_rows_per_s": "rows/s", "peak_rss_mb": "MB", "success_rate": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    """Put ``src/`` on the path and import the benchmark's modules."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library sources under {SRC}")
    os.environ.setdefault("REPRO_NATIVE_CACHE", str(WORK_DIR / "native-cache"))
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: F401 - imports numpy and the library

    return workloads


def source_identity() -> dict:
    """The commit when the checkout has git metadata, and a source digest."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def metadata(args, kernel: dict) -> dict:
    import numpy as np
    from repro import CountingBackend

    import workloads

    return {
        "workload": args.workload,
        "seed": args.seed,
        "ga_seeds": list(workloads.ROUND_GA_SEEDS),
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel": kernel,
        "backend": CountingBackend().kind,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **source_identity(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_probe() -> int:
    """Child mode: time a fresh import plus backend/kernel resolution."""
    start = time.perf_counter()
    workloads = import_library()
    import_s = time.perf_counter() - start
    start = time.perf_counter()
    workloads.warm_up()
    print(json.dumps({"import_s": import_s, "resolve_s": time.perf_counter() - start}))
    return 0


def import_samples() -> list[float]:
    """Import + resolution times of ``IMPORT_PROBES`` fresh processes."""
    samples = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--import-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        samples.append(probe["import_s"] + probe["resolve_s"])
    return samples


def set_up(workloads, import_s: float, speed):
    """The timed set-up: import plus backend/kernel resolution.

    Timed in this process and in ``IMPORT_PROBES`` fresh ones, with a
    host-speed probe on each side.  Returns the kernel info, the samples
    and the ``(start, end)`` of the set-up.
    """
    speed.probe()
    start = time.perf_counter()
    kernel = workloads.warm_up()
    samples = [import_s + time.perf_counter() - start, *import_samples()]
    end = time.perf_counter()
    speed.probe()
    return kernel, samples, (start - import_s, end)


def percentile(samples: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(samples, q)) if samples else 0.0


def per_slot(slots: dict, factor) -> list[float]:
    """Each slot's median over its rounds of ``seconds / factor(start, end)``."""
    return [
        statistics.median(
            seconds / factor(start, start + seconds) for start, seconds in timings
        )
        for timings in slots.values()
    ]


def end_to_end(workloads, run, setup: tuple[list[float], tuple[float, float]],
               factor) -> dict:
    """The end-to-end metrics, with times divided by ``factor(start, end)``.

    Percentiles are over op slots, each at its median round: the tail
    of a workload's ops, not of the host's contention.
    """
    samples, span = setup
    detect, update, score = (
        per_slot(run.detect_s, factor), per_slot(run.update_s, factor),
        per_slot(run.score_s, factor),
    )
    # One serving round: its rows updated and scored, per second.
    stream_s = sum(update) + sum(score)
    rows = workloads.BATCH_ROWS * (len(update) + len(score))
    return {
        "setup_s": statistics.median(samples) / factor(*span),
        "detect_s_p50": percentile(detect, 50),
        "update_ms_p50": 1e3 * percentile(update, 50),
        "update_ms_p90": 1e3 * percentile(update, 90),
        "score_ms_p50": 1e3 * percentile(score, 50),
        "score_ms_p90": 1e3 * percentile(score, 90),
        "stream_rows_per_s": rows / stream_s if stream_s else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": (run.attempted - run.failed) / max(run.attempted, 1),
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--import-probe"]:
        return import_probe()
    args = parse_args(argv)
    start = time.perf_counter()
    workloads = import_library()
    import_s = time.perf_counter() - start
    import checks

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        data = workloads.make_inputs(args.workload, args.seed)
        run = workloads.Run(
            checks.References.load(workloads.family(args.workload), args.seed)
        )
        kernel, *setup = set_up(workloads, import_s, run.speed)
        record = {"meta": metadata(args, kernel)}
        if args.trace:
            import traced

            metrics, detail = traced.run_traced(
                workloads, run, args, data, workdir
            )
            record.update(detail)
            units = traced.UNITS
        else:
            record["rounds"] = workloads.run_workload(
                run, args.workload, data, args.seed, seconds=args.seconds,
            )
            run.speed.probe()
            metrics = end_to_end(workloads, run, setup, run.speed.factor)
            record["raw_metrics"] = end_to_end(workloads, run, setup, lambda *_: 1.0)
            record["samples"] = {
                "setup_s": setup[0], "detect_s": run.detect_s,
                "update_s": run.update_s, "score_s": run.score_s,
            }
            units = UNITS
        record["speed_probes"] = run.speed.probes
        record["op_counts"] = run.op_counts
        record["problems"] = run.problems
        record["reference_digests"] = run.refs.available
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            WORK_DIR.rmdir()
    OUT_DIR.mkdir(exist_ok=True)
    mode = "trace" if args.trace else "plain"
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-{mode}.json"
    record["metrics"] = metrics
    out_path.write_text(json.dumps(record))
    for problem in run.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"meta": record["meta"]}))
    # Plain runs also show each time as measured, before scaling.
    raw = record.get("raw_metrics", {})
    for name, value in metrics.items():
        line = f"{name:48s} {value:16.6f} {units[name]}"
        if raw.get(name, value) != value:
            line += f"  (measured {raw[name]:.6f})"
        print(line)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
