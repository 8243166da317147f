#!/usr/bin/env python3
"""Zenesis end-to-end benchmark: one workload per run, outputs checked.

    python3 perfbench/run.py --workload volume_meanbox --seed 1 --seconds 20 --trace 0

Run it from the repository root (it imports ``src/repro``).  Workloads:
``volume_meanbox``, ``volume_propagate_stream`` and ``interactive_session``
(see ``perfbench/README.md``).  With ``--trace 0`` the last line of
stdout is a JSON object with every end-to-end metric; with ``--trace 1``
every per-layer metric from a traced run.  The line before it is a
detail report: per-pass values beside each median, sample counts, the
environment, provenance and any failed check.  Scratch files live under
``.perfbench/`` in the repository root and are removed at exit, except
the span file a traced run writes there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("volume_meanbox", "volume_propagate_stream", "interactive_session")
# One BLAS/OpenMP thread: with the main thread (and a prefetcher, where a
# path uses one) the process stays within nproc threads on a 2-CPU box.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 30.0

END_TO_END = {
    "setup_s": "s",
    "slices_per_s": "1/s",
    "requests_per_s": "1/s",
    "request_ms_p50": "ms",
    "request_ms_p90": "ms",
    "iou": "ratio",
    "iou_min": "ratio",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "adapt.calls": "count",
    "adapt.busy_s": "s",
    "adapt.hit_ratio": "ratio",
    "dino.calls": "count",
    "dino.busy_s": "s",
    "dino.boxes_per_call": "count",
    "sam_encoder.calls": "count",
    "sam_encoder.busy_s": "s",
    "sam_decoder.busy_s": "s",
    "analytic.calls": "count",
    "analytic.busy_s": "s",
    "analytic.call_ms_p50": "ms",
    "analytic.kept_ratio": "ratio",
    "temporal.busy_s": "s",
    "propagation.steps": "count",
    "propagation.busy_s": "s",
    "propagation.keyframe_ratio": "ratio",
    "io.tiles": "count",
    "io.busy_s": "s",
    "io.mb_read": "MiB",
    "checkpoint.writes": "count",
    "checkpoint.busy_s": "s",
    "checkpoint.mb_written": "MiB",
    "cache.hit_ratio": "ratio",
    "cache.busy_s": "s",
    "cache.resident_mb": "MiB",
    "platform.requests": "count",
    "platform.busy_s": "s",
    "platform.degraded_ratio": "ratio",
    "pipeline.busy_s": "s",
    "pipeline.self_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def scrub_environment() -> list[str]:
    """Drop ambient ``REPRO_*`` knobs and pin native thread pools.

    ``REPRO_FAULTS`` (set by chaos CI jobs) would inject faults into timed
    passes; precision, kernel and cache knobs would change what is timed.
    Must run before numpy is imported, so child probes inherit it too.
    """
    scrubbed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in scrubbed:
        del os.environ[key]
    for key in THREAD_VARS:
        os.environ[key] = "1"
    return scrubbed


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def provenance() -> dict:
    """Git SHA when the tree is a repository, and a digest of ``src/``."""
    sha = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        out = []
    if len(out) == 2 and Path(out[0]).resolve() == ROOT:  # not an enclosing repository's HEAD
        sha = out[1]
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return {"git_sha": sha, "source_sha256": h.hexdigest()}


def write_probe_inputs(workdir: Path, seed: int) -> None:
    """A 2-slice 64² volume for the set-up probes' warm-up request."""
    import numpy as np

    import workloads
    from repro.io import open_lazy_volume, write_sidecar, write_tiff

    sample = workloads.synthesize_fibsem_volume(
        catalyst="crystalline", n_slices=2, shape=(64, 64), seed=workloads.derived_seed(seed, 99)
    )
    np.save(workdir / "probe.npy", sample.volume.voxels)
    write_tiff(workdir / "probe.tif", sample.volume.voxels)
    with open_lazy_volume(workdir / "probe.tif") as volume:
        write_sidecar(volume)


def run_probe(workload: str, workdir: Path, prompt: str, index: int) -> tuple[float | None, str]:
    """Spawn one set-up probe; (seconds to its ``ready`` line, or None; error)."""
    err_path = workdir / f"probe-{index}.err"
    with err_path.open("w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(workdir), prompt],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=err,
        )
        try:
            readable, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
            line = proc.stdout.readline() if readable else b""
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=PROBE_TIMEOUT_S)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    if code == 0 and line.strip() == b"ready":
        return elapsed, ""
    tail = err_path.read_text().strip().splitlines()[-3:]
    return None, f"setup probe {index} exited {code}: {' | '.join(tail)}"


def run_passes(workload, seconds: float, tracer) -> list:
    """Measured passes until ``seconds`` have elapsed and every input was seen.

    Untraced, pass ``i`` segments input ``i mod n_inputs``.  Traced, each
    input runs twice from a cold cache, untraced then traced, so every
    traced pass has an untraced twin for the overhead ratio.
    """
    passes = []
    need = 2 if tracer is not None else workload.n_inputs
    start = time.perf_counter()
    i = 0
    while True:
        if tracer is None:
            result = workload.run_pass(i, i % workload.n_inputs)
        else:
            traced = i % 2 == 1
            result = workload.run_pass(i, (i // 2) % workload.n_inputs, tracer if traced else None, cold=True)
        passes.append(result)
        i += 1
        done = i >= need and time.perf_counter() - start >= seconds
        if done and (tracer is None or i % 2 == 0):
            return passes


def end_to_end(workload, passes, setup_values) -> tuple[dict, dict]:
    """(metric values, detail) for an untraced run."""
    slices = [p.units / p.scaled_s for p in passes]
    requests = [len(p.op_ms) / p.scaled_s for p in passes]
    samples = [ms for p in passes for ms in p.scaled_ms]
    p50, p90 = workload.latency_ms(samples)
    iou, iou_min = workload.iou_summary()
    values = {
        "setup_s": statistics.median(setup_values),
        "slices_per_s": statistics.median(slices),
        "requests_per_s": statistics.median(requests),
        "request_ms_p50": p50,
        "request_ms_p90": p90,
        "iou": iou,
        "iou_min": iou_min,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    n = len(samples)
    detail = {
        "per_pass": {"slices_per_s": slices, "requests_per_s": requests},
        "latency": {
            "samples": n,
            "request_ms_p50": "percentile" if n >= stats.min_samples(0.5) else "median (too few samples)",
            "request_ms_p90": "percentile" if n >= stats.min_samples(0.9) else "median (too few samples)",
        },
        "iou_per_input": workload.ious,
    }
    return values, detail


def per_layer(passes, tracer) -> tuple[dict, dict]:
    """(metric values, detail) for a traced run: medians over traced passes."""
    by_pass = tracing.busy_by_pass(tracer.spans)
    spans_of: dict[int, list] = {}
    for span in tracer.spans:
        spans_of.setdefault(span[5], []).append(span)
    rows, walls, reconciled, call_ms = [], [], [], []
    for p in passes:
        if not p.traced:
            continue
        busy, wall = by_pass[p.pass_no]
        spans = spans_of[p.pass_no]
        rows.append(tracing.pass_metrics(spans, busy, wall, tracer.counters[p.pass_no], p.resident_bytes))
        walls.append(wall)
        reconciled.append(abs(sum(busy.values()) - wall) <= 1e-9 + 1e-6 * wall)
        call_ms += tracing.analytic_call_ms(spans)
    try:
        call_p50 = stats.percentile(call_ms, 0.5)
    except stats.UnsupportedPercentile:
        call_p50 = None
    overhead = [b.scaled_s / a.scaled_s for a, b in zip(passes[::2], passes[1::2])]
    values, per_pass = {}, {}
    for name in PER_LAYER:
        if name == "analytic.call_ms_p50":
            values[name] = call_p50 if call_p50 is not None else 0.0
        elif name == "trace.overhead_ratio":
            values[name] = statistics.median(overhead)
            per_pass[name] = overhead
        else:
            per_pass[name] = [row[name] for row in rows]
            values[name] = statistics.median(per_pass[name])
    detail = {
        "per_pass": per_pass,
        "analytic_call_samples": len(call_ms),
        "analytic_call_ms_p50_supported": call_p50 is not None,
        "self_times_reconcile_with_wall": all(reconciled),
        "traced_wall_s": walls,
    }
    return values, detail


def measure(args, workdir: Path, scrubbed: list[str]) -> tuple[dict, dict]:
    import numpy as np

    import speed
    import workloads
    from repro.cache import config_fingerprint
    from repro.core.pipeline import ZenesisConfig

    write_probe_inputs(workdir, args.seed)
    setup_wall, failures = [], []
    for i in range(SETUP_PROBES):
        elapsed, error = run_probe(args.workload, workdir, workloads.PROMPT, i)
        if elapsed is None:
            failures.append(error)
        else:
            setup_wall.append(elapsed)
    if not setup_wall:
        raise RuntimeError("every set-up probe failed: " + "; ".join(failures))

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = tracing.Tracer(args.workload) if args.trace else None
    warmup = workload.run_pass(-1, -1)  # discarded, but its checks count
    passes = run_passes(workload, args.seconds, tracer)
    # Probes run in other processes, so no kernel brackets them: they are
    # scaled by the run's median machine-speed factor instead.
    slowdown = statistics.median(p.wall_s / p.scaled_s for p in passes)
    setup_values = [s / slowdown for s in setup_wall]
    extra_ops, extra_failures = workload.finish(bool(args.trace))

    attempted = SETUP_PROBES + extra_ops
    failed = len(failures) + len(extra_failures)
    failures += extra_failures
    for p in [warmup, *passes]:
        attempted += len(p.op_ms)
        failed += len(p.failures)
        failures += [msg for msgs in p.failures.values() for msg in msgs]

    if args.trace:
        values, detail = per_layer(passes, tracer)
        units = PER_LAYER
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        values, detail = end_to_end(workload, passes, setup_values)
        units = END_TO_END
    detail.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "speed_reference_s": speed.REFERENCE_S,
            "slowdown_vs_reference": slowdown,
            "setup_s_per_probe": setup_values,
            "setup_wall_s_per_probe": setup_wall,
            "passes": [
                {
                    "pass": p.pass_no,
                    "traced": p.traced,
                    "scaled_s": p.scaled_s,
                    "wall_s": p.wall_s,
                    "units": p.units,
                    "ops": len(p.op_ms),
                }
                for p in passes
            ],
            "environment": {
                "nproc": nproc(),
                "threads": {k: os.environ[k] for k in THREAD_VARS},
                "python_threads_max": max(p.max_threads for p in [warmup, *passes]),
                "scrubbed_env": scrubbed,
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "provenance": {**provenance(), "config_fingerprint": config_fingerprint(ZenesisConfig())},
            "failures": failures[:20],
        }
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    return result, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} not found; run from a full checkout", file=sys.stderr)
        return 2
    scrubbed = scrub_environment()
    sys.path[:0] = [str(SRC), str(HERE)]
    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result, detail = measure(args, workdir, scrubbed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
