"""Tests of the benchmark's own machinery.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402

# -- the percentile rule ------------------------------------------------------


@pytest.mark.parametrize("q, need", [(0.5, 20), (0.9, 100), (0.99, 1000)])
def test_percentile_needs_ten_samples_beyond_it(q, need):
    assert stats.min_samples(q) == need
    with pytest.raises(stats.UnsupportedPercentile):
        stats.percentile(range(need - 1), q)
    value = stats.percentile(range(need), q)
    assert sum(v > value for v in range(need)) >= stats.MIN_TAIL


def test_percentile_interpolates_like_numpy():
    import numpy as np

    samples = [float(v * v % 37) for v in range(150)]
    for q in (0.5, 0.9):
        assert stats.percentile(samples, q) == pytest.approx(np.percentile(samples, 100 * q))


def test_volume_latency_reports_the_median_for_unsupported_percentiles():
    import workloads

    samples = [5.0, 1.0, 3.0, 2.0]
    assert workloads.VolumeWorkload.latency_ms(None, samples) == (2.5, 2.5)
    with pytest.raises(stats.UnsupportedPercentile):
        workloads.Workload.latency_ms(None, samples)


# -- self-time arithmetic --------------------------------------------------------


def span(layer, start, end, parent, pass_no=0):
    return [layer, f"{layer}.call", start, end, parent, pass_no]


def test_self_time_subtracts_children():
    spans = [
        span(tracing.ROOT, 0.0, 10.0, -1),  # 0
        span("pipeline", 0.5, 9.5, 0),  # 1
        span("adapt", 1.0, 4.0, 1),  # 2
        span("cache", 2.0, 2.5, 2),  # 3
        span("analytic", 5.0, 9.0, 1),  # 4
        span("cache", 6.0, 7.0, 4),  # 5
    ]
    assert tracing.self_times(spans) == pytest.approx([1.0, 2.0, 2.5, 0.5, 3.0, 1.0])
    busy, wall = tracing.busy_by_pass(spans)[0]
    assert wall == 10.0
    # Root self time is unattributed driver time, reported with pipeline.
    assert busy["pipeline"] == pytest.approx(3.0)
    assert busy["cache"] == pytest.approx(1.5)
    assert sum(busy.values()) == pytest.approx(wall)


def test_busy_is_kept_per_pass():
    spans = [span(tracing.ROOT, 0.0, 2.0, -1, 0), span("dino", 0.5, 1.5, 0, 0)]
    spans += [span(tracing.ROOT, 3.0, 4.0, -1, 1), span("io", 3.0, 3.25, 2, 1)]
    by_pass = tracing.busy_by_pass(spans)
    assert by_pass[0][1] == 2.0 and by_pass[0][0]["dino"] == 1.0
    assert by_pass[1][1] == 1.0 and by_pass[1][0]["io"] == 0.25


class Toy:
    def outer(self, n):
        return sum(self.inner(i) for i in range(n))

    def inner(self, i):
        return sum(range(1000 * (i + 1)))


def toy_hooks():
    return [tracing.Hook(Toy, "outer", "pipeline"), tracing.Hook(Toy, "inner", "analytic")]


def test_traced_layer_self_times_add_up_to_the_traced_wall():
    tracer = tracing.Tracer("toy")
    with tracing.installed(tracer, toy_hooks()):
        Toy().outer(2)  # untimed work between operations is not traced
        for pass_no in range(2):
            with tracer.root(pass_no):
                Toy().outer(5)
                Toy().inner(3)
    for busy, wall in tracing.busy_by_pass(tracer.spans).values():
        assert wall > 0
        assert sum(busy.values()) == pytest.approx(wall, rel=1e-9, abs=1e-12)
        assert busy["analytic"] > 0 and busy["pipeline"] > 0
    assert sum(1 for s in tracer.spans if s[0] == "analytic") == 12


# -- wrapper removal ---------------------------------------------------------------


def test_wrappers_are_removed_and_originals_run_untraced():
    originals = {(h.owner, h.attr): vars(h.owner)[h.attr] for h in tracing.layer_hooks()}
    tracer = tracing.Tracer("t")
    with tracing.installed(tracer):
        for (owner, attr), fn in originals.items():
            assert vars(owner)[attr] is not fn
            assert vars(owner)[attr].__wrapped__ is fn
    for (owner, attr), fn in originals.items():
        assert vars(owner)[attr] is fn


def test_wrappers_are_removed_when_the_pass_raises():
    original = vars(Toy)["inner"]
    tracer = tracing.Tracer("toy")
    with pytest.raises(ZeroDivisionError):
        with tracing.installed(tracer, toy_hooks()):
            1 / 0
    assert vars(Toy)["inner"] is original
    Toy().outer(3)
    assert tracer.spans == []


def test_untraced_pass_records_no_spans_and_traced_pass_reconciles(tmp_path):
    import workloads

    class Tiny(workloads.VolumeMeanbox):
        n_inputs = 1
        n_slices = 2
        size = (64, 64)
        iou_floor = 0.0

    workload = Tiny(seed=5, workdir=tmp_path)
    tracer = tracing.Tracer(workload.name)
    traced = workload.run_pass(0, 0, tracer)
    n_spans = len(tracer.spans)
    untraced = workload.run_pass(1, 0)
    assert len(tracer.spans) == n_spans  # nothing recorded without the wrappers
    assert not traced.failures and not untraced.failures  # also byte-identical masks
    busy, wall = tracing.busy_by_pass(tracer.spans)[0]
    assert wall == pytest.approx(traced.wall_s, rel=1e-3)
    assert sum(busy.values()) == pytest.approx(wall, rel=1e-9)
    spans = [s for s in tracer.spans if s[5] == 0]
    metrics = tracing.pass_metrics(spans, busy, wall, tracer.counters[0], traced.resident_bytes)
    assert metrics["adapt.calls"] == 4  # 2 slices x 2 volumes
    assert metrics["dino.calls"] >= 4
    assert metrics["io.tiles"] == 0 and metrics["platform.requests"] == 0


# -- the benchmark's declared metrics -------------------------------------------------


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
