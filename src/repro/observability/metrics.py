"""The central metrics registry: counters, gauges, fixed-bucket histograms.

One registry absorbs what used to live in three ad-hoc systems (cache
``CacheStats`` counters, resilience event counters, ``StageProfiler``
summaries — see :mod:`repro.observability.adapters`) and serves them in two
shapes: a JSON snapshot (run manifests, dashboards) and Prometheus text
exposition (the platform's ``GET /metrics`` endpoint).

Naming scheme: ``repro_<layer>_<name>`` with ``_total`` suffixed on
counters and ``_seconds``/``_bytes`` unit suffixes, per Prometheus
conventions; dimensions (stage, tier, namespace, method) are labels.

Like the tracer, this module imports nothing from the rest of the package
so every layer can feed it without cycles.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "reset_registry",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Default latency bucket upper bounds (seconds): sub-ms adaptation kernels
#: through multi-minute volume jobs.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)


def _label_key(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in labels)
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


class Counter:
    """A monotonically non-decreasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {n})")
        self.value += n

    def set_to(self, value: float) -> None:
        """Absorb a cumulative snapshot from an external counter source.

        Monotone: a stale (smaller) snapshot never rolls the value back, so
        interleaved absorbs from the same source cannot lose increments.
        """
        self.value = max(self.value, float(value))

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """A value that can go up and down (bytes resident, entries, ...)."""

    kind = "gauge"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Fixed-boundary histogram with exact bucket counts and a running sum.

    ``boundaries`` are inclusive upper bounds of the finite buckets; one
    overflow bucket catches everything beyond the last boundary.  Merging
    two histograms with identical boundaries is exact on bucket counts,
    observation counts and the observed ``min``/``max`` (floats only touch
    ``sum``).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        boundaries: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
        labels: tuple[tuple[str, str], ...] = (),
    ) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds or any(b1 <= b0 for b0, b1 in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram {name}: boundaries must be strictly increasing, got {bounds}")
        self.name = name
        self.labels = labels
        self.boundaries = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +1 overflow
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        idx = len(self.boundaries)
        for i, bound in enumerate(self.boundaries):
            if value <= bound:
                idx = i
                break
        self.bucket_counts[idx] += 1
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def merge(self, other: "Histogram") -> "Histogram":
        if other.boundaries != self.boundaries:
            raise ValueError(
                f"cannot merge histograms with different boundaries: "
                f"{self.boundaries} vs {other.boundaries}"
            )
        for i, n in enumerate(other.bucket_counts):
            self.bucket_counts[i] += n
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    def percentile(self, q: float) -> float:
        """Estimated q-quantile (q in [0, 1]) by linear in-bucket interpolation.

        The estimate lies within the bounds of the bucket holding the target
        rank and is clamped to the observed ``[min, max]``, so no reported
        percentile exceeds the largest value seen or undercuts the smallest.
        The overflow bucket has no upper edge to interpolate to: a quantile
        landing there reports the last finite boundary, which sits below the
        observed min only when every observation overflowed.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cum = 0
        lo = 0.0
        estimate = self.boundaries[-1]
        for i, n in enumerate(self.bucket_counts):
            hi = self.boundaries[i] if i < len(self.boundaries) else self.boundaries[-1]
            if n and cum + n >= target:
                frac = (target - cum) / n
                estimate = lo + (hi - lo) * min(max(frac, 0.0), 1.0)
                break
            cum += n
            if i < len(self.boundaries):
                lo = hi
        return min(max(estimate, min(self.min, self.boundaries[-1])), self.max)

    def snapshot(self) -> dict:
        return {
            "boundaries": list(self.boundaries),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class MetricsRegistry:
    """Thread-safe home for every metric in the process."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], object] = {}

    def _get_or_create(self, cls, name: str, labels: Mapping[str, str], **kwargs):
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, labels=key[1], **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {type(metric).__name__}, "
                    f"requested {cls.__name__}"
                )
            return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self, name: str, boundaries: Iterable[float] = DEFAULT_LATENCY_BUCKETS, **labels: str
    ) -> Histogram:
        return self._get_or_create(Histogram, name, labels, boundaries=boundaries)

    # -- views ----------------------------------------------------------------

    def metrics(self) -> list:
        with self._lock:
            return [self._metrics[k] for k in sorted(self._metrics)]

    def snapshot(self) -> dict:
        """JSON-safe snapshot: ``{kind: {"name{labels}": value-or-dict}}``."""
        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for metric in self.metrics():
            key = f"{metric.name}{_format_labels(metric.labels)}"
            out[metric.kind + "s"][key] = metric.snapshot()
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        seen_types: set[str] = set()
        for metric in self.metrics():
            if metric.name not in seen_types:
                lines.append(f"# TYPE {metric.name} {metric.kind}")
                seen_types.add(metric.name)
            if isinstance(metric, Histogram):
                cum = 0
                for i, bound in enumerate(metric.boundaries):
                    cum += metric.bucket_counts[i]
                    labels = _format_labels(metric.labels + (("le", repr(bound)),))
                    lines.append(f"{metric.name}_bucket{labels} {cum}")
                cum += metric.bucket_counts[-1]
                labels = _format_labels(metric.labels + (("le", "+Inf"),))
                lines.append(f"{metric.name}_bucket{labels} {cum}")
                plain = _format_labels(metric.labels)
                lines.append(f"{metric.name}_sum{plain} {metric.sum}")
                lines.append(f"{metric.name}_count{plain} {metric.count}")
            else:
                value = metric.snapshot()
                text = repr(int(value)) if float(value).is_integer() else repr(value)
                lines.append(f"{metric.name}{_format_labels(metric.labels)} {text}")
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()


#: The process-global registry every layer feeds by default.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _REGISTRY


def reset_registry() -> None:
    """Clear the global registry (tests)."""
    _REGISTRY.reset()
