"""Span tracing from outside the program: wrap each layer's public calls.

Nothing under ``src/`` knows about this module.  :func:`installed` swaps
the public functions listed in :func:`layer_hooks` for thin wrappers that
record a span (layer, name, start, end, parent) and count the work the
call did, and puts the originals back when the block exits, so untraced
passes run the program's own functions.

A layer's self time (``busy_s``) is its spans' durations minus the part
covered by child spans.  Every timed operation of a pass is a root span,
and root self time is folded into the ``pipeline`` layer as unattributed
driver time, so layer self times add up to the traced wall exactly.
Calls made outside a timed operation (untimed set-up between operations)
are not traced.  All workloads call the program on one thread.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = "(root)"
MIB = float(1 << 20)

# Layer names, in report order.  "pipeline" also absorbs root self time.
LAYERS = (
    "adapt",
    "dino",
    "sam_encoder",
    "sam_decoder",
    "analytic",
    "temporal",
    "propagation",
    "io",
    "checkpoint",
    "cache",
    "platform",
    "pipeline",
)


@dataclass(frozen=True)
class Hook:
    """One wrapped callable: ``owner.attr`` timed as ``layer``.

    ``layer=None`` counts without opening a span.  ``observe(tracer, args,
    kwargs, result)`` runs after the span closes, so its cost is not the
    layer's.
    """

    owner: Any
    attr: str
    layer: str | None
    observe: Callable[["Tracer", tuple, dict, Any], None] | None = None

    @property
    def name(self) -> str:
        return f"{getattr(self.owner, '__name__', self.owner)}.{self.attr}"


def _count_boxes(tracer, args, kwargs, det):
    tracer.count("dino.boxes", det.n_boxes)


def _count_cache_get(tracer, args, kwargs, value):
    from repro.cache import MISS

    namespace, hit = args[1], value is not MISS
    tracer.count("cache.gets")
    tracer.count("cache.hits", hit)
    tracer.count(f"cache.ns.{namespace}.gets")
    tracer.count(f"cache.ns.{namespace}.hits", hit)


def _count_kept(tracer, args, kwargs, result):
    detection = args[2]
    boxes = args[3] if len(args) > 3 else kwargs.get("boxes")
    if boxes is None:
        boxes = detection.boxes
    tracer.count("analytic.box_prompts", len(boxes))
    tracer.count("analytic.kept", len(result[1]))


def _count_step(tracer, args, kwargs, result):
    tracer.count("propagation.keyframes", bool(result[1].get("grounded", False)))


def _count_tile(tracer, args, kwargs, tile):
    tracer.count("io.bytes", tile.nbytes)


def _count_slice_write(tracer, args, kwargs, _result):
    ckpt, z = args[0], args[1]
    tracer.count("checkpoint.bytes", ckpt.shard_path(z).stat().st_size)
    tracer.count("checkpoint.bytes", ckpt.manifest_path.stat().st_size)


def _count_state_write(tracer, args, kwargs, _result):
    ckpt, name = args[0], args[1]
    tracer.count("checkpoint.bytes", ckpt.state_path(name).stat().st_size)


def _count_response(tracer, args, kwargs, response):
    tracer.count("platform.degraded", bool(response.get("degraded")))


def layer_hooks() -> list[Hook]:
    """The public calls timed per layer (the ISSUE's layer table)."""
    from repro.cache import InferenceCache
    from repro.core import pipeline as pipeline_module
    from repro.core.pipeline import ZenesisPipeline
    from repro.core.propagation import PropagationEngine
    from repro.io.integrity import TileStream
    from repro.io.lazy import LazyVolume
    from repro.models.dino import GroundingDino
    from repro.models.sam.analytic import AnalyticMaskHead
    from repro.models.sam.model import SamPredictor
    from repro.platform.api import ApiHandler
    from repro.resilience.checkpoint import CheckpointManager

    return [
        Hook(ZenesisPipeline, "adapt", "adapt"),
        Hook(GroundingDino, "ground", "dino", _count_boxes),
        Hook(SamPredictor, "set_image", "sam_encoder"),
        Hook(SamPredictor, "precompute_images", "sam_encoder"),
        Hook(SamPredictor, "decode_boxes", "sam_decoder"),
        Hook(SamPredictor, "masks_from_box", "analytic"),
        Hook(AnalyticMaskHead, "masks_from_points", "analytic"),
        Hook(ZenesisPipeline, "segment_with_boxes", None, _count_kept),
        # The pipeline calls the name it imported, so patch that binding.
        Hook(pipeline_module, "refine_box_sequences", "temporal"),
        Hook(PropagationEngine, "step", "propagation", _count_step),
        Hook(LazyVolume, "read_tile", "io", _count_tile),
        Hook(LazyVolume, "tile_bytes", "io"),
        Hook(TileStream, "fetch", "io"),
        Hook(CheckpointManager, "save_slice", "checkpoint", _count_slice_write),
        Hook(CheckpointManager, "save_state", "checkpoint", _count_state_write),
        Hook(InferenceCache, "get", "cache", _count_cache_get),
        Hook(InferenceCache, "put", "cache"),
        Hook(ApiHandler, "handle", "platform", _count_response),
        Hook(ZenesisPipeline, "segment_volume", "pipeline"),
        Hook(ZenesisPipeline, "segment_volume_stream", "pipeline"),
    ]


class Tracer:
    """In-memory span store; one per benchmark run.

    Spans are ``[layer, name, start, end, parent, pass_no]`` lists; the
    parent is an index into :attr:`spans` (-1 for a root).  Counters are
    kept per pass.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[list] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.pass_no = -1
        self._local = threading.local()

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str, name: str) -> int:
        stack = self._stack()
        idx = len(self.spans)
        self.spans.append([layer, name, time.perf_counter(), None, stack[-1] if stack else -1, self.pass_no])
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack().pop()

    def count(self, key: str, value: float = 1) -> None:
        self.counters[self.pass_no][key] += value

    def wrap(self, hook: Hook, fn: Callable) -> Callable:
        layer, name, observe = hook.layer, hook.name, hook.observe

        def traced(*args, **kwargs):
            if not self._stack():
                return fn(*args, **kwargs)  # outside a timed operation: not traced
            if layer is None:
                result = fn(*args, **kwargs)
            else:
                idx = self._open(layer, name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(idx)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def root(self, pass_no: int):
        """One timed operation of pass ``pass_no``: a root span."""
        self.pass_no = pass_no
        idx = self._open(ROOT, "op")
        try:
            yield
        finally:
            self._close(idx)

    # -- output -------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (name, start, end, parent, ...)."""
        with path.open("w") as fh:
            for layer, name, start, end, parent, pass_no in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "layer": layer,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "workload": self.workload,
                            "pass": pass_no,
                        }
                    )
                    + "\n"
                )


@contextlib.contextmanager
def installed(tracer: Tracer, hooks: list[Hook] | None = None):
    """Wrap every hook for the duration of the block, then restore."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for hook in hooks if hooks is not None else layer_hooks():
            original = vars(hook.owner)[hook.attr]  # must be defined there, not inherited
            saved.append((hook.owner, hook.attr, original))
            setattr(hook.owner, hook.attr, tracer.wrap(hook, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- analysis ---------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Per-span self time: duration minus the durations of direct children.

    Children of one span run one after another on the parent's thread, so
    their durations do not overlap and subtract exactly.
    """
    own = [end - start for _layer, _name, start, end, _parent, _pass in spans]
    for _layer, _name, start, end, parent, _pass in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def busy_by_pass(spans: list[list]) -> dict[int, tuple[dict[str, float], float]]:
    """``{pass: (self seconds per layer, traced wall)}``.

    The traced wall of a pass is the summed duration of its root spans;
    root self time is unattributed driver time and goes to ``pipeline``.
    """
    out: dict[int, tuple[dict[str, float], list[float]]] = {}
    for span, own in zip(spans, self_times(spans)):
        layer, pass_no = span[0], span[5]
        busy, wall = out.setdefault(pass_no, (dict.fromkeys(LAYERS, 0.0), [0.0]))
        if layer == ROOT:
            wall[0] += span[3] - span[2]
            layer = "pipeline"
        busy[layer] += own
    return {p: (busy, wall[0]) for p, (busy, wall) in out.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(
    spans: list[list],
    busy: dict[str, float],
    wall: float,
    counters: dict[str, float],
    resident_bytes: int,
) -> dict[str, float]:
    """The per-layer metrics of one traced pass (``spans`` of that pass only)."""
    calls: dict[str, int] = defaultdict(int)
    for layer, name, *_ in spans:
        calls[layer] += 1
        calls[name] += 1
    c = defaultdict(float, counters)
    metrics = {
        "adapt.calls": calls["adapt"],
        "adapt.hit_ratio": _ratio(c["cache.ns.pipeline.adapt.hits"], c["cache.ns.pipeline.adapt.gets"]),
        "dino.calls": calls["dino"],
        "dino.boxes_per_call": _ratio(c["dino.boxes"], calls["dino"]),
        "sam_encoder.calls": calls["sam_encoder"],
        "analytic.calls": calls["analytic"],
        "analytic.kept_ratio": _ratio(c["analytic.kept"], c["analytic.box_prompts"]),
        "propagation.steps": calls["propagation"],
        "propagation.keyframe_ratio": _ratio(c["propagation.keyframes"], calls["propagation"]),
        "io.tiles": calls["LazyVolume.read_tile"],
        "io.mb_read": c["io.bytes"] / MIB,
        "checkpoint.writes": calls["checkpoint"],
        "checkpoint.mb_written": c["checkpoint.bytes"] / MIB,
        "cache.hit_ratio": _ratio(c["cache.hits"], c["cache.gets"]),
        "cache.resident_mb": resident_bytes / MIB,
        "platform.requests": calls["platform"],
        "platform.degraded_ratio": _ratio(c["platform.degraded"], calls["platform"]),
        "pipeline.self_share": _ratio(busy["pipeline"], wall),
    }
    for layer in LAYERS:
        metrics[f"{layer}.busy_s"] = busy[layer]
    return metrics


def analytic_call_ms(spans: list[list]) -> list[float]:
    """Inclusive durations of analytic-head calls, in milliseconds."""
    return [(end - start) * 1e3 for layer, _n, start, end, *_ in spans if layer == "analytic"]
