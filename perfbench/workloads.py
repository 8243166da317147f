"""The three workloads: seeded inputs, one timed pass, correctness checks.

Each workload builds its inputs from the run's seed alone, then runs
passes.  A pass is timed per operation (one ``segment_volume`` /
``segment_volume_stream`` call, or one API request); everything between
operations — hashing masks, IoU, loading checkpoint shards — is outside
the clock.  A pass can run traced: every operation is then a root span of
the :class:`tracer.Tracer`, with the layer wrappers installed around it.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import io
import shutil
import statistics
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage

import speed
import stats
import tracer as tracing
from repro.cache import get_cache, reset_cache
from repro.core.masks import rle_decode
from repro.core.pipeline import ZenesisConfig, ZenesisPipeline
from repro.data.synthesis.fibsem import synthesize_fibsem_volume
from repro.io import open_lazy_volume, write_sidecar, write_tiff
from repro.platform.api import ApiHandler

PROMPT = "catalyst particles"
KINDS = ("crystalline", "amorphous")
SIZE = (256, 256)


def derived_seed(seed: int, *parts: int) -> int:
    """An independent generator seed for one input of the run."""
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1)[0])


def overlap(mask: np.ndarray, truth: np.ndarray) -> tuple[int, int]:
    """(intersection, union) pixel counts; IoU is their ratio."""
    return int(np.logical_and(mask, truth).sum()), int(np.logical_or(mask, truth).sum())


def ratio(inter: int, union: int) -> float:
    return inter / union if union else 1.0


def digest(mask: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(mask).tobytes()).hexdigest()


@dataclass
class PassResult:
    """What one pass did and how long its operations took.

    ``op_ms`` are wall times; ``scaled_ms`` the same operations at the
    reference machine speed (see :mod:`speed`), which the metrics use.
    """

    pass_no: int
    traced: bool
    units: int = 0  # slices segmented, or slices visited (interactive)
    op_ms: list[float] = field(default_factory=list)
    scaled_ms: list[float] = field(default_factory=list)
    failures: dict[int, list[str]] = field(default_factory=dict)  # op index -> messages
    resident_bytes: int = 0
    max_threads: int = 0  # Python threads alive, sampled after each operation

    @property
    def wall_s(self) -> float:
        return sum(self.op_ms) / 1e3

    @property
    def scaled_s(self) -> float:
        return sum(self.scaled_ms) / 1e3


class Workload:
    """Shared pass bookkeeping; subclasses implement :meth:`_run`.

    ``content`` selects a pass's input: ``-1`` is the warm-up input,
    ``0 .. n_inputs - 1`` the measured ones.
    """

    name = ""
    #: Distinct measured inputs; a run makes at least this many passes.
    n_inputs = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.ious: dict[str, float] = {}  # input id -> IoU, first computation
        self._digests: dict[str, str] = {}
        self._tracer: tracing.Tracer | None = None
        self._result: PassResult | None = None
        self._kernel = speed.ReferenceKernel()
        self._kernel_s: float | None = None  # the latest kernel time

    # -- timing -------------------------------------------------------------

    @contextlib.contextmanager
    def op(self):
        """Time one operation; a root span when the pass is traced.

        The reference kernel runs outside the clock and the span, before and
        after the operation (one run serves as after and next before).
        """
        result = self._result
        before = self._kernel_s if self._kernel_s is not None else self._kernel()
        scope = self._tracer.root(result.pass_no) if self._tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with scope:
                yield
        finally:
            wall_s = time.perf_counter() - start
            self._kernel_s = self._kernel()
            result.op_ms.append(wall_s * 1e3)
            result.scaled_ms.append(speed.scaled(wall_s, before, self._kernel_s) * 1e3)
            memory = get_cache().stats.tier("memory").bytes_used
            result.resident_bytes = max(result.resident_bytes, memory)
            result.max_threads = max(result.max_threads, threading.active_count())

    def run_pass(
        self, pass_no: int, content: int, tracer: tracing.Tracer | None = None, *, cold: bool = False
    ) -> PassResult:
        """Run one pass over input ``content``; ``cold`` forces a cold cache."""
        self._result = PassResult(pass_no=pass_no, traced=tracer is not None)
        self._tracer = tracer
        try:
            if tracer is None:
                self._run(content, cold)
            else:
                with tracing.installed(tracer):
                    self._run(content, cold)
        finally:
            self._tracer = None
        return self._result

    def _run(self, content: int, cold: bool) -> None:
        raise NotImplementedError

    # -- checks ---------------------------------------------------------------

    def fail(self, message: str) -> None:
        """Mark the pass's latest operation failed."""
        self._result.failures.setdefault(len(self._result.op_ms) - 1, []).append(message)

    def fail_exception(self, what: str) -> None:
        """Record an operation that raised (the traceback's last lines)."""
        lines = traceback.format_exc().strip().splitlines()
        self.fail(f"{what} raised: " + " | ".join(lines[-3:]))

    def check_repeat(self, key: str, mask: np.ndarray) -> None:
        """Masks of one input must be byte-identical across cold passes."""
        d = digest(mask)
        first = self._digests.setdefault(key, d)
        if d != first:
            self.fail(f"{key}: mask differs from an earlier cold pass")

    def record_iou(self, key: str, value: float, floor: float) -> None:
        self.ious.setdefault(key, value)
        if not value >= floor:
            self.fail(f"{key}: IoU {value:.3f} below the floor {floor}")

    def finish(self, traced: bool) -> tuple[int, list[str]]:
        """Checks made once after the passes: (operations, failures)."""
        return 0, []

    def latency_ms(self, samples: list[float]) -> tuple[float, float]:
        """(request_ms_p50, request_ms_p90) over the run's operations."""
        return stats.percentile(samples, 0.5), stats.percentile(samples, 0.9)

    def iou_summary(self) -> tuple[float, float]:
        """(iou, iou_min): mean and worst IoU over the run's inputs."""
        values = list(self.ious.values())
        return statistics.fmean(values), min(values)


# ---------------------------------------------------------------------------
# Mode B: whole volumes
# ---------------------------------------------------------------------------


class VolumeWorkload(Workload):
    """Crystalline + amorphous volume pairs; a pass segments ``pairs_per_pass``.

    Propagation quality and cost vary a lot from scene to scene, so a run
    covers many short volumes: every measured input once, at least.
    """

    n_inputs = 4
    pairs_per_pass = 1
    n_slices = 3
    size = SIZE
    iou_floor = 0.0

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.overlaps: dict[str, tuple[int, int]] = {}  # volume -> (intersection, union)
        self.passes = [
            [
                (
                    f"{kind}-{i}",
                    synthesize_fibsem_volume(
                        catalyst=kind, n_slices=self.n_slices, shape=self.size, seed=derived_seed(seed, i, k)
                    ),
                )
                for i in range(p * self.pairs_per_pass, (p + 1) * self.pairs_per_pass)
                for k, kind in enumerate(KINDS)
            ]
            for p in range(self.n_inputs)
        ]

    def _run(self, content: int, cold: bool) -> None:
        # Every pass is cold: a new global cache, and a pipeline bound to it.
        # The warm-up segments the first volume of input 0, which pass 0
        # segments again: its masks must come out byte-identical.
        reset_cache()
        pipeline = ZenesisPipeline(ZenesisConfig())
        for key, sample in self.passes[0][:1] if content < 0 else self.passes[content]:
            try:
                masks = self.segment(pipeline, key, sample)
            except Exception:
                self.fail_exception(key)
                continue
            expected = sample.catalyst_mask.shape
            if masks.shape != expected or masks.dtype != np.bool_:
                self.fail(f"{key}: masks {masks.dtype}{masks.shape}, expected bool{expected}")
                continue
            self._result.units += masks.shape[0]
            self.check_repeat(key, masks)
            counts = self.overlaps.setdefault(key, overlap(masks, sample.catalyst_mask))
            self.record_iou(key, ratio(*counts), self.iou_floor)

    def segment(self, pipeline: ZenesisPipeline, key: str, sample) -> np.ndarray:
        raise NotImplementedError

    def iou_summary(self) -> tuple[float, float]:
        """(mean per-volume IoU, IoU of the worse catalyst kind).

        The worse kind's IoU pools its volumes (summed intersections over
        summed unions): the single worst volume of a propagate run swings
        from 0.18 to 0.38 across seeds; a kind pooled over 8 volumes is steadier.
        """
        pooled = []
        for kind in KINDS:
            parts = [v for k, v in self.overlaps.items() if k.startswith(f"{kind}-")]
            pooled.append(ratio(sum(i for i, _ in parts), sum(u for _, u in parts)))
        return statistics.fmean(self.ious.values()), min(pooled)

    def latency_ms(self, samples: list[float]) -> tuple[float, float]:
        """A run segments too few volumes to support p90 (or, mostly, p50).

        Both keys then carry the median per-call latency; ``detail.latency``
        says which statistic was reported.
        """
        try:
            p50 = stats.percentile(samples, 0.5)
        except stats.UnsupportedPercentile:
            p50 = statistics.median(samples)
        return p50, p50


class VolumeMeanbox(VolumeWorkload):
    """Mode B default: eager meanbox over in-memory volumes."""

    name = "volume_meanbox"
    iou_floor = 0.4

    def segment(self, pipeline, key, sample):
        with self.op():
            result = pipeline.segment_volume(sample.volume, PROMPT, temporal_mode="meanbox")
        return result.masks


class VolumePropagateStream(VolumeWorkload):
    """Mode B out of core: TIFF + sidecar streamed through propagation."""

    name = "volume_propagate_stream"
    pairs_per_pass = 2
    iou_floor = 0.1

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.paths: dict[str, Path] = {}
        for volumes in self.passes:
            for key, sample in volumes:
                path = workdir / f"{key}.tif"
                write_tiff(path, sample.volume.voxels)
                with open_lazy_volume(path) as volume:
                    write_sidecar(volume)
                self.paths[key] = path
        self.streamed: dict[str, np.ndarray] = {}

    def segment(self, pipeline, key, sample):
        ckpt = self.workdir / f"ckpt-{key}"
        shutil.rmtree(ckpt, ignore_errors=True)
        try:
            with self.op():
                result = pipeline.segment_volume_stream(
                    self.paths[key], PROMPT, temporal_mode="propagate", checkpoint_dir=ckpt
                )
            if result.degraded:
                self.fail(f"{key}: degraded slices {result.degraded}")
            masks = np.stack(
                [np.load(ckpt / f"slice_{z:05d}.npy", allow_pickle=False) for z in range(result.n_slices)]
            )
        finally:
            shutil.rmtree(ckpt, ignore_errors=True)
        if self._result.traced:
            self.streamed[key] = masks
        return masks

    def finish(self, traced: bool) -> tuple[int, list[str]]:
        """Traced runs: streamed masks must equal eager propagate masks."""
        if not traced:
            return 0, []
        failures = []
        samples = {key: sample for volumes in self.passes for key, sample in volumes}
        for key, streamed in sorted(self.streamed.items()):
            reset_cache()
            eager = ZenesisPipeline(ZenesisConfig()).segment_volume(
                samples[key].volume, PROMPT, temporal_mode="propagate"
            )
            if not np.array_equal(eager.masks, streamed):
                failures.append(f"{key}: streamed propagate masks differ from eager")
        return len(self.streamed), failures


# ---------------------------------------------------------------------------
# Mode A: one interactive client
# ---------------------------------------------------------------------------


class InteractiveSession(Workload):
    """One closed-loop client driving ``ApiHandler.handle`` in-process.

    A pass visits one slice with a fixed script of 8 requests.  The run
    visits ``n_inputs`` distinct slices (104 requests, enough for p90)
    after a discarded warm-up visit to the volume's last slice.  The loaded
    volume stacks two middle slices from each of several independent
    crystalline acquisitions, so one run averages over several scenes.
    """

    name = "interactive_session"
    n_inputs = 13
    n_scenes = 7  # 7 scenes x 2 slices = 13 measured visits + the warm-up slice
    scene_slices = 8
    iou_floor = 0.25
    second_prompt = "crystalline needles"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        middle = slice(self.scene_slices // 2 - 1, self.scene_slices // 2 + 1)
        scenes = [
            synthesize_fibsem_volume(
                catalyst="crystalline", n_slices=self.scene_slices, shape=SIZE, seed=derived_seed(seed, i)
            )
            for i in range(self.n_scenes)
        ]
        self.voxels = np.concatenate([s.volume.voxels[middle] for s in scenes])
        self.truth = np.concatenate([s.catalyst_mask[middle] for s in scenes])
        buf = io.BytesIO()
        np.save(buf, self.voxels)
        self.upload = base64.b64encode(buf.getvalue()).decode("ascii")
        self.handler: ApiHandler | None = None
        self.session_id = ""

    def _open_session(self) -> None:
        """A fresh handler and session over a cold cache (not timed)."""
        reset_cache()
        self.handler = ApiHandler()
        created = self.handler.handle({"action": "create_session"})
        self.session_id = created["session_id"]
        loaded = self.handler.handle(
            {"action": "load_array", "session_id": self.session_id, "data_base64": self.upload}
        )
        if not (created.get("ok") and loaded.get("ok")):
            raise RuntimeError(f"interactive session set-up failed: {created} {loaded}")

    def request(self, action: str, **params) -> dict | None:
        with self.op():
            response = self.handler.handle({"action": action, "session_id": self.session_id, **params})
        if not response.get("ok"):
            self.fail(f"{action}: {response.get('type')}: {response.get('error')}")
            return None
        if response.get("degraded"):
            self.fail(f"{action}: degraded {response.get('degraded_stages')}")
            return None
        return response

    def _run(self, content: int, cold: bool) -> None:
        # One session serves a whole round of visits; the warm-up visits the
        # last slice, which no measured pass visits again.
        z = self.n_inputs if content < 0 else content
        if cold or content <= 0:
            self._open_session()
        try:
            self.visit(z)
        except Exception:
            self.fail_exception(f"slice-{z} visit")
        self._result.units += 1

    def visit(self, z: int) -> None:
        truth = self.truth[z]
        key = f"slice-{z}"
        self.request("select_slice", index=z)
        first = self.request("segment", prompt=PROMPT)
        self.request("segment", prompt=self.second_prompt)
        repeat = self.request("segment", prompt=PROMPT)
        first_mask = rle_decode(first["result"]["mask_rle"]) if first else None
        if first_mask is not None:
            self.record_iou(key, ratio(*overlap(first_mask, truth)), self.iou_floor)
            if repeat and not np.array_equal(rle_decode(repeat["result"]["mask_rle"]), first_mask):
                self.fail(f"{key}: repeated prompt returned a different mask")
        box = particle_box(truth)
        hinted = self.request("segment", prompt=PROMPT, boxes=[box])
        current = rle_decode(hinted["result"]["mask_rle"]) if hinted else first_mask
        x, y = missed_point(truth, current)
        self.request("rectify", x=x, y=y)
        self.request("further_segment", box=grow_box(box, 2.0, truth.shape), prompt=PROMPT)
        self.request("mask_png")


def particle_box(truth: np.ndarray) -> list[float]:
    """The box a user draws around the slice's largest particle."""
    labels, n = ndimage.label(truth)
    if n == 0:
        h, w = truth.shape
        return [w / 4, h / 2, 3 * w / 4, 3 * h / 4]
    sizes = ndimage.sum_labels(truth, labels, index=np.arange(1, n + 1))
    ys, xs = np.nonzero(labels == 1 + int(np.argmax(sizes)))
    return [float(xs.min()), float(ys.min()), float(xs.max() + 1), float(ys.max() + 1)]


def grow_box(box: list[float], factor: float, shape: tuple[int, int]) -> list[float]:
    """``box`` scaled about its centre (at least 48 px a side), clipped."""
    h, w = shape
    cx, cy = (box[0] + box[2]) / 2, (box[1] + box[3]) / 2
    half_w = max((box[2] - box[0]) * factor, 48.0) / 2
    half_h = max((box[3] - box[1]) * factor, 48.0) / 2
    return [max(cx - half_w, 0.0), max(cy - half_h, 0.0), min(cx + half_w, w), min(cy + half_h, h)]


def missed_point(truth: np.ndarray, mask: np.ndarray | None) -> tuple[float, float]:
    """Where a user clicks to rectify: inside the largest missed particle."""
    missed = truth & ~mask if mask is not None else truth
    if not missed.any():
        missed = truth if truth.any() else np.ones_like(truth)
    labels, n = ndimage.label(missed)
    sizes = ndimage.sum_labels(missed, labels, index=np.arange(1, n + 1))
    region = labels == 1 + int(np.argmax(sizes))
    ys, xs = np.nonzero(region)
    # The region pixel nearest its centroid (the centroid may lie outside).
    i = int(np.argmin((ys - ys.mean()) ** 2 + (xs - xs.mean()) ** 2))
    return float(xs[i]), float(ys[i])


WORKLOADS = {w.name: w for w in (VolumeMeanbox, VolumePropagateStream, InteractiveSession)}
