"""The analytic grounding head: prompts → pixel masks without trained weights.

SAM's hypernetwork decoder needs web-scale pretraining to emit semantic
masks; offline, this head supplies the equivalent *function*: given a prompt
(box or points) it forms competing object hypotheses from seeded intensity
statistics and ranks them by SAM-style quality scores.

Hypotheses per prompt:

* ``bright`` — the locally-bright structure inside the prompt (seed = top
  intensity quantile; mask = intensity band around the seed's median);
* ``dark``   — the dark structure (bottom quantile), e.g. pores;
* ``region`` — the dominant two-class split (Otsu side containing the seed),
  i.e. "the whole thing the prompt sits on".

Quality terms per mask (each in [0, 1], exposed for calibration):

* ``stability``   — erode/dilate IoU (SAM's stability score);
* ``edge``        — boundary gradient strength relative to the image's;
* ``contrast``    — interior/exterior intensity separation;
* ``homogeneity`` — exp(-(interior std / scale)²), SAM's bias toward
  coherent single objects;
* ``area``        — mask area fraction (large salient regions win ties in
  unprompted mode, which is precisely how the black background captures
  SAM-only on FIB-SEM — the paper's reported failure).

``predicted_iou`` is the weighted sum with :data:`DEFAULT_SCORE_WEIGHTS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import binary_dilation, gaussian_filter, label, laplace, sobel

from ...core.boxes import clip_boxes, pad_box
from ...core.masks import clean_mask, component_containing, mask_boundary, stability_score
from ...errors import PromptError

__all__ = [
    "AnalyticContext",
    "MaskHypothesis",
    "WindowedHypotheses",
    "AnalyticMaskHead",
    "DEFAULT_SCORE_WEIGHTS",
]

DEFAULT_SCORE_WEIGHTS: dict[str, float] = {
    "stability": 0.25,
    "edge": 0.40,
    "contrast": 0.15,
    "homogeneity": 0.10,
    "area": 0.10,
}

#: Morphology constants of the box-prompt hypotheses and their scoring.
_RING_ITERATIONS = 3  # contrast ring: dilation of the mask minus the mask
_STABILITY_ITERATIONS = 2  # erode/dilate depth of ``stability_score``
_CLOSE_RADIUS = 1  # ``clean_mask`` closing of the box hypotheses

#: How far past the padded box a box hypothesis's computation can see.
#: Every pre-cleanup mask lies inside the padded box; closing grows it by at
#: most the close radius, and scoring dilates that by the ring or stability
#: depth.  One more pixel of zeros keeps each operation's border handling
#: off the window edge, so a window this much larger than the padded box
#: reproduces the full-frame computation exactly.
_BOX_REACH = _CLOSE_RADIUS + max(_RING_ITERATIONS, _STABILITY_ITERATIONS) + 1


@dataclass(frozen=True)
class AnalyticContext:
    """Per-image precomputation shared by every prompt on that image."""

    image: np.ndarray  # float32 [0,1]
    smooth: np.ndarray
    tophat: np.ndarray  # local-background-subtracted brightness
    grad_mag: np.ndarray
    grad_p95: float
    noise_sigma: float
    otsu_threshold: float


@dataclass(frozen=True)
class MaskHypothesis:
    """One candidate mask with its quality decomposition."""

    mask: np.ndarray
    kind: str
    score: float
    terms: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class WindowedHypotheses:
    """Box-prompt hypotheses computed on a window of the frame.

    ``hyps`` carry window-sized masks; :meth:`paste` returns full-frame
    copies.  Storing this instead of full-frame masks keeps a cached box
    decode O(box) in memory rather than O(frame).
    """

    window: tuple[int, int, int, int]  # (y0, y1, x0, x1) in frame pixels
    shape: tuple[int, int]  # frame (h, w)
    hyps: tuple[MaskHypothesis, ...]

    def paste(self) -> list[MaskHypothesis]:
        """Full-frame hypotheses in fresh arrays (callers may mutate them)."""
        y0, y1, x0, x1 = self.window
        out = []
        for hyp in self.hyps:
            mask = np.zeros(self.shape, dtype=bool)
            mask[y0:y1, x0:x1] = hyp.mask
            out.append(MaskHypothesis(mask=mask, kind=hyp.kind, score=hyp.score, terms=dict(hyp.terms)))
        return out


def _otsu_threshold_float(values: np.ndarray, n_bins: int = 128) -> float:
    """Otsu's threshold for float data in [0, 1] (shared with baselines)."""
    hist, edges = np.histogram(np.clip(values, 0.0, 1.0), bins=n_bins, range=(0.0, 1.0))
    p = hist.astype(np.float64)
    total = p.sum()
    if total == 0:
        return 0.5
    p /= total
    centers = (edges[:-1] + edges[1:]) / 2.0
    w0 = np.cumsum(p)
    m0 = np.cumsum(p * centers)
    mu = m0[-1]
    w1 = 1.0 - w0
    with np.errstate(divide="ignore", invalid="ignore"):
        between = (mu * w0 - m0) ** 2 / (w0 * w1)
    between = np.nan_to_num(between)
    best = between.max()
    plateau = np.nonzero(between >= best - 1e-12)[0]
    # Degenerate histograms create flat plateaus; the conventional choice is
    # the plateau midpoint (matches skimage/OpenCV behaviour).
    return float(centers[int(plateau[(len(plateau) - 1) // 2])])


class AnalyticMaskHead:
    """Prompt-conditioned mask hypotheses over intensity statistics."""

    def __init__(
        self,
        *,
        smooth_sigma: float = 1.0,
        band_k: float = 2.6,
        seed_quantile: float = 88.0,
        min_component_area: int = 12,
        score_weights: dict[str, float] | None = None,
    ) -> None:
        self.smooth_sigma = smooth_sigma
        self.band_k = band_k
        self.seed_quantile = seed_quantile
        self.min_component_area = min_component_area
        self.score_weights = dict(score_weights or DEFAULT_SCORE_WEIGHTS)

    # -- context ------------------------------------------------------------

    def prepare(self, image: np.ndarray) -> AnalyticContext:
        """Precompute smoothed image, gradients, noise level, global Otsu."""
        img = np.asarray(image, dtype=np.float32)
        if img.ndim != 2:
            raise PromptError(f"analytic head expects a 2-D float image, got shape {img.shape}")
        smooth = gaussian_filter(img, sigma=self.smooth_sigma, mode="reflect")
        tophat = smooth - gaussian_filter(smooth, sigma=10.0, mode="reflect")
        gy = sobel(smooth, axis=0, mode="reflect")
        gx = sobel(smooth, axis=1, mode="reflect")
        grad = np.hypot(gy, gx).astype(np.float32)
        resid = laplace(img, mode="reflect")
        noise = float(np.median(np.abs(resid))) / 0.6745 / np.sqrt(20.0)
        return AnalyticContext(
            image=img,
            smooth=smooth,
            tophat=tophat.astype(np.float32),
            grad_mag=grad,
            grad_p95=float(np.percentile(grad, 95)),
            noise_sigma=max(noise, 1e-4),
            otsu_threshold=_otsu_threshold_float(smooth),
        )

    def crop_context(self, ctx: AnalyticContext, window: tuple[int, int, int, int]) -> AnalyticContext:
        """Restrict a prepared context to a ``(y0, y1, x0, x1)`` window.

        Slices the precomputed per-pixel maps (views, no recompute).  The
        scalar statistics (gradient scale, noise level, global Otsu) are
        kept as-is: they describe the image, not the window, and reusing
        them keeps thresholds consistent between windowed and full-frame
        decodes of the same prompt.
        """
        y0, y1, x0, x1 = window
        sl = (slice(y0, y1), slice(x0, x1))
        return AnalyticContext(
            image=ctx.image[sl],
            smooth=ctx.smooth[sl],
            tophat=ctx.tophat[sl],
            grad_mag=ctx.grad_mag[sl],
            grad_p95=ctx.grad_p95,
            noise_sigma=ctx.noise_sigma,
            otsu_threshold=ctx.otsu_threshold,
        )

    # -- scoring --------------------------------------------------------------

    def score_mask(
        self, ctx: AnalyticContext, mask: np.ndarray, *, frame_area: int | None = None
    ) -> tuple[float, dict[str, float]]:
        """Quality terms + weighted predicted-IoU score for a mask.

        ``frame_area`` is the pixel count the ``area`` term divides by; it
        defaults to the mask's own size and must be the full frame's when
        ``ctx``/``mask`` are a window of it.
        """
        m = np.asarray(mask, dtype=bool)
        n = int(m.sum())
        if n == 0:
            return 0.0, {k: 0.0 for k in self.score_weights}
        boundary = mask_boundary(m)
        edge = 0.0
        if boundary.any() and ctx.grad_p95 > 1e-9:
            edge = float(np.clip(ctx.grad_mag[boundary].mean() / ctx.grad_p95, 0.0, 1.0))
        inside_mean = float(ctx.smooth[m].mean())
        ring = binary_dilation(m, iterations=_RING_ITERATIONS) & ~m
        contrast = 0.0
        if ring.any():
            contrast = float(np.clip(abs(inside_mean - float(ctx.smooth[ring].mean())) / 0.25, 0.0, 1.0))
        std_in = float(ctx.smooth[m].std())
        homogeneity = float(np.exp(-((std_in / 0.10) ** 2)))
        terms = {
            "stability": stability_score(m, iterations=_STABILITY_ITERATIONS),
            "edge": edge,
            "contrast": contrast,
            "homogeneity": homogeneity,
            "area": float(n / (m.size if frame_area is None else frame_area)),
        }
        score = float(sum(self.score_weights[k] * terms[k] for k in self.score_weights))
        return score, terms

    def _hypothesis(
        self, ctx: AnalyticContext, mask: np.ndarray, kind: str, *, frame_area: int | None = None
    ) -> MaskHypothesis:
        score, terms = self.score_mask(ctx, mask, frame_area=frame_area)
        return MaskHypothesis(mask=mask, kind=kind, score=score, terms=terms)

    # -- band masks -----------------------------------------------------------

    def _band_mask(
        self,
        ctx: AnalyticContext,
        seed: np.ndarray,
        *,
        within: np.ndarray | None = None,
        k: float | None = None,
    ) -> np.ndarray:
        """Intensity band around the seed's median, morphologically cleaned."""
        if not seed.any():
            return np.zeros_like(ctx.image, dtype=bool)
        vals = ctx.smooth[seed]
        m = float(np.median(vals))
        mad = float(np.median(np.abs(vals - m))) / 0.6745
        s = max(mad, ctx.noise_sigma, 0.01)
        kk = self.band_k if k is None else k
        band = np.abs(ctx.smooth - m) <= kk * s
        if within is not None:
            band &= within
        return clean_mask(band, open_radius=1, close_radius=_CLOSE_RADIUS, min_area=self.min_component_area)

    # -- prompts ----------------------------------------------------------------

    def masks_from_box(self, ctx: AnalyticContext, box: np.ndarray) -> list[MaskHypothesis]:
        """Bright / dark / region hypotheses for a box prompt, full-frame masks."""
        return self.box_hypotheses(ctx, box).paste()

    def box_hypotheses(self, ctx: AnalyticContext, box: np.ndarray) -> WindowedHypotheses:
        """Box-prompt hypotheses computed on the padded box plus the reach.

        Every mask, morphology step and score runs on
        :meth:`crop_context` of that window; only the ``area`` term is
        normalised by the frame.  Pasted back, the result equals a
        full-frame computation bit for bit (see ``_BOX_REACH``).
        """
        h, w = ctx.image.shape
        b = clip_boxes(box, (h, w))[0]
        padded = pad_box(b, margin=0.06 * max(b[2] - b[0], b[3] - b[1]) + 2, image_shape=(h, w))
        x0, y0, x1, y1 = (int(padded[0]), int(padded[1]), int(np.ceil(padded[2])), int(np.ceil(padded[3])))
        r = _BOX_REACH
        window = (max(y0 - r, 0), min(y1 + r, h), max(x0 - r, 0), min(x1 + r, w))
        wy, wx = window[0], window[2]
        wctx = self.crop_context(ctx, window)
        # From here on every coordinate is window-local.
        y0, y1, x0, x1 = y0 - wy, y1 - wy, x0 - wx, x1 - wx
        within = np.zeros(wctx.image.shape, dtype=bool)
        within[y0:y1, x0:x1] = True
        crop = wctx.smooth[y0:y1, x0:x1]

        def _hyp(mask: np.ndarray, kind: str) -> MaskHypothesis:
            return self._hypothesis(wctx, mask, kind, frame_area=h * w)

        hyps: list[MaskHypothesis] = []
        hi = np.percentile(crop, self.seed_quantile)
        lo = np.percentile(crop, 100.0 - self.seed_quantile)
        bright_seed = within & (wctx.smooth >= hi)
        dark_seed = within & (wctx.smooth <= lo)
        hyps.append(_hyp(self._band_mask(wctx, bright_seed, within=within), "bright"))
        hyps.append(_hyp(self._band_mask(wctx, dark_seed, within=within), "dark"))

        # Locally-bright structure: threshold the top-hat map inside the box.
        # Robust to the slow intensity drift / defocus that shifts absolute
        # values of thin structures (needle-like catalyst).
        th_crop = wctx.tophat[y0:y1, x0:x1]
        tau = max(0.45 * float(np.percentile(th_crop, 97)), 2.5 * wctx.noise_sigma)
        local = within & (wctx.tophat > tau)
        hyps.append(
            _hyp(
                clean_mask(local, open_radius=1, close_radius=_CLOSE_RADIUS, min_area=self.min_component_area),
                "local-bright",
            )
        )

        t = _otsu_threshold_float(crop)
        cy, cx = (y0 + y1) // 2, (x0 + x1) // 2
        side_hi = wctx.smooth >= t
        region = side_hi if side_hi[cy, cx] else ~side_hi
        region = region & within
        region = clean_mask(region, open_radius=1, close_radius=_CLOSE_RADIUS, min_area=self.min_component_area)
        hyps.append(_hyp(region, "region"))

        # Bright side of a (recursive) two-class split: when the box spans
        # the dark background the first Otsu cut separates background from
        # sample, so re-split the bright side until it is a minority class.
        # The half-maximum cut this converges to recovers blurred object
        # boundaries at their true position (symmetric point-spread).
        sel = crop >= t
        t_split = t
        for _ in range(2):
            if sel.mean() > 0.55 and sel.sum() > 100:
                t2 = _otsu_threshold_float(crop[sel])
                if t2 > t_split + 0.03:
                    t_split = t2
                    sel = crop >= t_split
                    continue
            break
        split = np.zeros(wctx.image.shape, dtype=bool)
        split[y0:y1, x0:x1] = sel
        split = clean_mask(split, open_radius=0, close_radius=0, min_area=self.min_component_area)
        hyps.append(_hyp(split, "bright-split"))
        return WindowedHypotheses(window=window, shape=(h, w), hyps=tuple(hyps))

    def masks_from_points(
        self,
        ctx: AnalyticContext,
        points: np.ndarray,
        labels: np.ndarray,
        *,
        score: bool = True,
    ) -> list[MaskHypothesis]:
        """Tight-band / loose-band / region hypotheses for point prompts.

        ``points`` are (x, y); positive points seed the object, negative
        points veto components containing them.  ``score=False`` skips the
        quality decomposition (scores come back 0.0) — for callers that
        rank the hypotheses themselves, e.g. propagation's IoU-vs-memory
        selection, where scoring is half the decode cost.
        """
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        labs = np.asarray(labels).reshape(-1)
        pos = pts[labs == 1]
        neg = pts[labs == 0]
        if len(pos) == 0:
            raise PromptError("point prompts need at least one positive point")
        h, w = ctx.image.shape
        seed = np.zeros((h, w), dtype=bool)
        yy, xx = np.mgrid[0:h, 0:w]
        for x, y in pos:
            seed |= (yy - y) ** 2 + (xx - x) ** 2 <= 3.0**2

        def _connected(mask: np.ndarray) -> np.ndarray:
            out = np.zeros_like(mask)
            if not mask.any():
                return out
            labelled, _ = label(mask)
            ids = set()
            for x, y in pos:
                iy, ix = int(round(y)), int(round(x))
                if 0 <= iy < h and 0 <= ix < w and labelled[iy, ix]:
                    ids.add(int(labelled[iy, ix]))
            if ids:
                out = np.isin(labelled, sorted(ids))
            return out

        def _veto(mask: np.ndarray) -> np.ndarray:
            if not len(neg) or not mask.any():
                return mask
            labelled, _ = label(mask)
            bad = set()
            for x, y in neg:
                iy, ix = int(round(y)), int(round(x))
                if 0 <= iy < h and 0 <= ix < w and labelled[iy, ix]:
                    bad.add(int(labelled[iy, ix]))
            if bad:
                mask = mask & ~np.isin(labelled, sorted(bad))
            return mask

        def _hyp(mask: np.ndarray, kind: str) -> MaskHypothesis:
            if score:
                return self._hypothesis(ctx, mask, kind)
            return MaskHypothesis(mask=mask, kind=kind, score=0.0)

        hyps = []
        tight = _veto(_connected(self._band_mask(ctx, seed, k=self.band_k * 0.75)))
        loose = _veto(_connected(self._band_mask(ctx, seed, k=self.band_k * 1.6)))
        hyps.append(_hyp(tight, "tight-band"))
        hyps.append(_hyp(loose, "loose-band"))

        side_hi = ctx.smooth >= ctx.otsu_threshold
        y0, x0 = int(round(pos[0][1])), int(round(pos[0][0]))
        y0 = min(max(y0, 0), h - 1)
        x0 = min(max(x0, 0), w - 1)
        region = side_hi if side_hi[y0, x0] else ~side_hi
        comp = component_containing(region, (y0, x0))
        region = comp if comp is not None else np.zeros_like(region)
        region = _veto(clean_mask(region, open_radius=1, close_radius=1, min_area=self.min_component_area))
        hyps.append(_hyp(region, "region"))
        return hyps
