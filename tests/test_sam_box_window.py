"""Window-local box decode: bit-identity with the full-frame decode, cache footprint."""

import numpy as np
import pytest

from repro.cache import InferenceCache, array_content_key, combine_keys, nbytes_of
from repro.core.boxes import clip_boxes, pad_box
from repro.core.masks import clean_mask
from repro.data.synthesis.fibsem import synthesize_fibsem_volume
from repro.models.sam.analytic import AnalyticMaskHead, MaskHypothesis, _otsu_threshold_float
from repro.models.sam.model import SamPredictor


def _full_frame_masks_from_box(head, ctx, box):
    """The historical full-frame box decode, kept as the bit-identity oracle.

    Every mask, morphology step and score runs over the whole frame; only
    the threshold percentiles look at the padded box.
    """
    h, w = ctx.image.shape
    b = clip_boxes(box, (h, w))[0]
    padded = pad_box(b, margin=0.06 * max(b[2] - b[0], b[3] - b[1]) + 2, image_shape=(h, w))
    x0, y0, x1, y1 = (int(padded[0]), int(padded[1]), int(np.ceil(padded[2])), int(np.ceil(padded[3])))
    within = np.zeros((h, w), dtype=bool)
    within[y0:y1, x0:x1] = True
    crop = ctx.smooth[y0:y1, x0:x1]

    def _hyp(mask, kind):
        score, terms = head.score_mask(ctx, mask)
        return MaskHypothesis(mask=mask, kind=kind, score=score, terms=terms)

    hyps = []
    hi = np.percentile(crop, head.seed_quantile)
    lo = np.percentile(crop, 100.0 - head.seed_quantile)
    bright_seed = within & (ctx.smooth >= hi)
    dark_seed = within & (ctx.smooth <= lo)
    hyps.append(_hyp(head._band_mask(ctx, bright_seed, within=within), "bright"))
    hyps.append(_hyp(head._band_mask(ctx, dark_seed, within=within), "dark"))

    th_crop = ctx.tophat[y0:y1, x0:x1]
    tau = max(0.45 * float(np.percentile(th_crop, 97)), 2.5 * ctx.noise_sigma)
    local = within & (ctx.tophat > tau)
    hyps.append(
        _hyp(clean_mask(local, open_radius=1, close_radius=1, min_area=head.min_component_area), "local-bright")
    )

    t = _otsu_threshold_float(crop)
    cy, cx = (y0 + y1) // 2, (x0 + x1) // 2
    side_hi = ctx.smooth >= t
    region = side_hi if side_hi[cy, cx] else ~side_hi
    region = region & within
    region = clean_mask(region, open_radius=1, close_radius=1, min_area=head.min_component_area)
    hyps.append(_hyp(region, "region"))

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
    split = np.zeros((h, w), dtype=bool)
    split[y0:y1, x0:x1] = sel
    split = clean_mask(split, open_radius=0, close_radius=0, min_area=head.min_component_area)
    hyps.append(_hyp(split, "bright-split"))
    return hyps


SIZE = 96


def _boxes(n=SIZE):
    """(x0, y0, x1, y1) boxes: interior, each edge, each corner, tiny, whole frame."""
    e = n - 1
    return {
        "interior": [30, 34, 62, 58],
        "left": [0, 30, 20, 60],
        "right": [n - 22, 30, e, 60],
        "top": [30, 0, 60, 18],
        "bottom": [30, n - 18, 60, e],
        "top-left": [0, 0, 24, 24],
        "top-right": [n - 24, 0, e, 24],
        "bottom-left": [0, n - 24, 24, e],
        "bottom-right": [n - 24, n - 24, e, e],
        "tiny": [47, 47, 52, 53],
        "tiny-corner": [0, 0, 4, 6],
        "whole": [0, 0, e, e],
        "outside": [-10, -12, n + 8, n + 9],
    }


@pytest.fixture(scope="module")
def head():
    return AnalyticMaskHead()


@pytest.fixture(scope="module", params=["crystalline", "amorphous"])
def contexts(request, head):
    sample = synthesize_fibsem_volume(catalyst=request.param, shape=(SIZE, SIZE), n_slices=2, seed=11)
    return [head.prepare(np.asarray(sample.clean[z], dtype=np.float32)) for z in range(2)]


def _assert_identical(got, want):
    assert [h.kind for h in got] == [h.kind for h in want]
    for g, r in zip(got, want):
        assert g.mask.dtype == r.mask.dtype and g.mask.shape == r.mask.shape
        assert np.array_equal(g.mask, r.mask), g.kind
        assert g.score == r.score, g.kind
        assert g.terms == r.terms, g.kind


class TestBitIdentity:
    @pytest.mark.parametrize("name", sorted(_boxes()))
    def test_matches_full_frame_decode(self, head, contexts, name):
        box = np.array(_boxes()[name], dtype=np.float64)
        for ctx in contexts:
            _assert_identical(head.masks_from_box(ctx, box), _full_frame_masks_from_box(head, ctx, box))

    def test_random_boxes(self, head, contexts, rng):
        for ctx in contexts:
            for _ in range(8):
                x0, y0 = rng.uniform(-4, SIZE - 4, 2)
                bw, bh = rng.uniform(1, SIZE / 2, 2)
                box = np.array([x0, y0, x0 + bw, y0 + bh])
                _assert_identical(head.masks_from_box(ctx, box), _full_frame_masks_from_box(head, ctx, box))

    def test_window_is_clamped_box_plus_reach(self, head, contexts):
        ctx = contexts[0]
        interior = head.box_hypotheses(ctx, np.array(_boxes()["interior"], dtype=np.float64))
        y0, y1, x0, x1 = interior.window
        assert 0 < y0 < y1 < SIZE and 0 < x0 < x1 < SIZE
        whole = head.box_hypotheses(ctx, np.array(_boxes()["whole"], dtype=np.float64))
        assert whole.window == (0, SIZE, 0, SIZE)
        for hyp in interior.hyps:
            assert hyp.mask.shape == (y1 - y0, x1 - x0)

    def test_area_term_uses_frame_area(self, head, contexts):
        ctx = contexts[0]
        windowed = head.box_hypotheses(ctx, np.array(_boxes()["tiny"], dtype=np.float64))
        for hyp in windowed.hyps:
            assert hyp.terms["area"] == float(hyp.mask.sum() / (SIZE * SIZE))


class TestWindowedCache:
    @pytest.fixture()
    def predictor(self):
        sample = synthesize_fibsem_volume(catalyst="amorphous", shape=(256, 256), n_slices=1, seed=5)
        predictor = SamPredictor(cache=InferenceCache())
        predictor.set_image(np.asarray(sample.clean[0], dtype=np.float32))
        return predictor

    def _entry(self, predictor, box):
        key = combine_keys(predictor._image_key, array_content_key(np.asarray(box, dtype=np.float64)), "windowed")
        return predictor.cache.get("sam.analytic_box", key)

    def test_entry_is_window_sized(self, predictor):
        box = np.array([100.0, 110.0, 130.0, 136.0])
        hyps = predictor.masks_from_box(box)
        entry = self._entry(predictor, box)
        full_mask_bytes = 256 * 256  # one bool per pixel
        assert all(h.mask.shape == (256, 256) for h in hyps)
        assert nbytes_of(entry) < len(hyps) * full_mask_bytes / 8

    def test_hit_equals_miss(self, predictor):
        box = np.array([40.0, 60.0, 90.0, 100.0])
        miss = predictor.masks_from_box(box)
        hit = predictor.masks_from_box(box)
        _assert_identical(hit, miss)
        _assert_identical(miss, predictor.sam.analytic.masks_from_box(predictor.analytic_context, box))

    def test_mutating_result_leaves_cache_intact(self, predictor):
        box = np.array([40.0, 60.0, 90.0, 100.0])
        first = predictor.masks_from_box(box)
        snapshot = [h.mask.copy() for h in first]
        for h in first:
            h.mask[:] = ~h.mask
            h.terms.clear()
        again = predictor.masks_from_box(box)
        for h, want in zip(again, snapshot):
            assert np.array_equal(h.mask, want)
            assert h.terms

    def test_box_and_points_prompt_does_not_grow_cached_list(self, predictor):
        # predict() appends point hypotheses to the box hypotheses it gets
        # back; that list must be a fresh one, not the cached entry.
        box = np.array([40.0, 60.0, 90.0, 100.0])
        points, labels = np.array([[65.0, 80.0]]), np.array([1])
        first, _, _ = predictor.predict(box=box, point_coords=points, point_labels=labels)
        second, _, _ = predictor.predict(box=box, point_coords=points, point_labels=labels)
        assert first.shape == second.shape
        assert len(predictor.masks_from_box(box)) == 5

    def test_entry_from_older_format_is_not_served(self, predictor):
        # Earlier builds stored a list of full-frame hypotheses under the
        # bare (image, box) key; a shared disk tier may still hold one.
        box = np.array([40.0, 60.0, 90.0, 100.0])
        legacy_key = combine_keys(predictor._image_key, array_content_key(box))
        predictor.cache.put("sam.analytic_box", legacy_key, [])
        _assert_identical(
            predictor.masks_from_box(box), predictor.sam.analytic.masks_from_box(predictor.analytic_context, box)
        )
