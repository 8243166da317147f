"""Window-local grounded selection and rectify: bit-identity with full-frame oracles.

``segment_with_boxes`` and ``RectifySession.rectify`` work on each box
hypothesis's window and paste only what they keep.  The oracles below are
the historical full-frame loops (pasted hypotheses, scipy morphology); every
mask, kind and chosen box must match them exactly.
"""

import numpy as np
import pytest
from scipy.ndimage import binary_dilation

from repro.core.hitl import RectifyConfig, RectifySession, SimulatedAnnotator
from repro.core.masks import connected_components
from repro.core.pipeline import ZenesisConfig, ZenesisPipeline
from repro.errors import SessionError
from repro.models.registry import build_sam
from repro.models.sam.model import SamPredictor


def _full_frame_select(cfg, hyps, relevance, box, hi, hi_dilated):
    """The historical ``_select_mask`` over full-frame hypotheses."""
    x0, y0, x1, y1 = (int(box[0]), int(box[1]), int(np.ceil(box[2])), int(np.ceil(box[3])))
    hi_box = np.zeros_like(hi)
    hi_box[max(y0, 0) : y1, max(x0, 0) : x1] = hi[max(y0, 0) : y1, max(x0, 0) : x1]
    n_hi = max(int(hi_box.sum()), 1)
    best = None
    for hyp in hyps:
        m = hyp.mask
        n = int(m.sum())
        if n == 0:
            continue
        score = (
            float(relevance[m].mean())
            * float(np.sqrt((m & hi_dilated).sum() / n))
            * float(np.sqrt((m & hi_box).sum() / n_hi))
        )
        if best is None or score > best[1]:
            best = (hyp, score)
    return best


def _full_frame_segment_with_boxes(pipe, seg_img, detection, boxes):
    """The historical ``segment_with_boxes`` loop: select on pasted masks."""
    cfg = pipe.config
    pipe.predictor.set_image(seg_img)
    union = np.zeros(seg_img.shape, dtype=bool)
    per_box, kinds = [], []
    hi = detection.relevance >= cfg.box_threshold
    hi_dilated = binary_dilation(hi, iterations=2)
    for box in boxes:
        hyps = pipe.predictor.masks_from_box(box).paste()
        picked = _full_frame_select(cfg, hyps, detection.relevance, box, hi, hi_dilated)
        if picked is None or picked[1] <= cfg.selection_floor:
            continue
        per_box.append(picked[0].mask)
        kinds.append(picked[0].kind)
        union |= picked[0].mask
    if cfg.gate_dilation > 0:
        union &= binary_dilation(detection.relevance >= cfg.box_threshold, iterations=cfg.gate_dilation)
    return union, per_box, kinds


def _full_frame_rectify(sess, click_xy):
    """The historical ``rectify`` ranking over full-frame components.

    Returns ``(added_mask, chosen_box, windows)``; ``windows`` are the
    candidates' hypothesis windows, so tests can see which clicks fell
    outside all of them.
    """
    cx, cy = click_xy
    boxes = sess.propose_boxes()
    best = None
    max_area = sess.config.max_component_frac * sess.image.size
    iy, ix = int(round(cy)), int(round(cx))
    windows = []
    for box in boxes:
        windowed = sess.predictor.masks_from_box(box)
        windows.append(windowed.window)
        for hyp in windowed.paste():
            if hyp.kind == "dark" or not hyp.mask.any():
                continue
            for comp in connected_components(hyp.mask, min_area=8)[:6]:
                area = int(comp.sum())
                if area > max_area:
                    continue
                if comp[iy, ix]:
                    key = (0, float(area))
                else:
                    ys, xs = np.nonzero(comp)
                    key = (1, float(np.hypot(ys.mean() - cy, xs.mean() - cx)))
                if best is None or key < best[0]:
                    best = (key, comp, box)
    if best is None:
        raise SessionError("no candidate segment found")
    sess.mask |= best[1]
    return best[1], np.asarray(best[2]), windows


@pytest.fixture(scope="module", params=["crystalline", "amorphous"])
def grounded(request):
    """(pipeline, segmenter image, detection) on one slice of each catalyst."""
    sample = request.getfixturevalue(f"{request.param}_sample")
    pipe = ZenesisPipeline()
    det_img, seg_img = pipe.adapt(sample.volume.voxels[1])
    return pipe, seg_img, pipe.ground(det_img, "catalyst particles")


def _edge_boxes(n=128):
    e = float(n)
    return np.array(
        [
            [0, 0, e, e],  # whole frame
            [0, 40, e, 70],  # full width
            [50, 0, 70, e],  # full height
            [0, 0, 30, 26],  # corners
            [n - 30, n - 26, e, e],
            [-7.5, 20.25, 33.7, 61.9],  # pokes out of the frame, fractional
            [100.4, -3.0, e + 6.0, 40.6],
            [60.5, 60.5, 63.2, 64.8],  # tiny
        ],
        dtype=np.float64,
    )


def _assert_selection_identical(pipe, seg_img, detection, boxes):
    union, per_box, kinds = pipe.segment_with_boxes(seg_img, detection, boxes)
    want_union, want_per_box, want_kinds = _full_frame_segment_with_boxes(pipe, seg_img, detection, boxes)
    assert kinds == want_kinds
    assert len(per_box) == len(want_per_box)
    for got, want in zip(per_box, want_per_box):
        assert got.dtype == bool and got.shape == seg_img.shape
        assert np.array_equal(got, want)
    assert np.array_equal(union, want_union)
    return per_box


class TestSelection:
    def test_detector_boxes(self, grounded):
        pipe, seg_img, detection = grounded
        assert len(detection.boxes)
        per_box = _assert_selection_identical(pipe, seg_img, detection, detection.boxes)
        assert per_box

    def test_edge_and_out_of_frame_boxes(self, grounded):
        pipe, seg_img, detection = grounded
        _assert_selection_identical(pipe, seg_img, detection, _edge_boxes())

    def test_random_float32_boxes(self, grounded, rng):
        pipe, seg_img, detection = grounded
        x0 = rng.uniform(-6, 120, (12, 1))
        y0 = rng.uniform(-6, 120, (12, 1))
        size = rng.uniform(2, 70, (12, 2))
        boxes = np.hstack([x0, y0, x0 + size[:, :1], y0 + size[:, 1:]]).astype(np.float32)
        _assert_selection_identical(pipe, seg_img, detection, boxes)

    def test_without_gate_and_floor(self, grounded):
        _, seg_img, detection = grounded
        pipe = ZenesisPipeline(ZenesisConfig(gate_dilation=0, selection_floor=0.0))
        _assert_selection_identical(pipe, seg_img, detection, np.vstack([detection.boxes, _edge_boxes()]))

    def test_per_box_masks_are_fresh(self, grounded):
        pipe, seg_img, detection = grounded
        _, per_box, _ = pipe.segment_with_boxes(seg_img, detection, detection.boxes)
        snapshot = [m.copy() for m in per_box]
        for m in per_box:
            m[:] = True  # writeable, and owned by the caller
        _, again, _ = pipe.segment_with_boxes(seg_img, detection, detection.boxes)
        assert all(np.array_equal(a, b) for a, b in zip(again, snapshot))


@pytest.fixture()
def rectify_image(pipeline, amorphous_sample):
    _, seg_img = pipeline.adapt(amorphous_sample.volume.voxels[0])
    return seg_img, amorphous_sample.catalyst_mask[0]


def _run_pair(seg_img, config, next_click, rounds):
    """Drive the windowed and the full-frame rectify on identical sessions.

    Returns (steps taken, clicks that fell outside every candidate window).
    """
    predictor = SamPredictor(build_sam())
    new = RectifySession(predictor, seg_img, config=config)
    old = RectifySession(predictor, seg_img, config=config)
    steps = outside_all = 0
    for _ in range(rounds):
        click = next_click(new.mask)
        if click is None:
            break
        step = new.rectify(click)
        added, box, windows = _full_frame_rectify(old, click)
        assert np.array_equal(step.added_mask, added)
        assert np.array_equal(step.chosen_box, box)
        assert np.array_equal(new.mask, old.mask)
        ix, iy = int(round(click[0])), int(round(click[1]))
        outside_all += all(not (y0 <= iy < y1 and x0 <= ix < x1) for y0, y1, x0, x1 in windows)
        steps += 1
    return steps, outside_all


def _fixed(clicks):
    it = iter(clicks)
    return lambda _mask: next(it, None)


class TestRectify:
    @pytest.mark.parametrize("axis", ["width", "height"])
    def test_annotator_loop(self, rectify_image, axis):
        seg_img, gt = rectify_image
        annotator = SimulatedAnnotator(gt_mask=gt, min_missing_area=8)
        config = RectifyConfig(n_candidates=10, full_extent_axis=axis, seed=3)
        steps, _ = _run_pair(seg_img, config, annotator.next_click, rounds=6)
        assert steps >= 2

    def test_frame_edge_clicks(self, rectify_image):
        seg_img, _ = rectify_image
        h, w = seg_img.shape
        clicks = [(0.0, 0.0), (w - 1.0, h - 1.0), (0.0, h - 1.0), (w - 0.6, 0.4), (w / 2, h - 1.0)]
        steps, _ = _run_pair(seg_img, RectifyConfig(n_candidates=8, seed=5), _fixed(clicks), rounds=len(clicks))
        assert steps == len(clicks)

    def test_clicks_outside_every_window(self, rectify_image):
        # Small free boxes leave most of the frame uncovered: the click is
        # then ranked by centroid distance only.
        seg_img, _ = rectify_image
        config = RectifyConfig(n_candidates=3, full_extent_axis=None, min_size=12.0, seed=9)
        clicks = [(2.0, 2.0), (125.0, 3.0), (3.0, 124.0), (124.6, 125.2), (64.0, 1.0)]
        _, outside_all = _run_pair(seg_img, config, _fixed(clicks), rounds=len(clicks))
        assert outside_all >= 2

    def test_added_mask_is_full_frame_and_fresh(self, rectify_image):
        seg_img, _ = rectify_image
        sess = RectifySession(SamPredictor(build_sam()), seg_img, config=RectifyConfig(seed=1))
        step = sess.rectify((64.0, 64.0))
        assert step.added_mask.shape == seg_img.shape and step.added_mask.flags.writeable
        assert np.array_equal(sess.mask, step.added_mask)
