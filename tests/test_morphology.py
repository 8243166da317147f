"""NumPy cross morphology (`erode`/`dilate`): equality with scipy.ndimage."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.ndimage import binary_closing, binary_dilation, binary_erosion, binary_opening

import repro
from repro.core.masks import dilate, erode
from repro.errors import ValidationError
from repro.models.sam.analytic import AnalyticMaskHead

SETTINGS = settings(max_examples=200, deadline=None)

#: Shapes down to 1×1, 1×n and n×1 (every pixel is a frame-edge pixel).
masks = arrays(bool, st.tuples(st.integers(1, 14), st.integers(1, 14)))
iterations = st.integers(1, 4)


def _scipy_pairs(m, n):
    """(ours, scipy) results for erosion, dilation, opening and closing."""
    return [
        (erode(m, n), binary_erosion(m, iterations=n, border_value=0)),
        (dilate(m, n), binary_dilation(m, iterations=n)),
        (dilate(erode(m, n), n), binary_opening(m, iterations=n)),
        (erode(dilate(m, n), n), binary_closing(m, iterations=n)),
    ]


def _assert_matches_scipy(m, n):
    for got, want in _scipy_pairs(m, n):
        assert got.dtype == bool and got.shape == m.shape
        assert np.array_equal(got, want)


class TestMatchesScipy:
    @SETTINGS
    @given(m=masks, n=iterations)
    def test_random_masks(self, m, n):
        _assert_matches_scipy(m, n)

    @SETTINGS
    @given(m=masks, n=iterations, step=st.integers(1, 3), offset=st.integers(0, 2))
    def test_strided_views(self, m, n, step, offset):
        _assert_matches_scipy(m[offset::step, ::step], n)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (2, 2), (3, 3), (9, 12)])
    @pytest.mark.parametrize("fill", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_empty_and_full(self, shape, fill, n):
        _assert_matches_scipy(np.full(shape, fill), n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_crop_context_windows(self, rng, n):
        # The analytic head works on non-contiguous window views of its maps.
        image = rng.random((64, 64)).astype(np.float32)
        ctx = AnalyticMaskHead().prepare(image)
        for window in [(0, 64, 0, 64), (5, 40, 9, 31), (0, 17, 50, 64), (63, 64, 0, 64)]:
            view = AnalyticMaskHead().crop_context(ctx, window).smooth > 0.5
            _assert_matches_scipy(view, n)


class TestSemantics:
    @pytest.mark.parametrize("op", [erode, dilate])
    def test_zero_iterations_is_a_copy(self, rng, op):
        m = rng.random((9, 11)) > 0.5
        out = op(m, 0)
        assert np.array_equal(out, m) and not np.shares_memory(out, m)

    @pytest.mark.parametrize("op", [erode, dilate])
    def test_input_untouched_and_output_fresh(self, rng, op):
        m = rng.random((9, 11)) > 0.5
        before = m.copy()
        m.flags.writeable = False
        out = op(m, 2)
        assert np.array_equal(m, before) and not np.shares_memory(out, m)
        out[:] = True  # writeable

    def test_erosion_treats_outside_as_background(self):
        assert not erode(np.ones((5, 5), dtype=bool))[0].any()
        assert erode(np.ones((5, 5), dtype=bool))[1:-1, 1:-1].all()

    def test_dilation_uses_the_cross(self):
        m = np.zeros((5, 5), dtype=bool)
        m[2, 2] = True
        out = dilate(m)
        assert out.sum() == 5 and not out[1, 1]

    @pytest.mark.parametrize("op", [erode, dilate])
    def test_rejects_non_2d(self, op):
        with pytest.raises(ValidationError):
            op(np.ones((3, 3, 3), dtype=bool))


_SCIPY_MORPHOLOGY = {"binary_erosion", "binary_dilation", "binary_opening", "binary_closing"}


def test_no_scipy_binary_morphology_under_src():
    """Every binary erosion/dilation in the package goes through core.masks."""
    offenders = []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
                offenders += [f"{path.name}: {a.name}" for a in node.names if a.name in _SCIPY_MORPHOLOGY]
            elif isinstance(node, ast.Attribute) and node.attr in _SCIPY_MORPHOLOGY:
                offenders.append(f"{path.name}: .{node.attr}")
    assert offenders == []
