"""Mask operations: RLE codec, components, boundaries, morphology, stability.

The RLE codec matches the COCO-style column-major convention SAM tooling
uses, so exported annotations interoperate.  Binary morphology is a NumPy
shift-and-combine over the 3×3 cross (:func:`erode`, :func:`dilate`);
labelling and hole filling use scipy.ndimage.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import binary_fill_holes, label

from ..errors import ValidationError
from ..utils.validation import ensure_mask

__all__ = [
    "rle_encode",
    "rle_decode",
    "connected_components",
    "largest_component",
    "component_containing",
    "erode",
    "dilate",
    "mask_boundary",
    "clean_mask",
    "stability_score",
    "masks_iou",
]


def rle_encode(mask: np.ndarray) -> dict:
    """Column-major run-length encoding (COCO uncompressed-RLE convention).

    Counts alternate background/foreground runs, starting with background.
    """
    m = ensure_mask(mask)
    if m.ndim != 2:
        raise ValidationError(f"rle_encode expects a 2-D mask, got shape {m.shape}")
    flat = m.flatten(order="F").astype(np.int8)
    changes = np.nonzero(np.diff(flat))[0] + 1
    points = np.concatenate([[0], changes, [flat.size]])
    counts = np.diff(points).tolist()
    if flat.size and flat[0] == 1:
        counts = [0] + counts  # must start with a background run
    return {"size": list(m.shape), "counts": counts}


def rle_decode(rle: dict) -> np.ndarray:
    """Inverse of :func:`rle_encode`."""
    h, w = rle["size"]
    counts = rle["counts"]
    total = int(np.sum(counts))
    if total != h * w:
        raise ValidationError(f"RLE counts sum to {total}, expected {h * w}")
    vals = np.zeros(total, dtype=bool)
    pos = 0
    val = False
    for c in counts:
        if val:
            vals[pos : pos + c] = True
        pos += c
        val = not val
    return vals.reshape((h, w), order="F")


def connected_components(mask: np.ndarray, *, min_area: int = 1) -> list[np.ndarray]:
    """Split a mask into per-component masks, largest first."""
    m = ensure_mask(mask)
    labels, n = label(m)
    if n == 0:
        return []
    areas = np.bincount(labels.ravel())[1:]
    order = np.argsort(-areas)
    return [labels == (i + 1) for i in order if areas[i] >= min_area]


def largest_component(mask: np.ndarray) -> np.ndarray:
    """The largest connected component (empty mask passes through)."""
    comps = connected_components(mask)
    if not comps:
        return ensure_mask(mask).copy()
    return comps[0]


def component_containing(mask: np.ndarray, point_yx: tuple[float, float]) -> np.ndarray | None:
    """The component containing a (y, x) point, or None."""
    m = ensure_mask(mask)
    y, x = int(round(point_yx[0])), int(round(point_yx[1]))
    if not (0 <= y < m.shape[0] and 0 <= x < m.shape[1]) or not m[y, x]:
        return None
    labels, _ = label(m)
    return labels == labels[y, x]


def _as_2d_mask(mask: np.ndarray) -> np.ndarray:
    m = np.asarray(mask, dtype=bool)
    if m.ndim != 2:
        raise ValidationError(f"morphology expects a 2-D mask, got shape {m.shape}")
    return m


def erode(mask: np.ndarray, iterations: int = 1) -> np.ndarray:
    """Binary erosion by the 3×3 cross, ``iterations`` times, as a new array.

    Pixels outside the frame count as 0, so frame-edge pixels always erode
    (scipy's ``binary_erosion(..., border_value=0)``).  ``iterations=0``
    returns a copy (scipy would instead iterate until nothing changes).
    """
    m = _as_2d_mask(mask)
    for _ in range(iterations):
        out = np.zeros_like(m)
        core = out[1:-1, 1:-1]
        np.logical_and(m[1:-1, 1:-1], m[:-2, 1:-1], out=core)
        core &= m[2:, 1:-1]
        core &= m[1:-1, :-2]
        core &= m[1:-1, 2:]
        m = out
    return m if iterations > 0 else m.copy()


def dilate(mask: np.ndarray, iterations: int = 1) -> np.ndarray:
    """Binary dilation by the 3×3 cross, ``iterations`` times, as a new array.

    Only in-frame neighbours contribute (scipy's ``binary_dilation``);
    ``iterations=0`` returns a copy.
    """
    m = _as_2d_mask(mask)
    for _ in range(iterations):
        out = m.copy()
        out[1:] |= m[:-1]
        out[:-1] |= m[1:]
        out[:, 1:] |= m[:, :-1]
        out[:, :-1] |= m[:, 1:]
        m = out
    return m if iterations > 0 else m.copy()


def mask_boundary(mask: np.ndarray) -> np.ndarray:
    """One-pixel-wide boundary of a mask (mask minus its erosion)."""
    m = ensure_mask(mask)
    if not m.any():
        return np.zeros_like(m)
    return m & ~erode(m)


def clean_mask(
    mask: np.ndarray,
    *,
    open_radius: int = 1,
    close_radius: int = 1,
    fill_holes: bool = False,
    min_area: int = 0,
) -> np.ndarray:
    """Morphological cleanup: opening, closing, optional hole fill, dust removal."""
    m = ensure_mask(mask).copy()
    if open_radius > 0:
        m = dilate(erode(m, open_radius), open_radius)
    if close_radius > 0:
        m = erode(dilate(m, close_radius), close_radius)
    if fill_holes:
        m = binary_fill_holes(m)
    if min_area > 0 and m.any():
        labels, n = label(m)
        if n:
            keep = np.bincount(labels.ravel()) >= min_area
            keep[0] = False
            m = keep[labels]
    return m


def stability_score(mask: np.ndarray, *, iterations: int = 2) -> float:
    """SAM-style stability: IoU between eroded and dilated versions.

    1.0 means the mask barely changes when its decision boundary is
    perturbed; thin/noisy masks score low.
    """
    m = ensure_mask(mask)
    if not m.any():
        return 0.0
    lo = erode(m, iterations)
    hi = dilate(m, iterations)
    inter = np.count_nonzero(lo)
    union = np.count_nonzero(hi)
    return float(inter / union) if union else 0.0


def masks_iou(a: np.ndarray, b: np.ndarray) -> float:
    """IoU between two boolean masks of the same shape."""
    ma = ensure_mask(a)
    mb = ensure_mask(b, shape=ma.shape, name="b")
    inter = np.count_nonzero(ma & mb)
    union = np.count_nonzero(ma | mb)
    return float(inter / union) if union else 0.0
