"""Hot per-pixel kernels used by segmentation, on numpy and scipy.ndimage.

The median and the morphological opening run per column on purpose: the
Doppler envelope is a per-column structure, and 2-D windows clip the narrow
single-column pinnacles that steep velocity peaks produce at typical
time/velocity pixel aspect ratios.

The column median is an odd-even transposition network of elementwise
min/max over row-shifted views. It only ever picks input values, so it is
exact, and at the small windows segmentation uses it beats both a sort and
``ndimage.median_filter``; its cost grows with window**2 and it stops paying
off near window 13.

The opening is an erosion followed by a dilation, each an AND or OR of the
2*radius+1 row-shifted views of the boolean mask, so its cost grows
linearly with the radius. The component filter counts areas and clears
pixels only at foreground pixels.
"""

import numpy as np
from scipy import ndimage


def active_backend() -> str:
    """Name of the kernel implementation, recorded by benchmark runs."""
    return "numpy"


def column_median(img: np.ndarray, window: int) -> np.ndarray:
    """Per-column median filter with replicated edges; window odd and >= 1."""
    if window < 1 or window % 2 == 0:
        raise ValueError(f"median window must be odd and >= 1, got {window}")
    img = np.asarray(img, dtype=np.float32)
    half = window // 2
    height = img.shape[0]
    padded = np.pad(img, ((half, half), (0, 0)), mode="edge")
    rows = [padded[k:k + height] for k in range(window)]
    for sweep in range(window):
        for i in range(sweep % 2, window - 1, 2):
            rows[i], rows[i + 1] = (
                np.minimum(rows[i], rows[i + 1]),
                np.maximum(rows[i], rows[i + 1]),
            )
    return np.ascontiguousarray(rows[half])


def vertical_opening(mask: np.ndarray, radius: int) -> np.ndarray:
    """Binary opening along columns with a line of length 2*radius+1.

    Equivalent to dropping every vertical foreground run shorter than the
    structuring length; longer runs are kept unchanged. Rows outside the
    image count as background, so runs touching the top or bottom edge are
    judged by their visible length. Erosion and dilation are each one AND or
    OR pass per row shift, so the cost grows linearly with the radius.
    """
    if radius < 0:
        raise ValueError(f"opening radius must be >= 0, got {radius}")
    mask = np.asarray(mask, dtype=np.bool_)
    length = 2 * radius + 1
    opened = np.zeros_like(mask)
    # eroded[i] holds the AND of rows i .. i+length-1, i.e. the erosion
    # at row i+radius; windows reaching past an edge erode to background
    n = mask.shape[0] - length + 1
    if n <= 0:
        return opened
    eroded = mask[:n].copy()
    for k in range(1, length):
        eroded &= mask[k:k + n]
    for k in range(length):
        opened[k:k + n] |= eroded
    return opened


def remove_small_components(mask: np.ndarray, min_area: int) -> np.ndarray:
    """Remove 8-connected foreground components with area < min_area."""
    mask = np.asarray(mask, dtype=np.bool_)
    labels, _ = ndimage.label(mask, structure=np.ones((3, 3)))
    foreground_labels = labels[mask]
    small = np.bincount(foreground_labels) < min_area
    kept = mask.copy()
    kept[mask] = ~small[foreground_labels]
    return kept
