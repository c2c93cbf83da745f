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
    structuring length; longer runs are kept unchanged.
    """
    if radius < 0:
        raise ValueError(f"opening radius must be >= 0, got {radius}")
    h, w = np.shape(mask)
    # columns laid end to end, each followed by one background pixel so
    # that no run crosses from one column into the next
    columns = np.zeros((w, h + 1), dtype=np.int8)
    columns[:, :h] = np.asarray(mask, dtype=np.bool_).T
    d = np.diff(columns.ravel(), prepend=np.int8(0))
    start = np.flatnonzero(d == 1)
    end = np.flatnonzero(d == -1)
    keep = (end - start) >= 2 * radius + 1
    edges = np.zeros(columns.size, dtype=np.int8)
    edges[start[keep]] = 1
    edges[end[keep]] = -1
    kept = np.cumsum(edges, dtype=np.int8).reshape(w, h + 1)[:, :h]
    return np.ascontiguousarray(kept.T, dtype=np.bool_)


def remove_small_components(mask: np.ndarray, min_area: int) -> np.ndarray:
    """Remove 8-connected foreground components with area < min_area."""
    labels, _ = ndimage.label(mask, structure=np.ones((3, 3)))
    keep = np.bincount(labels.ravel()) >= min_area
    keep[0] = False
    return keep[labels]
