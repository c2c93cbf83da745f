"""Hot per-pixel kernels used by segmentation, on numpy and scipy.ndimage.

The median and the morphological opening run per column on purpose: the
Doppler envelope is a per-column structure, and 2-D windows clip the narrow
single-column pinnacles that steep velocity peaks produce at typical
time/velocity pixel aspect ratios.

The column median is an odd-even transposition network of elementwise
min/max over row-shifted views. It only ever picks input values, so it is
exact. Only the middle output is wanted, so a backward pass over the
comparator list keeps just the comparators that reach it, and a comparator
with one live output computes only that side (window 3: 4 min/max passes
instead of 6). Passes write into buffers the kernel already owns where an
input is no longer needed. At the small windows segmentation uses it beats
both a sort and ``ndimage.median_filter``; its cost grows with window**2 and
it stops paying off near window 13.

The opening is an erosion followed by a dilation, each an AND or OR of the
2*radius+1 row-shifted views of the boolean mask, so its cost grows
linearly with the radius. The component filter counts areas and clears
pixels only at foreground pixels, and returns its input untouched when no
component is small enough to clear.
"""

import functools

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
    owned = [False] * window  # rows[k] is a buffer of ours, not a view of padded
    for i, need_min, need_max in _median_network(window):
        a, b = rows[i], rows[i + 1]
        spare = a if owned[i] else b if owned[i + 1] else None
        if need_min and need_max:
            rows[i] = np.minimum(a, b)
            rows[i + 1] = np.maximum(a, b, out=spare)
        elif need_min:
            rows[i] = np.minimum(a, b, out=spare)
        else:
            rows[i + 1] = np.maximum(a, b, out=spare)
        owned[i] = owned[i + 1] = True
    return rows[half]


@functools.cache
def _median_network(window: int):
    """(i, need_min, need_max) for each comparator that reaches the middle row.

    The odd-even transposition network sorts window rows in window sweeps of
    compare-exchanges (i, i + 1). Walking it backwards from the middle output
    marks which rows are live: a comparator with neither output live is
    dropped, and its inputs are live when either output is.
    """
    network = [(i, i + 1) for sweep in range(window) for i in range(sweep % 2, window - 1, 2)]
    live = {window // 2}
    kept = []
    for i, j in reversed(network):
        need_min, need_max = i in live, j in live
        if need_min or need_max:
            kept.append((i, need_min, need_max))
            live |= {i, j}
    return tuple(reversed(kept))


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
    """Remove 8-connected foreground components with area < min_area.

    When no component is that small the input itself is returned, so the
    result may alias ``mask``; otherwise it is a new array.
    """
    mask = np.asarray(mask, dtype=np.bool_)
    labels, _ = ndimage.label(mask, structure=np.ones((3, 3)))
    foreground_labels = labels[mask]
    small = np.bincount(foreground_labels) < min_area
    if not small[1:].any():  # label 0 is the background
        return mask
    kept = mask.copy()
    kept[mask] = ~small[foreground_labels]
    return kept
