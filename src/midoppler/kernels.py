"""Hot per-pixel kernels used by segmentation, on numpy alone.

The median and the morphological opening run per column on purpose: the
Doppler envelope is a per-column structure, and 2-D windows clip the narrow
single-column pinnacles that steep velocity peaks produce at typical
time/velocity pixel aspect ratios.

The column median is an odd-even transposition network of elementwise
min/max over row-shifted views. It only ever picks input values, so it is
exact and keeps the input dtype: on uint8 levels it moves a quarter of the
bytes float32 would, and on a bool mask min and max are AND and OR, which
makes the median a majority vote over the window. Only the middle output is
wanted, so a backward pass over the comparator list keeps just the
comparators that reach it, and a comparator with one live output computes
only that side (window 3: 4 min/max passes instead of 6). Passes write into
buffers the kernel already owns where an input is no longer needed. At the
small windows segmentation uses it beats both a sort and
``ndimage.median_filter``; its cost grows with window**2 and it stops paying
off near window 13.

The opening is an erosion followed by a dilation, each an AND or OR of the
2*radius+1 row-shifted views of the boolean mask, so its cost grows
linearly with the radius.

The component filter labels vertical runs, not pixels: an envelope column
is one run, so a study's mask has about one run per column. Runs come from
the row transitions, sorted column by column; each run's first touching run
in the next and in the previous column comes from a binary search; and the
runs are joined by min-root hooking plus pointer jumping until no touching
pair has two roots. Component areas are sums of run lengths. The input is
returned untouched when no component is small enough to clear; otherwise
a copy has the pixels of the small runs, and only those, set to background.
"""

import functools

import numpy as np


# The widest median window. The live comparators, each a full-frame pass,
# grow with window**2: on a 561x896 uint8 region (one Xeon core) the median
# takes 0.03 s at this window and 0.31 s at 101.
MAX_MEDIAN_WINDOW = 31


def active_backend() -> str:
    """Name of the kernel implementation, recorded by benchmark runs."""
    return "numpy"


def column_median(img: np.ndarray, window: int) -> np.ndarray:
    """Per-column median filter with replicated edges; window odd, 1 to MAX_MEDIAN_WINDOW.

    The result has the input's dtype.
    """
    if not 1 <= window <= MAX_MEDIAN_WINDOW or window % 2 == 0:
        raise ValueError(f"median window must be odd and in [1, {MAX_MEDIAN_WINDOW}], got {window}")
    img = np.asarray(img)
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
    h, w = mask.shape
    padded = np.zeros((h + 2, w), np.bool_)
    padded[1:-1] = mask
    flat = np.flatnonzero(padded[1:] != padded[:-1])  # row transitions, row-major
    if flat.size == 0:
        return mask
    # Key column * step + row orders the transitions column by column, where
    # they alternate start, end: run k covers rows [start[k], end[k]) of its
    # column in key units, and key + step is the same row one column on.
    # Keys stay below (h + 1) * (w + 1), and int32 ones sort and search about
    # twice as fast as intp ones.
    flat = flat.astype(np.int32 if (h + 1) * (w + 1) < 2**31 else np.intp)
    step = h + 1
    row = flat // w
    key = np.sort((flat - row * w) * step + row)
    start, end = key[0::2], key[1::2]

    # Run j touches run i of the column before when start[i] <= end[j] - step
    # and end[i] >= start[j] - step. In every touching pair i is j's first
    # touching run on the left or j is i's first on the right: were it
    # neither, j would touch a run above i and so start above i, and i would
    # likewise start above j.
    left = np.searchsorted(end, start - step)
    right = np.searchsorted(end, start + step)  # may be one past the last run
    labels = np.where(start[left] <= end - step, left, np.arange(start.size))
    src = np.flatnonzero(np.append(start, step * (w + 1))[right] <= end + step)
    dst = right[src]

    # Each run starts out pointing at its first left neighbour or at itself,
    # and every pointer stays on a smaller index. Pointer jumping sends each
    # run to its root; then each root on an unmerged edge hooks to the
    # smallest root across its edges, and only hooked roots jump again.
    moved = slice(None)
    while True:
        while True:
            parent = labels[moved]
            grand = labels[parent]
            if np.array_equal(grand, parent):
                break
            labels[moved] = grand
        labels = labels[labels]
        a, b = labels[src], labels[dst]
        unmerged = a != b
        if not unmerged.any():
            break
        src, dst, a, b = src[unmerged], dst[unmerged], a[unmerged], b[unmerged]
        moved = np.maximum(a, b)
        np.minimum.at(labels, moved, np.minimum(a, b))

    small = np.flatnonzero((np.bincount(labels, weights=end - start) < min_area)[labels])
    if small.size == 0:
        return mask
    # The flat indices of the small runs' pixels, run after run, as a running
    # sum of steps: one row (w) down within a run, and at each run's first
    # pixel the jump from the previous run's last pixel.
    start, end = start[small].astype(np.intp), end[small]
    col, first = np.divmod(start, step)
    length = end - start
    top = first * w + col
    bottom = top + (length - 1) * w
    steps = np.full(int(length.sum()), w, np.intp)
    steps[np.cumsum(length) - length] = top - np.append(0, bottom[:-1])
    cleared = mask.copy()
    cleared.reshape(-1)[np.cumsum(steps)] = False
    return cleared
