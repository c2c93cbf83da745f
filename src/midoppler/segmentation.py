"""Envelope segmentation and trace extraction.

The classical route converts the spectral region to 8-bit gray levels,
median filters, thresholds at Otsu's two-class variance maximum, opens,
drops small connected components, and hands over the cleaned foreground as
the mask. The gray level of a pixel is the ceiling of its BT.601 luma
0.299 R + 0.587 G + 0.114 B, computed exactly: K = 299 R + 587 G + 114 B
is 1000 times the luma, and every product and partial sum of it stays
below 2**24, so float32 arithmetic gives K exactly in any summation order,
with or without a fused multiply-add. ``(K + 999) * float32(0.001)`` then
truncates to ``ceil(K / 1000)``: (K + 999) / 1000 is that ceiling plus a
fraction of at most 0.999; float32(0.001) is high by under 5e-8 of itself,
and rounding the product to float32 moves it by under 1e-5 but never below
a whole number it reaches, so the product stays in [ceiling, ceiling + 1).
Ceil levels let one median serve both Otsu and the threshold: a median
picks one of its inputs by rank, so it commutes with the non-decreasing
ceil, and for an integer t, ``ceil(x) > t`` holds exactly where ``x > t``.
So the median of the levels, Otsu's input, is the ceil of the median of
the luma, and ``level > t`` on it is the threshold of that median luma at t.

Externally produced masks (e.g. from a segmentation network) enter
through ``import_mask``. Both routes meet in ``mask_to_trace``, the one
place the envelope border is defined: per column, the outermost foreground
row on the flow side of the baseline.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import SegmentationError
from .ingestion import CalibrationManifest, RasterImage, load_gray_image, save_gray_image

PADDED_MASK_SIZE = 1024  # externally produced masks may arrive zero-padded
# 1000 times the BT.601 luma weights; see the module docstring for why the
# weighted sum is exact in float32
_LUMA_WEIGHTS = np.array([299, 587, 114], dtype=np.float32)
_LEVEL_BLOCK_ROWS = 32  # a float32 block of K stays in cache


@dataclass(frozen=True)
class SegmentationParams:
    median_window: int = 3
    open_radius: int = 1
    min_component_area: int = 25  # px

    def __post_init__(self):
        if not 1 <= self.median_window <= kernels.MAX_MEDIAN_WINDOW or self.median_window % 2 == 0:
            raise ValueError(
                f"median_window must be odd and in [1, {kernels.MAX_MEDIAN_WINDOW}], "
                f"got {self.median_window}"
            )
        if self.open_radius < 0:
            raise ValueError(f"open_radius must be >= 0, got {self.open_radius}")
        if self.min_component_area < 0:
            raise ValueError(f"min_component_area must be >= 0, got {self.min_component_area}")


@dataclass
class EnvelopeMask:
    """Binary mask over the spectral region, 1 = foreground (flow signal on
    the flow side of the baseline; ``mask_to_trace`` ignores the far side)."""

    cells: np.ndarray  # bool, (rows, columns) of the spectral region

    def __post_init__(self):
        if self.cells.ndim != 2:
            raise ValueError("mask cells must be a 2-D array")
        self.cells = self.cells.astype(bool, copy=False)


@dataclass
class EnvelopeTrace:
    """Envelope velocity per spectral column, column i lying i * spacing ms
    from the spectral left edge; gap_flags marks interpolated columns."""

    velocities: np.ndarray  # m/s, >= 0
    gap_flags: np.ndarray   # bool
    spacing: float          # ms per column (the manifest's time_scale)

    def __post_init__(self):
        if len(self.velocities) != len(self.gap_flags):
            raise ValueError("trace arrays must have equal length")


def _region_slice(manifest: CalibrationManifest):
    x0, y0, x1, y1 = manifest.spectral_region
    return slice(y0, y1 + 1), slice(x0, x1 + 1)


def _region_shape(manifest: CalibrationManifest):
    x0, y0, x1, y1 = manifest.spectral_region
    return y1 - y0 + 1, x1 - x0 + 1


def otsu_threshold(levels: np.ndarray) -> int:
    """Two-class between-class variance maximization on a 0..255 histogram.

    levels is a uint8 array of gray levels. Returns the lowest maximizing
    threshold t; foreground is level > t. A single gray level, which no
    threshold splits, is a SegmentationError naming it.
    """
    if levels.dtype != np.uint8:
        raise TypeError(f"otsu_threshold takes uint8 levels, got {levels.dtype}")
    flat = np.ascontiguousarray(levels).reshape(-1)
    even = flat.size - flat.size % 2
    # Counting the levels two at a time, as uint16 pairs, halves the work of
    # the counting loop. Summing the 256x256 pair counts over either axis
    # counts one byte of each pair, so both sums together count every level,
    # whatever the byte order.
    pairs = np.bincount(flat[:even].view(np.uint16), minlength=2**16).reshape(256, 256)
    hist = (pairs.sum(axis=0) + pairs.sum(axis=1)).astype(np.float64)
    if even < flat.size:
        hist[flat[-1]] += 1
    w0 = np.cumsum(hist)
    total = w0[-1]
    moments = np.cumsum(hist * np.arange(256))
    w1 = total - w0
    valid = (w0 > 0) & (w1 > 0)
    if not valid.any():
        raise SegmentationError(
            f"spectral region is one gray level ({int(np.argmax(hist))}); no threshold splits it"
        )
    mu0 = np.divide(moments, w0, out=np.zeros(256), where=w0 > 0)
    mu1 = np.divide(moments[-1] - moments, w1, out=np.zeros(256), where=w1 > 0)
    between = np.where(valid, w0 * w1 * (mu0 - mu1) ** 2, -1.0)
    return int(np.argmax(between))


def segment_envelope_threshold(
    image: RasterImage,
    manifest: CalibrationManifest,
    params: SegmentationParams = SegmentationParams(),
) -> EnvelopeMask:
    """Classical threshold segmentation of the flow envelope.

    The gray levels are the ceiling of the exact luma (see the module
    docstring). Otsu picks t on the column median of those levels, and the
    foreground is that median's ``level > t``: the median luma above t,
    since ceil commutes with the median and ``ceil(x) > t`` is ``x > t``
    for an integer t. Returns the cleaned foreground over the whole
    spectral region, on both sides of the baseline; ``mask_to_trace``
    finds the border.
    """
    rows, cols = _region_slice(manifest)
    region = image.pixels[rows, cols]
    if region.size == 0:
        raise SegmentationError("spectral region is empty")

    median = kernels.column_median(_luma_levels(region), params.median_window)
    foreground = median > otsu_threshold(median)
    foreground = kernels.vertical_opening(foreground, params.open_radius)
    foreground = kernels.remove_small_components(foreground, params.min_component_area)
    if not foreground.any():
        raise SegmentationError("no foreground remains after cleanup")
    return EnvelopeMask(foreground)


def _luma_levels(region: np.ndarray) -> np.ndarray:
    """uint8 ceil(luma) of an (h, w, 3) uint8 RGB region.

    Works through blocks of rows, so that the float32 K = 1000 x luma of a
    block stays in cache and no float copy of the whole region is made.
    """
    height, width, _ = region.shape
    levels = np.empty((height, width), np.uint8)
    k = np.empty((min(height, _LEVEL_BLOCK_ROWS), width), np.float32)
    for top in range(0, height, _LEVEL_BLOCK_ROWS):
        block = region[top:top + _LEVEL_BLOCK_ROWS]
        k_block = k[:len(block)]
        np.matmul(block, _LUMA_WEIGHTS, out=k_block, dtype=np.float32)
        k_block += 999
        k_block *= np.float32(0.001)
        levels[top:top + len(block)] = k_block  # truncates: ceil(K / 1000)
    return levels


def import_mask(path, manifest: CalibrationManifest) -> EnvelopeMask:
    """Load an externally produced grayscale mask (>=128 means foreground).

    The file must either match the spectral region exactly or be a
    zero-padded PADDED_MASK_SIZE square covering the full frame, in which
    case the spectral window is cropped back out.
    """
    gray = load_gray_image(path)
    height, width = _region_shape(manifest)
    if gray.shape == (height, width):
        return EnvelopeMask(gray >= 128)
    if gray.shape == (PADDED_MASK_SIZE, PADDED_MASK_SIZE):
        rows, cols = _region_slice(manifest)
        if rows.stop > PADDED_MASK_SIZE or cols.stop > PADDED_MASK_SIZE:
            raise SegmentationError(
                f"{path}: spectral region does not fit inside the "
                f"{PADDED_MASK_SIZE}x{PADDED_MASK_SIZE} padded frame"
            )
        return EnvelopeMask(gray[rows, cols] >= 128)
    raise SegmentationError(
        f"{path}: mask is {gray.shape[1]}x{gray.shape[0]}, expected "
        f"{width}x{height} (spectral region) or "
        f"{PADDED_MASK_SIZE}x{PADDED_MASK_SIZE} (padded frame)"
    )


def export_mask(path, mask: EnvelopeMask) -> None:
    save_gray_image(path, mask.cells.astype(np.uint8) * 255)


def mask_to_trace(mask: EnvelopeMask, manifest: CalibrationManifest) -> EnvelopeTrace:
    """Reduce a mask to the per-column envelope border velocity.

    The border is, per column, the outermost foreground row on the flow
    side of the baseline (baseline row included); foreground on the far
    side is ignored. Columns without flow-side foreground are linearly
    interpolated from their nearest measured neighbors (edge columns take
    the nearest value) and flagged.
    """
    height, width = _region_shape(manifest)
    if mask.cells.shape != (height, width):
        raise SegmentationError(
            f"mask is {mask.cells.shape[1]}x{mask.cells.shape[0]}, spectral region is {width}x{height}"
        )
    # the flow side, ordered outermost row first and baseline row last
    baseline = manifest.baseline_row - manifest.spectral_region[1]
    if manifest.flow_above_baseline:
        flow_side = mask.cells[:baseline + 1]
    else:
        flow_side = mask.cells[baseline:][::-1]
    # Row i of the flow side weighs n - i, so a column's largest weighted
    # cell is 1 + its outermost foreground row's distance from the baseline,
    # and 0 when it has none. A row reduction avoids the axis-last copy an
    # axis-0 argmax makes of the mask.
    n = flow_side.shape[0]
    weights = np.arange(n, 0, -1, dtype=np.uint16 if n < 2**16 else np.intp)
    reach = (flow_side * weights[:, None]).max(axis=0)
    has = reach > 0
    if not has.any():
        side = "above" if manifest.flow_above_baseline else "below"
        raise SegmentationError(f"mask is empty on the flow side ({side} the baseline)")

    measured = np.nonzero(has)[0]
    velocities = (reach[measured] - 1) * manifest.velocity_scale
    full = np.interp(np.arange(width), measured, velocities)
    return EnvelopeTrace(full, ~has, manifest.time_scale)


def smooth_trace(trace: EnvelopeTrace, window_ms: float) -> EnvelopeTrace:
    """Centered moving average over window_ms rounded to an odd column count.

    Windows are clipped at the trace edges, so a window wider than the trace
    degrades to the global mean. Gap flags and spacing pass through.
    """
    check_smoothing_window(window_ms)
    cols = smoothing_columns(window_ms, trace)
    if cols == 1:
        return EnvelopeTrace(trace.velocities.copy(), trace.gap_flags.copy(), trace.spacing)
    n = len(trace.velocities)
    half = cols // 2
    sums = np.concatenate(([0.0], np.cumsum(trace.velocities)))
    idx = np.arange(n)
    lo = np.clip(idx - half, 0, n)
    hi = np.clip(idx + half + 1, 0, n)
    smoothed = np.maximum((sums[hi] - sums[lo]) / (hi - lo), 0.0)
    return EnvelopeTrace(smoothed, trace.gap_flags.copy(), trace.spacing)


def check_smoothing_window(window_ms: float) -> None:
    """Reject a non-positive smoothing window (smooth_trace, PeakParams)."""
    if window_ms <= 0:
        raise ValueError(f"window_ms must be positive, got {window_ms}")


def smoothing_columns(window_ms: float, trace: EnvelopeTrace) -> int:
    """Odd number of the trace's columns covering window_ms.

    At most 2n + 1 for a trace of n columns: a centred window that wide
    already covers the whole trace from any column, and the cap keeps the
    count finite when window_ms / spacing overflows.
    """
    n = len(trace.velocities)
    ratio = window_ms / trace.spacing
    if ratio >= 2 * n + 1:
        return 2 * n + 1
    cols = max(1, int(round(ratio)))
    return cols if cols % 2 == 1 else cols + 1
