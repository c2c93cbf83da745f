"""Annotated review images: envelope border plus per-beat measurement marks.

Five distinct colors, one per annotation role: envelope border polyline,
E-peak markers, A-peak markers, slope-change points, and the extrapolated
baseline crossing of the deceleration line. Velocities and times map to
float pixel rows and columns through the manifest; rounding happens only
when drawing.
"""

import numpy as np

from .ingestion import CalibrationManifest, RasterImage
from .segmentation import EnvelopeTrace

BORDER_COLOR = (60, 120, 255)
E_COLOR = (255, 165, 0)
A_COLOR = (0, 200, 80)
SLOPE_COLOR = (255, 40, 40)
CROSSING_COLOR = (255, 0, 255)

_MARKER_HALF = 2  # 5x5 squares


def velocity_to_row(velocity: float, manifest: CalibrationManifest) -> float:
    """Float pixel row of a velocity in m/s (positive on the flow side);
    elementwise on an array of velocities."""
    if not manifest.flow_above_baseline:
        velocity = -velocity
    return manifest.baseline_row - velocity / manifest.velocity_scale


def time_to_col(time_ms: float, manifest: CalibrationManifest) -> float:
    """Float pixel column of a time in ms from the spectral left edge."""
    return manifest.spectral_region[0] + time_ms / manifest.time_scale


def _draw_marker(pixels, row, col, color):
    h, w = pixels.shape[:2]
    r0 = max(0, row - _MARKER_HALF)
    r1 = min(h, row + _MARKER_HALF + 1)
    c0 = max(0, col - _MARKER_HALF)
    c1 = min(w, col + _MARKER_HALF + 1)
    if r0 < r1 and c0 < c1:
        pixels[r0:r1, c0:c1] = color


def render_overlay(
    image: RasterImage,
    manifest: CalibrationManifest,
    trace: EnvelopeTrace,
    beats,
) -> RasterImage:
    """Return a copy of the image with the border polyline and, per
    BeatMeasurement, its E, A, slope-change and crossing markers."""
    pixels = image.pixels.copy()
    h, w = pixels.shape[:2]
    x0 = manifest.spectral_region[0]

    cols = x0 + np.arange(len(trace.velocities))
    rows = np.round(velocity_to_row(trace.velocities, manifest)).astype(np.int64)
    keep = (cols >= 0) & (cols < w) & (rows >= 0) & (rows < h)
    pixels[rows[keep], cols[keep]] = BORDER_COLOR

    def mark(time_ms, velocity, color):
        col = int(round(time_to_col(time_ms, manifest)))
        row = int(round(velocity_to_row(velocity, manifest)))
        _draw_marker(pixels, row, col, color)

    for b in beats:
        mark(b.e_time, b.e_velocity, E_COLOR)
        if b.a_time is not None:
            mark(b.a_time, b.a_velocity, A_COLOR)
        if b.slope_change_time is not None:
            mark(b.slope_change_time, b.slope_change_velocity, SLOPE_COLOR)
        if b.crossing_time is not None:
            mark(b.crossing_time, 0.0, CROSSING_COLOR)

    return RasterImage(pixels)
