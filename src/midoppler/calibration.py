"""Pixel <-> physical unit conversions driven by the calibration manifest.

Rows map linearly to velocity around the baseline row; columns map linearly
to time from the left edge of the spectral region. Sub-pixel positions are
carried as floats; rounding happens only when rendering back to pixels.
"""

from .ingestion import CalibrationManifest


def velocity_to_row(velocity: float, manifest: CalibrationManifest) -> float:
    """Float pixel row of a velocity in m/s (positive on the flow side);
    elementwise on an array of velocities."""
    if not manifest.flow_above_baseline:
        velocity = -velocity
    return manifest.baseline_row - velocity / manifest.velocity_scale


def time_to_col(time_ms: float, manifest: CalibrationManifest) -> float:
    """Float pixel column of a time in ms from the spectral left edge."""
    return manifest.spectral_region[0] + time_ms / manifest.time_scale


def column_time(col: float, manifest: CalibrationManifest) -> float:
    """Time in ms of a pixel column, measured from the spectral left edge.

    Columns outside the spectral region (the ECG strip may be wider) are
    extrapolated on the same scale.
    """
    return (col - manifest.spectral_region[0]) * manifest.time_scale
