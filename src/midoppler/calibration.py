"""Pixel <-> physical unit conversions driven by the calibration manifest.

Rows map linearly to velocity around the baseline row; columns map linearly
to time from the left edge of the spectral region. Sub-pixel positions are
carried as floats; rounding happens only when rendering back to pixels.
"""

from .ingestion import CalibrationManifest


def row_to_velocity(row: float, manifest: CalibrationManifest) -> float:
    """Velocity in m/s at a pixel row; positive on the flow side of baseline."""
    _, y0, _, y1 = manifest.spectral_region
    if not (y0 <= row <= y1):
        raise ValueError(f"row {row} outside spectral_region rows [{y0}, {y1}]")
    velocity = (manifest.baseline_row - row) * manifest.velocity_scale
    return velocity if manifest.flow_above_baseline else -velocity


def velocity_to_row(velocity: float, manifest: CalibrationManifest) -> float:
    """Inverse of row_to_velocity; returns a float row."""
    if not manifest.flow_above_baseline:
        velocity = -velocity
    return manifest.baseline_row - velocity / manifest.velocity_scale


def col_to_time(col: float, manifest: CalibrationManifest) -> float:
    """Time in ms from the spectral left edge at a pixel column."""
    x0, _, x1, _ = manifest.spectral_region
    if not (x0 <= col <= x1):
        raise ValueError(f"column {col} outside spectral_region columns [{x0}, {x1}]")
    return (col - x0) * manifest.time_scale


def time_to_col(time_ms: float, manifest: CalibrationManifest) -> float:
    """Inverse of col_to_time; returns a float column."""
    return manifest.spectral_region[0] + time_ms / manifest.time_scale


def column_time(col: float, manifest: CalibrationManifest) -> float:
    """col_to_time without the bounds check (ECG columns may sit outside)."""
    return (col - manifest.spectral_region[0]) * manifest.time_scale
