import numpy as np
import pytest

from midoppler.ingestion import CalibrationManifest
from midoppler.measurement import PeakParams, detect_flow_peaks, measure_beats
from midoppler.segmentation import EnvelopeTrace, smooth_trace


def make_manifest(**overrides) -> CalibrationManifest:
    """Manifest fitting a 200x150 test image unless overridden."""
    values = dict(
        label="mitral_inflow",
        velocity_scale=0.005,
        time_scale=2.5,
        baseline_row=90,
        spectral_region=(10, 10, 189, 99),
        flow_above_baseline=True,
        ecg_region=(10, 110, 189, 140),
    )
    values.update(overrides)
    return CalibrationManifest(**values)


def make_trace(velocities, spacing_ms=2.5, t0=0.0, gaps=None) -> EnvelopeTrace:
    velocities = np.asarray(velocities, dtype=np.float64)
    times = t0 + spacing_ms * np.arange(len(velocities))
    if gaps is None:
        gaps = np.zeros(len(velocities), dtype=bool)
    return EnvelopeTrace(times=times, velocities=velocities, gap_flags=np.asarray(gaps, bool))


def measure_trace(trace, qrs, manifest):
    """measure_beats on a raw trace, smoothed and peak-gated as measure_study does."""
    params = PeakParams()
    smoothed = smooth_trace(trace, params.smooth_window_ms)
    return measure_beats(trace, smoothed, detect_flow_peaks(smoothed, params), qrs, manifest, params)


def triangle(times, center, half_width, height):
    """Triangular bump evaluated on a time grid."""
    return height * np.clip(1.0 - np.abs(times - center) / half_width, 0.0, None)


@pytest.fixture
def manifest():
    return make_manifest()
