from dataclasses import replace

import numpy as np
import pytest

from midoppler.ingestion import CalibrationManifest, RasterImage
from midoppler.measurement import PeakParams, detect_flow_peaks, measure_beats
from midoppler.segmentation import EnvelopeMask, EnvelopeTrace, smooth_trace
from midoppler.synth import (
    BACKGROUND_INTENSITY,
    ENVELOPE_INTENSITY,
    AliasBand,
    SynthParams,
    generate_synthetic,
)


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


def make_trace(velocities, spacing_ms=2.5, gaps=None) -> EnvelopeTrace:
    velocities = np.asarray(velocities, dtype=np.float64)
    if gaps is None:
        gaps = np.zeros(len(velocities), dtype=bool)
    return EnvelopeTrace(velocities=velocities, gap_flags=np.asarray(gaps, bool), spacing=spacing_ms)


def measure_trace(trace, qrs):
    """measure_beats on a raw trace, smoothed and peak-gated as measure_study does."""
    params = PeakParams()
    smoothed = smooth_trace(trace, params.smooth_window_ms)
    return measure_beats(trace, smoothed, detect_flow_peaks(smoothed, params), qrs, params)


def triangle(times, center, half_width, height):
    """Triangular bump evaluated on a time grid."""
    return height * np.clip(1.0 - np.abs(times - center) / half_width, 0.0, None)


def picture_mask(image, manifest) -> EnvelopeMask:
    """The bright pixels of a gray study's spectral region, as an imported mask would mark them."""
    x0, y0, x1, y1 = manifest.spectral_region
    return EnvelopeMask(image.pixels[y0:y1 + 1, x0:x1 + 1, 0] >= 128)


def alias_band_only(seed=25):
    """A study whose only bright signal is the alias band, on the far side of the baseline."""
    image, manifest, _ = generate_synthetic(
        SynthParams(seed=seed, noise_sigma=0.15, artifacts=(AliasBand(),))
    )
    x0, y0, x1, _ = manifest.spectral_region
    pixels = image.pixels.copy()
    # the flow side and the two baseline band rows just past the baseline
    pixels[y0:manifest.baseline_row + 3, x0:x1 + 1] = BACKGROUND_INTENSITY
    return RasterImage(pixels), manifest


def mirrored(image, manifest):
    """The study with its spectral rows flipped, so the flow lies below the baseline."""
    x0, y0, x1, y1 = manifest.spectral_region
    pixels = image.pixels.copy()
    pixels[y0:y1 + 1, x0:x1 + 1] = pixels[y0:y1 + 1, x0:x1 + 1][::-1]
    flipped = replace(
        manifest, flow_above_baseline=False, baseline_row=y0 + y1 - manifest.baseline_row
    )
    return RasterImage(pixels), flipped


def one_level_region(level):
    """A small study whose spectral region is filled with one gray level."""
    image, manifest, _ = generate_synthetic(SynthParams(width=400, height=480, n_beats=2))
    x0, y0, x1, y1 = manifest.spectral_region
    pixels = image.pixels.copy()
    pixels[y0:y1 + 1, x0:x1 + 1] = level
    return RasterImage(pixels), manifest


def checkerboard_region():
    """A small study whose spectral region is a checkerboard: one-row specks
    in every column, which the median keeps and the vertical opening removes."""
    image, manifest, _ = generate_synthetic(SynthParams(width=400, height=480, n_beats=2))
    x0, y0, x1, y1 = manifest.spectral_region
    rows, cols = np.mgrid[y0:y1 + 1, x0:x1 + 1]
    bright = ((rows + cols) % 2 == 0)[..., None]
    pixels = image.pixels.copy()
    pixels[y0:y1 + 1, x0:x1 + 1] = np.where(bright, ENVELOPE_INTENSITY, BACKGROUND_INTENSITY)
    return RasterImage(pixels), manifest


@pytest.fixture
def manifest():
    return make_manifest()
