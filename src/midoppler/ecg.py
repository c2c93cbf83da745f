"""Embedded ECG recovery by color keying, and QRS peak detection.

The ECG strip burned into the image is isolated by matching pixels to the
manifest color key within a per-channel tolerance, reduced to one amplitude
per column (row centroid, inverted so up on screen is positive), then
scanned for QRS complexes with a derivative-energy threshold detector. The
threshold is relative (a fraction of the 98th percentile of the squared
first difference) so display gain does not matter.
"""

from dataclasses import dataclass

import numpy as np

from .calibration import column_time
from .errors import EcgExtractionError
from .ingestion import CalibrationManifest, RasterImage


@dataclass
class EcgSignal:
    """Per-column amplitude in pixel rows above the region bottom.

    valid_flags is False where no pixel matched the color key; those columns
    carry linearly interpolated amplitudes.
    """

    samples: np.ndarray
    valid_flags: np.ndarray

    def __post_init__(self):
        if len(self.samples) != len(self.valid_flags):
            raise ValueError("samples and valid_flags must have equal length")


@dataclass
class QrsMarks:
    """Strictly increasing QRS times in ms from the spectral left edge."""

    times: np.ndarray

    def __len__(self):
        return len(self.times)


@dataclass(frozen=True)
class QrsParams:
    refractory_ms: float = 200.0
    threshold_fraction: float = 0.5  # of the 98th-percentile derivative energy

    def __post_init__(self):
        if self.refractory_ms <= 0:
            raise ValueError(f"refractory_ms must be positive, got {self.refractory_ms}")
        if not (0 < self.threshold_fraction < 1):
            raise ValueError(
                f"threshold_fraction must be in (0, 1), got {self.threshold_fraction}"
            )


def extract_ecg(image: RasterImage, manifest: CalibrationManifest) -> EcgSignal:
    """Recover the ECG waveform from the ecg_region by color keying.

    A pixel matches when every channel lies within the tolerance of the key
    channel. The test runs on the uint8 channels against bounds clamped to
    0..255. The row-index sums behind the centroids are integers, so float64
    holds them exactly.
    """
    x0, y0, x1, y1 = manifest.ecg_region
    region = image.pixels[y0:y1 + 1, x0:x1 + 1]
    tolerance = manifest.ecg_color_tolerance
    match = np.ones(region.shape[:2], dtype=np.bool_)
    for channel, key in enumerate(manifest.ecg_color):
        values = region[..., channel]
        match &= max(key - tolerance, 0) <= values
        match &= values <= min(key + tolerance, 255)
    counts = np.count_nonzero(match, axis=0)
    if not counts.any():
        raise EcgExtractionError(
            f"no pixel within tolerance {manifest.ecg_color_tolerance} of color "
            f"{manifest.ecg_color} in ecg_region"
        )

    height, width = match.shape
    valid = counts > 0
    centroid = (np.arange(height, dtype=np.float64) @ match) / np.maximum(counts, 1)
    amplitude = (height - 1) - centroid  # invert: larger = higher on screen

    cols = np.arange(width)
    measured = np.nonzero(valid)[0]
    samples = np.interp(cols, measured, amplitude[measured])
    return EcgSignal(samples=samples, valid_flags=valid)


def detect_qrs(
    signal: EcgSignal,
    params: QrsParams,
    manifest: CalibrationManifest,
) -> QrsMarks:
    """Derivative-energy QRS detection with refractory enforcement.

    Squared first differences above threshold_fraction times their 98th
    percentile are grouped into runs; each run contributes the amplitude
    maximum of the columns it spans. Candidates closer than refractory_ms
    keep only the taller one. An energy-free signal yields no marks.
    """
    amp = np.asarray(signal.samples, dtype=np.float64)
    if amp.size < 3:
        return QrsMarks(times=np.empty(0))
    energy = np.diff(amp) ** 2
    threshold = params.threshold_fraction * np.percentile(energy, 98.0)
    supra = energy > threshold
    if not supra.any():
        return QrsMarks(times=np.empty(0))

    edges = np.diff(np.concatenate(([0], supra.astype(np.int8), [0])))
    starts = np.nonzero(edges == 1)[0]
    ends = np.nonzero(edges == -1)[0]  # exclusive, in diff index space

    candidates = []
    for s, e in zip(starts, ends):
        span = amp[s:e + 1]  # diff run [s, e) covers columns s .. e
        candidates.append(s + int(np.argmax(span)))

    ecg_x0 = manifest.ecg_region[0]
    kept_cols: list[int] = []
    for col in candidates:
        if kept_cols:
            gap_ms = (col - kept_cols[-1]) * manifest.time_scale
            if gap_ms < params.refractory_ms:
                if amp[col] > amp[kept_cols[-1]]:
                    kept_cols[-1] = col
                continue
        kept_cols.append(col)

    times = np.array([column_time(ecg_x0 + c, manifest) for c in kept_cols])
    return QrsMarks(times=times)


def ecg_csv_rows(signal: EcgSignal, manifest: CalibrationManifest):
    """Yield (time_ms, amplitude_px, valid) rows for CSV dumping."""
    ecg_x0 = manifest.ecg_region[0]
    for i, (amp, valid) in enumerate(zip(signal.samples, signal.valid_flags)):
        yield column_time(ecg_x0 + i, manifest), float(amp), bool(valid)
