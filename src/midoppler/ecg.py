"""Embedded ECG recovery by color keying, and QRS peak detection.

The ECG strip burned into the image is isolated by matching pixels to the
manifest color key within a per-channel tolerance, reduced to one amplitude
per column (row centroid, inverted so up on screen is positive), then
scanned for QRS complexes with a derivative-energy threshold detector. The
threshold is relative (a fraction of the 98th percentile of the squared
first difference) so display gain does not matter.

Column i of the strip lies (ecg_x0 - sx0 + i) * time_scale ms from the
spectral region's left edge sx0, negative where the strip starts left of
it. The QRS marks and the --dump-ecg CSV both read this one axis.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EcgExtractionError
from .ingestion import CalibrationManifest, RasterImage

# QRS energy threshold, as a fraction of the 98th-percentile derivative energy
_QRS_THRESHOLD_FRACTION = 0.5


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

    def __post_init__(self):
        if self.refractory_ms <= 0:
            raise ValueError(f"refractory_ms must be positive, got {self.refractory_ms}")


def extract_ecg(image: RasterImage, manifest: CalibrationManifest) -> EcgSignal:
    """Recover the ECG waveform from the ecg_region by color keying.

    A pixel matches when every channel lies within the tolerance of the key
    channel. Each region row is keyed as one run of channel bytes: a byte
    lies in its channel's range lo..hi (bounds clamped to 0..255) exactly
    when (byte - lo) mod 256 <= hi - lo, so the uint8 subtraction's
    wraparound does the test. A pixel matches when its three bytes do. The
    column counts and the row-index sums behind the centroids come from one
    float64 matmul; they are integers, so float64 holds them exactly.
    """
    x0, y0, x1, y1 = manifest.ecg_region
    region = image.pixels[y0:y1 + 1, x0:x1 + 1]
    height, width = region.shape[:2]
    tolerance = manifest.ecg_color_tolerance
    lo = np.array([max(key - tolerance, 0) for key in manifest.ecg_color], np.uint8)
    span = np.array([min(key + tolerance, 255) for key in manifest.ecg_color], np.uint8) - lo
    rows = region.reshape(height, width * 3)
    in_range = (rows - np.tile(lo, width)) <= np.tile(span, width)
    # byte k and its next two all in range; a pixel's verdict sits on its first byte
    runs = in_range[:, :-2] & in_range[:, 1:-1]
    runs &= in_range[:, 2:]
    match = runs[:, ::3]
    counts, row_sums = np.stack((np.ones(height), np.arange(height, dtype=np.float64))) @ match
    if not counts.any():
        raise EcgExtractionError(
            f"no pixel within tolerance {manifest.ecg_color_tolerance} of color "
            f"{manifest.ecg_color} in ecg_region"
        )

    valid = counts > 0
    centroid = row_sums / np.maximum(counts, 1)
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

    Squared first differences above _QRS_THRESHOLD_FRACTION times their
    98th percentile are grouped into runs; each run contributes the amplitude
    maximum of the columns it spans. Candidates closer than refractory_ms
    keep only the taller one. An energy-free signal yields no marks.
    """
    amp = np.asarray(signal.samples, dtype=np.float64)
    if amp.size < 3:
        return QrsMarks(times=np.empty(0))
    energy = np.diff(amp) ** 2
    threshold = _QRS_THRESHOLD_FRACTION * _percentile(energy, 98.0)
    supra = energy > threshold
    edges = np.diff(np.concatenate(([0], supra.astype(np.int8), [0])))
    starts = np.nonzero(edges == 1)[0]
    ends = np.nonzero(edges == -1)[0]  # exclusive, in diff index space

    candidates = []
    for s, e in zip(starts, ends):
        span = amp[s:e + 1]  # diff run [s, e) covers columns s .. e
        candidates.append(s + int(np.argmax(span)))

    kept_cols: list[int] = []
    for col in candidates:
        if kept_cols:
            gap_ms = (col - kept_cols[-1]) * manifest.time_scale
            if gap_ms < params.refractory_ms:
                if amp[col] > amp[kept_cols[-1]]:
                    kept_cols[-1] = col
                continue
        kept_cols.append(col)

    return QrsMarks(times=_column_times(np.array(kept_cols, dtype=np.int64), manifest))


def _column_times(columns: np.ndarray, manifest: CalibrationManifest) -> np.ndarray:
    """Times in ms of ECG-region columns (an integer array), measured from
    the spectral left edge; a strip that starts left of the spectral region
    gets negative times there, on the same scale."""
    return (columns + (manifest.ecg_region[0] - manifest.spectral_region[0])) * manifest.time_scale


def _percentile(values: np.ndarray, q: float) -> float:
    """np.percentile(values, q) of a 1-D float64 array of finite values, to the bit.

    numpy's default 'linear' method step by step: the virtual index
    (n - 1) * q / 100, the same np.partition call on the two order
    statistics around it, and numpy's _lerp, which interpolates from the
    upper neighbour once the fraction reaches 0.5. At or past the last
    index both neighbours are the maximum and the fraction is counted from
    index -1, as numpy counts it. np.percentile imports numpy.ma on its
    first call, which costs a fresh process about 13 ms.
    """
    n = len(values)
    virtual = (n - 1) * (q / 100)
    if virtual >= n - 1:
        below = above = -1
    else:
        below = math.floor(virtual)
        above = below + 1
    ordered = np.partition(values, sorted({0, -1, below, above}))
    low, high = float(ordered[below]), float(ordered[above])
    fraction = virtual - below
    step = high - low
    if fraction >= 0.5:
        return high - step * (1 - fraction)
    return low + step * fraction


def ecg_csv_text(signal: EcgSignal, manifest: CalibrationManifest) -> str:
    """The --dump-ecg CSV: a header, then time_ms, amplitude_px and valid
    (1 or 0) for each ECG-region column."""
    times = _column_times(np.arange(len(signal.samples)), manifest)
    lines = ["time_ms,amplitude_px,valid"]
    for t, amp, valid in zip(times, signal.samples, signal.valid_flags):
        lines.append(f"{t:.1f},{float(amp):.2f},{int(valid)}")
    return "\n".join(lines) + "\n"
