"""The study pipeline, E/A peak detection, QRS-gated beat labeling, DT, means.

Beats are bounded by consecutive QRS marks. Within a window the last flow
peak is the A wave (atrial contraction immediately precedes the QRS) and
the largest remaining peak is the E wave; a lone peak is treated as a fused
E, flagged fused_ea and missing_a, rather than a guessed A.

Deceleration time extends a line from the E peak to the first
slope-change point on the descent (absolute second derivative of the
smoothed trace above _DT_CURVATURE_THRESHOLD) and intersects it with the
zero-velocity baseline. Monotone descents that never change slope fall
back to the point where the trace reaches 5% of the E velocity, which lies
on the same line for a straight descent, and are flagged.
"""

import csv
import io
import math
from dataclasses import asdict, dataclass

import numpy as np

from .ecg import EcgSignal, QrsMarks, QrsParams, detect_qrs, extract_ecg
from .errors import MidopplerError
from .ingestion import CalibrationManifest, RasterImage, atomic_write_text, read_file
from .segmentation import (
    EnvelopeMask,
    EnvelopeTrace,
    SegmentationParams,
    import_mask,
    mask_to_trace,
    segment_envelope_threshold,
    smooth_trace,
    smoothing_columns,
)

FLAG_FUSED_EA = "fused_ea"
FLAG_GAP_IN_DESCENT = "gap_in_descent"
FLAG_NO_SLOPE_CHANGE = "no_slope_change"
FLAG_MISSING_A = "missing_a"

CSV_HEADER = "beat,e_mps,a_mps,ea_ratio,dt_ms,e_time_ms,a_time_ms,flags"

# m/s per ms^2: the |second derivative| that marks the DT slope-change point
_DT_CURVATURE_THRESHOLD = 1e-4
# ms after the E apex whose curvature DT ignores, the rounded top of the wave
_DT_SKIP_MS = 10.0


@dataclass(frozen=True)
class FlowPeak:
    column: int        # of the trace it was detected on
    time: float        # ms, column * spacing
    velocity: float    # m/s
    prominence: float  # m/s above the higher flanking minimum
    width: float       # ms at half prominence


@dataclass(frozen=True)
class PeakParams:
    min_prominence: float = 0.15  # m/s
    min_width_ms: float = 30.0
    smooth_window_ms: float = 15.0  # peaks are found on the trace smoothed over this

    def __post_init__(self):
        if self.min_prominence <= 0 or self.min_width_ms <= 0:
            raise ValueError("peak gates must be positive")
        if self.smooth_window_ms <= 0:
            raise ValueError(f"window_ms must be positive, got {self.smooth_window_ms}")


@dataclass(frozen=True)
class DtResult:
    dt_ms: float | None
    slope_change_time: float | None
    slope_change_velocity: float | None
    crossing_time: float | None
    flags: frozenset


@dataclass(frozen=True)
class BeatMeasurement:
    """One beat: its CSV fields, its quality flags, and the DT geometry
    (slope-change point, baseline crossing) that overlays draw."""

    e_velocity: float
    a_velocity: float | None
    ea_ratio: float | None
    dt_ms: float | None
    e_time: float
    a_time: float | None
    quality: frozenset = frozenset()
    slope_change_time: float | None = None
    slope_change_velocity: float | None = None
    crossing_time: float | None = None


@dataclass(frozen=True)
class StudyMeans:
    mean_e: float | None
    mean_a: float | None
    mean_ea: float | None
    mean_dt: float | None
    n_beats: int


@dataclass(frozen=True)
class StudyRun(StudyMeans):
    """One study through the pipeline: its means and what led to them."""

    mask: EnvelopeMask
    trace: EnvelopeTrace     # raw border velocity per spectral column
    smoothed: EnvelopeTrace  # the trace the peaks and DT are read from
    ecg: EcgSignal
    qrs: QrsMarks
    peaks: list              # FlowPeaks detected on the smoothed trace
    beats: list              # one BeatMeasurement per labeled beat


def detect_flow_peaks(trace: EnvelopeTrace, params: PeakParams = PeakParams()):
    """Local maxima passing the prominence and width gates, in time order.

    A plateau of equal samples peaks at its middle sample (rounded down).
    Prominence is standard topographic prominence over the whole trace (no
    window); width is measured at half prominence, in ms, interpolated
    linearly between samples. Narrow artifact spikes fail the width gate.
    """
    velocities = trace.velocities
    if velocities.size == 0:
        raise ValueError("trace is empty")
    spacing = trace.spacing
    return [
        FlowPeak(
            column=i,
            time=i * spacing,
            velocity=float(velocities[i]),
            prominence=prominence,
            width=width * spacing,
        )
        for i, prominence, width in _find_peaks(
            velocities, params.min_prominence, params.min_width_ms / spacing
        )
    ]


def _find_peaks(x: np.ndarray, min_prominence: float, min_width: float):
    """(index, prominence, width) of each peak of x passing both gates.

    The subset of ``scipy.signal.find_peaks(x, prominence=min_prominence,
    width=min_width, rel_height=0.5)`` that detect_flow_peaks uses, with the
    same float operations, so prominences and widths (in samples) are equal
    to the bit. The prominence gate is applied before widths are measured.
    """
    # A peak is a run of equal samples entered by a rise and left by a fall.
    steps = np.diff(x)
    changes = steps.nonzero()[0]  # i where x[i + 1] != x[i]
    rises = steps[changes] > 0
    runs = (rises[:-1] > rises[1:]).nonzero()[0]
    if runs.size == 0:
        return []
    peaks = ((changes[runs] + 1 + changes[runs + 1]) // 2).tolist()
    # Between two neighbouring peaks x falls and then rises, so each side of
    # a peak is a chain of such valleys, broken by the first higher peak.
    valleys = np.minimum.reduceat(x, [0] + peaks).tolist()
    values = memoryview(x)
    tops = [values[p] for p in peaks]
    left_mins = _lowest_valleys(tops, valleys[:-1])
    right_mins = _lowest_valleys(tops[::-1], valleys[:0:-1])[::-1]

    found = []
    for p, top, left, right in zip(peaks, tops, left_mins, right_mins):
        prominence = top - max(left, right)
        if prominence < min_prominence:
            continue
        # height >= max(left, right), so each walk stops on its own side's
        # lowest sample at the latest; scipy's bound at the base never acts.
        height = top - prominence * 0.5
        i = p
        while height < values[i]:
            i -= 1
        left_ip = float(i)
        if values[i] < height:
            left_ip += (height - values[i]) / (values[i + 1] - values[i])
        i = p
        while height < values[i]:
            i += 1
        right_ip = float(i)
        if values[i] < height:
            right_ip -= (height - values[i]) / (values[i - 1] - values[i])
        width = right_ip - left_ip
        if width >= min_width:
            found.append((p, prominence, width))
    return found


def _lowest_valleys(tops, valleys):
    """Per peak, the lowest valley met walking away from it to a higher peak.

    valleys[k] lies on the walking side of peak k. Peaks no higher than the
    current one are passed (scipy walks over samples <= the peak), so a
    stack keeps the lowest valley up to each peak still able to stop a walk.
    """
    lowest, stack = [], []
    for top, low in zip(tops, valleys):
        while stack and stack[-1][0] <= top:
            low = min(low, stack.pop()[1])
        lowest.append(low)
        stack.append((top, low))
    return lowest


def label_beats(peaks, qrs: QrsMarks):
    """(E, A) flow peak pairs, one per QRS-to-QRS window holding a peak.

    The last peak before the closing QRS is the A wave; the largest earlier
    peak is the E wave. A window holding a single peak yields (E, None): E
    and A are fused and no A is guessed. Peakless windows are dropped, and
    fewer than two marks bound no window.
    """
    pairs = []
    times = qrs.times
    for q0, q1 in zip(times, times[1:]):
        in_window = [p for p in peaks if q0 <= p.time < q1]
        if len(in_window) == 1:
            pairs.append((in_window[0], None))
        elif in_window:
            pairs.append((max(in_window[:-1], key=lambda p: p.velocity), in_window[-1]))
    return pairs


def deceleration_time(
    trace: EnvelopeTrace,
    e_column: int,
    e_velocity: float,
) -> DtResult:
    """Slope-change extrapolation of the E-wave descent to the baseline.

    The line starts at the E apex column and velocity read from the raw
    trace; the descent is walked on this trace from _DT_SKIP_MS past the
    apex. The first sample whose absolute discrete second derivative exceeds
    _DT_CURVATURE_THRESHOLD becomes the slope-change point; if the trace
    reaches 5% of the E velocity first, that crossing is used instead and
    the beat is flagged no_slope_change. Running off the trace before
    either event, as a one-column trace does, yields an absent DT flagged
    no_slope_change. Times are column * trace.spacing. An apex column
    outside the trace is a ValueError.
    """
    velocities, spacing = trace.velocities, trace.spacing
    n = len(velocities)
    if not (0 <= e_column < n):
        raise ValueError("E peak lies outside the trace")

    v_peak = float(e_velocity)
    floor = 0.05 * v_peak
    start = e_column + max(1, math.ceil(_DT_SKIP_MS / spacing))

    flags = set()
    stop_idx = None
    spacing_sq = spacing * spacing
    values = memoryview(velocities)  # Python floats, not numpy scalars, per sample
    i = start
    while 0 < i < n - 1:
        if values[i] <= floor:
            stop_idx = i
            flags.add(FLAG_NO_SLOPE_CHANGE)
            break
        curvature = (values[i + 1] - 2 * values[i] + values[i - 1]) / spacing_sq
        if abs(curvature) > _DT_CURVATURE_THRESHOLD:
            stop_idx = i
            break
        i += 1

    if stop_idx is None:
        flags.add(FLAG_NO_SLOPE_CHANGE)
        if trace.gap_flags[e_column:].any():
            flags.add(FLAG_GAP_IN_DESCENT)
        return DtResult(None, None, None, None, frozenset(flags))

    if trace.gap_flags[e_column:stop_idx + 1].any():
        flags.add(FLAG_GAP_IN_DESCENT)
    t_stop = stop_idx * spacing
    v_stop = values[stop_idx]
    if v_stop >= v_peak:
        flags.add(FLAG_NO_SLOPE_CHANGE)
        return DtResult(None, t_stop, v_stop, None, frozenset(flags))

    # line through (t_peak, v_peak) and the later (t_stop, v_stop), intersected with 0
    t_peak = e_column * spacing
    crossing = t_peak + v_peak * (t_stop - t_peak) / (v_peak - v_stop)
    return DtResult(crossing - t_peak, t_stop, v_stop, crossing, frozenset(flags))


def _refine_peak(raw: EnvelopeTrace, peak: FlowPeak, radius: int) -> int:
    """Column of the raw trace maximum within radius columns of a
    smoothed-trace peak's column.

    Smoothing clips sharp apexes, so amplitudes are read from the unsmoothed
    trace, which shares the smoothed trace's columns.
    """
    lo = max(0, peak.column - radius)
    return lo + int(np.argmax(raw.velocities[lo:peak.column + radius + 1]))


def measure_beats(
    raw_trace: EnvelopeTrace,
    smoothed: EnvelopeTrace,
    peaks,
    qrs: QrsMarks,
    peak_params: PeakParams = PeakParams(),
):
    """Per-beat E, A and DT from the flow peaks detected on the smoothed trace.

    Peak amplitudes and times are read back from the raw trace within half a
    smoothing window (peak_params.smooth_window_ms); DT walks the smoothed
    descent from the raw E apex column. A window without an A peak is the
    one place that sets both fused_ea and missing_a, with no A, E/A or A
    time. Returns a list of BeatMeasurement, each with its DT geometry;
    empty when fewer than two QRS marks or no peaks exist.
    """
    radius = smoothing_columns(peak_params.smooth_window_ms, raw_trace) // 2
    velocities, spacing = raw_trace.velocities, raw_trace.spacing

    beats = []
    for e_peak, a_peak in label_beats(peaks, qrs):
        e_col = _refine_peak(raw_trace, e_peak, radius)
        e = float(velocities[e_col])
        dt = deceleration_time(smoothed, e_col, e)
        if a_peak is None:
            a = a_time = ea_ratio = None
            flags = dt.flags | {FLAG_FUSED_EA, FLAG_MISSING_A}
        else:
            a_col = _refine_peak(raw_trace, a_peak, radius)
            a, a_time = float(velocities[a_col]), a_col * spacing
            ea_ratio = e / a
            flags = dt.flags
        beats.append(
            BeatMeasurement(
                e_velocity=e,
                a_velocity=a,
                ea_ratio=ea_ratio,
                dt_ms=dt.dt_ms,
                e_time=e_col * spacing,
                a_time=a_time,
                quality=flags,
                slope_change_time=dt.slope_change_time,
                slope_change_velocity=dt.slope_change_velocity,
                crossing_time=dt.crossing_time,
            )
        )
    return beats


def measure_study(
    image: RasterImage,
    manifest: CalibrationManifest,
    *,
    seg_params: SegmentationParams = SegmentationParams(),
    peak_params: PeakParams = PeakParams(),
    qrs_params: QrsParams = QrsParams(),
    mask_path=None,
    drop_outliers: bool = False,
) -> StudyRun:
    """Run the whole pipeline on one routed study image.

    The caller owns the checks that come before: manifest is one that
    load_manifest checked against this image's size, and route_image
    accepted it. Stage failures carry a stage prefix. Individual
    unmeasurable beats do not fail the study; a study where nothing is
    measurable yields a run with zero beats.
    """
    if mask_path is not None:
        mask = _stage("mask-import", import_mask, mask_path, manifest)
    else:
        mask = _stage(
            "segmentation", segment_envelope_threshold, image, manifest, seg_params
        )
    trace = _stage("trace", mask_to_trace, mask, manifest)
    ecg = _stage("ecg", extract_ecg, image, manifest)
    qrs = _stage("qrs", detect_qrs, ecg, qrs_params, manifest)
    smoothed = smooth_trace(trace, peak_params.smooth_window_ms)
    peaks = detect_flow_peaks(smoothed, peak_params)
    beats = measure_beats(trace, smoothed, peaks, qrs, peak_params)
    return StudyRun(
        **asdict(summarize_beats(beats, drop_outliers=drop_outliers)),
        mask=mask,
        trace=trace,
        smoothed=smoothed,
        ecg=ecg,
        qrs=qrs,
        peaks=peaks,
        beats=beats,
    )


def _stage(name, fn, *args):
    try:
        return fn(*args)
    except MidopplerError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def _mad_filter(values):
    """Keep values within 2 median-absolute-deviations of the median.

    With MAD = 0 (at least half the values equal the median) the band has
    no width and would drop a value one pixel row away, so all are kept.
    """
    arr = np.asarray(values, dtype=np.float64)
    med = np.median(arr)
    mad = np.median(np.abs(arr - med))
    if mad == 0:
        return values
    return [v for v in values if abs(v - med) <= 2.0 * mad]


def summarize_beats(beats, drop_outliers: bool = False) -> StudyMeans:
    """Per-field means over beats where the field is present.

    A fused beat has no A and no E/A, so it adds to the E and DT means
    only. With drop_outliers, values more than 2 MADs from the per-field
    median are excluded first; a field whose MAD is 0 keeps all its values.
    """
    def collect(getter):
        values = [v for v in map(getter, beats) if v is not None]
        if drop_outliers and values:
            values = _mad_filter(values)
        return float(np.mean(values)) if values else None

    return StudyMeans(
        mean_e=collect(lambda b: b.e_velocity),
        mean_a=collect(lambda b: b.a_velocity),
        mean_ea=collect(lambda b: b.ea_ratio),
        mean_dt=collect(lambda b: b.dt_ms),
        n_beats=len(beats),
    )


# ---------------------------------------------------------------------------
# CSV serialization: one row per beat, trailing summary row, fixed formats
# (velocities 3 decimals, times 1 decimal) so outputs are byte-stable.


def _fmt3(value) -> str:
    return "" if value is None else f"{value:.3f}"


def _fmt1(value) -> str:
    return "" if value is None else f"{value:.1f}"


def study_csv_text(beats, means: StudyMeans) -> str:
    lines = [CSV_HEADER]
    for i, b in enumerate(beats, start=1):
        flags = "|".join(sorted(b.quality))
        lines.append(
            f"{i},{_fmt3(b.e_velocity)},{_fmt3(b.a_velocity)},{_fmt3(b.ea_ratio)},"
            f"{_fmt1(b.dt_ms)},{_fmt1(b.e_time)},{_fmt1(b.a_time)},{flags}"
        )
    lines.append(
        f"mean,{_fmt3(means.mean_e)},{_fmt3(means.mean_a)},{_fmt3(means.mean_ea)},"
        f"{_fmt1(means.mean_dt)},,,"
    )
    return "\n".join(lines) + "\n"


def write_study_csv(path, run: StudyRun) -> None:
    atomic_write_text(path, study_csv_text(run.beats, run))


def read_measurement_csv(path):
    """Read a per-beat CSV into {beat_index: {field: value}}.

    The summary row and empty fields are skipped. Works for both pipeline
    output and synthetic ground-truth files (same schema); a file without
    a ``beat`` column is a ValueError that names it.
    """
    # newline=None reads a CR or CRLF line end as a newline, as a text file does
    reader = csv.DictReader(io.StringIO(read_file(path).decode("utf-8"), newline=None))
    if "beat" not in (reader.fieldnames or ()):
        raise ValueError(f"{path}: no 'beat' column, not a per-beat measurement CSV")
    beats = {}
    for row in reader:
        try:
            beat = int(row["beat"])
        except (ValueError, TypeError):
            continue  # summary row
        fields = {}
        for key in ("e_mps", "a_mps", "ea_ratio", "dt_ms", "e_time_ms", "a_time_ms"):
            raw = (row.get(key) or "").strip()
            if raw:
                fields[key] = float(raw)
        beats[beat] = fields
    return beats
