"""The study pipeline, E/A peak detection, QRS-gated beat labeling, DT, means.

Beats are bounded by consecutive QRS marks. Within a window the last flow
peak is the A wave (atrial contraction immediately precedes the QRS) and
the largest remaining peak is the E wave; a lone peak is treated as a fused
E with a quality flag rather than a guessed A.

Deceleration time extends a line from the E peak to the first
slope-change point on the descent (absolute second derivative of the
smoothed trace above a threshold) and intersects it with the zero-velocity
baseline. Monotone descents that never change slope fall back to the point
where the trace reaches 5% of the E velocity, which lies on the same line
for a straight descent, and are flagged.
"""

import csv
import io
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy.signal import find_peaks

from .ecg import EcgSignal, QrsMarks, QrsParams, detect_qrs, extract_ecg
from .errors import LabelingError, MidopplerError, RoutingRejection
from .ingestion import (
    CalibrationManifest,
    RasterImage,
    atomic_write_text,
    route_image,
    validate_manifest,
)
from .segmentation import (
    EnvelopeMask,
    EnvelopeTrace,
    SegmentationParams,
    check_smoothing_window,
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


@dataclass(frozen=True)
class FlowPeak:
    time: float        # ms
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
        check_smoothing_window(self.smooth_window_ms)


@dataclass(frozen=True)
class DtParams:
    curvature_threshold: float = 1e-4  # m/s per ms^2
    skip_ms: float = 10.0              # ignore curvature right at the peak

    def __post_init__(self):
        if self.curvature_threshold <= 0 or self.skip_ms <= 0:
            raise ValueError("DT parameters must be positive")


@dataclass(frozen=True)
class LabeledBeat:
    window: tuple          # (start_ms, end_ms), QRS to QRS
    e_peak: FlowPeak
    a_peak: FlowPeak | None
    flags: frozenset


@dataclass(frozen=True)
class DtResult:
    dt_ms: float | None
    slope_change_time: float | None
    slope_change_velocity: float | None
    crossing_time: float | None
    flags: frozenset


@dataclass(frozen=True)
class BeatMeasurement:
    e_velocity: float
    a_velocity: float | None
    ea_ratio: float | None
    dt_ms: float | None
    e_time: float
    a_time: float | None
    quality: frozenset


@dataclass(frozen=True)
class BeatDetail:
    """BeatMeasurement plus the DT geometry needed for overlays."""

    measurement: BeatMeasurement
    slope_change_time: float | None
    slope_change_velocity: float | None
    crossing_time: float | None


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
    details: list            # one BeatDetail per labeled beat
    beats: list              # their BeatMeasurements


def detect_flow_peaks(trace: EnvelopeTrace, params: PeakParams | None = None):
    """Local maxima passing the prominence and width gates, in time order.

    Prominence is standard topographic prominence; width is measured at half
    prominence, in ms. Narrow artifact spikes fail the width gate.
    """
    params = params or PeakParams()
    velocities = trace.velocities
    if velocities.size == 0:
        raise ValueError("trace is empty")
    if velocities.size < 3:
        return []
    spacing = trace.spacing()
    indices, props = find_peaks(
        velocities,
        prominence=params.min_prominence,
        width=params.min_width_ms / spacing,
        rel_height=0.5,
    )
    return [
        FlowPeak(
            time=float(trace.times[i]),
            velocity=float(velocities[i]),
            prominence=float(props["prominences"][k]),
            width=float(props["widths"][k] * spacing),
        )
        for k, i in enumerate(indices)
    ]


def label_beats(peaks, qrs: QrsMarks):
    """Assign E and A labels inside each QRS-to-QRS window.

    The last peak before the closing QRS is the A wave; the largest earlier
    peak is the E wave. A window holding a single peak yields an E with the
    fused_ea flag and no A. Peakless windows are dropped.
    """
    if len(qrs) < 2:
        raise LabelingError("need at least two QRS marks to bound a beat window")
    labeled = []
    times = qrs.times
    for q0, q1 in zip(times, times[1:]):
        in_window = [p for p in peaks if q0 <= p.time < q1]
        if not in_window:
            continue
        if len(in_window) == 1:
            labeled.append(
                LabeledBeat(
                    window=(float(q0), float(q1)),
                    e_peak=in_window[0],
                    a_peak=None,
                    flags=frozenset({FLAG_FUSED_EA}),
                )
            )
            continue
        a_peak = in_window[-1]
        e_peak = max(in_window[:-1], key=lambda p: p.velocity)
        labeled.append(
            LabeledBeat(
                window=(float(q0), float(q1)),
                e_peak=e_peak,
                a_peak=a_peak,
                flags=frozenset(),
            )
        )
    return labeled


def deceleration_time(
    trace: EnvelopeTrace,
    e_peak: FlowPeak,
    params: DtParams | None = None,
) -> DtResult:
    """Slope-change extrapolation of the E-wave descent to the baseline.

    Walks the descent from skip_ms past the peak. The first sample whose
    absolute discrete second derivative exceeds curvature_threshold becomes
    the slope-change point; if the trace reaches 5% of the E velocity first,
    that crossing is used instead and the beat is flagged no_slope_change.
    Running off the trace before either event yields an absent DT.
    """
    params = params or DtParams()
    times, velocities = trace.times, trace.velocities
    n = len(times)
    if n < 2:
        raise ValueError("trace too short for DT")
    spacing = trace.spacing()
    peak_idx = int(round((e_peak.time - times[0]) / spacing))
    if not (0 <= peak_idx < n):
        raise ValueError("E peak lies outside the trace")

    v_peak = float(e_peak.velocity)
    t_peak = float(e_peak.time)
    floor = 0.05 * v_peak
    start = peak_idx + max(1, math.ceil(params.skip_ms / spacing))

    flags = set()
    stop_idx = None
    spacing_sq = spacing * spacing
    i = start
    while 0 < i < n - 1:
        if velocities[i] <= floor:
            stop_idx = i
            flags.add(FLAG_NO_SLOPE_CHANGE)
            break
        curvature = (velocities[i + 1] - 2 * velocities[i] + velocities[i - 1]) / spacing_sq
        if abs(curvature) > params.curvature_threshold:
            stop_idx = i
            break
        i += 1

    if stop_idx is None:
        flags.add(FLAG_NO_SLOPE_CHANGE)
        if trace.gap_flags[peak_idx:].any():
            flags.add(FLAG_GAP_IN_DESCENT)
        return DtResult(None, None, None, None, frozenset(flags))

    if trace.gap_flags[peak_idx:stop_idx + 1].any():
        flags.add(FLAG_GAP_IN_DESCENT)
    t_stop = float(times[stop_idx])
    v_stop = float(velocities[stop_idx])
    if v_stop >= v_peak or t_stop <= t_peak:
        flags.add(FLAG_NO_SLOPE_CHANGE)
        return DtResult(None, t_stop, v_stop, None, frozenset(flags))

    # line through (t_peak, v_peak) and (t_stop, v_stop), intersected with 0
    crossing = t_peak + v_peak * (t_stop - t_peak) / (v_peak - v_stop)
    return DtResult(crossing - t_peak, t_stop, v_stop, crossing, frozenset(flags))


def _refine_peak(raw: EnvelopeTrace, peak: FlowPeak, radius: int) -> FlowPeak:
    """Snap a smoothed-trace peak to the raw trace maximum nearby.

    Smoothing clips sharp apexes, so amplitudes are read from the unsmoothed
    trace within half a smoothing window of the detected position.
    """
    spacing = raw.spacing()
    idx = int(round((peak.time - raw.times[0]) / spacing))
    lo = max(0, idx - radius)
    hi = min(len(raw.velocities), idx + radius + 1)
    j = lo + int(np.argmax(raw.velocities[lo:hi]))
    return FlowPeak(
        time=float(raw.times[j]),
        velocity=float(raw.velocities[j]),
        prominence=peak.prominence,
        width=peak.width,
    )


def measure_beats(
    raw_trace: EnvelopeTrace,
    smoothed: EnvelopeTrace,
    peaks,
    qrs: QrsMarks,
    peak_params: PeakParams | None = None,
    dt_params: DtParams | None = None,
):
    """Per-beat E, A and DT from the flow peaks detected on the smoothed trace.

    Peak amplitudes are read back from the raw trace within half a smoothing
    window (peak_params.smooth_window_ms). Returns a list of BeatDetail;
    empty when fewer than two QRS marks or no peaks exist.
    """
    peak_params = peak_params or PeakParams()
    dt_params = dt_params or DtParams()
    if len(qrs) < 2 or not peaks:
        return []
    labeled = label_beats(peaks, qrs)
    refine_radius = smoothing_columns(peak_params.smooth_window_ms, raw_trace.spacing()) // 2 + 1

    details = []
    for beat in labeled:
        e_ref = _refine_peak(raw_trace, beat.e_peak, refine_radius)
        a_ref = _refine_peak(raw_trace, beat.a_peak, refine_radius) if beat.a_peak else None
        dt_res = deceleration_time(smoothed, e_ref, dt_params)
        flags = set(beat.flags) | set(dt_res.flags)
        if a_ref is None:
            flags.add(FLAG_MISSING_A)
        measurement = BeatMeasurement(
            e_velocity=e_ref.velocity,
            a_velocity=a_ref.velocity if a_ref else None,
            ea_ratio=e_ref.velocity / a_ref.velocity if a_ref else None,
            dt_ms=dt_res.dt_ms,
            e_time=e_ref.time,
            a_time=a_ref.time if a_ref else None,
            quality=frozenset(flags),
        )
        details.append(
            BeatDetail(
                measurement=measurement,
                slope_change_time=dt_res.slope_change_time,
                slope_change_velocity=dt_res.slope_change_velocity,
                crossing_time=dt_res.crossing_time,
            )
        )
    return details


def measure_study(
    image: RasterImage,
    manifest: CalibrationManifest,
    *,
    seg_params: SegmentationParams | None = None,
    peak_params: PeakParams | None = None,
    dt_params: DtParams | None = None,
    qrs_params: QrsParams | None = None,
    mask_path=None,
    drop_outliers: bool = False,
) -> StudyRun:
    """Run the whole pipeline on one routed study image.

    Stage failures carry a stage prefix. Individual unmeasurable beats do
    not fail the study; a study where nothing is measurable yields a run
    with zero beats.
    """
    _stage("manifest", validate_manifest, manifest, (image.width, image.height))
    decision = route_image(manifest)
    if not decision.accepted:
        raise RoutingRejection(
            f"label {decision.label!r} is not mitral inflow; study was not routed here"
        )

    peak_params = peak_params or PeakParams()
    if mask_path is not None:
        mask = _stage("mask-import", import_mask, mask_path, manifest)
    else:
        mask = _stage(
            "segmentation", segment_envelope_threshold, image, manifest, seg_params
        )
    trace = _stage("trace", mask_to_trace, mask, manifest)
    ecg = _stage("ecg", extract_ecg, image, manifest)
    qrs = _stage("qrs", detect_qrs, ecg, qrs_params or QrsParams(), manifest)
    smoothed = smooth_trace(trace, peak_params.smooth_window_ms)
    peaks = detect_flow_peaks(smoothed, peak_params)
    details = measure_beats(trace, smoothed, peaks, qrs, peak_params, dt_params)
    beats = [d.measurement for d in details]
    return StudyRun(
        **asdict(summarize_beats(beats, drop_outliers=drop_outliers)),
        mask=mask,
        trace=trace,
        smoothed=smoothed,
        ecg=ecg,
        qrs=qrs,
        peaks=peaks,
        details=details,
        beats=beats,
    )


def _stage(name, fn, *args):
    try:
        return fn(*args)
    except MidopplerError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def _mad_filter(values):
    """Keep values within 2 median-absolute-deviations of the median."""
    arr = np.asarray(values, dtype=np.float64)
    med = np.median(arr)
    mad = np.median(np.abs(arr - med))
    return [v for v in values if abs(v - med) <= 2.0 * mad]


def summarize_beats(beats, drop_outliers: bool = False) -> StudyMeans:
    """Per-field means over beats where the field is present.

    Beats flagged fused_ea contribute no A and no E/A. With drop_outliers,
    values more than 2 MADs from the per-field median are excluded first.
    """
    def collect(getter, exclude_fused=False):
        values = []
        for b in beats:
            if exclude_fused and FLAG_FUSED_EA in b.quality:
                continue
            v = getter(b)
            if v is not None:
                values.append(v)
        if drop_outliers and values:
            values = _mad_filter(values)
        return float(np.mean(values)) if values else None

    return StudyMeans(
        mean_e=collect(lambda b: b.e_velocity),
        mean_a=collect(lambda b: b.a_velocity, exclude_fused=True),
        mean_ea=collect(lambda b: b.ea_ratio, exclude_fused=True),
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
    output and synthetic ground-truth files (same schema).
    """
    text = Path(path).read_text(encoding="utf-8")
    reader = csv.DictReader(io.StringIO(text))
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
