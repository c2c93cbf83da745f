"""Synthetic spectral Doppler study generator with exact ground truth.

Waves are piecewise linear on purpose: peak amplitudes, timings, and the
deceleration-time geometry are then analytically exact, so the generator
can serve as an assumption-free oracle for the measurement pipeline. The E
wave rises linearly to its peak and descends with slope -E/dt; a nonzero
``dt_second_slope_fraction`` inserts a slope-change knee after which the
descent continues at half the initial slope. The A wave is a symmetric
triangle ending shortly before the next QRS. Speckle is multiplicative
uniform noise; artifacts (bright spikes, dropouts, an aliasing band below
the baseline) are drawn after the envelope.

The rendered bytes are part of the oracle's contract (the golden tests pin
them). With ``noise_sigma > 0`` the spectral region takes exactly one draw,
``np.random.default_rng(seed).uniform(-1.0, 1.0, (rows, columns))`` in C
order, and each pixel is ``round_half_even(I * (1 + noise_sigma * u))``
clipped to 0..255, with I = 205 on the truth mask and the two bright rows
below the baseline and 12 elsewhere; with ``noise_sigma == 0`` it is I
itself. The same gray value goes to R, G and B. The draw is taken in blocks
of rows from the one generator, one block after the next; their values are
those of the single C-order draw.
"""

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import GenerationError
from .ingestion import MITRAL_INFLOW_LABEL, CalibrationManifest, RasterImage, atomic_write_text
from .measurement import BeatMeasurement, study_csv_text, summarize_beats

ENVELOPE_INTENSITY = 205
BACKGROUND_INTENSITY = 12
SPIKE_INTENSITY = 235
ALIAS_INTENSITY = 185
SPECKLE_BLOCK_ROWS = 32  # rows of speckle drawn and rendered at a time
MIN_WIDTH = 300
# The ECG strip runs from 30 rows below the spectral region, whose bottom row
# is round(0.818 * height), to 13 rows above the frame's bottom edge, and it
# needs 40 rows; the spare rows never shrink as the height grows, and 454 is
# the first height that leaves 40.
MIN_HEIGHT = 454
# The largest width or height: an 8192 x 8192 frame is 192 MiB of RGB, far
# past any Doppler still, and a larger one may not fit in memory at all.
MAX_SIDE = 8192


@dataclass(frozen=True)
class Spike:
    """Bright artifactual peak attached to the baseline, like a valve click."""

    time_ms: float
    velocity: float
    width_ms: float


@dataclass(frozen=True)
class Dropout:
    """Columns where the flow signal is missing entirely."""

    time_ms: float
    width_ms: float


@dataclass(frozen=True)
class AliasBand:
    """Bright band below the baseline mimicking wrap-around content."""


@dataclass(frozen=True)
class SynthParams:
    e_velocity: float = 0.8     # m/s
    a_velocity: float = 0.5     # m/s; 0 renders a fused (E-only) pattern
    dt: float = 180.0           # ms, E-peak to extrapolated baseline crossing
    heart_rate: float = 60.0    # bpm
    n_beats: int = 3
    dt_second_slope_fraction: float = 0.0  # 0 = straight descent to the foot
    noise_sigma: float = 0.0    # 0..1 speckle intensity
    artifacts: tuple = ()
    seed: int = 0
    label: str = MITRAL_INFLOW_LABEL
    width: int = 1016
    height: int = 758
    # wave timing knobs (defaults fit the whole supported HR range)
    systole_frac: float = 0.30  # fraction of the beat before the E upstroke ends
    e_rise_ms: float = 70.0
    a_half_ms: float = 55.0     # A-wave half width
    a_gap_ms: float = 15.0      # A-wave foot to the next QRS
    lead_in_ms: float = 40.0
    tail_ms: float = 60.0
    e_peak_frac: float | None = None  # overrides systole_frac positioning


@dataclass
class GroundTruth:
    beats: list             # BeatMeasurements: no flags, no DT geometry
    qrs_times: np.ndarray   # ms from the spectral left edge, n_beats + 1 marks
    envelope: np.ndarray    # analytic per-column velocity, m/s
    top_rows: np.ndarray    # uint16 region-local row of the envelope's outer edge per column
    region_shape: tuple     # (rows, columns) of the spectral region
    baseline_row: int       # region-local baseline row
    ecg_rows: np.ndarray    # absolute pixel row of the ECG polyline per column

    @property
    def mask(self) -> np.ndarray:
        """Analytic binary mask over the spectral region, built anew on each read."""
        return _flow_mask(self.top_rows, self.region_shape, self.baseline_row)


def _flow_mask(top_rows: np.ndarray, shape: tuple, baseline_row: int) -> np.ndarray:
    """Each column set from its top row down to the baseline row, inclusive.

    Rows below the baseline are never flow, so one compare over the flow side
    fills the mask; uint16 rows compare several times faster than int64.
    """
    mask = np.zeros(shape, dtype=bool)
    flow_rows = np.arange(baseline_row + 1, dtype=np.uint16)[:, None]
    np.greater_equal(flow_rows, top_rows, out=mask[:baseline_row + 1])
    return mask


def _validate(params: SynthParams) -> None:
    # NaN passes every comparison below, and inf breaks the pixel geometry
    for owner in (params, *params.artifacts):
        prefix = "" if owner is params else f"{type(owner).__name__} "
        for field in fields(owner):
            value = getattr(owner, field.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise GenerationError(f"{prefix}{field.name} must be finite, got {value}")
        if isinstance(owner, (Spike, Dropout)) and owner.width_ms <= 0:
            raise GenerationError(f"{prefix}width_ms must be positive, got {owner.width_ms}")
    if params.e_velocity <= 0:
        raise GenerationError(f"e_velocity must be positive, got {params.e_velocity}")
    if params.a_velocity < 0:
        raise GenerationError(f"a_velocity must be >= 0, got {params.a_velocity}")
    if params.dt <= 0:
        raise GenerationError(f"dt must be positive, got {params.dt}")
    for name, value in (("e_rise_ms", params.e_rise_ms), ("a_half_ms", params.a_half_ms)):
        if value <= 0:
            raise GenerationError(f"{name} must be positive, got {value}")
    for name, value in (("a_gap_ms", params.a_gap_ms), ("lead_in_ms", params.lead_in_ms), ("tail_ms", params.tail_ms)):
        if value < 0:
            raise GenerationError(f"{name} must be >= 0, got {value}")
    if not (30.0 <= params.heart_rate <= 220.0):
        raise GenerationError(f"heart_rate must be in [30, 220], got {params.heart_rate}")
    if params.n_beats < 1:
        raise GenerationError(f"n_beats must be >= 1, got {params.n_beats}")
    if params.seed < 0:
        raise GenerationError(f"seed must be >= 0, got {params.seed}")
    if not (0.0 <= params.noise_sigma <= 1.0):
        raise GenerationError(f"noise_sigma must be in [0, 1], got {params.noise_sigma}")
    if not (0.0 <= params.dt_second_slope_fraction <= 1.0):
        raise GenerationError(
            f"dt_second_slope_fraction must be in [0, 1], got {params.dt_second_slope_fraction}"
        )
    if params.width < MIN_WIDTH:
        raise GenerationError(f"width must be at least {MIN_WIDTH}, got {params.width}")
    if params.height < MIN_HEIGHT:
        raise GenerationError(
            f"height must be at least {MIN_HEIGHT} to fit the ECG strip, got {params.height}"
        )
    for name, side in (("width", params.width), ("height", params.height)):
        if side > MAX_SIDE:
            raise GenerationError(f"{name} must be at most {MAX_SIDE}, got {side}")
    # the manifest is UTF-8, read back line by line with each value stripped, so only a one-line label
    # without surrounding whitespace or lone surrogates (argv's non-UTF-8 bytes) survives the trip
    if params.label != params.label.strip() or len(params.label.splitlines()) > 1:
        raise GenerationError(f"label must be one line without leading or trailing whitespace, got {params.label!r}")
    if any("\ud800" <= c <= "\udfff" for c in params.label):
        raise GenerationError(f"label must be UTF-8 text, got {params.label!r}")


def _draw_beat(
    params: SynthParams, envelope: np.ndarray, times: np.ndarray,
    q_start: float, q_end: float, index: int, time_scale: float,
) -> tuple:
    """Lay out beat index between its QRS marks and draw its waves onto envelope.

    Returns the (E, A) apex times in ms; A is None for a fused beat. A wave
    that does not fit the beat is a GenerationError naming the beat.
    """
    beat_ms = q_end - q_start

    def snap(t):
        # wave apexes land exactly on a pixel column so the rendered peak
        # carries the full amplitude
        return round(t / time_scale) * time_scale

    def draw(support, values):
        np.maximum(envelope, np.where(support, values, 0.0), out=envelope)

    if params.e_peak_frac is not None:
        e_time = snap(q_start + params.e_peak_frac * beat_ms)
    else:
        e_time = snap(q_start + params.systole_frac * beat_ms + params.e_rise_ms)
    e_on = e_time - params.e_rise_ms
    if e_on < q_start - time_scale:
        raise GenerationError(
            f"beat {index}: E upstroke begins at {e_on:.1f} ms, before the beat "
            f"start at {q_start:.1f} ms"
        )

    if params.a_velocity > 0:
        a_time = snap(q_end - params.a_gap_ms - params.a_half_ms)
        a_on = a_time - params.a_half_ms
        if a_on < q_start:
            raise GenerationError(
                f"beat {index}: A wave does not fit inside a {beat_ms:.0f} ms beat"
            )
        if a_time >= q_end:
            raise GenerationError(f"beat {index}: A peak lands after the closing QRS")
        limit = a_on
    else:
        a_time = None
        limit = q_end - 10.0

    fraction = params.dt_second_slope_fraction
    if fraction > 0:
        knee_time = e_time + (1.0 - fraction) * params.dt
        foot = knee_time + 2.0 * fraction * params.dt  # second slope = s1 / 2
    else:
        knee_time = None
        foot = e_time + params.dt
    if foot > limit + 1e-9:
        target = "the A wave starts" if a_time is not None else "the beat ends"
        raise GenerationError(
            f"beat {index}: E descent ends at {foot:.1f} ms but {target} at "
            f"{limit:.1f} ms (E and A supports overlap); reduce dt or heart_rate"
        )

    draw((times >= e_on) & (times <= e_time), params.e_velocity * (times - e_on) / params.e_rise_ms)
    slope1 = -params.e_velocity / params.dt
    seg1_end = knee_time if knee_time is not None else foot
    draw((times > e_time) & (times <= seg1_end), params.e_velocity + slope1 * (times - e_time))
    if knee_time is not None and foot > knee_time:
        knee_velocity = fraction * params.e_velocity
        slope2 = -knee_velocity / (foot - knee_time)
        draw((times > knee_time) & (times <= foot), knee_velocity + slope2 * (times - knee_time))
    if a_time is not None:
        a_end = a_time + params.a_half_ms
        draw(
            (times >= a_on) & (times <= a_end),
            params.a_velocity * (1.0 - np.abs(times - a_time) / params.a_half_ms),
        )
    return e_time, a_time


def generate_synthetic(params: SynthParams):
    """Render a synthetic study.

    Returns (RasterImage, CalibrationManifest, GroundTruth). Deterministic
    for a given parameter set including the seed.
    """
    _validate(params)
    beat_ms = 60000.0 / params.heart_rate
    total_ms = params.lead_in_ms + params.n_beats * beat_ms + params.tail_ms

    sx0, sy0 = 60, 60
    sx1 = params.width - 61
    sy1 = int(round(params.height * 0.818))
    region_w = sx1 - sx0 + 1
    region_h = sy1 - sy0 + 1
    baseline = sy0 + int(round(0.85 * (sy1 - sy0)))
    baseline_local = baseline - sy0

    time_scale = total_ms / region_w
    spike_velocities = [a.velocity for a in params.artifacts if isinstance(a, Spike)]
    vmax = max(
        1.55 * params.e_velocity,
        1.15 * params.a_velocity,
        1.05 * max(spike_velocities, default=0.0),
        0.8,
    )
    velocity_scale = vmax / (baseline - sy0)

    ey0 = sy1 + 30
    ey1 = min(params.height - 13, ey0 + 95)

    qrs_times = params.lead_in_ms + beat_ms * np.arange(params.n_beats + 1)
    times = np.arange(region_w, dtype=np.float64) * time_scale
    envelope = np.zeros_like(times)
    apexes = [
        _draw_beat(params, envelope, times, qrs_times[i], qrs_times[i + 1], i, time_scale)
        for i in range(params.n_beats)
    ]
    np.clip(envelope, 0.0, None, out=envelope)

    # every column carries at least the baseline row: zero-flow columns show
    # the bright baseline band, so the envelope touches the baseline everywhere
    top = baseline_local - np.round(envelope / velocity_scale).astype(np.int64)
    # MAX_SIDE keeps every region row inside uint16
    top_rows = np.clip(top, 0, baseline_local).astype(np.uint16)
    mask = _flow_mask(top_rows, (region_h, region_w), baseline_local)

    pixels = np.full((params.height, params.width, 3), BACKGROUND_INTENSITY, np.uint8)
    region_view = pixels[sy0:sy1 + 1, sx0:sx1 + 1]
    gray = mask.view(np.uint8) * np.uint8(ENVELOPE_INTENSITY - BACKGROUND_INTENSITY)
    gray += BACKGROUND_INTENSITY
    # the bright baseline band extends two rows below the baseline so that
    # zero-flow columns survive median filtering and opening; the analysis
    # keeps only the flow side, so the band reads back as exactly zero
    gray[baseline_local + 1:baseline_local + 3] = ENVELOPE_INTENSITY
    if params.noise_sigma > 0:
        # the speckle chain of the module docstring, one row block at a time
        # and in place on each block's draw: consecutive blocks take the
        # values of the single C-order draw, and no region-sized float64
        # buffer is made. A uint8 factor multiplies as the same float64, and
        # 1 + noise_sigma * u >= 0, so only the upper clip can act.
        rng = np.random.default_rng(params.seed)
        for r0 in range(0, region_h, SPECKLE_BLOCK_ROWS):
            rows = slice(r0, r0 + SPECKLE_BLOCK_ROWS)
            block = rng.uniform(-1.0, 1.0, gray[rows].shape)
            block *= params.noise_sigma
            block += 1.0
            block *= gray[rows]
            np.rint(block, out=block)
            np.minimum(block, 255.0, out=block)
            gray[rows] = block
    # one plain copy per channel: a stride-0 broadcast copy is several times slower
    for channel in range(3):
        region_view[:, :, channel] = gray

    for artifact in params.artifacts:
        if isinstance(artifact, (Spike, Dropout)):
            c0 = max(0, min(region_w - 1, int(round(artifact.time_ms / time_scale))))
            c1 = min(region_w, c0 + max(1, int(round(artifact.width_ms / time_scale))))
        if isinstance(artifact, Spike):
            spike_top = max(0, baseline_local - int(round(artifact.velocity / velocity_scale)))
            region_view[spike_top:baseline_local + 1, c0:c1] = SPIKE_INTENSITY
        elif isinstance(artifact, Dropout):
            region_view[:baseline_local + 1, c0:c1] = BACKGROUND_INTENSITY
        elif isinstance(artifact, AliasBand):
            r0 = baseline_local + 8
            r1 = min(region_h, baseline_local + 28)
            if r0 < r1:
                region_view[r0:r1, :] = ALIAS_INTENSITY

    manifest = CalibrationManifest(
        label=params.label,
        velocity_scale=velocity_scale,
        time_scale=time_scale,
        baseline_row=baseline,
        spectral_region=(sx0, sy0, sx1, sy1),
        flow_above_baseline=True,
        ecg_region=(sx0, ey0, sx1, ey1),
    )
    ecg_rows = _render_ecg(pixels, manifest, qrs_times)

    has_a = params.a_velocity > 0
    beats = [
        BeatMeasurement(
            e_velocity=params.e_velocity,
            a_velocity=params.a_velocity if has_a else None,
            ea_ratio=params.e_velocity / params.a_velocity if has_a else None,
            dt_ms=params.dt,
            e_time=e_time,
            a_time=a_time,
        )
        for e_time, a_time in apexes
    ]
    truth = GroundTruth(
        beats=beats,
        qrs_times=qrs_times,
        envelope=envelope,
        top_rows=top_rows,
        region_shape=(region_h, region_w),
        baseline_row=baseline_local,
        ecg_rows=ecg_rows,
    )
    return RasterImage(pixels), manifest, truth


def _render_ecg(pixels, manifest: CalibrationManifest, qrs_times):
    """One ECG pixel per column of the ECG region, in the manifest's color key:
    a flat line with a triangular R spike at each QRS."""
    ecg_x0, ey0, ecg_x1, ey1 = manifest.ecg_region
    time_scale = manifest.time_scale
    region_w = ecg_x1 - ecg_x0 + 1
    ecg_h = ey1 - ey0 + 1
    base_local = int(round(0.70 * (ecg_h - 1)))
    amp = 0.45 * ecg_h
    half_cols = max(2, int(round(9.0 / time_scale)))

    rows_local = np.full(region_w, base_local, dtype=np.int64)
    for q in qrs_times:
        center = int(round(q / time_scale))
        for dc in range(-half_cols, half_cols + 1):
            col = center + dc
            if 0 <= col < region_w:
                deviation = amp * (1.0 - abs(dc) / (half_cols + 1.0))
                rows_local[col] = min(rows_local[col], base_local - int(round(deviation)))

    cols = np.arange(region_w)
    pixels[ey0 + rows_local, ecg_x0 + cols] = manifest.ecg_color
    return ey0 + rows_local


def truth_csv_text(truth: GroundTruth) -> str:
    """Ground truth in the measurement CSV schema, one row per beat."""
    return study_csv_text(truth.beats, summarize_beats(truth.beats))


def write_truth_csv(path, truth: GroundTruth) -> None:
    atomic_write_text(path, truth_csv_text(truth))


def corpus_params(base: SynthParams, seed: int) -> SynthParams:
    """Draw one corpus member: E, A, HR uniform; dt uniform inside the
    geometrically feasible part of [120, 260] ms for the drawn heart rate.

    When no dt of 120 ms fits the beat at the drawn heart rate (a knee
    stretches the E descent), the heart rate is drawn once more, uniform from
    50 bpm up to the highest rate at which 120 ms fits. A negative seed, or a
    base at which 120 ms fits no heart rate from 50 bpm, is a GenerationError.
    """
    if seed < 0:
        raise GenerationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    e = rng.uniform(0.4, 1.2)
    a = rng.uniform(0.3, 1.0)
    a_span = base.a_gap_ms + 2.0 * base.a_half_ms
    knee_stretch = 1.0 + base.dt_second_slope_fraction

    def dt_max_at(hr):
        beat_ms = 60000.0 / hr
        e_end = base.systole_frac * beat_ms + base.e_rise_ms
        # 10 ms margin also absorbs apex snapping to the column grid
        return (beat_ms - a_span - e_end - 10.0) / knee_stretch

    hr = rng.uniform(50.0, 110.0)
    dt_max = dt_max_at(hr)
    if dt_max < 120.0:
        fixed_ms = 120.0 * knee_stretch + 10.0 + a_span + base.e_rise_ms
        hr_fit = 60000.0 * (1.0 - base.systole_frac) / fixed_ms if base.systole_frac < 1.0 else 0.0
        if hr_fit < 50.0:
            raise GenerationError(
                f"no heart rate from 50 bpm fits a 120 ms dt: the highest is {hr_fit:.1f} bpm, "
                f"set by systole_frac {base.systole_frac}, e_rise_ms {base.e_rise_ms}, "
                f"a_gap_ms {base.a_gap_ms}, a_half_ms {base.a_half_ms} and "
                f"dt_second_slope_fraction {base.dt_second_slope_fraction}"
            )
        hr = rng.uniform(50.0, hr_fit)
        dt_max = dt_max_at(hr)
        if dt_max < 120.0:  # only rounding at the top of the redraw lands here
            raise GenerationError(
                f"no dt fits a beat at the drawn heart rate {hr:.1f} bpm with knee fraction "
                f"{base.dt_second_slope_fraction}: dt range [120, {dt_max:.1f}] ms is empty"
            )
    dt = rng.uniform(120.0, min(260.0, dt_max))
    return replace(base, e_velocity=e, a_velocity=a, heart_rate=hr, dt=dt, seed=seed)
