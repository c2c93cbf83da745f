"""Flow peak detection, beat labeling, deceleration time, study means, StudyRun."""

from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from midoppler.ecg import QrsMarks, QrsParams, detect_qrs
from midoppler.errors import SegmentationError
from midoppler.measurement import (
    FLAG_FUSED_EA,
    FLAG_GAP_IN_DESCENT,
    FLAG_MISSING_A,
    FLAG_NO_SLOPE_CHANGE,
    BeatMeasurement,
    DtResult,
    FlowPeak,
    PeakParams,
    deceleration_time,
    detect_flow_peaks,
    label_beats,
    measure_beats,
    measure_study,
    _find_peaks,
    summarize_beats,
)
from midoppler.segmentation import mask_to_trace, smooth_trace, smoothing_columns
from midoppler.synth import SynthParams, corpus_params, generate_synthetic

from conftest import make_trace, measure_trace, triangle

SPACING = 2.5


def grid(n):
    return SPACING * np.arange(n)


def peak(time, velocity, prominence=None, width=60.0):
    return FlowPeak(
        column=round(time / SPACING),
        time=time,
        velocity=velocity,
        prominence=prominence or velocity,
        width=width,
    )


def beat(e=0.8, a=0.5, dt=180.0, flags=()):
    return BeatMeasurement(
        e_velocity=e,
        a_velocity=a,
        ea_ratio=e / a if a else None,
        dt_ms=dt,
        e_time=300.0,
        a_time=700.0 if a else None,
        quality=frozenset(flags),
    )


# detect_flow_peaks -----------------------------------------------------------


def test_single_triangle_peak_geometry():
    times = grid(200)
    trace = make_trace(triangle(times, 250.0, 80.0, 1.0))
    peaks = detect_flow_peaks(trace)
    assert len(peaks) == 1
    assert peaks[0].velocity == pytest.approx(1.0, abs=0.01)
    assert peaks[0].width == pytest.approx(80.0, abs=SPACING)
    assert peaks[0].prominence == pytest.approx(1.0, abs=0.01)
    assert peaks[0].time == pytest.approx(250.0, abs=SPACING)


def test_two_triangles_in_time_order():
    times = grid(400)
    v = triangle(times, 250.0, 80.0, 0.8) + triangle(times, 650.0, 70.0, 0.6)
    peaks = detect_flow_peaks(make_trace(v))
    assert [round(p.velocity, 2) for p in peaks] == [0.8, 0.6]
    assert peaks[0].time < peaks[1].time


def test_narrow_spike_fails_width_gate():
    times = grid(400)
    v = triangle(times, 250.0, 80.0, 0.8) + triangle(times, 500.0, 2.5, 1.2)
    peaks = detect_flow_peaks(make_trace(v), PeakParams(min_width_ms=30.0))
    assert len(peaks) == 1
    assert peaks[0].velocity == pytest.approx(0.8, abs=0.01)


def test_peaks_invariant_under_narrow_spikes():
    rng = np.random.default_rng(51)
    times = grid(500)
    base = triangle(times, 300.0, 90.0, 0.9) + triangle(times, 900.0, 70.0, 0.5)
    reference = [(p.time, round(p.velocity, 6)) for p in detect_flow_peaks(make_trace(base))]
    trials = 0
    while trials < 20:
        center = float(rng.uniform(50, 1150))
        if min(abs(center - 300.0), abs(center - 900.0)) < 120.0:
            continue  # a spike on an apex legitimately extends that peak
        trials += 1
        v = np.maximum(base, triangle(times, center, float(rng.uniform(2.0, 10.0)), 1.4))
        got = [(p.time, round(p.velocity, 6)) for p in detect_flow_peaks(make_trace(v))]
        assert got == reference


def test_peaks_carry_their_column():
    spacing = 3.7
    times = spacing * np.arange(300)
    v = triangle(times, 250.0, 80.0, 0.8) + triangle(times, 700.0, 70.0, 0.6)
    peaks = detect_flow_peaks(make_trace(v, spacing_ms=spacing))
    assert len(peaks) == 2
    for p in peaks:
        assert p.time == p.column * spacing
        assert p.velocity == v[p.column]


def test_empty_trace_rejected():
    with pytest.raises(ValueError):
        detect_flow_peaks(make_trace(np.empty(0)))


@pytest.mark.parametrize("velocities", [[0.8], [0.2, 0.8], [0.8, 0.2]])
def test_traces_under_three_samples_have_no_peaks(velocities):
    assert detect_flow_peaks(make_trace(velocities)) == []


@st.composite
def peak_traces(draw):
    """0-60 samples: integer runs (plateaus at either end, equal minima and
    equal peaks), Gaussian noise, rounded random walks, or noise through
    smooth_trace (zero-clipped, as the peak finder meets it)."""
    kind = draw(st.sampled_from(["runs", "noise", "walk", "smoothed"]))
    if kind == "runs":
        runs = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 5)), max_size=20))
        x = np.repeat([v for v, _ in runs], [k for _, k in runs])[:60]
        return x.astype(np.float64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=draw(st.integers(0, 60)))
    if kind == "walk":
        return np.round(np.cumsum(x))
    if kind == "smoothed":
        return smooth_trace(make_trace(x), draw(st.sampled_from([7.5, 12.5]))).velocities
    return x


# exact values that integer traces hit, so a gate's equality case is reached
gates = st.one_of(
    st.sampled_from([1e-9, 0.5, 1.0, 1.5, 2.0, 3.0, 1e3]),
    st.floats(min_value=1e-9, max_value=10.0),
)


@settings(max_examples=600, deadline=None)
@given(peak_traces(), gates, gates)
@example(np.array([0.0, 1.0, 1.0, 0.0]), 1e-9, 1e-9)  # plateau peaks at its left middle
@example(np.array([0.0, 2.0, 0.0]), 2.0, 1.0)  # prominence and width equal their gates
@example(np.array([0.0, 2.0, 1.0, 2.0, 0.0]), 1.5, 1e-9)  # walks pass an equal peak
def test_find_peaks_matches_scipy(x, min_prominence, min_width):
    indices, props = find_peaks(x, prominence=min_prominence, width=min_width, rel_height=0.5)
    found = _find_peaks(x, min_prominence, min_width)
    assert [i for i, _, _ in found] == indices.tolist()
    prominences = np.array([p for _, p, _ in found], dtype=np.float64)
    widths = np.array([w for _, _, w in found], dtype=np.float64)
    assert prominences.tobytes() == props["prominences"].tobytes()
    assert widths.tobytes() == props["widths"].tobytes()


# label_beats -----------------------------------------------------------------


def test_label_two_peaks_e_then_a():
    qrs = QrsMarks(times=np.array([0.0, 800.0]))
    peaks = [peak(160.0, 0.8), peak(660.0, 0.6)]
    ((e_peak, a_peak),) = label_beats(peaks, qrs)
    assert e_peak.time == 160.0
    assert a_peak.time == 660.0


def test_label_single_peak_is_fused_e():
    qrs = QrsMarks(times=np.array([0.0, 800.0]))
    ((e_peak, a_peak),) = label_beats([peak(300.0, 0.7)], qrs)
    assert e_peak.time == 300.0
    assert a_peak is None


def test_label_three_peaks_largest_early_is_e():
    qrs = QrsMarks(times=np.array([0.0, 800.0]))
    peaks = [peak(160.0, 0.8), peak(400.0, 0.3), peak(660.0, 0.6)]
    ((e_peak, a_peak),) = label_beats(peaks, qrs)
    assert e_peak.time == 160.0
    assert a_peak.time == 660.0


def test_label_without_two_marks_is_empty():
    peaks = [peak(100.0, 0.8), peak(400.0, 0.5)]
    assert label_beats(peaks, QrsMarks(times=np.empty(0))) == []
    assert label_beats(peaks, QrsMarks(times=np.array([0.0]))) == []


def test_label_drops_empty_windows_and_keeps_a_before_qrs():
    qrs = QrsMarks(times=np.array([0.0, 500.0, 1000.0, 1500.0]))
    peaks = [peak(100.0, 0.9), peak(450.0, 0.5), peak(1100.0, 0.8), peak(1400.0, 0.6)]
    pairs = label_beats(peaks, qrs)
    assert len(pairs) == 2  # middle window has no peaks
    for (e_peak, a_peak), window_end in zip(pairs, (500.0, 1500.0)):
        assert e_peak.time < a_peak.time < window_end


# deceleration_time -----------------------------------------------------------


def straight_descent_trace():
    """1.0 m/s at 500 ms falling linearly to 0 at 700 ms, flat after."""
    times = grid(400)
    v = np.where(times < 500.0, 1.0, np.clip(1.0 - (times - 500.0) / 200.0, 0.0, None))
    rise = times < 500.0
    v[rise] = np.clip((times[rise] - 100.0) / 400.0, 0.0, 1.0)
    return make_trace(v)


def test_dt_straight_line_descent():
    trace = straight_descent_trace()
    result = deceleration_time(trace, 200, 1.0)
    assert result.dt_ms == pytest.approx(200.0, abs=SPACING)


def test_dt_bilinear_slope_change():
    # 1.0 m/s at 500 ms, slope -0.005 m/s/ms to 0.5 at 600 ms, then -0.001
    times = grid(600)
    v = np.zeros_like(times)
    pre = times <= 500.0
    v[pre] = np.clip((times[pre] - 100.0) / 400.0, 0.0, 1.0)
    seg1 = (times > 500.0) & (times <= 600.0)
    v[seg1] = 1.0 - 0.005 * (times[seg1] - 500.0)
    seg2 = times > 600.0
    v[seg2] = np.clip(0.5 - 0.001 * (times[seg2] - 600.0), 0.0, None)
    result = deceleration_time(make_trace(v), 200, 1.0)
    assert result.dt_ms == pytest.approx(200.0, abs=10.0)
    assert result.slope_change_time == pytest.approx(600.0, abs=15.0)
    assert FLAG_NO_SLOPE_CHANGE not in result.flags


def test_dt_truncated_descent_is_absent():
    # linear descent that leaves the trace at 0.4 m/s with no slope change
    times = grid(200)
    v = 1.0 - 0.0012 * times  # ends near 0.4, never reaches the 5% floor
    result = deceleration_time(make_trace(v), 0, 1.0)
    assert result.dt_ms is None
    assert FLAG_NO_SLOPE_CHANGE in result.flags


def test_dt_gap_in_descent_flagged():
    trace = straight_descent_trace()
    gaps = np.zeros(len(trace.velocities), bool)
    gaps[210:220] = True  # 525..550 ms, on the descent
    trace = make_trace(trace.velocities, gaps=gaps)
    result = deceleration_time(trace, 200, 1.0)
    assert FLAG_GAP_IN_DESCENT in result.flags


def test_dt_on_a_one_column_trace_is_absent():
    result = deceleration_time(make_trace([0.8]), 0, 0.8)
    assert result == DtResult(None, None, None, None, frozenset({FLAG_NO_SLOPE_CHANGE}))


def test_dt_running_off_the_trace_flags_a_gap_after_the_apex():
    gaps = np.zeros(40, bool)
    gaps[20] = True
    result = deceleration_time(make_trace(np.full(40, 0.8), gaps=gaps), 5, 0.8)
    flags = frozenset({FLAG_NO_SLOPE_CHANGE, FLAG_GAP_IN_DESCENT})
    assert result == DtResult(None, None, None, None, flags)


def test_dt_slope_change_at_or_above_e_is_absent():
    v = np.full(40, 1.0)
    v[20:] = np.linspace(1.0, 0.2, 20)
    result = deceleration_time(make_trace(v), 5, 0.9)
    assert result == DtResult(None, 50.0, 1.0, None, frozenset({FLAG_NO_SLOPE_CHANGE}))


def test_dt_peak_off_trace_rejected():
    for column in (-1, 50):
        with pytest.raises(ValueError):
            deceleration_time(make_trace(np.ones(50)), column, 1.0)


@pytest.mark.parametrize("v_peak", [0.4, 0.8, 1.2])
@pytest.mark.parametrize("dt_true", [120.0, 180.0, 260.0])
def test_dt_exact_for_linear_descents(v_peak, dt_true):
    times = grid(400)
    apex = 300.0
    slope = v_peak / dt_true
    v = np.clip(np.where(times <= apex, v_peak * times / apex, v_peak - slope * (times - apex)), 0.0, None)
    result = deceleration_time(make_trace(v), int(apex / SPACING), v_peak)
    assert result.dt_ms == pytest.approx(dt_true, abs=SPACING)


# measure_beats / study means -------------------------------------------------


def ea_trace(e=0.8, a=0.5, scale=1.0, spacing=SPACING):
    times = spacing * np.arange(int(1900 / spacing))
    v = np.zeros_like(times)
    for start in (0.0, 900.0):
        v = np.maximum(v, triangle(times, start + 300.0, 70.0, e))
        v = np.maximum(v, triangle(times, start + 750.0, 60.0, a))
    qrs = QrsMarks(times=np.array([40.0, 940.0, 1840.0]))
    return make_trace(v * scale, spacing_ms=spacing), qrs


def test_measure_beats_labels_and_ratio():
    trace, qrs = ea_trace()
    details = measure_trace(trace, qrs)
    assert len(details) == 2
    for m in details:
        assert m.e_velocity == pytest.approx(0.8, abs=0.02)
        assert m.a_velocity == pytest.approx(0.5, abs=0.02)
        assert m.ea_ratio == pytest.approx(1.6, abs=0.07)


def test_ea_ratio_scale_invariance():
    base_trace, qrs = ea_trace()
    base = [d.ea_ratio for d in measure_trace(base_trace, qrs)]
    for k in (0.5, 2.0):
        scaled_trace, _ = ea_trace(scale=k)
        ratios = [d.ea_ratio for d in measure_trace(scaled_trace, qrs)]
        for r0, r1 in zip(base, ratios):
            assert r1 == pytest.approx(r0, rel=1e-9)


def test_time_translation_shifts_times_only():
    # k zero-velocity columns ahead of the flow move every beat k columns later
    trace, qrs = ea_trace()
    base = measure_trace(trace, qrs)
    k = 200
    offset = k * SPACING
    shifted_trace = make_trace(np.concatenate([np.zeros(k), trace.velocities]))
    shifted_qrs = QrsMarks(times=qrs.times + offset)
    shifted = measure_trace(shifted_trace, shifted_qrs)
    assert len(base) == len(shifted) == 2
    for d0, d1 in zip(base, shifted):
        assert (d1.e_velocity, d1.a_velocity, d1.ea_ratio) == (d0.e_velocity, d0.a_velocity, d0.ea_ratio)
        assert d1.dt_ms == pytest.approx(d0.dt_ms, abs=1e-9)
        assert d1.slope_change_velocity == d0.slope_change_velocity
        assert d1.e_time == d0.e_time + offset
        assert d1.a_time == d0.a_time + offset
        assert d1.slope_change_time == d0.slope_change_time + offset
        assert d1.crossing_time == pytest.approx(d0.crossing_time + offset, abs=1e-9)


def test_measure_beats_without_marks_is_empty():
    trace, _ = ea_trace()
    assert measure_trace(trace, QrsMarks(times=np.array([40.0]))) == []


def test_measure_beats_without_peaks_is_empty():
    trace, qrs = ea_trace()
    assert measure_beats(trace, smooth_trace(trace, 15.0), [], qrs) == []


def test_peak_amplitude_read_within_refine_radius():
    # The raw apex sits half a smoothing window from the smoothed peak, the
    # farthest a smoothed local maximum allows and so the refine radius, and
    # a taller raw sample sits two columns outside that radius.
    times = SPACING * np.arange(240)
    v = triangle(times, 300.0, 60.0, 0.9)
    peak_idx = 120
    half = smoothing_columns(PeakParams().smooth_window_ms, make_trace(v)) // 2
    outside = half + 1
    v[peak_idx - 3] = v[peak_idx - 2] = 0.95
    v[peak_idx + half] = 1.0
    v[peak_idx + outside] = 0.5  # keeps the smoothed peak at peak_idx
    v[peak_idx + outside + 1] = 1.05
    trace = make_trace(v)
    smoothed_peaks = detect_flow_peaks(smooth_trace(trace, PeakParams().smooth_window_ms))
    assert [p.time for p in smoothed_peaks] == [times[peak_idx]]

    (detail,) = measure_trace(trace, QrsMarks(times=np.array([100.0, 550.0])))
    assert detail.e_velocity == 1.0
    assert detail.e_time == times[peak_idx + half]


def test_aggregate_means():
    assert summarize_beats([beat(e=0.8), beat(e=0.8), beat(e=0.8)]).mean_e == pytest.approx(0.8)
    assert summarize_beats([beat(e=0.7), beat(e=0.9)]).mean_e == pytest.approx(0.8)


def test_aggregate_uses_present_fields_only():
    beats = [beat(a=0.5), beat(a=0.7), beat(a=None)]
    means = summarize_beats(beats)
    assert means.mean_a == pytest.approx(0.6)
    assert means.n_beats == 3


def test_aggregate_excludes_fused_from_a_and_ratio():
    beats = [beat(a=0.5), beat(a=None, flags={FLAG_FUSED_EA, FLAG_MISSING_A})]
    means = summarize_beats(beats)
    assert means.mean_a == pytest.approx(0.5)
    assert means.mean_ea == pytest.approx(1.6)
    assert means.mean_e == pytest.approx(0.8)  # fused beats still count for E


def test_outlier_mode_drops_far_beats():
    beats = [beat(dt=180.0), beat(dt=182.0), beat(dt=178.0), beat(dt=420.0)]
    plain = summarize_beats(beats)
    filtered = summarize_beats(beats, drop_outliers=True)
    assert plain.mean_dt > 200.0
    assert filtered.mean_dt == pytest.approx(180.0, abs=2.0)


def test_outlier_mode_keeps_every_value_when_mad_is_zero():
    # two equal E values make the MAD 0; 0.803 is a one-pixel-row difference
    beats = [beat(e=0.800), beat(e=0.800), beat(e=0.803)]
    filtered = summarize_beats(beats, drop_outliers=True)
    assert filtered == summarize_beats(beats)
    assert filtered.mean_e == pytest.approx(0.801)


# measure_study's run record --------------------------------------------------


def test_study_run_holds_each_stage_output():
    image, manifest, truth = generate_synthetic(corpus_params(SynthParams(noise_sigma=0.15), 3))
    run = measure_study(image, manifest)
    assert run.n_beats == len(truth.beats) == 3
    assert run.beats == measure_beats(run.trace, run.smoothed, run.peaks, run.qrs)
    assert run.peaks == detect_flow_peaks(run.smoothed)
    assert len(run.peaks) == 2 * run.n_beats
    assert np.array_equal(run.smoothed.velocities, smooth_trace(run.trace, 15.0).velocities)
    assert np.array_equal(run.trace.velocities, mask_to_trace(run.mask, manifest).velocities)
    assert np.array_equal(run.qrs.times, detect_qrs(run.ecg, QrsParams(), manifest).times)
    means = summarize_beats(run.beats)
    assert {k: getattr(run, k) for k in asdict(means)} == asdict(means)


def test_beats_carry_their_dt_geometry():
    image, manifest, _ = generate_synthetic(SynthParams(dt_second_slope_fraction=0.3))
    run = measure_study(image, manifest)
    assert run.n_beats == 3
    for b in run.beats:
        e_column = round(b.e_time / run.smoothed.spacing)
        dt = deceleration_time(run.smoothed, e_column, b.e_velocity)
        assert (b.dt_ms, b.slope_change_time, b.slope_change_velocity, b.crossing_time) == (
            dt.dt_ms, dt.slope_change_time, dt.slope_change_velocity, dt.crossing_time
        )
        assert b.e_time < b.slope_change_time < b.crossing_time
        assert b.crossing_time == pytest.approx(b.e_time + b.dt_ms)


@pytest.mark.parametrize("edge", ["right", "bottom", "outside"])
def test_spectral_region_past_the_image_edge_is_a_typed_error(edge):
    # load_manifest owns the bounds check; an in-code pair that skips it still fails typed
    image, manifest, _ = generate_synthetic(SynthParams())
    x0, y0, x1, y1 = manifest.spectral_region
    width, height = image.width, image.height
    region = {
        "right": (x0, y0, width, y1),
        "bottom": (x0, y0, x1, height + 4),
        "outside": (width, y0, width + 99, y1),
    }[edge]
    with pytest.raises(SegmentationError) as error:
        measure_study(image, replace(manifest, spectral_region=region))
    assert str(error.value) == f"segmentation: spectral_region {region} exceeds image bounds {width}x{height}"


def test_two_column_ecg_region_gives_no_qrs_marks_and_no_beats():
    # a strip under 3 columns has no derivative energy to detect QRS from
    image, manifest, _ = generate_synthetic(SynthParams())
    x0, y0, _, y1 = manifest.ecg_region
    run = measure_study(image, replace(manifest, ecg_region=(x0, y0, x0 + 1, y1)))
    assert run.ecg.samples.size == 2
    assert len(run.qrs) == 0
    assert run.n_beats == 0
    assert run.beats == []
