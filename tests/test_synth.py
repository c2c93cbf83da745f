"""Synthetic study generator: determinism, ground-truth consistency, geometry."""

import math
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from midoppler.errors import GenerationError, ManifestError
from midoppler.ingestion import load_manifest, save_manifest
from midoppler.measurement import FLAG_FUSED_EA, FLAG_MISSING_A, measure_study
from midoppler.segmentation import SegmentationParams, segment_envelope_threshold
from midoppler.synth import (
    AliasBand,
    Dropout,
    Spike,
    SynthParams,
    corpus_params,
    generate_synthetic,
    truth_csv_text,
)

from conftest import make_manifest


def test_generation_is_deterministic():
    params = SynthParams(seed=17, noise_sigma=0.2)
    first_image, first_manifest, first_truth = generate_synthetic(params)
    second_image, second_manifest, second_truth = generate_synthetic(params)
    assert first_image.pixels.tobytes() == second_image.pixels.tobytes()
    assert first_manifest == second_manifest
    assert truth_csv_text(first_truth) == truth_csv_text(second_truth)


def test_fused_truth_csv_text():
    _, _, truth = generate_synthetic(SynthParams(a_velocity=0.0, seed=3))
    assert truth_csv_text(truth) == (
        "beat,e_mps,a_mps,ea_ratio,dt_ms,e_time_ms,a_time_ms,flags\n"
        "1,0.800,,,180.0,411.7,,\n"
        "2,0.800,,,180.0,1411.6,,\n"
        "3,0.800,,,180.0,2411.5,,\n"
        "mean,0.800,,,180.0,,,\n"
    )


def test_different_seeds_change_noise():
    a, _, _ = generate_synthetic(SynthParams(seed=1, noise_sigma=0.2))
    b, _, _ = generate_synthetic(SynthParams(seed=2, noise_sigma=0.2))
    assert a.pixels.tobytes() != b.pixels.tobytes()


def test_ground_truth_echoes_parameters():
    _, _, truth = generate_synthetic(
        SynthParams(e_velocity=0.8, a_velocity=0.5, dt=180.0, heart_rate=60.0, n_beats=3)
    )
    assert len(truth.beats) == 3
    for b in truth.beats:
        assert b.e_velocity == 0.8
        assert b.a_velocity == 0.5
        assert b.ea_ratio == pytest.approx(1.6)
        assert b.dt_ms == 180.0


def test_a_time_precedes_each_closing_qrs():
    _, _, truth = generate_synthetic(SynthParams(seed=23, n_beats=4))
    assert len(truth.qrs_times) == 5
    for i, b in enumerate(truth.beats):
        assert truth.qrs_times[i] < b.a_time < truth.qrs_times[i + 1]


def test_analytic_mask_equals_thresholded_rendering():
    image, manifest, truth = generate_synthetic(SynthParams(seed=5, noise_sigma=0.0))
    mask = segment_envelope_threshold(
        image,
        manifest,
        SegmentationParams(median_window=1, open_radius=0, min_component_area=0),
    )
    b = manifest.baseline_row - manifest.spectral_region[1]
    # the flow side is the analytic mask; the far side holds only the
    # two rendered baseline band rows, whole and nothing else
    assert np.array_equal(mask.cells[:b + 1], truth.mask[:b + 1])
    assert not truth.mask[b + 1:].any()
    far = mask.cells[b + 1:]
    assert far[:2].all()
    assert not far[2:].any()


FLOAT_FIELDS = [f.name for f in fields(SynthParams) if f.type in (float, float | None)]


@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_non_finite_parameter_is_a_generation_error_naming_it(name):
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(GenerationError, match=f"^{name} must be finite, got {value}$"):
            generate_synthetic(SynthParams(**{name: value}))


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("e_rise_ms", -10.0, "e_rise_ms must be positive, got -10.0"),
        ("e_rise_ms", 0.0, "e_rise_ms must be positive, got 0.0"),
        ("a_half_ms", 0.0, "a_half_ms must be positive, got 0.0"),
        ("a_gap_ms", -1.0, "a_gap_ms must be >= 0, got -1.0"),
        ("lead_in_ms", -500.0, "lead_in_ms must be >= 0, got -500.0"),
        ("tail_ms", -100000.0, "tail_ms must be >= 0, got -100000.0"),
        ("seed", -1, "seed must be >= 0, got -1"),
    ],
)
def test_out_of_range_wave_timing_is_a_generation_error_naming_it(name, value, message):
    with pytest.raises(GenerationError, match=f"^{re.escape(message)}$"):
        generate_synthetic(SynthParams(**{name: value}))


@pytest.mark.parametrize("name", ["a_gap_ms", "lead_in_ms", "tail_ms"])
def test_zero_wave_timing_margin_measures_its_truth(name):
    image, manifest, truth = generate_synthetic(SynthParams(**{name: 0.0}))
    result = measure_study(image, manifest)
    assert result.n_beats == len(truth.beats)
    assert result.mean_e == pytest.approx(0.8, abs=0.01)
    assert result.mean_a == pytest.approx(0.5, abs=0.01)
    assert result.mean_dt == pytest.approx(180.0, abs=2.0)


@pytest.mark.parametrize(
    "artifact, message",
    [
        (Spike(math.nan, 1.2, 5.0), "Spike time_ms must be finite, got nan"),
        (Spike(500.0, math.inf, 5.0), "Spike velocity must be finite, got inf"),
        (Spike(500.0, 1.0, -math.inf), "Spike width_ms must be finite, got -inf"),
        (Spike(500.0, 1.0, -5.0), "Spike width_ms must be positive, got -5.0"),
        (Dropout(-math.inf, 30.0), "Dropout time_ms must be finite, got -inf"),
        (Dropout(500.0, math.nan), "Dropout width_ms must be finite, got nan"),
        (Dropout(500.0, 0.0), "Dropout width_ms must be positive, got 0.0"),
    ],
)
def test_invalid_artifact_is_a_generation_error_naming_it(artifact, message):
    params = SynthParams(artifacts=(AliasBand(), artifact))
    with pytest.raises(GenerationError, match=f"^{re.escape(message)}$"):
        generate_synthetic(params)


def test_height_floor_is_the_first_height_that_fits_the_ecg_strip():
    image, manifest, _ = generate_synthetic(SynthParams(height=454))
    assert image.height == 454
    assert manifest.ecg_region[3] - manifest.ecg_region[1] == 40
    with pytest.raises(GenerationError, match="^height must be at least 454 to fit the ECG strip, got 453$"):
        generate_synthetic(SynthParams(height=453))


def test_width_floor():
    assert generate_synthetic(SynthParams(width=300))[0].width == 300
    with pytest.raises(GenerationError, match="^width must be at least 300, got 299$"):
        generate_synthetic(SynthParams(width=299))


def render_peak_bytes(params):
    """tracemalloc's peak over one warm generate_synthetic(params)."""
    generate_synthetic(params)
    tracemalloc.start()
    try:
        generate_synthetic(params)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_noisy_render_allocates_no_frame_sized_temporaries():
    # the 2.2 MiB frame, the 0.5 MiB truth mask and uint8 gray region, and a
    # 32-row float64 speckle block (0.2 MiB) read 3.6 MiB; a region-sized
    # float64 draw would add 3.8 MiB
    assert render_peak_bytes(corpus_params(SynthParams(noise_sigma=0.15), 7001)) <= 4 * 2**20


def test_noise_free_render_allocates_no_frame_sized_temporaries():
    # the frame, the mask and the gray region read 3.2 MiB; a second
    # region-sized bool or uint8 array would add 0.5 MiB
    assert render_peak_bytes(corpus_params(SynthParams(), 7001)) <= 3.5 * 2**20


def test_wave_overlap_raises_generation_error():
    with pytest.raises(GenerationError, match="overlap"):
        generate_synthetic(SynthParams(heart_rate=200.0, dt=300.0))


def test_feasible_geometry_does_not_raise():
    generate_synthetic(SynthParams(heart_rate=110.0, dt=180.0))


@pytest.mark.parametrize("fraction", [0.5, 0.6])
def test_knee_corpus_draw_renders_or_is_a_generation_error(fraction):
    # a knee stretches the E descent, so at a high drawn heart rate no dt
    # of at least 120 ms fits the beat
    base = SynthParams(dt_second_slope_fraction=fraction)
    for seed in range(200):
        try:
            params = corpus_params(base, seed)
        except GenerationError:
            continue
        generate_synthetic(params)


def test_corpus_draw_errors_name_their_cause():
    with pytest.raises(GenerationError, match=r"heart rate 109\.4 bpm with knee fraction 0\.5: dt range \[120, 119\.2\] ms"):
        corpus_params(SynthParams(dt_second_slope_fraction=0.5), 190)
    with pytest.raises(GenerationError, match=r"^seed must be >= 0, got -1$"):
        corpus_params(SynthParams(), -1)


def test_overlap_error_iff_supports_overlap():
    # beat is 1000 ms; E foot must stay left of the A-wave onset
    base = dict(heart_rate=60.0, systole_frac=0.30, e_rise_ms=70.0,
                a_half_ms=55.0, a_gap_ms=15.0)
    # a_on ~ 875 ms, e_time ~ 370 ms: dt just inside vs far outside
    generate_synthetic(SynthParams(dt=495.0, **base))
    with pytest.raises(GenerationError):
        generate_synthetic(SynthParams(dt=540.0, **base))


def test_fused_pattern_when_a_velocity_zero():
    image, manifest, truth = generate_synthetic(SynthParams(a_velocity=0.0, seed=7))
    assert all(b.a_velocity is None and b.ea_ratio is None for b in truth.beats)
    result = measure_study(image, manifest)
    assert result.n_beats == 3
    for beat in result.beats:
        assert beat.a_velocity is beat.ea_ratio is beat.a_time is None
        assert {FLAG_FUSED_EA, FLAG_MISSING_A} <= beat.quality


def test_invalid_parameters_rejected():
    with pytest.raises(GenerationError):
        generate_synthetic(SynthParams(heart_rate=10.0))
    with pytest.raises(GenerationError):
        generate_synthetic(SynthParams(e_velocity=0.0))
    with pytest.raises(GenerationError):
        generate_synthetic(SynthParams(noise_sigma=1.5))


def test_artifacts_paint_the_spectral_region():
    clean, manifest, _ = generate_synthetic(SynthParams(seed=9))
    spiked, _, _ = generate_synthetic(
        SynthParams(
            seed=9,
            artifacts=(
                Spike(time_ms=650.0, velocity=1.2, width_ms=5.0),
                Dropout(time_ms=1650.0, width_ms=40.0),
                AliasBand(),
            ),
        )
    )
    assert clean.pixels.tobytes() != spiked.pixels.tobytes()
    x0, y0, x1, y1 = manifest.spectral_region
    below = spiked.pixels[manifest.baseline_row + 8:y1, x0:x1, 0]
    assert (below == 185).any()  # alias band rendered below the baseline


def test_knee_fraction_renders_bilinear_descent():
    _, manifest, truth = generate_synthetic(
        SynthParams(seed=11, dt=160.0, dt_second_slope_fraction=0.4)
    )
    spacing = manifest.time_scale
    envelope = truth.envelope
    e_time = truth.beats[0].e_time
    # slope magnitude halves after the knee
    i_mid = int(round((e_time + 0.3 * 160.0) / spacing))
    i_tail = int(round((e_time + 0.8 * 160.0 + 0.2 * 160.0) / spacing))
    slope_head = (envelope[i_mid + 1] - envelope[i_mid]) / spacing
    slope_tail = (envelope[i_tail + 1] - envelope[i_tail]) / spacing
    assert slope_head < 0 and slope_tail < 0
    assert abs(slope_tail) < abs(slope_head)


def test_ecg_is_drawn_in_the_manifest_color_key():
    image, manifest, truth = generate_synthetic(SynthParams(seed=1, noise_sigma=0.2))
    x0, _, x1, _ = manifest.ecg_region
    drawn = image.pixels[truth.ecg_rows, np.arange(x0, x1 + 1)]
    assert (drawn == manifest.ecg_color).all()


def reference_frame(params, manifest, truth):
    """The frame the module docstring specifies: one whole-region draw and the
    masked float64 chain, then the artifacts, then the ECG polyline."""
    x0, y0, x1, y1 = manifest.spectral_region
    height, width = y1 - y0 + 1, x1 - x0 + 1
    b = manifest.baseline_row - y0
    top = np.clip(b - np.round(truth.envelope / manifest.velocity_scale).astype(np.int64), 0, b)
    rows = np.arange(height)[:, None]
    mask = (rows >= top[None, :]) & (rows <= b)
    assert np.array_equal(truth.mask, mask)
    render_mask = mask.copy()
    render_mask[b + 1:b + 3] = True
    intensity = np.where(render_mask, 205.0, 12.0)
    if params.noise_sigma > 0:
        u = np.random.default_rng(params.seed).uniform(-1.0, 1.0, (height, width))
        region = np.clip(np.round(intensity * (1 + params.noise_sigma * u)), 0, 255)
    else:
        region = intensity
    region = region.astype(np.uint8)
    for artifact in params.artifacts:
        if isinstance(artifact, (Spike, Dropout)):
            c0 = max(0, min(width - 1, int(round(artifact.time_ms / manifest.time_scale))))
            c1 = min(width, c0 + max(1, int(round(artifact.width_ms / manifest.time_scale))))
        if isinstance(artifact, Spike):
            spike_top = max(0, b - int(round(artifact.velocity / manifest.velocity_scale)))
            region[spike_top:b + 1, c0:c1] = 235
        elif isinstance(artifact, Dropout):
            region[:b + 1, c0:c1] = 12
        else:
            region[b + 8:b + 28] = 185
    frame = np.full((params.height, params.width, 3), 12, np.uint8)
    frame[y0:y1 + 1, x0:x1 + 1] = region[:, :, None]
    ex0, _, ex1, _ = manifest.ecg_region
    frame[truth.ecg_rows, np.arange(ex0, ex1 + 1)] = manifest.ecg_color
    return frame


artifacts = st.one_of(
    st.builds(Spike, st.floats(0.0, 4000.0), st.floats(0.05, 2.0), st.floats(0.5, 60.0)),
    st.builds(Dropout, st.floats(0.0, 4000.0), st.floats(0.5, 200.0)),
    st.just(AliasBand()),
)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    noise=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
    width=st.integers(300, 1100),
    height=st.integers(454, 900),
    drawn=st.lists(artifacts, max_size=3),
)
@example(seed=7, noise=0.345, width=1016, height=758, drawn=[Spike(650.0, 1.2, 5.0), Dropout(1650.0, 40.0), AliasBand()])
def test_render_equals_the_docstring_reference(seed, noise, width, height, drawn):
    params = SynthParams(seed=seed, noise_sigma=noise, width=width, height=height, artifacts=tuple(drawn))
    image, manifest, truth = generate_synthetic(params)
    assert np.array_equal(image.pixels, reference_frame(params, manifest, truth))


label_characters = st.one_of(st.characters(), st.sampled_from(" \t\n\r\v\f\x1c\x1d\x1e\x85  =#"))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(label=st.text(label_characters, max_size=12))
@example(label="mitral_inflow\nbaseline_row = 3")
@example(label=" mitral_inflow ")
@example(label="a\n# b")
def test_a_label_is_accepted_iff_it_reads_back_from_its_manifest(tmp_path, label):
    try:
        manifest = generate_synthetic(SynthParams(label=label))[1]
        accepted = True
    except GenerationError as exc:
        assert repr(label) in str(exc)
        manifest = replace(make_manifest(), label=label)
        accepted = False
    path = tmp_path / "study.manifest"
    save_manifest(path, manifest)
    try:
        read_back = load_manifest(path).label
    except ManifestError:
        read_back = None
    assert (read_back == label) == accepted
