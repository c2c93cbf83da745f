"""ECG color-key extraction and QRS detection."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from midoppler.ecg import EcgSignal, QrsParams, _percentile, detect_qrs, ecg_csv_text, extract_ecg
from midoppler.errors import EcgExtractionError
from midoppler.ingestion import RasterImage
from midoppler.synth import SynthParams, generate_synthetic

from conftest import make_manifest


def blank_image():
    return RasterImage(np.zeros((150, 200, 3), np.uint8))


def spike_signal(length, centers, height=30.0, half=4, base=20.0):
    """Flat signal with triangular spikes; returns amplitudes in pixel rows."""
    amp = np.full(length, base)
    for c in centers:
        for dc in range(-half, half + 1):
            if 0 <= c + dc < length:
                amp[c + dc] = max(amp[c + dc], base + height * (1 - abs(dc) / (half + 1)))
    return amp


def test_extract_centroid_of_two_rows(manifest):
    image = blank_image()
    # ecg_region rows 110..140; matches at absolute rows 120 and 122, col 50
    image.pixels[120, 50] = (0, 255, 0)
    image.pixels[122, 50] = (0, 255, 0)
    signal = extract_ecg(image, manifest)
    local_col = 50 - manifest.ecg_region[0]
    height = manifest.ecg_region[3] - manifest.ecg_region[1] + 1
    assert signal.samples[local_col] == pytest.approx((height - 1) - 11.0)
    assert signal.valid_flags[local_col]


def test_extract_without_matching_pixels_fails(manifest):
    with pytest.raises(EcgExtractionError):
        extract_ecg(blank_image(), manifest)


def test_extract_interpolates_unmatched_columns(manifest):
    image = blank_image()
    image.pixels[120, 20] = (0, 255, 0)
    image.pixels[124, 24] = (0, 255, 0)
    signal = extract_ecg(image, manifest)
    x0 = manifest.ecg_region[0]
    assert not signal.valid_flags[22 - x0]
    expected = (signal.samples[20 - x0] + signal.samples[24 - x0]) / 2
    assert signal.samples[22 - x0] == pytest.approx(expected)


def test_extract_recovers_rendered_polyline_subpixel():
    image, manifest, truth = generate_synthetic(SynthParams(seed=12))
    signal = extract_ecg(image, manifest)
    ey0, ey1 = manifest.ecg_region[1], manifest.ecg_region[3]
    height = ey1 - ey0 + 1
    expected = (height - 1) - (truth.ecg_rows - ey0)
    assert np.abs(signal.samples - expected).max() <= 0.5


def reference_extract_ecg(image, manifest):
    """Keying by int16 absolute differences, reduced with float sums."""
    x0, y0, x1, y1 = manifest.ecg_region
    region = image.pixels[y0:y1 + 1, x0:x1 + 1].astype(np.int16)
    key = np.array(manifest.ecg_color, dtype=np.int16)
    match = (np.abs(region - key) <= manifest.ecg_color_tolerance).all(axis=2)
    if not match.any():
        raise EcgExtractionError("no match")
    height, width = match.shape
    counts = match.sum(axis=0)
    valid = counts > 0
    rows = np.arange(height, dtype=np.float64)[:, None]
    centroid = (match * rows).sum(axis=0) / np.maximum(counts, 1)
    amplitude = (height - 1) - centroid
    measured = np.nonzero(valid)[0]
    samples = np.interp(np.arange(width), measured, amplitude[measured])
    return EcgSignal(samples=samples, valid_flags=valid)


CHANNELS = st.one_of(st.sampled_from([0, 255]), st.integers(0, 255))


@st.composite
def keyed_studies(draw):
    """An image whose pixels sit near the key (inside or just outside the
    tolerance) or anywhere, a random ecg_region inside it, key and tolerance."""
    height, width = draw(st.integers(1, 40)), draw(st.integers(1, 60))
    y0, y1 = sorted(draw(st.integers(0, height - 1)) for _ in range(2))
    x0, x1 = sorted(draw(st.integers(0, width - 1)) for _ in range(2))
    key = tuple(draw(CHANNELS) for _ in range(3))
    tolerance = draw(st.integers(0, 254))
    near = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offsets = rng.integers(-tolerance - 2, tolerance + 3, (height, width, 3))
    pixels = np.clip(np.array(key) + offsets, 0, 255)
    anywhere = rng.uniform(size=(height, width)) >= near
    pixels[anywhere] = rng.integers(0, 256, (int(anywhere.sum()), 3))
    image = RasterImage(pixels.astype(np.uint8))
    manifest = make_manifest(
        ecg_region=(x0, y0, x1, y1), ecg_color=key, ecg_color_tolerance=tolerance
    )
    return image, manifest


@settings(max_examples=300, deadline=None)
@given(keyed_studies())
def test_extract_matches_int16_reference(study):
    image, manifest = study
    try:
        expected = reference_extract_ecg(image, manifest)
    except EcgExtractionError:
        with pytest.raises(EcgExtractionError):
            extract_ecg(image, manifest)
        return
    signal = extract_ecg(image, manifest)
    assert np.array_equal(signal.valid_flags, expected.valid_flags)
    assert signal.samples.dtype == expected.samples.dtype
    assert np.array_equal(signal.samples, expected.samples)


# the QRS threshold's percentile ---------------------------------------------


# few values, so that draws tie; both zeros, so that the sign of a zero result shows
TIED_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300])


@st.composite
def percentile_inputs(draw):
    """A 1-D float64 array of finite values, drawn tied, constant or free."""
    n = draw(st.integers(1, 200))
    kind = draw(st.sampled_from(["tied", "constant", "free"]))
    if kind == "tied":
        values = draw(st.lists(TIED_VALUES, min_size=n, max_size=n))
    elif kind == "constant":
        values = [draw(st.one_of(TIED_VALUES, st.floats(allow_nan=False, allow_infinity=False)))] * n
    else:
        values = draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
    return np.array(values, dtype=np.float64)


@settings(max_examples=500, deadline=None)
@given(percentile_inputs(), st.one_of(st.just(98.0), st.sampled_from([0.0, 50.0, 100.0]), st.floats(0, 100)))
@example(np.array([-0.0]), 98.0)  # at the last index: the fraction counts from index -1
@example(np.array([-0.0, 0.0, -0.0]), 25.0)  # a fraction below 0.5 between zeros
@example(np.array([1.0, -0.0, 0.0, 2.0]), 50.0)  # exactly 0.5 takes the upper form
def test_percentile_matches_numpy_to_the_bit(values, q):
    expected = np.percentile(values, q)
    original = values.copy()
    assert np.float64(_percentile(values, q)).tobytes() == np.float64(expected).tobytes()
    assert values.tobytes() == original.tobytes()  # the input keeps its order


# detect_qrs ------------------------------------------------------------------


def test_qrs_marks_land_on_spikes():
    centers = [50, 250, 450]
    manifest = make_manifest(
        spectral_region=(10, 10, 509, 99), ecg_region=(10, 110, 509, 140)
    )
    amp = spike_signal(500, centers)
    marks = detect_qrs(EcgSignal(amp, np.ones(500, bool)), QrsParams(), manifest)
    # oracle: amplitude argmax within +/-10 columns of each known spike
    expected_cols = [c - 10 + int(np.argmax(amp[c - 10:c + 11])) for c in centers]
    assert len(marks) == 3
    detected_cols = np.round(marks.times / manifest.time_scale).astype(int)
    assert all(abs(d - e) <= 1 for d, e in zip(detected_cols, expected_cols))


def test_flat_signal_yields_no_marks(manifest):
    signal = EcgSignal(np.full(180, 12.0), np.ones(180, bool))
    times = detect_qrs(signal, QrsParams(), manifest).times
    assert times.dtype == np.float64 and times.shape == (0,)


def test_refractory_keeps_taller_of_close_spikes(manifest):
    # 100 ms apart at 2.5 ms/col = 40 columns; refractory 200 ms
    amp = spike_signal(180, [60], height=20.0)
    amp = np.maximum(amp, spike_signal(180, [100], height=35.0))
    marks = detect_qrs(EcgSignal(amp, np.ones(180, bool)), QrsParams(), manifest)
    assert len(marks) == 1
    col = round(marks.times[0] / manifest.time_scale)
    assert abs(col - 100) <= 1


def test_detection_invariant_under_amplitude_scaling(manifest):
    rng = np.random.default_rng(41)
    for _ in range(25):
        centers = sorted(rng.choice(np.arange(20, 160), size=2, replace=False))
        if centers[1] - centers[0] < 85:  # keep above the refractory spacing
            centers[1] = centers[0] + 85
        amp = spike_signal(260, centers, height=float(rng.uniform(10, 60)))
        amp += rng.normal(0, 0.3, amp.shape)
        signal = EcgSignal(amp, np.ones(amp.size, bool))
        base = detect_qrs(signal, QrsParams(), manifest)
        for k in (0.25, 2.0, 8.0):
            scaled = detect_qrs(EcgSignal(amp * k, signal.valid_flags), QrsParams(), manifest)
            assert np.array_equal(base.times, scaled.times)


def test_marks_strictly_increasing_with_refractory_gap(manifest):
    rng = np.random.default_rng(42)
    params = QrsParams(refractory_ms=120.0)
    for _ in range(40):
        n_spikes = int(rng.integers(1, 6))
        centers = sorted(rng.choice(np.arange(10, 690), size=n_spikes, replace=False))
        amp = spike_signal(700, centers, height=float(rng.uniform(15, 50)))
        amp += rng.normal(0, 0.2, amp.shape)
        marks = detect_qrs(EcgSignal(amp, np.ones(700, bool)), params, manifest)
        gaps = np.diff(marks.times)
        assert (gaps > 0).all()
        assert (gaps >= params.refractory_ms).all()


# the strip's time axis -------------------------------------------------------


@pytest.mark.parametrize("shift", [0, 20], ids=["strip-at-spectral-edge", "strip-20-columns-left"])
def test_qrs_marks_and_ecg_dump_share_one_time_axis(shift):
    image, manifest, truth = generate_synthetic(SynthParams(seed=3))
    ex0, ey0, ex1, ey1 = manifest.ecg_region
    manifest = replace(manifest, ecg_region=(ex0 - shift, ey0, ex1, ey1))
    signal = extract_ecg(image, manifest)
    offset = manifest.ecg_region[0] - manifest.spectral_region[0]
    rows = [line.split(",") for line in ecg_csv_text(signal, manifest).splitlines()[1:]]
    assert len(rows) == len(signal.samples)
    assert [t for t, _, _ in rows] == [f"{(offset + i) * manifest.time_scale:.1f}" for i in range(len(rows))]
    if shift:
        assert rows[0][0] == f"{-shift * manifest.time_scale:.1f}"
        assert float(rows[shift - 1][0]) < 0 and float(rows[shift][0]) == 0.0

    marks = detect_qrs(signal, QrsParams(), manifest)
    # the marks land on the rendered R spikes, whatever the strip's offset
    assert len(marks) == len(truth.qrs_times)
    assert np.abs(marks.times - truth.qrs_times).max() <= manifest.time_scale
    for t in marks.times:
        col = round(t / manifest.time_scale) - offset
        assert t == (offset + col) * manifest.time_scale
        assert rows[col][0] == f"{t:.1f}"
