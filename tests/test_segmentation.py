"""Threshold segmentation, mask import/export, trace reduction, smoothing."""

import functools
import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from midoppler import kernels
from midoppler.errors import SegmentationError
from midoppler.ingestion import RasterImage, save_gray_image
from midoppler.measurement import measure_study, study_csv_text
from midoppler.segmentation import (
    _LUMA_WEIGHTS,
    EnvelopeMask,
    SegmentationParams,
    export_mask,
    import_mask,
    mask_to_trace,
    otsu_threshold,
    segment_envelope_threshold,
    smooth_trace,
    _luma_levels,
)
from midoppler.synth import (
    BACKGROUND_INTENSITY,
    ENVELOPE_INTENSITY,
    AliasBand,
    Dropout,
    SynthParams,
    corpus_params,
    generate_synthetic,
)

from conftest import (
    alias_band_only,
    checkerboard_region,
    make_manifest,
    make_trace,
    mirrored,
    one_level_region,
    picture_mask,
)

RAW_PARAMS = SegmentationParams(median_window=1, open_radius=0, min_component_area=0)


def test_all_black_region_is_zero_foreground_error(manifest):
    image = RasterImage(np.zeros((150, 200), np.uint8)[..., None].repeat(3, axis=2))
    with pytest.raises(SegmentationError, match=r"one gray level \(0\)"):
        segment_envelope_threshold(image, manifest)


@pytest.mark.parametrize("level", [BACKGROUND_INTENSITY, ENVELOPE_INTENSITY])
def test_one_gray_level_region_is_a_segmentation_error(level):
    image, manifest = one_level_region(level)
    message = rf"^spectral region is one gray level \({level}\); no threshold splits it$"
    with pytest.raises(SegmentationError, match=message):
        segment_envelope_threshold(image, manifest)


def test_specks_the_opening_removes_leave_no_foreground():
    image, manifest = checkerboard_region()
    # the threshold keeps the bright half of the specks, the opening none
    kept = segment_envelope_threshold(image, manifest, SegmentationParams(open_radius=0))
    assert kept.cells.sum() * 2 == kept.cells.size
    with pytest.raises(SegmentationError) as exc:
        measure_study(image, manifest)
    assert str(exc.value) == "segmentation: no foreground remains after cleanup"


def test_synthetic_segmentation_iou():
    image, manifest, truth = generate_synthetic(SynthParams(seed=2))
    mask = segment_envelope_threshold(image, manifest)
    inter = np.logical_and(mask.cells, truth.mask).sum()
    union = np.logical_or(mask.cells, truth.mask).sum()
    assert inter / union >= 0.95


def test_small_bright_blob_is_excluded():
    image, manifest, truth = generate_synthetic(SynthParams(seed=3))
    x0, y0, _, _ = manifest.spectral_region
    # 3x3 blob high above the envelope, in the first beat's diastasis
    blob_row, blob_col = y0 + 12, x0 + 240
    image.pixels[blob_row:blob_row + 3, blob_col:blob_col + 3] = 230
    mask = segment_envelope_threshold(
        image, manifest, SegmentationParams(min_component_area=25)
    )
    local = mask.cells[10:17, 238:245]
    assert not local.any()


def test_blob_survives_without_area_filter():
    image, manifest, _ = generate_synthetic(SynthParams(seed=3))
    x0, y0, _, _ = manifest.spectral_region
    image.pixels[y0 + 12:y0 + 15, x0 + 240:x0 + 243] = 230
    mask = segment_envelope_threshold(
        image, manifest, SegmentationParams(min_component_area=0)
    )
    assert mask.cells[12:15, 240:243].any()


def test_mask_export_import_roundtrip(tmp_path):
    _, manifest, truth = generate_synthetic(SynthParams(seed=4))
    mask = EnvelopeMask(truth.mask)
    path = tmp_path / "envelope.mask.pgm"
    export_mask(path, mask)
    assert np.array_equal(import_mask(path, manifest).cells, mask.cells)


def test_padded_mask_crops_back_to_region(tmp_path):
    _, manifest, truth = generate_synthetic(SynthParams(seed=4))
    x0, y0, x1, y1 = manifest.spectral_region
    padded = np.zeros((1024, 1024), np.uint8)
    padded[y0:y1 + 1, x0:x1 + 1] = truth.mask.astype(np.uint8) * 255
    path = tmp_path / "padded.pgm"
    save_gray_image(path, padded)
    assert np.array_equal(import_mask(path, manifest).cells, truth.mask)


def test_mask_dimension_mismatch_rejected(tmp_path):
    manifest = make_manifest(
        spectral_region=(0, 0, 699, 499), baseline_row=450, ecg_region=(0, 510, 699, 560)
    )
    path = tmp_path / "wrong.pgm"
    save_gray_image(path, np.zeros((480, 640), np.uint8))
    with pytest.raises(SegmentationError, match="640x480"):
        import_mask(path, manifest)


def clipped_otsu(gray):
    """otsu_threshold as it read with clip(round(gray), 0, 255) levels."""
    levels = np.clip(np.round(gray), 0, 255).astype(np.uint8)
    hist = np.bincount(levels.ravel(), minlength=256).astype(np.float64)
    w0 = np.cumsum(hist)
    total = w0[-1]
    moments = np.cumsum(hist * np.arange(256))
    w1 = total - w0
    valid = (w0 > 0) & (w1 > 0)
    mu0 = np.divide(moments, w0, out=np.zeros(256), where=w0 > 0)
    mu1 = np.divide(moments[-1] - moments, w1, out=np.zeros(256), where=w1 > 0)
    between = np.where(valid, w0 * w1 * (mu0 - mu1) ** 2, -1.0)
    return int(np.argmax(between))


# luma values: any float32 in [0, 255], or a multiple of 0.5 (rounding ties)
LEVELS = st.one_of(st.floats(0, 255, width=32), st.integers(0, 510).map(lambda k: k / 2))


@st.composite
def gray_frames(draw):
    shape = (draw(st.integers(1, 30)), draw(st.integers(1, 30)))
    kind = draw(st.sampled_from(["any", "constant", "two-level"]))
    if kind == "constant":
        return np.full(shape, draw(LEVELS), np.float32)
    if kind == "two-level":
        high = draw(arrays(np.bool_, shape))
        return np.where(high, draw(LEVELS), draw(LEVELS)).astype(np.float32)
    return draw(arrays(np.float32, shape, elements=LEVELS))


@settings(max_examples=300, deadline=None)
@given(gray_frames())
def test_otsu_threshold_matches_clipped_rounding(gray):
    levels = np.unique(np.clip(np.round(gray), 0, 255).astype(np.uint8))
    if len(levels) == 1:  # no threshold leaves pixels on both sides
        with pytest.raises(SegmentationError, match=rf"one gray level \({levels[0]}\)"):
            otsu_threshold(np.rint(gray).astype(np.uint8))
    else:
        assert otsu_threshold(np.rint(gray).astype(np.uint8)) == clipped_otsu(gray)


def test_otsu_threshold_refuses_float_gray():
    # a float frame viewed as uint16 pairs would count its bytes, not its levels
    with pytest.raises(TypeError, match="uint8 levels, got float32"):
        otsu_threshold(np.array([[12.0, 205.0]], np.float32))


def rgb_triples(reds):
    """Every RGB triple with its red in reds, as a (len(reds), 65536, 3) uint8
    region: one row per red, green and blue varying along the row."""
    green, blue = np.divmod(np.arange(2**16), 256)
    region = np.empty((len(reds), 2**16, 3), np.uint8)
    region[..., 0] = np.asarray(reds)[:, None]
    region[..., 1] = green
    region[..., 2] = blue
    return region


def exact_k(region):
    """1000 x the BT.601 luma of uint8 RGB, in int64."""
    return region.astype(np.int64) @ np.array([299, 587, 114])


def test_luma_of_uint8_rgb_stays_in_byte_range():
    # 1000 x the BT.601 weights: a gray pixel's luma is its own level, white's 255
    assert _LUMA_WEIGHTS.tolist() == [299, 587, 114] and _LUMA_WEIGHTS.sum() == 1000
    corners = np.array(list(itertools.product((0, 255), repeat=3)), np.uint8)
    ramp = np.repeat(np.arange(256, dtype=np.uint8)[:, None], 3, axis=1)
    rgb = np.concatenate([corners, ramp])[None].repeat(5, axis=0)
    levels = _luma_levels(rgb)  # as segment_envelope_threshold computes them
    assert levels.dtype == np.uint8
    assert levels.min() == 0 and levels.max() == 255
    assert np.array_equal(levels[:, len(corners):], np.broadcast_to(np.arange(256), (5, 256)))


def test_luma_levels_are_exact_over_every_rgb_triple():
    # K = 299 R + 587 G + 114 B stays below 2**24 in every partial sum, so the
    # float32 matmul segmentation runs gives it exactly, and the levels are
    # its ceiling over 1000; checked for all 2**24 triples, 16 reds at a time
    for first_red in range(0, 256, 16):
        region = rgb_triples(np.arange(first_red, first_red + 16))
        k = exact_k(region)
        float_k = np.matmul(region, _LUMA_WEIGHTS, dtype=np.float32)
        assert np.array_equal(float_k.astype(np.int64), k)
        assert np.array_equal(_luma_levels(region), -(-k // 1000))


@functools.cache
def boundary_triples():
    """Every RGB triple whose K = 1000 x luma is a multiple of 1000 or one
    off it: the luma levels either side of a ceiling step."""
    found = []
    for first_red in range(0, 256, 16):
        region = rgb_triples(np.arange(first_red, first_red + 16)).reshape(-1, 3)
        found.append(region[np.isin(exact_k(region) % 1000, (0, 1, 999))])
    return np.concatenate(found)


@st.composite
def rgb_regions(draw):
    """uint8 RGB regions: random, a gray ramp, two colours, or luma on a
    ceiling step."""
    shape = (draw(st.integers(1, 30)), draw(st.integers(1, 30)))
    kind = draw(st.sampled_from(["random", "ramp", "two-level", "steps"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        return rng.integers(0, 256, (*shape, 3), dtype=np.uint8)
    if kind == "ramp":
        rows, cols = np.indices(shape)
        level = draw(st.integers(0, 255)) + draw(st.integers(-40, 40)) * rows + draw(st.integers(-3, 3)) * cols
        return np.clip(level, 0, 255).astype(np.uint8)[..., None].repeat(3, axis=2)
    if kind == "two-level":
        colours = draw(arrays(np.uint8, (2, 3)))
        return colours[draw(arrays(np.bool_, shape)).view(np.uint8)]
    steps = boundary_triples()
    palette = steps[rng.choice(len(steps), draw(st.integers(1, 6)))]
    return palette[rng.integers(0, len(palette), shape)]


def integer_front_end(region, params):
    """Classical segmentation in exact integer arithmetic: K = 1000 x luma in
    int64, ceil(K / 1000) levels, the median of each clamped window by a
    sort, Otsu on that median's histogram, median > t, then the opening and
    the component filter. None for one gray level."""
    levels = -(-exact_k(region) // 1000)
    half = params.median_window // 2
    height = levels.shape[0]
    rows = np.clip(np.arange(height)[:, None] + np.arange(-half, half + 1), 0, height - 1)
    median = np.sort(levels[rows], axis=1)[:, half]
    if len(np.unique(median)) == 1:
        return None
    foreground = median > clipped_otsu(median)
    foreground = kernels.vertical_opening(foreground, params.open_radius)
    return kernels.remove_small_components(foreground, params.min_component_area)


@settings(max_examples=300, deadline=None)
@given(rgb_regions(), st.sampled_from([1, 3, 5, 7, 9]), st.integers(0, 2), st.integers(0, 30))
def test_segmentation_on_levels_matches_the_integer_reference(region, window, radius, min_area):
    height, width, _ = region.shape
    manifest = make_manifest(spectral_region=(0, 0, width - 1, height - 1), baseline_row=height - 1)
    params = SegmentationParams(window, radius, min_area)
    expected = integer_front_end(region, params)
    if expected is None or not expected.any():
        message = "one gray level" if expected is None else "no foreground remains after cleanup"
        with pytest.raises(SegmentationError, match=message):
            segment_envelope_threshold(RasterImage(region), manifest, params)
    else:
        mask = segment_envelope_threshold(RasterImage(region), manifest, params)
        assert np.array_equal(mask.cells, expected)


def test_tinted_spectral_region_measures_within_tolerance():
    # a colour-mapped spectrum: no pixel is gray, so no luma is a whole level
    params = corpus_params(SynthParams(noise_sigma=0.15), 0)
    image, manifest, truth = generate_synthetic(params)
    x0, y0, x1, y1 = manifest.spectral_region
    pixels = image.pixels.copy()
    region = pixels[y0:y1 + 1, x0:x1 + 1]
    region[...] = np.rint(region * np.array([1.0, 0.8, 0.45]))
    assert (exact_k(region) % 1000 != 0).all()
    run = measure_study(RasterImage(pixels), manifest)
    assert run.n_beats == len(truth.beats)
    for beat, true in zip(run.beats, truth.beats):
        assert abs(beat.e_velocity - true.e_velocity) <= 0.05
        assert abs(beat.a_velocity - true.a_velocity) <= 0.05
        assert abs(beat.dt_ms - true.dt_ms) <= 25.0


def test_segmentation_peak_memory_per_region_pixel():
    # uint8 levels, one uint8 median and boolean masks; a float32 copy of
    # the RGB region alone would be 12 bytes a pixel
    image, manifest, _ = generate_synthetic(corpus_params(SynthParams(noise_sigma=0.15), 0))
    x0, y0, x1, y1 = manifest.spectral_region
    assert (y1 - y0 + 1, x1 - x0 + 1) == (561, 896)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        segment_envelope_threshold(image, manifest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - before) / (561 * 896) < 12


# mask_to_trace ---------------------------------------------------------------


def test_trace_velocity_from_topmost_row():
    manifest = make_manifest(
        spectral_region=(0, 300, 9, 410), baseline_row=400, ecg_region=(0, 420, 9, 440)
    )
    cells = np.zeros((111, 10), bool)
    cells[50:101, 3] = True  # absolute rows 350..400
    trace = mask_to_trace(EnvelopeMask(cells), manifest)
    assert trace.velocities[3] == pytest.approx(0.25)
    assert not trace.gap_flags[3]


def test_trace_gap_interpolates_midpoint():
    manifest = make_manifest(
        spectral_region=(0, 300, 2, 410), baseline_row=400, ecg_region=(0, 420, 2, 440)
    )
    cells = np.zeros((111, 3), bool)
    cells[60:101, 0] = True   # (400-360)*0.005 = 0.2
    cells[20:101, 2] = True   # (400-320)*0.005 = 0.4
    trace = mask_to_trace(EnvelopeMask(cells), manifest)
    assert trace.velocities[1] == pytest.approx(0.3)
    assert trace.gap_flags.tolist() == [False, True, False]


def test_empty_mask_rejected(manifest):
    x0, y0, x1, y1 = manifest.spectral_region
    cells = np.zeros((y1 - y0 + 1, x1 - x0 + 1), bool)
    with pytest.raises(SegmentationError, match="empty"):
        mask_to_trace(EnvelopeMask(cells), manifest)


def test_trace_recovers_analytic_envelope_within_one_pixel():
    image, manifest, truth = generate_synthetic(SynthParams(seed=6))
    mask = segment_envelope_threshold(image, manifest, RAW_PARAMS)
    trace = mask_to_trace(mask, manifest)
    deviation = np.abs(trace.velocities - truth.envelope)
    assert deviation.max() <= manifest.velocity_scale + 1e-12


def test_analytic_mask_trace_matches_envelope():
    _, manifest, truth = generate_synthetic(SynthParams(seed=8))
    trace = mask_to_trace(EnvelopeMask(truth.mask), manifest)
    deviation = np.abs(trace.velocities - truth.envelope)
    assert deviation.max() <= manifest.velocity_scale + 1e-12


def test_trace_velocities_nonnegative():
    image, manifest, _ = generate_synthetic(SynthParams(seed=9))
    trace = mask_to_trace(segment_envelope_threshold(image, manifest), manifest)
    assert (trace.velocities >= 0).all()


def test_segmented_columns_are_single_runs_touching_baseline():
    image, manifest, _ = generate_synthetic(SynthParams(seed=10, noise_sigma=0.1))
    mask = segment_envelope_threshold(image, manifest)
    baseline_local = manifest.baseline_row - manifest.spectral_region[1]
    for col in range(0, mask.width, 7):
        column = mask.cells[:, col]
        if not column.any():
            continue
        edges = np.diff(np.concatenate(([0], column.view(np.int8), [0])))
        assert (edges == 1).sum() == 1  # exactly one vertical run
        assert column[baseline_local]  # touching the baseline row


@pytest.mark.parametrize(
    "seed, artifacts, gaps",
    [(21, (), False), (22, (AliasBand(),), False), (23, (Dropout(700.0, 40.0),), True)],
)
def test_below_baseline_flow_measures_as_its_mirror(tmp_path, seed, artifacts, gaps):
    params = replace(corpus_params(SynthParams(noise_sigma=0.15), seed), artifacts=artifacts)
    image, manifest, truth = generate_synthetic(params)
    flipped_image, flipped_manifest = mirrored(image, manifest)
    run = measure_study(image, manifest)
    flipped = measure_study(flipped_image, flipped_manifest)
    assert run.n_beats == 3
    assert run.trace.gap_flags.any() == gaps  # the dropout leaves columns without flow
    assert np.array_equal(flipped.trace.velocities, run.trace.velocities)
    assert np.array_equal(flipped.trace.gap_flags, run.trace.gap_flags)
    assert study_csv_text(flipped.beats, flipped) == study_csv_text(run.beats, run)
    assert np.array_equal(flipped.mask.cells, run.mask.cells[::-1])
    # the trace is a function of the mask's cells alone
    for study, study_manifest in ((run, manifest), (flipped, flipped_manifest)):
        searched = mask_to_trace(EnvelopeMask(study.mask.cells), study_manifest)
        assert np.array_equal(searched.velocities, study.trace.velocities)
        assert np.array_equal(searched.gap_flags, study.trace.gap_flags)
        assert searched.spacing == study.trace.spacing == study_manifest.time_scale
    # the imported route: the mirrored truth mask measures as the unmirrored one
    export_mask(tmp_path / "up.pgm", EnvelopeMask(truth.mask))
    export_mask(tmp_path / "down.pgm", EnvelopeMask(truth.mask[::-1]))
    up = measure_study(image, manifest, mask_path=tmp_path / "up.pgm")
    down = measure_study(flipped_image, flipped_manifest, mask_path=tmp_path / "down.pgm")
    assert up.n_beats == 3
    assert np.array_equal(down.trace.velocities, up.trace.velocities)
    assert np.array_equal(down.trace.gap_flags, up.trace.gap_flags)
    assert study_csv_text(down.beats, down) == study_csv_text(up.beats, up)


@pytest.mark.parametrize("flow_above", [True, False])
def test_far_side_only_columns_are_gaps_on_both_routes(tmp_path, flow_above):
    image, manifest, _ = generate_synthetic(SynthParams(seed=24, noise_sigma=0.15))
    x0, y0, _, _ = manifest.spectral_region
    pixels = image.pixels.copy()
    # columns 100-119 keep only the baseline band rows past the baseline
    pixels[y0:manifest.baseline_row + 1, x0 + 100:x0 + 120] = BACKGROUND_INTENSITY
    image = RasterImage(pixels)
    if not flow_above:
        image, manifest = mirrored(image, manifest)
    mask_path = tmp_path / "picture.mask.pgm"
    export_mask(mask_path, picture_mask(image, manifest))
    classical = measure_study(image, manifest, seg_params=RAW_PARAMS)
    imported = measure_study(image, manifest, mask_path=mask_path)
    assert np.array_equal(imported.trace.velocities, classical.trace.velocities)
    assert np.array_equal(imported.trace.gap_flags, classical.trace.gap_flags)
    assert np.nonzero(classical.trace.gap_flags)[0].tolist() == list(range(100, 120))
    assert np.array_equal(imported.mask.cells, classical.mask.cells)


@pytest.mark.parametrize("flow_above", [True, False])
def test_empty_flow_side_fails_at_trace_on_both_routes(tmp_path, flow_above):
    image, manifest = alias_band_only()
    if not flow_above:
        image, manifest = mirrored(image, manifest)
    mask_path = tmp_path / "band.mask.pgm"
    export_mask(mask_path, picture_mask(image, manifest))
    side = "above" if flow_above else "below"
    for route in ({}, {"mask_path": mask_path}):
        with pytest.raises(SegmentationError) as exc:
            measure_study(image, manifest, **route)
        assert str(exc.value) == f"trace: mask is empty on the flow side ({side} the baseline)"


def argmax_trace(cells, manifest):
    """(velocities, gap flags) of mask_to_trace as it read with an axis-0
    argmax border search; velocities is None when every column is a gap."""
    baseline = manifest.baseline_row - manifest.spectral_region[1]
    flow_side = cells[:baseline + 1] if manifest.flow_above_baseline else cells[baseline:][::-1]
    cols = np.arange(cells.shape[1])
    outer = np.argmax(flow_side, axis=0)
    has = flow_side[outer, cols]
    if not has.any():
        return None, ~has
    measured = np.nonzero(has)[0]
    velocities = (flow_side.shape[0] - 1 - outer[measured]) * manifest.velocity_scale
    return np.interp(cols, measured, velocities), ~has


@st.composite
def flow_masks(draw):
    """(cells, manifest): a seeded-noise mask with flow above or below the
    baseline, some columns empty on the flow side and some holding only the
    baseline row there."""
    height, width = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    baseline = draw(st.integers(0, height - 1))
    above = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = rng.uniform(size=(height, width)) < draw(st.sampled_from([0.02, 0.1, 0.5, 0.9]))
    flow = slice(0, baseline + 1) if above else slice(baseline, height)
    kind = rng.integers(0, 3, width)  # 0 as drawn, 1 empty flow side, 2 baseline row only
    cells[flow, kind > 0] = False
    cells[baseline, kind == 2] = True
    manifest = make_manifest(
        spectral_region=(0, 0, width - 1, height - 1),
        baseline_row=baseline,
        flow_above_baseline=above,
    )
    return cells, manifest


def assert_trace_matches_argmax(cells, manifest):
    velocities, gaps = argmax_trace(cells, manifest)
    if velocities is None:
        with pytest.raises(SegmentationError, match="empty on the flow side"):
            mask_to_trace(EnvelopeMask(cells), manifest)
        return
    trace = mask_to_trace(EnvelopeMask(cells), manifest)
    assert np.array_equal(trace.velocities, velocities)
    assert np.array_equal(trace.gap_flags, gaps)


@settings(max_examples=300, deadline=None)
@given(flow_masks())
def test_border_reduction_matches_the_argmax_search(case):
    assert_trace_matches_argmax(*case)


@pytest.mark.parametrize("flow_above", [True, False])
@pytest.mark.parametrize("rows", [2**16 - 1, 2**16])
def test_border_reduction_past_uint16_row_weights(flow_above, rows):
    # a flow side of 2**16 rows weighs its outermost row 2**16, past uint16
    cells = np.zeros((rows, 2), bool)
    cells[[0, rows // 2, rows - 1], 0] = True
    cells[rows - 1 if flow_above else 0, 1] = True  # the baseline row alone
    manifest = make_manifest(
        spectral_region=(0, 0, 1, rows - 1),
        baseline_row=rows - 1 if flow_above else 0,
        flow_above_baseline=flow_above,
    )
    assert_trace_matches_argmax(cells, manifest)
    trace = mask_to_trace(EnvelopeMask(cells), manifest)
    assert trace.velocities.tolist() == [(rows - 1) * manifest.velocity_scale, 0.0]


# smoothing -------------------------------------------------------------------


def test_smooth_constant_trace_is_identity():
    trace = make_trace(np.full(80, 0.42))
    out = smooth_trace(trace, 15.0)
    assert np.allclose(out.velocities, 0.42)
    assert out.spacing == trace.spacing


def test_smooth_impulse_spreads_to_thirds():
    velocities = np.zeros(41)
    velocities[20] = 1.0
    out = smooth_trace(make_trace(velocities), 7.5)  # 3 columns at 2.5 ms
    assert out.velocities[19:22] == pytest.approx([1 / 3] * 3)
    assert out.velocities[18] == 0.0


def test_smooth_reduces_white_noise_variance():
    rng = np.random.default_rng(31)
    trace = make_trace(rng.uniform(0.0, 1.0, 400))
    out = smooth_trace(trace, 12.5)  # 5 columns
    assert out.velocities.var() < trace.velocities.var()


def test_smooth_preserves_length_times_and_gaps():
    gaps = np.zeros(60, bool)
    gaps[10] = True
    trace = make_trace(np.linspace(0, 1, 60), gaps=gaps)
    out = smooth_trace(trace, 50.0)
    assert len(out.velocities) == 60
    assert out.spacing == trace.spacing
    assert np.array_equal(out.gap_flags, gaps)


def test_smooth_window_beyond_trace_degrades_to_global_mean():
    # 1e-20 and 1e-320 ms columns put window / spacing past int64 and past float
    for spacing_ms in (2.5, 1e-20, 1e-320):
        trace = make_trace(np.arange(10, dtype=float), spacing_ms=spacing_ms)
        out = smooth_trace(trace, 10 * 2 * 2.5 * 10)
        assert np.allclose(out.velocities, trace.velocities.mean())


def test_segmentation_median_window_is_bounded():
    widest = kernels.MAX_MEDIAN_WINDOW
    assert SegmentationParams(median_window=widest).median_window == widest
    with pytest.raises(ValueError, match=f"median_window .* got {widest + 2}"):
        SegmentationParams(median_window=widest + 2)


def test_smooth_rejects_nonpositive_window():
    with pytest.raises(ValueError):
        smooth_trace(make_trace(np.ones(5)), 0.0)
