"""Image decode/encode, manifest parsing, and label routing."""

import math
from dataclasses import replace

import numpy as np
import pytest

from midoppler.errors import ImageFormatError, ManifestError, UnknownLabelError
from midoppler.ingestion import (
    KNOWN_LABELS,
    MITRAL_INFLOW_LABEL,
    RasterImage,
    load_gray_image,
    load_image,
    load_manifest,
    route_image,
    save_gray_image,
    save_image,
    save_manifest,
    validate_manifest,
)
from midoppler.measurement import measure_study
from midoppler.synth import SynthParams, generate_synthetic

from conftest import make_manifest

MANIFEST_TEXT = """\
label = mitral_inflow
velocity_scale = 0.005
time_scale = 2.5
baseline_row = 400
spectral_region = 10, 20, 500, 450
flow_above_baseline = true
ecg_color = 0, 255, 0
ecg_color_tolerance = 60
ecg_region = 10, 470, 500, 520
"""


def write_manifest(tmp_path, text, name="study.manifest"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_all_black_image_roundtrip(tmp_path):
    image = RasterImage(np.zeros((2, 3, 3), dtype=np.uint8))
    path = tmp_path / "black.ppm"
    save_image(path, image)
    loaded = load_image(path)
    assert loaded.width == 3 and loaded.height == 2
    assert np.array_equal(loaded.pixels, image.pixels)


def test_synthetic_image_roundtrips_byte_exact(tmp_path):
    image, _, _ = generate_synthetic(SynthParams(seed=5, n_beats=2))
    path = tmp_path / "study.ppm"
    save_image(path, image)
    loaded = load_image(path)
    assert loaded.pixels.tobytes() == image.pixels.tobytes()


def test_truncated_file_reports_path(tmp_path):
    path = tmp_path / "broken.ppm"
    path.write_bytes(b"P6\n10 10\n255\n" + b"\x00" * 50)
    with pytest.raises(ImageFormatError, match="broken.ppm.*truncated"):
        load_image(path)


def test_wrong_magic_is_corrupt_header(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    with pytest.raises(ImageFormatError, match="corrupt header"):
        load_image(path)


def test_sixteen_bit_depth_rejected(tmp_path):
    path = tmp_path / "deep.ppm"
    path.write_bytes(b"P6\n1 1\n65535\n" + b"\x00" * 6)
    with pytest.raises(ImageFormatError, match="unsupported bit depth"):
        load_image(path)


def test_missing_file_reports_cause(tmp_path):
    with pytest.raises(ImageFormatError, match="cannot read"):
        load_image(tmp_path / "nope.ppm")


def test_header_comments_are_skipped(tmp_path):
    path = tmp_path / "comment.ppm"
    path.write_bytes(b"P6\n# made by a scanner\n2 1\n255\n" + b"\x01\x02\x03\x04\x05\x06")
    image = load_image(path)
    assert image.width == 2 and image.height == 1
    assert image.pixels[0, 1, 2] == 6


def test_gray_roundtrip(tmp_path):
    gray = (np.arange(12, dtype=np.uint8) * 20).reshape(3, 4)
    path = tmp_path / "mask.pgm"
    save_gray_image(path, gray)
    assert np.array_equal(load_gray_image(path), gray)


# manifest parsing -----------------------------------------------------------


def test_manifest_fields_echo(tmp_path):
    manifest = load_manifest(write_manifest(tmp_path, MANIFEST_TEXT))
    assert manifest.velocity_scale == 0.005
    assert manifest.time_scale == 2.5
    assert manifest.baseline_row == 400
    assert manifest.spectral_region == (10, 20, 500, 450)
    assert manifest.flow_above_baseline is True
    assert manifest.ecg_color == (0, 255, 0)
    assert manifest.ecg_color_tolerance == 60


def test_manifest_missing_key_named(tmp_path):
    text = "\n".join(l for l in MANIFEST_TEXT.splitlines() if not l.startswith("baseline_row"))
    with pytest.raises(ManifestError, match="baseline_row"):
        load_manifest(write_manifest(tmp_path, text))


def test_manifest_negative_scale_rejected(tmp_path):
    text = MANIFEST_TEXT.replace("velocity_scale = 0.005", "velocity_scale = -1")
    with pytest.raises(ManifestError, match="velocity_scale"):
        load_manifest(write_manifest(tmp_path, text))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e400"])
@pytest.mark.parametrize(
    "key, default",
    [("velocity_scale", "0.005"), ("time_scale", "2.5"), ("ecg_color_tolerance", "60")],
)
def test_manifest_non_finite_number_rejected(tmp_path, key, default, value):
    text = MANIFEST_TEXT.replace(f"{key} = {default}", f"{key} = {value}")
    assert text != MANIFEST_TEXT
    with pytest.raises(ManifestError, match=f"{key}.*finite"):
        load_manifest(write_manifest(tmp_path, text))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", ["velocity_scale", "time_scale"])
def test_in_code_manifest_non_finite_scale_rejected(key, value):
    with pytest.raises(ManifestError, match=f"{key}.*finite"):
        validate_manifest(replace(make_manifest(), **{key: value}))


@pytest.mark.parametrize("key, value", [("time_scale", math.nan), ("velocity_scale", math.inf)])
def test_measure_study_validates_manifest_first(key, value):
    image, manifest, _ = generate_synthetic(SynthParams(seed=2))
    with pytest.raises(ManifestError, match=f"manifest: {key}"):
        measure_study(image, replace(manifest, **{key: value}))


@pytest.mark.parametrize("value", ["255", "300", "1e30"])
def test_manifest_ecg_tolerance_upper_bound(tmp_path, value):
    text = MANIFEST_TEXT.replace("ecg_color_tolerance = 60", f"ecg_color_tolerance = {value}")
    assert text != MANIFEST_TEXT
    with pytest.raises(ManifestError, match="ecg_color_tolerance"):
        load_manifest(write_manifest(tmp_path, text))
    with pytest.raises(ManifestError, match="ecg_color_tolerance"):
        validate_manifest(replace(make_manifest(), ecg_color_tolerance=float(value)))


def test_manifest_ecg_tolerance_range_ends():
    for value in (0, 254):
        validate_manifest(replace(make_manifest(), ecg_color_tolerance=value))
    for value in (-1, math.nan):
        with pytest.raises(ManifestError, match="ecg_color_tolerance"):
            validate_manifest(replace(make_manifest(), ecg_color_tolerance=value))


def test_manifest_unknown_key_rejected(tmp_path):
    with pytest.raises(ManifestError, match="unknown manifest key"):
        load_manifest(write_manifest(tmp_path, MANIFEST_TEXT + "gain = 3\n"))


def test_manifest_duplicate_key_rejected(tmp_path):
    with pytest.raises(ManifestError, match="duplicate"):
        load_manifest(write_manifest(tmp_path, MANIFEST_TEXT + "time_scale = 3\n"))


def test_manifest_region_outside_image_rejected(tmp_path):
    path = write_manifest(tmp_path, MANIFEST_TEXT)
    with pytest.raises(ManifestError, match="exceeds image bounds"):
        load_manifest(path, image_size=(400, 400))


def test_manifest_baseline_outside_region_rejected(tmp_path):
    text = MANIFEST_TEXT.replace("baseline_row = 400", "baseline_row = 460")
    with pytest.raises(ManifestError, match="baseline_row"):
        load_manifest(write_manifest(tmp_path, text))


def test_manifest_default_color_applied(tmp_path):
    text = "\n".join(
        l
        for l in MANIFEST_TEXT.splitlines()
        if not l.startswith(("ecg_color ", "ecg_color_tolerance"))
    )
    manifest = load_manifest(write_manifest(tmp_path, text))
    assert manifest.ecg_color == (0, 255, 0)
    assert manifest.ecg_color_tolerance == 60


def test_manifest_save_load_roundtrip(tmp_path):
    manifest = make_manifest()
    path = tmp_path / "m.manifest"
    save_manifest(path, manifest)
    assert load_manifest(path) == manifest


# routing --------------------------------------------------------------------


def test_route_accepts_mitral_inflow():
    assert route_image(make_manifest(label="mitral_inflow")).accepted


def test_route_rejects_continuous_wave_with_label():
    decision = route_image(make_manifest(label="mitral_inflow_CW"))
    assert not decision.accepted
    assert decision.label == "mitral_inflow_CW"


def test_route_unknown_label_is_an_error():
    with pytest.raises(UnknownLabelError, match="spectral_unknown"):
        route_image(make_manifest(label="spectral_unknown"))


def test_route_accepts_exactly_one_known_label():
    accepted = [
        label for label in KNOWN_LABELS if route_image(make_manifest(label=label)).accepted
    ]
    assert accepted == [MITRAL_INFLOW_LABEL]
