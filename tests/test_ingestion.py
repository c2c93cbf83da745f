"""Image decode/encode, manifest parsing, and label routing."""

import math
import os
import threading
from dataclasses import MISSING, dataclass, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from midoppler import cli, ingestion
from midoppler.errors import (
    GenerationError,
    ImageFormatError,
    ManifestError,
    UnknownLabelError,
)
from midoppler.ingestion import (
    KNOWN_LABELS,
    MITRAL_INFLOW_LABEL,
    CalibrationManifest,
    RasterImage,
    key_value_fields,
    load_gray_image,
    load_image,
    load_manifest,
    read_fields,
    read_image_size,
    route_image,
    save_gray_image,
    save_image,
    save_manifest,
)
from midoppler.measurement import measure_study
from midoppler.segmentation import import_mask
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


@pytest.mark.parametrize("found", [0, 50])
@pytest.mark.parametrize("magic, load, channels", [(b"P6", load_image, 3), (b"P5", load_gray_image, 1)])
def test_truncated_pixel_data_message(tmp_path, magic, load, channels, found):
    path = tmp_path / "cut.pnm"
    path.write_bytes(magic + b"\n10 10\n255\n" + b"\x00" * found)
    with pytest.raises(ImageFormatError) as info:
        load(path)
    assert str(info.value) == (
        f"{path}: truncated pixel data, expected {100 * channels} bytes, found {found}"
    )


def test_file_that_shrinks_after_fstat_reads_as_truncated(tmp_path, monkeypatch):
    # fstat reports the full file, the read finds only half the raster
    path = tmp_path / "shrunk.ppm"
    header = b"P6\n10 10\n255\n"
    path.write_bytes(header + b"\x07" * 150)
    full = len(header) + 300
    monkeypatch.setattr(ingestion.os, "fstat", lambda fd: SimpleNamespace(st_size=full))
    with pytest.raises(ImageFormatError) as info:
        load_image(path)
    assert str(info.value) == f"{path}: truncated pixel data, expected 300 bytes, found 150"


def test_loaded_pixels_are_writable(tmp_path):
    path = tmp_path / "study.ppm"
    save_image(path, RasterImage(np.full((2, 3, 3), 9, np.uint8)))
    pixels = load_image(path).pixels
    pixels[0, 0] = 1
    assert pixels.sum() == 9 * 18 - 24


@pytest.mark.parametrize("magic, load, shape", [
    (b"P6", lambda path: load_image(path).pixels, (3, 4, 3)),
    (b"P5", load_gray_image, (3, 4)),
], ids=["ppm", "pgm"])
def test_loaded_raster_is_a_contiguous_uint8_array_that_owns_its_memory(tmp_path, magic, load, shape):
    path = tmp_path / "raster.pnm"
    data = bytes(range(math.prod(shape)))
    path.write_bytes(magic + b"\n4 3\n255\n" + data)
    raster = load(path)
    assert raster.dtype == np.uint8 and raster.shape == shape
    assert raster.flags.c_contiguous and raster.flags.writeable
    assert raster.flags.owndata and raster.base is None
    assert raster.tobytes() == data


def test_save_image_of_a_sliced_view_writes_header_and_pixel_bytes(tmp_path):
    rng = np.random.default_rng(7)
    full = rng.integers(0, 256, (240, 700, 3), dtype=np.uint8)
    view = full[10:230, 5::3]  # every third column: not C-contiguous
    assert not view.flags.c_contiguous
    path = tmp_path / "view.ppm"
    save_image(path, RasterImage(view))
    height, width = view.shape[:2]
    assert path.read_bytes() == f"P6\n{width} {height}\n255\n".encode() + view.tobytes()


@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
def test_save_gray_image_of_a_mask_writes_header_and_pixel_bytes(tmp_path, layout):
    cells = np.random.default_rng(8).uniform(size=(300, 500)) < 0.3
    gray = cells.astype(np.uint8) * 255  # as export_mask writes a mask
    if layout == "transposed":
        gray = gray.T
    path = tmp_path / "mask.pgm"
    save_gray_image(path, gray)
    height, width = gray.shape
    assert path.read_bytes() == f"P5\n{width} {height}\n255\n".encode() + gray.tobytes()


def test_write_failing_midway_leaves_the_old_file_and_no_temporary(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old\n")
    with pytest.raises(TypeError):
        ingestion.atomic_write_bytes(path, b"new\n", "not a buffer")
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    assert path.read_bytes() == b"old\n"


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


@pytest.mark.parametrize("data, expected", [
    # a comment may follow the magic directly
    (b"P6#c\n2 1\n255\n" + bytes(range(6)), bytes(range(6))),
    # all six whitespace bytes separate fields
    (b"P6 1\t1\r\x0b255\x0c\x01\x02\x03", b"\x01\x02\x03"),
    # exactly one whitespace byte follows maxval, so what comes next is pixel data
    (b"P6 1 1 255\n\n\x01\x02", b"\n\x01\x02"),
    (b"P6 1 1 255 #c\n", b"#c\n"),
    # a field runs to the next whitespace byte, through a #
    (b"P6 2#3 1 255\n" + bytes(18), "corrupt header, non-numeric field b'2#3'"),
    (b"P6 1 1 255", "corrupt header, missing pixel data"),
    (b"P6 1 1 #c 255\n", "corrupt header, truncated before size fields"),
], ids=[
    "comment-after-magic", "six-whitespace-bytes", "one-byte-after-maxval",
    "comment-after-maxval-is-pixels", "hash-inside-field", "nothing-after-maxval",
    "comment-hides-maxval",
])
def test_header_grammar(tmp_path, data, expected):
    path = tmp_path / "grammar.ppm"
    path.write_bytes(data)
    if isinstance(expected, bytes):
        assert load_image(path).pixels.tobytes() == expected
    else:
        with pytest.raises(ImageFormatError) as info:
            load_image(path)
        assert str(info.value) == f"{path}: {expected}"


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
    # a manifest checks itself when built, dataclasses.replace's too
    with pytest.raises(ManifestError) as info:
        replace(make_manifest(), **{key: value})
    assert str(info.value) == f"{key} must be finite and positive, got {value}"


@pytest.mark.parametrize("key, value", [("time_scale", math.nan), ("velocity_scale", math.inf)])
def test_measure_study_validates_manifest_first(key, value):
    # the bad manifest is refused when built, so measure_study never sees it
    image, manifest, _ = generate_synthetic(SynthParams(seed=2))
    with pytest.raises(ManifestError, match=f"^{key} must be finite"):
        measure_study(image, replace(manifest, **{key: value}))


@pytest.mark.parametrize("value", ["255", "300", "1e30"])
def test_manifest_ecg_tolerance_upper_bound(tmp_path, value):
    text = MANIFEST_TEXT.replace("ecg_color_tolerance = 60", f"ecg_color_tolerance = {value}")
    assert text != MANIFEST_TEXT
    with pytest.raises(ManifestError, match="ecg_color_tolerance"):
        load_manifest(write_manifest(tmp_path, text))
    with pytest.raises(ManifestError, match="ecg_color_tolerance"):
        replace(make_manifest(), ecg_color_tolerance=float(value))


@pytest.mark.parametrize("value", ["60.0", "6e1"])
def test_manifest_ecg_tolerance_whole_number_loads_as_int(tmp_path, value):
    text = MANIFEST_TEXT.replace("ecg_color_tolerance = 60", f"ecg_color_tolerance = {value}")
    tolerance = load_manifest(write_manifest(tmp_path, text)).ecg_color_tolerance
    assert type(tolerance) is int and tolerance == float(value)


def test_manifest_ecg_tolerance_range_ends():
    for value in (0, 254):
        replace(make_manifest(), ecg_color_tolerance=value)
    for value in (-1, math.nan):
        with pytest.raises(ManifestError, match="ecg_color_tolerance"):
            replace(make_manifest(), ecg_color_tolerance=value)


@pytest.mark.parametrize(
    "line, message",
    [
        ("time_scale = abc", "key 'time_scale': expected a number, got 'abc'"),
        ("baseline_row = 5.5", "key 'baseline_row': expected an integer, got '5.5'"),
        ("flow_above_baseline = yes", "key 'flow_above_baseline': expected true/false, got 'yes'"),
        ("spectral_region = 500, 20, 10, 450", "spectral_region corners are not ordered: (500, 20, 10, 450)"),
        ("ecg_region = -1, 470, 500, 520", "ecg_region has negative coordinates: (-1, 470, 500, 520)"),
        ("ecg_color = 0, 256, 0", "ecg_color channel out of range: (0, 256, 0)"),
        ("ecg_color_tolerance = -0.5", "key 'ecg_color_tolerance': expected an integer, got '-0.5'"),
        ("ecg_color_tolerance = 0.99", "key 'ecg_color_tolerance': expected an integer, got '0.99'"),
        ("ecg_color_tolerance = 60.7", "key 'ecg_color_tolerance': expected an integer, got '60.7'"),
    ],
    ids=[
        "non-numeric", "non-integer", "non-boolean", "unordered", "negative", "channel-256",
        "tolerance-minus-half", "tolerance-0.99", "tolerance-60.7",
    ],
)
def test_manifest_bad_value_names_the_key(tmp_path, line, message):
    key = line.split(" = ")[0]
    text = "\n".join(line if l.startswith(f"{key} =") else l for l in MANIFEST_TEXT.splitlines())
    assert text != MANIFEST_TEXT.rstrip("\n")
    with pytest.raises(ManifestError) as exc:
        load_manifest(write_manifest(tmp_path, text))
    assert str(exc.value) == message


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


@pytest.mark.parametrize("field", fields(CalibrationManifest), ids=lambda f: f.name)
def test_manifest_keys_are_the_dataclass_fields(tmp_path, field):
    # a field without a default is a required key; one with a default may be left out
    text = "\n".join(l for l in MANIFEST_TEXT.splitlines() if l.split(" ")[0] != field.name)
    assert text.count("\n") == MANIFEST_TEXT.count("\n") - 2
    path = write_manifest(tmp_path, text)
    if field.default is MISSING:
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        assert str(info.value) == f"{path}: missing required key {field.name!r}"
    else:
        assert getattr(load_manifest(path), field.name) == field.default


def test_manifest_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "study.manifest"
    path.write_bytes(MANIFEST_TEXT.encode() + b"\xff")
    with pytest.raises(ManifestError) as info:
        load_manifest(path)
    assert str(info.value).startswith(f"{path}: cannot read manifest: 'utf-8' codec can't decode")


def test_manifest_save_load_roundtrip(tmp_path):
    manifest = make_manifest()
    path = tmp_path / "m.manifest"
    save_manifest(path, manifest)
    assert load_manifest(path) == manifest


def test_manifest_with_bom_and_crlf_loads_like_its_plain_copy(tmp_path):
    plain = load_manifest(write_manifest(tmp_path, MANIFEST_TEXT))
    path = tmp_path / "windows.manifest"
    path.write_bytes(b"\xef\xbb\xbf" + MANIFEST_TEXT.replace("\n", "\r\n").encode())
    assert load_manifest(path) == plain


def test_manifest_is_written_in_field_order(tmp_path):
    path = tmp_path / "m.manifest"
    save_manifest(path, make_manifest())
    keys = [line.split(" = ")[0] for line in path.read_text().splitlines()]
    assert keys == [f.name for f in fields(CalibrationManifest)]


round_trip = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
# one line, as read_fields strips it, of UTF-8 text (no lone surrogate)
ONE_LINE_TEXT = st.text(st.characters(exclude_categories=["Cs"])).filter(lambda text: text == text.strip() and len(text.splitlines()) <= 1)
FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def ordered_pairs(draw):
    low, high = sorted(draw(st.lists(st.integers(min_value=0), min_size=2, max_size=2)))
    return low, high


@st.composite
def manifests(draw):
    """A valid CalibrationManifest, its values anywhere the invariants allow."""
    (sx0, sx1), (sy0, sy1), (ex0, ex1), (ey0, ey1) = (draw(ordered_pairs()) for _ in range(4))
    scales = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    return CalibrationManifest(
        label=draw(ONE_LINE_TEXT),
        velocity_scale=draw(scales),
        time_scale=draw(scales),
        baseline_row=draw(st.integers(sy0, sy1)),
        spectral_region=(sx0, sy0, sx1, sy1),
        flow_above_baseline=draw(st.booleans()),
        ecg_color=draw(st.tuples(*[st.integers(0, 255)] * 3)),
        ecg_color_tolerance=draw(st.integers(0, 254)),
        ecg_region=(ex0, ey0, ex1, ey1),
    )


@round_trip
@given(manifests())
def test_saved_manifest_loads_equal_and_saves_the_same_bytes(tmp_path, manifest):
    first, second = tmp_path / "first.manifest", tmp_path / "second.manifest"
    save_manifest(first, manifest)
    loaded = load_manifest(first)
    assert loaded == manifest
    save_manifest(second, loaded)
    assert second.read_bytes() == first.read_bytes()


PARAMS_FILE_FIELDS = cli._PARAMS_FILE_FIELDS
# a value of each SynthParams field type a params file can set
SYNTH_VALUES = {int: st.integers(), float: FINITE_FLOATS, float | None: FINITE_FLOATS, str: ONE_LINE_TEXT}


@round_trip
@given(st.data())
def test_synth_params_values_written_as_lines_read_back_equal(tmp_path, data):
    names = data.draw(st.lists(st.sampled_from(list(PARAMS_FILE_FIELDS)), unique=True))
    types = {f.name: f.type for f in fields(SynthParams)}
    values = {name: data.draw(SYNTH_VALUES[types[name]], label=name) for name in names}
    path = tmp_path / "params.txt"
    path.write_text("".join(f"{name} = {PARAMS_FILE_FIELDS[name][1](value)}\n" for name, value in values.items()))
    assert read_fields(path, PARAMS_FILE_FIELDS, GenerationError, "params file") == values


@pytest.mark.parametrize(
    "table, cls, skip",
    [(ingestion._MANIFEST_FIELDS, CalibrationManifest, ()), (PARAMS_FILE_FIELDS, SynthParams, ("artifacts",))],
    ids=["manifest", "synth-params"],
)
def test_every_field_has_a_parser(table, cls, skip):
    assert list(table) == [f.name for f in fields(cls) if f.name not in skip]


@pytest.mark.parametrize("annotation", [tuple, tuple[int, ...], tuple[int, float], list[int], complex])
def test_a_field_of_an_unsupported_type_fails_when_its_table_is_built(annotation):
    @dataclass
    class Future:
        gain: annotation

    with pytest.raises(TypeError, match="Future.gain"):
        key_value_fields(Future)


# the one integer rule, in every key = value file ------------------------------


def read_one(tmp_path, table, error, key, text):
    """The value of key written as text, read as a one-line file with table's parsers."""
    path = tmp_path / "values.txt"
    path.write_text(f"{key} = {text}\n")
    return read_fields(path, table, error, "test file")[key]

@pytest.mark.parametrize(
    "key, text, value",
    [
        ("baseline_row", "536.0", 536),
        ("spectral_region", "60.0, 60, 955, 620", (60, 60, 955, 620)),
        ("ecg_color", "0, 2.55e2, 0", (0, 255, 0)),
        ("ecg_color_tolerance", "6e1", 60),
    ],
)
def test_manifest_integer_written_as_a_whole_number_loads(tmp_path, key, text, value):
    parsed = read_one(tmp_path, ingestion._MANIFEST_FIELDS, ManifestError, key, text)
    assert parsed == value
    assert all(type(v) is int for v in (parsed if isinstance(parsed, tuple) else (parsed,)))


def test_manifest_with_whole_number_integers_loads_like_the_plain_one(tmp_path):
    text = MANIFEST_TEXT.replace("baseline_row = 400", "baseline_row = 400.0")
    text = text.replace("spectral_region = 10, 20", "spectral_region = 10.0, 20")
    assert load_manifest(write_manifest(tmp_path, text)) == load_manifest(write_manifest(tmp_path, MANIFEST_TEXT, "plain.manifest"))


@pytest.mark.parametrize(
    "key, text, value",
    [
        ("seed", "1.0", 1),
        ("seed", "12345678901234567890123", 12345678901234567890123),
        ("n_beats", "3e0", 3),
        ("width", " 1016 ", 1016),
    ],
)
def test_params_integer_written_as_a_whole_number_loads(tmp_path, key, text, value):
    parsed = read_one(tmp_path, PARAMS_FILE_FIELDS, GenerationError, key, text)
    assert type(parsed) is int and parsed == value


@pytest.mark.parametrize(
    "key, text, message",
    [
        ("baseline_row", "5.5", "key 'baseline_row': expected an integer, got '5.5'"),
        ("baseline_row", "nan", "key 'baseline_row': expected a finite number, got 'nan'"),
        ("baseline_row", "1e400", "key 'baseline_row': expected a finite number, got '1e400'"),
        ("baseline_row", "row", "key 'baseline_row': expected an integer, got 'row'"),
        ("ecg_color_tolerance", "abc", "key 'ecg_color_tolerance': expected an integer, got 'abc'"),
        ("spectral_region", "60, 60.5, 955, 620", "key 'spectral_region': expected an integer, got '60.5'"),
        ("spectral_region", "60, inf, 955, 620", "key 'spectral_region': expected a finite number, got 'inf'"),
        ("ecg_region", "60, 650, 955", "key 'ecg_region': expected 4 comma-separated integers"),
    ],
)
def test_manifest_integer_rule_refusals_name_the_key(tmp_path, key, text, message):
    with pytest.raises(ManifestError) as info:
        read_one(tmp_path, ingestion._MANIFEST_FIELDS, ManifestError, key, text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "key, text, message",
    [
        ("seed", "5.5", "key 'seed': expected an integer, got '5.5'"),
        ("seed", "nan", "key 'seed': expected a finite number, got 'nan'"),
        ("n_beats", "-inf", "key 'n_beats': expected a finite number, got '-inf'"),
        ("height", "tall", "key 'height': expected an integer, got 'tall'"),
    ],
)
def test_params_integer_rule_refusals_name_the_key(tmp_path, key, text, message):
    with pytest.raises(GenerationError) as info:
        read_one(tmp_path, PARAMS_FILE_FIELDS, GenerationError, key, text)
    assert str(info.value) == message


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


# key = value reader ----------------------------------------------------------

# every value kept as its text
TEXT_FIELDS = {"a": (str, str), "b": (str, str)}


@pytest.mark.parametrize(
    "text, message",
    [
        ("a = 1\n\n# note\nstray line\n", "{path}:4: expected 'key = value', got 'stray line'"),
        ("a = 1\nc = 3\n", "{path}:2: unknown test file key 'c'"),
        ("a = 1\n  # note\nb = 2\na=3\n", "{path}:4: duplicate test file key 'a'"),
    ],
)
def test_key_value_reader_errors_name_path_and_line(tmp_path, text, message):
    path = tmp_path / "values.txt"
    path.write_text(text)
    with pytest.raises(GenerationError) as info:
        read_fields(path, TEXT_FIELDS, GenerationError, "test file")
    assert str(info.value) == message.format(path=path)


def test_key_value_reader_strips_and_skips(tmp_path):
    path = tmp_path / "values.txt"
    path.write_text("# header\n\n  a =  x = y \n\tb=\n")
    assert read_fields(path, TEXT_FIELDS, GenerationError, "test file") == {"a": "x = y", "b": ""}


@pytest.mark.parametrize("data", [None, b"a = 1\n\xc3\n"])
def test_key_value_reader_unreadable_file(tmp_path, data):
    path = tmp_path / "values.txt"
    if data is not None:
        path.write_bytes(data)
    with pytest.raises(GenerationError) as info:
        read_fields(path, TEXT_FIELDS, GenerationError, "test file")
    assert str(info.value).startswith(f"{path}: cannot read test file: ")


def test_key_value_reader_reports_the_first_faulty_line(tmp_path):
    # a bad value on line 1 is reported before a syntax error on line 2
    path = tmp_path / "values.txt"
    path.write_text("a = x\nstray line\n")
    with pytest.raises(GenerationError) as info:
        read_fields(path, {"a": (int, str)}, GenerationError, "test file")
    assert str(info.value) == "key 'a': invalid literal for int() with base 10: 'x'"


def test_key_value_reader_reads_a_pipe_to_its_end():
    # a --params <(...) file: fstat gives a pipe no size, so the reader
    # reads past its first chunk until the writer closes its end
    text = "# padding line\n" * 10_000 + "a = 1\n"
    assert len(text) > 1 << 16
    r, w = os.pipe()
    writer = threading.Thread(target=lambda: (os.write(w, text.encode()), os.close(w)))
    writer.start()
    try:
        values = read_fields(f"/dev/fd/{r}", TEXT_FIELDS, GenerationError, "test file")
    finally:
        os.close(r)  # a writer still blocked on a full pipe then fails and ends
        writer.join()
    assert values == {"a": "1"}


# fuzz: mutated files end in the loader's own error ---------------------------


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """data after 1-4 edits: a byte replaced, inserted or deleted, or a cut."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        byte = draw(st.integers(0, 255))
        edit = draw(st.sampled_from(("replace", "insert", "delete", "cut")))
        if edit == "replace" and pos < len(data):
            data[pos] = byte
        elif edit == "insert":
            data.insert(pos, byte)
        elif edit == "delete":
            del data[pos:pos + 1]
        elif edit == "cut":
            del data[pos:]
    return bytes(data)


fuzz = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@fuzz
@given(mutated(MANIFEST_TEXT.encode()))
def test_fuzzed_manifest_raises_only_manifest_error(tmp_path, data):
    path = tmp_path / "fuzz.manifest"
    path.write_bytes(data)
    try:
        load_manifest(path, image_size=(600, 600))
    except ManifestError:
        pass


PPM_BYTES = b"P6\n# scanner\n4 3\n255\n" + bytes(range(36))
PGM_BYTES = b"P5\n4 3\n255\n" + bytes(range(0, 240, 20))


@fuzz
@given(st.one_of(
    st.tuples(st.just(load_image), mutated(PPM_BYTES)),
    st.tuples(st.just(load_gray_image), mutated(PGM_BYTES)),
))
def test_fuzzed_pnm_raises_only_image_format_error(tmp_path, case):
    load, data = case
    path = tmp_path / "fuzz.pnm"
    path.write_bytes(data)
    try:
        load(path)
    except ImageFormatError:
        pass


# the header reader: read_image_size agrees with load_image ---------------------

PNM_WHITESPACE = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
# comment text without its newline, some longer than the header reader's first read
COMMENT_TEXT = st.one_of(
    st.binary(max_size=20),
    st.binary(min_size=ingestion._HEADER_READ + 1, max_size=4 * ingestion._HEADER_READ),
).map(lambda text: text.replace(b"\n", b""))


# whitespace and comments between two header fields, after the one whitespace
# byte that ends a field: a comment right after a field is part of it
PNM_SEPARATOR = st.lists(
    st.one_of(PNM_WHITESPACE, COMMENT_TEXT.map(lambda text: b"#" + text + b"\n")), max_size=2
).map(b"".join)


@st.composite
def ppm_files(draw):
    """(file bytes, outcome): a header of random whitespace, comments, fields
    and maxval, mostly a valid P6 one, then pixel data; cut inside the header,
    at its end, inside the pixels or not at all.

    The outcome is the (width, height) the file declares, or ImageFormatError
    when the magic, a field, the maxval or the cut makes the file invalid. A
    field may have a comment glued on; a field runs to the next whitespace
    byte, so that makes the field non-numeric.
    """
    magic = draw(st.sampled_from([b"P6"] * 8 + [b"P5", b"P3"]))
    fields = [draw(st.sampled_from([3, 1, 2, 5, 0, -1])) for _ in range(2)]
    fields.append(draw(st.sampled_from([255, 255, 255, 65535, 0])))
    tokens = [str(value).encode() for value in fields]
    valid = magic == b"P6" and min(fields[:2]) >= 1 and fields[2] == 255
    if draw(st.integers(0, 9)) == 0:
        tokens[draw(st.integers(0, 2))] = draw(st.sampled_from([b"x", b"2x", b"-", b"1.5"]))
        valid = False
    if draw(st.integers(0, 3)) == 0:
        tokens[draw(st.integers(0, 2))] += b"#" + draw(COMMENT_TEXT) + b"\n"
        valid = False
    header = magic
    for token in tokens:
        header += draw(PNM_WHITESPACE) + draw(PNM_SEPARATOR) + token
    header += draw(PNM_WHITESPACE)
    need = max(fields[0], 0) * max(fields[1], 0) * 3
    data = header + bytes(range(need + draw(st.integers(0, 2))))
    cut = draw(st.one_of(
        st.just(len(data)),
        st.sampled_from([len(header) - 1, len(header), len(header) + 1]),
        st.integers(0, len(data)),
    ))
    valid = valid and cut >= len(header) + need
    return data[:cut], (tuple(fields[:2]) if valid else ImageFormatError)


def size_or_error(read, path):
    try:
        return read(path)
    except ImageFormatError as exc:
        return str(exc)


def decoded_size(path):
    image = load_image(path)
    return image.width, image.height


@fuzz
@given(ppm_files())
def test_header_reader_agrees_with_load_image(tmp_path, case):
    data, outcome = case
    path = tmp_path / "study.ppm"
    path.write_bytes(data)
    size = size_or_error(read_image_size, path)
    assert size == size_or_error(decoded_size, path)
    assert (size if isinstance(size, tuple) else ImageFormatError) == outcome


def test_header_reader_reads_past_a_long_comment(tmp_path):
    path = tmp_path / "study.ppm"
    comment = b"#" + b"c" * (5 * ingestion._HEADER_READ) + b"\n"
    path.write_bytes(b"P6\n" + comment + b"2 1\n" + comment + b"255\n" + bytes(6))
    assert read_image_size(path) == (2, 1)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(ImageFormatError) as info:
        read_image_size(path)
    assert str(info.value) == f"{path}: truncated pixel data, expected 6 bytes, found 5"


# the one PNM reader: bytes read, long headers of both kinds ----------------


def ingestion_os(monkeypatch, **calls):
    """Give ingestion an os module whose named calls are replaced by calls."""
    monkeypatch.setattr(ingestion, "os", SimpleNamespace(**{**vars(os), **calls}))


def count_raw_reads(monkeypatch) -> list:
    """Log the byte count of each read ingestion makes from a file descriptor
    (os.pread, os.read and os.readv); returns the log."""
    log = []

    def counted(read, count):
        def spy(*args):
            result = read(*args)
            log.append(count(result))
            return result

        return spy

    ingestion_os(monkeypatch, pread=counted(os.pread, len), read=counted(os.read, len), readv=counted(os.readv, int))
    return log


def test_size_read_of_a_bad_magic_reads_one_buffer(tmp_path, monkeypatch):
    path = tmp_path / "study.ppm"
    path.write_bytes(b"P3\n1000 1000\n255\n" + bytes(2_000_000))
    log = count_raw_reads(monkeypatch)
    with pytest.raises(ImageFormatError) as info:
        read_image_size(path)
    assert str(info.value) == f"{path}: corrupt header, expected P6 magic, got b'P3'"
    assert 0 < sum(log) <= ingestion._HEADER_READ


LONG_COMMENT = b"#" + b"c" * (5 * ingestion._HEADER_READ) + b"\n"


def long_comment_header(magic, width, height) -> bytes:
    return magic + b"\n" + LONG_COMMENT + f"{width} {height}\n".encode() + LONG_COMMENT + b"255\n"


def test_size_read_past_long_comments_reads_one_buffer_past_the_header(tmp_path, monkeypatch):
    path = tmp_path / "study.ppm"
    header = long_comment_header(b"P6", 1000, 1)
    path.write_bytes(header + bytes(3000))
    log = count_raw_reads(monkeypatch)
    assert read_image_size(path) == (1000, 1)
    assert len(header) < sum(log) <= len(header) + ingestion._HEADER_READ
    log.clear()
    assert load_image(path).pixels.shape == (1, 1000, 3)
    assert sum(log) == len(header) + 3000


def pnm_error(load, path):
    try:
        load(path)
    except ImageFormatError as exc:
        return str(exc)
    return None


def import_test_mask(path):
    return import_mask(path, make_manifest())  # a 180x90 spectral region


# header cuts: inside the first comment, inside the second, and before the
# whitespace byte after maxval
HEADER_CUTS = [10, len(long_comment_header(b"P5", 180, 90)) - 10, -1]


@pytest.mark.parametrize("cut", HEADER_CUTS)
def test_long_comment_pgm_cut_in_its_header_reads_as_the_ppm(tmp_path, cut):
    path = tmp_path / "mask.pgm"
    path.write_bytes(long_comment_header(b"P6", 180, 90)[:cut])
    expected = pnm_error(load_image, path)
    assert expected is not None
    path.write_bytes(long_comment_header(b"P5", 180, 90)[:cut])
    assert pnm_error(load_gray_image, path) == expected
    assert pnm_error(import_test_mask, path) == expected


@pytest.mark.parametrize("found", [0, 100])
def test_long_comment_pgm_cut_in_its_pixels(tmp_path, found):
    path = tmp_path / "mask.pgm"
    path.write_bytes(long_comment_header(b"P5", 180, 90) + bytes(found))
    message = f"{path}: truncated pixel data, expected {180 * 90} bytes, found {found}"
    assert pnm_error(load_gray_image, path) == message
    assert pnm_error(import_test_mask, path) == message


def test_long_comment_pgm_mask_imports(tmp_path):
    gray = np.zeros((90, 180), np.uint8)
    gray[40:60, 20:160] = 255
    path = tmp_path / "mask.pgm"
    path.write_bytes(long_comment_header(b"P5", 180, 90) + gray.tobytes())
    assert np.array_equal(load_gray_image(path), gray)
    assert np.array_equal(import_test_mask(path).cells, gray == 255)


@pytest.mark.parametrize("load, magic, width", [(load_image, b"P6", 100), (load_gray_image, b"P5", 300)], ids=["ppm", "pgm"])
def test_short_raster_read_is_a_truncation(tmp_path, monkeypatch, load, magic, width):
    # fstat promises the whole raster, and the read that fills the array past
    # the header's chunk returns 1000 bytes fewer than it asked for
    path = tmp_path / "study.pnm"
    need = 3000
    path.write_bytes(magic + f"\n{width} 10\n255\n".encode() + bytes(range(250)) * 12)
    readv = os.readv
    ingestion_os(monkeypatch, readv=lambda fd, buffers: readv(fd, [buffers[0][:-1000]]))
    with pytest.raises(ImageFormatError) as info:
        load(path)
    assert str(info.value) == f"{path}: truncated pixel data, expected {need} bytes, found {need - 1000}"


# the header parser against the byte-at-a-time reader it replaced ------------


def oracle_pnm_header(fh, path, magic: bytes) -> tuple:
    """(width, height) of the PNM header fh starts with; fh is left at the raster.

    The reader the parser replaced, one byte at a time from a buffered file,
    kept as the parser's oracle. Whitespace and ``#`` comments to the end of
    their line separate the fields, each of which runs to the next
    whitespace byte; exactly one whitespace byte follows maxval.
    """
    got = fh.read(2)
    if got != magic:
        raise ImageFormatError(
            f"{path}: corrupt header, expected {magic.decode()} magic, got {got!r}"
        )
    fields = []
    while len(fields) < 3:
        token = bytearray()
        while byte := fh.read(1):
            if byte == b"#" and not token:
                fh.readline()
            elif byte not in b" \t\r\n\x0b\x0c":
                token += byte
            elif token:
                break
        if not token:
            raise ImageFormatError(f"{path}: corrupt header, truncated before size fields")
        try:
            fields.append(int(token))
        except ValueError:
            raise ImageFormatError(
                f"{path}: corrupt header, non-numeric field {bytes(token)!r}"
            ) from None
    if not byte:
        raise ImageFormatError(f"{path}: corrupt header, missing pixel data")
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ImageFormatError(f"{path}: corrupt header, invalid size {width}x{height}")
    if maxval != 255:
        raise ImageFormatError(
            f"{path}: unsupported bit depth (maxval {maxval}, only 8-bit supported)"
        )
    return width, height


# a run between two header fields: whitespace and comments, some longer than
# a chunk, or nothing, so that two fields run into one
HEADER_GAP = st.lists(
    st.one_of(
        st.lists(PNM_WHITESPACE, min_size=1, max_size=3).map(b"".join),
        COMMENT_TEXT.map(lambda text: b"#" + text + b"\n"),
    ),
    max_size=3,
).map(b"".join)
HEADER_FIELD = st.one_of(
    st.sampled_from([b"1", b"2", b"3", b"255", b"0", b"00", b"-1", b"65535", b"+2", b"1_0"]),
    st.sampled_from([b"x", b"2#3", b"1.5", b"2#", b"\xff", b"1\x002"]),
    st.integers(1, 10**6).map(lambda n: str(n).encode()),
)


@st.composite
def pnm_headers(draw):
    """(file bytes, magic): a header with whitespace and comments before each
    field, read for the magic, and cut anywhere or just past the first chunk;
    one in ten is random bytes."""
    magic = draw(st.sampled_from([b"P6", b"P5"]))
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=3 * ingestion._HEADER_READ)), magic
    data = draw(st.sampled_from([magic] * 6 + [b"P3", b"P", b"", b"6P"]))
    for _ in range(3):
        data += draw(HEADER_GAP) + draw(HEADER_FIELD)
    data += draw(st.sampled_from([b"\n", b" ", b"\t", b"#c\n", b""])) + draw(st.binary(max_size=8))
    chunk = ingestion._HEADER_READ
    cut = draw(st.one_of(st.just(len(data)), st.integers(0, len(data)), st.integers(chunk - 2, chunk + 2)))
    return data[:cut], magic


def header_outcome(parse, path, magic):
    try:
        return parse(path, magic)
    except ImageFormatError as exc:
        return str(exc)


def parsed_header(path, magic):
    fd = os.open(path, os.O_RDONLY)
    try:
        width, height, _, start = ingestion._read_pnm_header(fd, path, magic)
    finally:
        os.close(fd)
    return width, height, start


def oracle_header(path, magic):
    with open(path, "rb") as fh:
        width, height = oracle_pnm_header(fh, path, magic)
        return width, height, fh.tell()


@fuzz
@given(pnm_headers())
def test_header_parser_agrees_with_the_byte_at_a_time_reader(tmp_path, case):
    data, magic = case
    path = tmp_path / "header.pnm"
    path.write_bytes(data)
    assert header_outcome(parsed_header, path, magic) == header_outcome(oracle_header, path, magic)


@pytest.mark.parametrize("data", [
    b"P6\n#" + b"c" * 60 + b"\n2 1\n255\n",  # the first field starts in the second chunk
    b"P6" + b" " * 62 + b"2 1 255\n",  # a whitespace run ends on the chunk boundary
    b"P6 2 1 " + b"2" * 55 + b"55 ",  # maxval crosses the chunk boundary
    b"P6 2 1 255" + b"#" * 54,  # maxval runs into the second chunk and to the end of the file
    b"P6 2 1 #" + b"c" * 56 + b"\n255\n",  # a comment's newline is the second chunk's first byte
], ids=["field-past-chunk", "space-to-boundary", "maxval-across", "field-to-eof", "newline-on-boundary"])
def test_header_parser_agrees_with_the_reader_across_the_chunk_boundary(tmp_path, data):
    path = tmp_path / "header.pnm"
    path.write_bytes(data)
    assert header_outcome(parsed_header, path, b"P6") == header_outcome(oracle_header, path, b"P6")
