"""Image decode/encode, manifest parsing, and label routing."""

import io
import math
from dataclasses import MISSING, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from midoppler import ingestion
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
    load_gray_image,
    load_image,
    load_manifest,
    read_image_size,
    read_key_values,
    route_image,
    save_gray_image,
    save_image,
    save_manifest,
    validate_manifest,
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


@pytest.mark.parametrize(
    "line, message",
    [
        ("time_scale = abc", "key 'time_scale': expected a number, got 'abc'"),
        ("baseline_row = 5.5", "key 'baseline_row': expected an integer, got '5.5'"),
        ("flow_above_baseline = yes", "key 'flow_above_baseline': expected true/false, got 'yes'"),
        ("spectral_region = 500, 20, 10, 450", "spectral_region corners are not ordered: (500, 20, 10, 450)"),
        ("ecg_region = -1, 470, 500, 520", "ecg_region has negative coordinates: (-1, 470, 500, 520)"),
        ("ecg_color = 0, 256, 0", "ecg_color channel out of range: (0, 256, 0)"),
    ],
    ids=["non-numeric", "non-integer", "non-boolean", "unordered", "negative", "channel-256"],
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
        read_key_values(path, ("a", "b"), GenerationError, "test file")
    assert str(info.value) == message.format(path=path)


def test_key_value_reader_strips_and_skips(tmp_path):
    path = tmp_path / "values.txt"
    path.write_text("# header\n\n  a =  x = y \n\tb=\n")
    assert read_key_values(path, ("a", "b"), GenerationError, "test file") == {"a": "x = y", "b": ""}


@pytest.mark.parametrize("data", [None, b"a = 1\n\xc3\n"])
def test_key_value_reader_unreadable_file(tmp_path, data):
    path = tmp_path / "values.txt"
    if data is not None:
        path.write_bytes(data)
    with pytest.raises(GenerationError) as info:
        read_key_values(path, ("a",), GenerationError, "test file")
    assert str(info.value).startswith(f"{path}: cannot read test file: ")


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


def count_raw_reads(monkeypatch) -> list:
    """Open ingestion's files through a raw file that logs the byte count of
    each read it makes; returns the log."""
    log = []

    class CountingFile(io.FileIO):
        def readinto(self, buffer):
            n = super().readinto(buffer)
            log.append(n or 0)
            return n

        def read(self, size=-1):
            data = super().read(size)
            log.append(len(data or b""))
            return data

        def readall(self):
            data = super().readall()
            log.append(len(data))
            return data

    def counting_open(path, mode="r", buffering=-1):
        raw = CountingFile(path, mode)
        if buffering == 0:
            return raw
        return io.BufferedReader(raw, buffering if buffering > 0 else io.DEFAULT_BUFFER_SIZE)

    monkeypatch.setattr(ingestion, "open", counting_open, raising=False)
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
