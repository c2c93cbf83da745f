"""Study loading: raster images, calibration manifests, image-class routing.

Images travel as binary PPM (P6, 8-bit RGB); grayscale masks as PGM (P5).
Calibration lives in a sibling ``key = value`` manifest that stands in for
the scanner metadata a DICOM header would normally provide. Its keys are
CalibrationManifest's keyword-only fields, whose order is the file's line order.
"""

import codecs
import errno
import math
import os
import re
from dataclasses import MISSING, dataclass, fields
from functools import partial
from pathlib import Path
from typing import get_args, get_origin

import numpy as np

from .errors import ImageFormatError, ManifestError, UnknownLabelError

MITRAL_INFLOW_LABEL = "mitral_inflow"

# Image-class labels the router understands. Only the pulsed-wave mitral
# inflow class is accepted for measurement; every other known label is a
# rejection, and anything else is an error so corpus mislabeling surfaces.
KNOWN_LABELS = (
    "LVOT",
    "RVOT",
    "SVC",
    "mitral_inflow_CW",
    "abd_aorta",
    "aortic_regurge",
    "aortic_right_parasternal",
    "aortic_valve",
    "desc_aorta",
    "hepatic_vein",
    "mitral_TDI_lat",
    "mitral_TDI_med",
    MITRAL_INFLOW_LABEL,
    "mitral_regurge",
    "pulm_valve",
    "pulm_vein",
    "tricuspid_regurge",
    "tricuspid_TDI",
    "2D",
    "3D",
    "UI",
    "strain",
)

_WHITESPACE = b" \t\r\n\x0b\x0c"
# PNM header runs: whitespace between fields, a field up to the next
# whitespace byte (a # in it included), and a comment up to its newline
_SPACE = re.compile(b"[%s]*" % re.escape(_WHITESPACE))
_TOKEN = re.compile(b"[^%s]*" % re.escape(_WHITESPACE))
_COMMENT = re.compile(rb"[^\n]*")
_HASH = ord("#")

# bytes the PNM header reader reads at a time, so a size-only read reads at
# most this many bytes past the header
_HEADER_READ = 64


@dataclass
class RasterImage:
    """8-bit RGB pixel grid, shape (height, width, 3)."""

    pixels: np.ndarray

    def __post_init__(self):
        p = self.pixels
        if p.ndim != 3 or p.shape[2] != 3 or p.dtype != np.uint8:
            raise ValueError("pixels must be a (height, width, 3) uint8 array")
        if p.shape[0] < 1 or p.shape[1] < 1:
            raise ValueError("image must be at least 1x1")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True, kw_only=True)
class CalibrationManifest:
    """Pixel-to-physical calibration plus routing label for one image.

    Regions are (x0, y0, x1, y1) inclusive pixel bounds. ``velocity_scale``
    is m/s per pixel row, ``time_scale`` ms per pixel column. The ECG color
    key defaults to pure green with a generous per-channel tolerance since
    vendor renderings differ. Every manifest, dataclasses.replace's too, is
    checked when it is built against each invariant that needs no image;
    load_manifest checks the regions against an image's size. Each field is
    a manifest key; they are keyword-only, and their order is the line order.
    """

    label: str
    velocity_scale: float
    time_scale: float
    baseline_row: int
    spectral_region: tuple[int, int, int, int]
    flow_above_baseline: bool
    ecg_color: tuple[int, int, int] = (0, 255, 0)
    ecg_color_tolerance: int = 60
    ecg_region: tuple[int, int, int, int]

    def __post_init__(self):
        """Raise ManifestError on the first violated invariant."""
        for name in ("velocity_scale", "time_scale"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ManifestError(f"{name} must be finite and positive, got {value}")
        for name in ("spectral_region", "ecg_region"):
            region = getattr(self, name)
            x0, y0, x1, y1 = region
            if x0 > x1 or y0 > y1:
                raise ManifestError(f"{name} corners are not ordered: {region}")
            if x0 < 0 or y0 < 0:
                raise ManifestError(f"{name} has negative coordinates: {region}")
        _, sy0, _, sy1 = self.spectral_region
        if not (sy0 <= self.baseline_row <= sy1):
            raise ManifestError(
                f"baseline_row {self.baseline_row} outside spectral_region rows [{sy0}, {sy1}]"
            )
        for channel in self.ecg_color:
            if not (0 <= channel <= 255):
                raise ManifestError(f"ecg_color channel out of range: {self.ecg_color}")
        # at 255 every pixel of ecg_region would match whatever the key
        if not (0 <= self.ecg_color_tolerance < 255):
            raise ManifestError(
                f"ecg_color_tolerance must be in [0, 255), got {self.ecg_color_tolerance}"
            )


@dataclass(frozen=True)
class RouteDecision:
    accepted: bool
    label: str


# ---------------------------------------------------------------------------
# atomic file writes (analyze/synth may run concurrently on shared dirs)


def atomic_write_bytes(path, *chunks) -> None:
    """Write chunks, in order, to a temporary file beside path, then rename it to path.

    Each chunk is bytes or another C-contiguous buffer, such as a uint8
    array, and is written from its own memory, never copied. The file is
    created with mode 0o666 less the umask, as open() creates one. An
    OSError names path as given, never the temporary file, whose random
    name would make the message differ on every run.
    """
    path = Path(path)
    tmp = path.parent / f"{path.name}.{os.urandom(8).hex()}"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            try:
                for chunk in chunks:
                    view = memoryview(chunk).cast("B")
                    while view:
                        view = view[os.write(fd, view):]
            finally:
                os.close(fd)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# file reads: one descriptor a file, no buffered file object


def _open_file(path) -> tuple:
    """(descriptor, size) of file path, opened to read; the caller closes the descriptor."""
    fd = os.open(path, os.O_RDONLY)
    try:
        return fd, os.fstat(fd).st_size
    except BaseException:
        os.close(fd)
        raise


def _directory_error(path) -> IsADirectoryError:
    """The error open() raises on directory path.

    A descriptor opens on a directory, and only a read of it fails, with an
    error that names no file: a reader raises this one in its place.
    """
    return IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))


def read_file(path) -> bytes:
    """The bytes of file path, read through its descriptor to the end of the file."""
    fd, size = _open_file(path)
    try:
        data = os.read(fd, size + 1)
        while more := os.read(fd, 1 << 16):
            data += more
    except IsADirectoryError:
        raise _directory_error(path) from None
    finally:
        os.close(fd)
    return data


# ---------------------------------------------------------------------------
# PNM decode / encode


def _read_pnm_header(fd, path, magic: bytes) -> tuple:
    """(width, height, head, start) of the PNM header at the start of descriptor fd.

    head holds the bytes read, in os.pread chunks of _HEADER_READ, each read
    only when the parser needs it; the raster starts at offset start.
    Whitespace and ``#`` comments to the end of their line separate the
    fields, each of which runs to the next whitespace byte; exactly one
    whitespace byte follows maxval.
    """
    head = bytearray()

    def more() -> bool:
        """Append the next chunk of the file to head; False at its end."""
        chunk = os.pread(fd, _HEADER_READ, len(head))
        head.extend(chunk)
        return bool(chunk)

    while len(head) < 2 and more():
        pass
    if head[:2] != magic:
        raise ImageFormatError(
            f"{path}: corrupt header, expected {magic.decode()} magic, got {bytes(head[:2])!r}"
        )
    fields, pos = [], 2
    while len(fields) < 3:
        pos = _SPACE.match(head, pos).end()
        if pos == len(head):
            if more():
                continue
            raise ImageFormatError(f"{path}: corrupt header, truncated before size fields")
        run = _COMMENT if head[pos] == _HASH else _TOKEN
        start = pos
        while (pos := run.match(head, pos).end()) == len(head) and more():
            pass
        if run is _TOKEN:
            try:
                fields.append(int(head[start:pos]))
            except ValueError:
                raise ImageFormatError(
                    f"{path}: corrupt header, non-numeric field {bytes(head[start:pos])!r}"
                ) from None
        if pos < len(head):
            pos += 1  # the newline that ends a comment, the whitespace byte that ends a field
        elif len(fields) == 3:
            raise ImageFormatError(f"{path}: corrupt header, missing pixel data")
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ImageFormatError(f"{path}: corrupt header, invalid size {width}x{height}")
    if maxval != 255:
        raise ImageFormatError(
            f"{path}: unsupported bit depth (maxval {maxval}, only 8-bit supported)"
        )
    return width, height, head, pos


def _check_pixel_bytes(path, shape, found: int) -> None:
    """Raise ImageFormatError if found is fewer bytes than a raster of shape holds."""
    need = math.prod(shape)
    if found < need:
        raise ImageFormatError(
            f"{path}: truncated pixel data, expected {need} bytes, found {found}"
        )


def _read_pnm(path, magic: bytes, channels: tuple, pixels: bool = True):
    """The (height, width, *channels) uint8 raster of a binary PNM file.

    The header is parsed from the file's descriptor, and the pixel data is
    checked against the size fstat reports. The raster is read straight into
    an uninitialised array, which the caller then owns: its first bytes from
    the header's last chunk, the rest with one os.readv, so that each byte is
    read once. With pixels false only the raster's shape is returned, and no
    further byte is read. A raster read that comes up short, as from a file
    that shrank after fstat, is still a truncation.
    """
    try:
        fd, size = _open_file(path)
        try:
            width, height, head, start = _read_pnm_header(fd, path, magic)
            shape = (height, width, *channels)
            _check_pixel_bytes(path, shape, size - start)
            if not pixels:
                return shape
            raster = np.empty(shape, np.uint8)
            flat = memoryview(raster).cast("B")
            found = min(len(head) - start, len(flat))
            flat[:found] = head[start:start + found]
            if found < len(flat):
                os.lseek(fd, len(head), os.SEEK_SET)
                found += os.readv(fd, [flat[found:]])
            _check_pixel_bytes(path, shape, found)
        except IsADirectoryError:
            raise _directory_error(path) from None
        finally:
            os.close(fd)
    except OSError as exc:
        raise ImageFormatError(f"{path}: cannot read file: {exc}") from exc
    return raster


def load_image(path) -> RasterImage:
    """Decode a binary PPM (P6) file; no color transform is applied."""
    return RasterImage(_read_pnm(path, b"P6", (3,)))


def read_image_size(path) -> tuple:
    """(width, height) of a binary PPM (P6) file, from its header and size alone.

    A file load_image fails on raises the same ImageFormatError here, as
    long as the file does not change between the two reads.
    """
    height, width, _ = _read_pnm(path, b"P6", (3,), pixels=False)
    return width, height


def save_image(path, image: RasterImage) -> None:
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    atomic_write_bytes(path, header, np.ascontiguousarray(image.pixels))


def load_gray_image(path) -> np.ndarray:
    """Decode a binary PGM (P5) file to a (height, width) uint8 array."""
    return _read_pnm(path, b"P5", ())


def save_gray_image(path, gray: np.ndarray) -> None:
    gray = np.ascontiguousarray(gray, dtype=np.uint8)
    header = f"P5\n{gray.shape[1]} {gray.shape[0]}\n255\n".encode("ascii")
    atomic_write_bytes(path, header, gray)


# ---------------------------------------------------------------------------
# key = value files (manifests, synth params)


def read_key_values(path, keys, error, kind) -> dict:
    """{key: value text} of a ``key = value`` file; blank and ``#`` lines skip, as does a leading BOM.

    A missing ``=``, a key not in keys, a repeated key and an unreadable or
    non-UTF-8 file raise error (a MidopplerError subclass) naming the path,
    and the line where there is one; kind names the file in the message.
    """
    try:
        # utf-8-sig: a leading BOM is dropped, and the rest decoded as UTF-8
        text = read_file(path).removeprefix(codecs.BOM_UTF8).decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{path}: cannot read {kind}: {exc}") from exc

    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise error(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in keys:
            raise error(f"{path}:{lineno}: unknown {kind} key {key!r}")
        if key in values:
            raise error(f"{path}:{lineno}: duplicate {kind} key {key!r}")
        values[key] = value
    return values


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(f"expected true/false, got {text!r}")
    return text.lower() == "true"


def _parse_float(text: str, expected="a number") -> float:
    try:
        number = float(text)
    except ValueError:
        raise ValueError(f"expected {expected}, got {text!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {text!r}")
    return number


def _parse_int(text: str) -> int:
    """The one integer rule: int(text), so that digits stay exact, else a finite whole number such as 60.0."""
    try:
        return int(text)
    except ValueError:
        number = _parse_float(text, expected="an integer")
    if not number.is_integer():
        raise ValueError(f"expected an integer, got {text!r}")
    return int(number)


def _parse_ints(text: str, count: int) -> tuple:
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"expected {count} comma-separated integers")
    return tuple(_parse_int(part.strip()) for part in parts)


# (parser, formatter) of each field type but tuple[int, ...]; a parser's ValueError says what it expected
_FIELD_TYPES = {
    bool: (_parse_bool, lambda value: "true" if value else "false"),
    int: (_parse_int, str),
    float: (_parse_float, repr),
    float | None: (_parse_float, repr),
    str: (str, str),
}


def key_value_fields(cls, skip=()) -> dict:
    """{name: (parser, formatter)} of each field of dataclass cls but skip, in field order.

    A tuple of ints takes its length from the annotation; a type no file holds is a TypeError.
    """
    table = {}
    for field in (f for f in fields(cls) if f.name not in skip):
        args = get_args(field.type)
        if get_origin(field.type) is tuple and set(args) == {int}:
            table[field.name] = partial(_parse_ints, count=len(args)), lambda values: ", ".join(map(str, values))
        elif field.type in _FIELD_TYPES:
            table[field.name] = _FIELD_TYPES[field.type]
        else:
            raise TypeError(f"{cls.__name__}.{field.name}: no key = value syntax for {field.type}")
    return table


def read_fields(path, table, error, kind) -> dict:
    """read_key_values, then each value parsed by table's parser; a value refused raises error naming its key."""
    values = read_key_values(path, table, error, kind)
    for key, text in values.items():
        try:
            values[key] = table[key][0](text)
        except ValueError as exc:
            raise error(f"key {key!r}: {exc}") from None
    return values


_MANIFEST_FIELDS = key_value_fields(CalibrationManifest)
_REQUIRED_KEYS = tuple(f.name for f in fields(CalibrationManifest) if f.default is MISSING)


def load_manifest(path, image_size=None) -> CalibrationManifest:
    """Parse a ``key = value`` manifest into a CalibrationManifest.

    An absent optional key takes its CalibrationManifest default. image_size,
    when given as (width, height), also checks that the declared regions fit
    inside the image.
    """
    values = read_fields(path, _MANIFEST_FIELDS, ManifestError, "manifest")
    for key in _REQUIRED_KEYS:
        if key not in values:
            raise ManifestError(f"{path}: missing required key {key!r}")
    manifest = CalibrationManifest(**values)
    if image_size is not None:
        width, height = image_size
        for name in ("spectral_region", "ecg_region"):
            region = getattr(manifest, name)
            if region[2] >= width or region[3] >= height:
                raise ManifestError(f"{name} {region} exceeds image bounds {width}x{height}")
    return manifest


def save_manifest(path, manifest: CalibrationManifest) -> None:
    """Write manifest as load_manifest reads it: one line per field in field order, a lone surrogate escaped."""
    lines = (f"{key} = {fmt(getattr(manifest, key))}\n" for key, (_, fmt) in _MANIFEST_FIELDS.items())
    atomic_write_bytes(path, "".join(lines).encode("utf-8", "backslashreplace"))


# ---------------------------------------------------------------------------
# routing


def route_image(manifest: CalibrationManifest) -> RouteDecision:
    """Accept exactly the pulsed-wave mitral inflow class.

    Unknown labels raise instead of rejecting so that a mislabeled corpus
    fails loudly rather than silently shrinking.
    """
    label = manifest.label
    if label not in KNOWN_LABELS:
        raise UnknownLabelError(
            f"label {label!r} is not one of the {len(KNOWN_LABELS)} known image classes"
        )
    return RouteDecision(accepted=label == MITRAL_INFLOW_LABEL, label=label)
