"""Study loading: raster images, calibration manifests, image-class routing.

Images travel as binary PPM (P6, 8-bit RGB); grayscale masks as PGM (P5).
Calibration lives in a sibling ``key = value`` manifest that stands in for
the scanner metadata a DICOM header would normally provide.
"""

import math
import os
from dataclasses import MISSING, dataclass, fields
from functools import partial
from pathlib import Path

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

# bytes the PNM reader buffers per read, so a size-only read reads at most
# this many bytes past the header
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


@dataclass(frozen=True)
class CalibrationManifest:
    """Pixel-to-physical calibration plus routing label for one image.

    Regions are (x0, y0, x1, y1) inclusive pixel bounds. ``velocity_scale``
    is m/s per pixel row, ``time_scale`` ms per pixel column. The ECG color
    key defaults to pure green with a generous per-channel tolerance since
    vendor renderings differ.
    """

    label: str
    velocity_scale: float
    time_scale: float
    baseline_row: int
    spectral_region: tuple
    flow_above_baseline: bool
    ecg_region: tuple
    ecg_color: tuple = (0, 255, 0)
    ecg_color_tolerance: int = 60


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
            with os.fdopen(fd, "wb") as fh:
                for chunk in chunks:
                    fh.write(chunk)
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
# PNM decode / encode


def _read_pnm_header(fh, path, magic: bytes) -> tuple:
    """(width, height) of the PNM header fh starts with; fh is left at the raster.

    Whitespace and ``#`` comments to the end of their line separate the
    fields, each of which runs to the next whitespace byte; exactly one
    whitespace byte follows maxval.
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
            elif byte not in _WHITESPACE:
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


def _check_pixel_bytes(path, shape, found: int) -> None:
    """Raise ImageFormatError if found is fewer bytes than a raster of shape holds."""
    need = math.prod(shape)
    if found < need:
        raise ImageFormatError(
            f"{path}: truncated pixel data, expected {need} bytes, found {found}"
        )


def _read_pnm(path, magic: bytes, channels: tuple, pixels: bool = True):
    """The (height, width, *channels) uint8 raster of a binary PNM file.

    The header is parsed from the open file, and the pixel data is checked
    against the size fstat reports. The raster is read straight into an
    uninitialised array, which the caller then owns. With pixels false only
    the raster's shape is returned, and no pixel is read. A raster read that
    comes up short, as from a file that shrank after fstat, is still a
    truncation.
    """
    try:
        with open(path, "rb", buffering=_HEADER_READ) as fh:
            width, height = _read_pnm_header(fh, path, magic)
            shape = (height, width, *channels)
            _check_pixel_bytes(path, shape, os.fstat(fh.fileno()).st_size - fh.tell())
            if not pixels:
                return shape
            raster = np.empty(shape, np.uint8)
            _check_pixel_bytes(path, shape, fh.readinto(raster))
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
    """{key: value text} of a ``key = value`` file; blank and ``#`` lines skip.

    A missing ``=``, a key not in keys, a repeated key and an unreadable or
    non-UTF-8 file raise error (a MidopplerError subclass) naming the path,
    and the line where there is one; kind names the file in the message.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
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


# ---------------------------------------------------------------------------
# manifest parsing

# every CalibrationManifest field is a manifest key; one without a default is required
_MANIFEST_DEFAULTS = {f.name: f.default for f in fields(CalibrationManifest)}


def _parse_ints(value: str, key: str, count: int):
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != count:
        raise ManifestError(f"key {key!r}: expected {count} comma-separated integers")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ManifestError(f"key {key!r}: non-integer value in {value!r}") from None


def _parse_float(value: str, key: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ManifestError(f"key {key!r}: expected a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ManifestError(f"key {key!r}: expected a finite number, got {value!r}")
    return number


def _parse_int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ManifestError(f"key {key!r}: expected an integer, got {value!r}") from None


def _parse_bool(value: str, key: str) -> bool:
    if value.lower() not in ("true", "false"):
        raise ManifestError(f"key {key!r}: expected true/false, got {value!r}")
    return value.lower() == "true"


# how each non-text manifest value parses, in the order its errors are checked
_VALUE_PARSERS = {
    "flow_above_baseline": _parse_bool,
    "baseline_row": _parse_int,
    "velocity_scale": _parse_float,
    "time_scale": _parse_float,
    "spectral_region": partial(_parse_ints, count=4),
    "ecg_region": partial(_parse_ints, count=4),
    "ecg_color": partial(_parse_ints, count=3),
    "ecg_color_tolerance": lambda value, key: int(_parse_float(value, key)),
}


def load_manifest(path, image_size=None) -> CalibrationManifest:
    """Parse a ``key = value`` manifest and validate its invariants.

    An absent optional key takes its CalibrationManifest default. image_size,
    when given as (width, height), additionally checks that the declared
    regions fit inside the image.
    """
    raw = read_key_values(path, _MANIFEST_DEFAULTS, ManifestError, "manifest")
    for key, default in _MANIFEST_DEFAULTS.items():
        if default is MISSING and key not in raw:
            raise ManifestError(f"{path}: missing required key {key!r}")
    for key, parse in _VALUE_PARSERS.items():
        if key in raw:
            raw[key] = parse(raw[key], key)
    manifest = CalibrationManifest(**raw)
    validate_manifest(manifest, image_size=image_size)
    return manifest


def validate_manifest(manifest: CalibrationManifest, image_size=None) -> None:
    """Raise ManifestError on any violated manifest invariant."""
    for name in ("velocity_scale", "time_scale"):
        value = getattr(manifest, name)
        if not (math.isfinite(value) and value > 0):
            raise ManifestError(f"{name} must be finite and positive, got {value}")
    for name, region in (
        ("spectral_region", manifest.spectral_region),
        ("ecg_region", manifest.ecg_region),
    ):
        x0, y0, x1, y1 = region
        if x0 > x1 or y0 > y1:
            raise ManifestError(f"{name} corners are not ordered: {region}")
        if x0 < 0 or y0 < 0:
            raise ManifestError(f"{name} has negative coordinates: {region}")
        if image_size is not None:
            width, height = image_size
            if x1 >= width or y1 >= height:
                raise ManifestError(
                    f"{name} {region} exceeds image bounds {width}x{height}"
                )
    _, sy0, _, sy1 = manifest.spectral_region
    if not (sy0 <= manifest.baseline_row <= sy1):
        raise ManifestError(
            f"baseline_row {manifest.baseline_row} outside spectral_region rows "
            f"[{sy0}, {sy1}]"
        )
    for channel in manifest.ecg_color:
        if not (0 <= channel <= 255):
            raise ManifestError(f"ecg_color channel out of range: {manifest.ecg_color}")
    # at 255 every pixel of ecg_region would match whatever the key
    if not (0 <= manifest.ecg_color_tolerance < 255):
        raise ManifestError(
            f"ecg_color_tolerance must be in [0, 255), got {manifest.ecg_color_tolerance}"
        )


def save_manifest(path, manifest: CalibrationManifest) -> None:
    def fmt_region(region):
        return ", ".join(str(v) for v in region)

    lines = [
        f"label = {manifest.label}",
        f"velocity_scale = {manifest.velocity_scale!r}",
        f"time_scale = {manifest.time_scale!r}",
        f"baseline_row = {manifest.baseline_row}",
        f"spectral_region = {fmt_region(manifest.spectral_region)}",
        f"flow_above_baseline = {'true' if manifest.flow_above_baseline else 'false'}",
        f"ecg_color = {fmt_region(manifest.ecg_color)}",
        f"ecg_color_tolerance = {manifest.ecg_color_tolerance}",
        f"ecg_region = {fmt_region(manifest.ecg_region)}",
    ]
    atomic_write_text(path, "\n".join(lines) + "\n")


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
