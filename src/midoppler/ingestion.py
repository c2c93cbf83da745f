"""Study loading: raster images, calibration manifests, image-class routing.

Images travel as binary PPM (P6, 8-bit RGB); grayscale masks as PGM (P5).
Calibration lives in a sibling ``key = value`` manifest that stands in for
the scanner metadata a DICOM header would normally provide.
"""

import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ImageFormatError, ManifestError, UnknownLabelError

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
    "mitral_inflow",
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

MITRAL_INFLOW_LABEL = "mitral_inflow"

_WHITESPACE = b" \t\r\n\x0b\x0c"


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


def atomic_write_bytes(path, data: bytes) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# PNM decode / encode


def _parse_pnm_header(data: bytes, path, magic: bytes):
    if data[:2] != magic:
        raise ImageFormatError(
            f"{path}: corrupt header, expected {magic.decode()} magic, "
            f"got {data[:2]!r}"
        )
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and (data[pos] in _WHITESPACE or data[pos] == ord("#")):
            if data[pos] == ord("#"):
                nl = data.find(b"\n", pos)
                pos = len(data) if nl < 0 else nl + 1
            else:
                pos += 1
        start = pos
        while pos < len(data) and data[pos] not in _WHITESPACE:
            pos += 1
        token = data[start:pos]
        if not token:
            raise ImageFormatError(f"{path}: corrupt header, truncated before size fields")
        try:
            fields.append(int(token))
        except ValueError:
            raise ImageFormatError(
                f"{path}: corrupt header, non-numeric field {token!r}"
            ) from None
    if pos >= len(data):
        raise ImageFormatError(f"{path}: corrupt header, missing pixel data")
    pos += 1  # single whitespace byte separates header from raster
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ImageFormatError(f"{path}: corrupt header, invalid size {width}x{height}")
    if maxval != 255:
        raise ImageFormatError(
            f"{path}: unsupported bit depth (maxval {maxval}, only 8-bit supported)"
        )
    return width, height, pos


def _read_file(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ImageFormatError(f"{path}: cannot read file: {exc}") from exc


def load_image(path) -> RasterImage:
    """Decode a binary PPM (P6) file; no color transform is applied."""
    data = _read_file(path)
    width, height, offset = _parse_pnm_header(data, path, b"P6")
    need = width * height * 3
    raster = data[offset:offset + need]
    if len(raster) < need:
        raise ImageFormatError(
            f"{path}: truncated pixel data, expected {need} bytes, found {len(raster)}"
        )
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3).copy()
    return RasterImage(pixels)


def save_image(path, image: RasterImage) -> None:
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + image.pixels.tobytes())


def load_gray_image(path) -> np.ndarray:
    """Decode a binary PGM (P5) file to a (height, width) uint8 array."""
    data = _read_file(path)
    width, height, offset = _parse_pnm_header(data, path, b"P5")
    need = width * height
    raster = data[offset:offset + need]
    if len(raster) < need:
        raise ImageFormatError(
            f"{path}: truncated pixel data, expected {need} bytes, found {len(raster)}"
        )
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy()


def save_gray_image(path, gray: np.ndarray) -> None:
    gray = np.ascontiguousarray(gray, dtype=np.uint8)
    header = f"P5\n{gray.shape[1]} {gray.shape[0]}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + gray.tobytes())


# ---------------------------------------------------------------------------
# manifest parsing

_REQUIRED_KEYS = (
    "label",
    "velocity_scale",
    "time_scale",
    "baseline_row",
    "spectral_region",
    "flow_above_baseline",
    "ecg_region",
)
_OPTIONAL_KEYS = ("ecg_color", "ecg_color_tolerance")


def _parse_ints(value: str, count: int, key: str):
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


def load_manifest(path, image_size=None) -> CalibrationManifest:
    """Parse a ``key = value`` manifest and validate its invariants.

    image_size, when given as (width, height), additionally checks that the
    declared regions fit inside the image.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ManifestError(f"{path}: cannot read manifest: {exc}") from exc

    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ManifestError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _REQUIRED_KEYS and key not in _OPTIONAL_KEYS:
            raise ManifestError(f"{path}:{lineno}: unknown manifest key {key!r}")
        if key in raw:
            raise ManifestError(f"{path}:{lineno}: duplicate manifest key {key!r}")
        raw[key] = value

    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ManifestError(f"{path}: missing required key {key!r}")

    if raw["flow_above_baseline"].lower() not in ("true", "false"):
        raise ManifestError(
            f"key 'flow_above_baseline': expected true/false, got {raw['flow_above_baseline']!r}"
        )
    try:
        baseline_row = int(raw["baseline_row"])
    except ValueError:
        raise ManifestError(
            f"key 'baseline_row': expected an integer, got {raw['baseline_row']!r}"
        ) from None

    manifest = CalibrationManifest(
        label=raw["label"],
        velocity_scale=_parse_float(raw["velocity_scale"], "velocity_scale"),
        time_scale=_parse_float(raw["time_scale"], "time_scale"),
        baseline_row=baseline_row,
        spectral_region=_parse_ints(raw["spectral_region"], 4, "spectral_region"),
        flow_above_baseline=raw["flow_above_baseline"].lower() == "true",
        ecg_region=_parse_ints(raw["ecg_region"], 4, "ecg_region"),
        ecg_color=_parse_ints(raw["ecg_color"], 3, "ecg_color")
        if "ecg_color" in raw
        else (0, 255, 0),
        ecg_color_tolerance=int(_parse_float(raw["ecg_color_tolerance"], "ecg_color_tolerance"))
        if "ecg_color_tolerance" in raw
        else 60,
    )
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
