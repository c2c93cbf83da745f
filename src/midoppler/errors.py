"""Exception types shared across the pipeline."""


class MidopplerError(Exception):
    """Base class for every error this package raises on purpose."""


class ImageFormatError(MidopplerError):
    """Image file cannot be decoded (unreadable, truncated, wrong format)."""


class ManifestError(MidopplerError):
    """Calibration manifest is missing, malformed, or inconsistent."""


class UnknownLabelError(MidopplerError):
    """Manifest label is not one of the known image classes."""


class SegmentationError(MidopplerError):
    """No usable envelope signal could be extracted."""


class EcgExtractionError(MidopplerError):
    """No pixel in the ECG region matches the manifest color key."""


class GenerationError(MidopplerError):
    """Synthetic parameter set has conflicting wave geometry."""


class StatsError(MidopplerError):
    """Agreement statistics requested on degenerate input series."""
