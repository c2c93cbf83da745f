"""Automated mitral-inflow Doppler measurement from spectral Doppler images."""

from .calibration import time_to_col, velocity_to_row
from .ecg import EcgSignal, QrsMarks, QrsParams, detect_qrs, extract_ecg
from .errors import (
    EcgExtractionError,
    GenerationError,
    ImageFormatError,
    LabelingError,
    ManifestError,
    MidopplerError,
    RoutingRejection,
    SegmentationError,
    StatsError,
    UnknownLabelError,
)
from .ingestion import (
    KNOWN_LABELS,
    MITRAL_INFLOW_LABEL,
    CalibrationManifest,
    RasterImage,
    RouteDecision,
    load_image,
    load_manifest,
    route_image,
    save_image,
    save_manifest,
    validate_manifest,
)
from .measurement import (
    BeatMeasurement,
    DtParams,
    FlowPeak,
    PeakParams,
    StudyMeans,
    StudyRun,
    deceleration_time,
    detect_flow_peaks,
    label_beats,
    measure_beats,
    measure_study,
)
from .segmentation import (
    EnvelopeMask,
    EnvelopeTrace,
    SegmentationParams,
    export_mask,
    import_mask,
    mask_to_trace,
    segment_envelope_threshold,
    smooth_trace,
)
from .stats import AgreementStats, bland_altman, compare, pearson, r_squared
from .synth import (
    AliasBand,
    Dropout,
    GroundTruth,
    Spike,
    SynthParams,
    generate_synthetic,
)

__version__ = "0.1.0"
