"""Seeded benchmark workloads: study files on disk plus their expected outcomes.

The program under test only ever sees the files. The truth that scores its
outputs stays in memory with each ``Input``. Every size and share below is a
fixed count, so every seed gives a workload of the same shape and cost;
the seed only draws the study parameters and the order of the mix.
"""

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from midoppler import ingestion, synth
from midoppler.ingestion import KNOWN_LABELS, MITRAL_INFLOW_LABEL
from midoppler.synth import AliasBand, GroundTruth, Spike, SynthParams

NOISE = 0.15
MEASURED = "measured"
REJECTED = "rejected"

# The generator parameters of each workload; perfbench/README.md explains
# why each workload exists and what it should and should not move.
SPECS = {
    "classical_corpus": dict(
        studies=20, artifact_share=0.25, noise=NOISE, segmentation="classical",
        study_params="synth.corpus_params: E 0.4-1.2 m/s, A 0.3-1.0 m/s, HR 50-110 bpm, DT 120-260 ms",
    ),
    "imported_mask": dict(
        studies=20, artifact_share=0.25, noise=NOISE, segmentation="imported truth.mask PGM",
        study_params="as classical_corpus",
    ),
    "mixed_archive": dict(
        inputs=150, measured=2, unknown_label=1, truncated_ppm=1, noise=NOISE,
        segmentation="classical", other_labels="drawn from the known labels but mitral_inflow, noise 0",
    ),
}
UNKNOWN_LABEL = "mitral_inflow_PW"


@dataclass(frozen=True)
class Input:
    stem: str
    image: Path
    manifest: Path
    mask: Path | None
    expected: str                 # MEASURED, REJECTED or a MidopplerError class name
    truth: GroundTruth | None     # set for MEASURED inputs


def spiked(params: SynthParams, truth: GroundTruth) -> SynthParams:
    """One narrow bright spike per beat between the E foot and the A onset
    (the placement of acceptance criterion 3), plus an alias band."""
    spikes = tuple(
        Spike(
            time_ms=(beat.e_time + params.dt + beat.a_time - params.a_half_ms) / 2.0,
            velocity=1.5 * params.e_velocity,
            width_ms=5.0,
        )
        for beat in truth.beats
    )
    return replace(params, artifacts=spikes + (AliasBand(),))


def _save(tracer, directory, stem, image, manifest, mask=None):
    with tracer.span("synth.save"):
        ingestion.save_image(directory / f"{stem}.ppm", image)
        ingestion.save_manifest(directory / f"{stem}.manifest", manifest)
        if mask is not None:
            ingestion.save_gray_image(directory / f"{stem}.mask.pgm", mask.astype(np.uint8) * 255)


def _study(seed: int, with_artifacts: bool):
    params = synth.corpus_params(SynthParams(noise_sigma=NOISE), seed)
    image, manifest, truth = synth.generate_synthetic(params)
    if with_artifacts:
        # artifacts never change the truth, only the rendered pixels
        image, manifest, _ = synth.generate_synthetic(spiked(params, truth))
    return image, manifest, truth


def _corpus(seed, directory, tracer, size, with_mask):
    rng = np.random.default_rng([seed, 1])
    n_artifacts = round(SPECS["classical_corpus"]["artifact_share"] * size)
    artifact_idx = set(rng.choice(size, n_artifacts, replace=False).tolist())
    inputs = []
    for i in range(size):
        stem = f"study_{i:03d}"
        image, manifest, truth = _study(seed * 1000 + i, i in artifact_idx)
        _save(tracer, directory, stem, image, manifest, truth.mask if with_mask else None)
        mask = directory / f"{stem}.mask.pgm" if with_mask else None
        inputs.append(
            Input(stem, directory / f"{stem}.ppm", directory / f"{stem}.manifest", mask, MEASURED, truth)
        )
    return inputs


def classical_corpus(seed, directory, tracer, size=None):
    return _corpus(seed, directory, tracer, size or SPECS["classical_corpus"]["studies"], False)


def imported_mask(seed, directory, tracer, size=None):
    return _corpus(seed, directory, tracer, size or SPECS["imported_mask"]["studies"], True)


def mixed_archive(seed, directory, tracer, size=None):
    spec = SPECS["mixed_archive"]
    size = size or spec["inputs"]
    rng = np.random.default_rng([seed, 2])
    kinds = (
        [MEASURED] * spec["measured"]
        + ["UnknownLabelError"] * spec["unknown_label"]
        + ["ImageFormatError"] * spec["truncated_ppm"]
    )
    kinds += [REJECTED] * (size - len(kinds))
    kinds = [kinds[k] for k in rng.permutation(size)]
    other_labels = [label for label in KNOWN_LABELS if label != MITRAL_INFLOW_LABEL]
    inputs = []
    for i, kind in enumerate(kinds):
        stem = f"exam_{i:03d}"
        study_seed = seed * 1000 + i
        truth = None
        if kind == MEASURED:
            image, manifest, truth = _study(study_seed, False)
        else:
            params = synth.corpus_params(SynthParams(), study_seed)
            label = UNKNOWN_LABEL if kind == "UnknownLabelError" else str(rng.choice(other_labels))
            image, manifest, _ = synth.generate_synthetic(replace(params, label=label))
        _save(tracer, directory, stem, image, manifest)
        image_path = directory / f"{stem}.ppm"
        if kind == "ImageFormatError":
            data = image_path.read_bytes()
            image_path.write_bytes(data[: len(data) // 2])
        inputs.append(Input(stem, image_path, directory / f"{stem}.manifest", None, kind, truth))
    return inputs


GENERATORS = {
    "classical_corpus": classical_corpus,
    "imported_mask": imported_mask,
    "mixed_archive": mixed_archive,
}
