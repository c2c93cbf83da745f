"""Golden bytes: `analyze` and `overlay` outputs on fixed synthetic studies.

Each study renders the same bytes on any machine. The classical studies are
noise-free, so no pixel sits at the Otsu threshold; the noisy studies are
read through their truth masks, so the float32 luma never decides a pixel.
Two classical studies run at a wider median window with no opening, and one
is row-mirrored so its flow lies below the baseline. The measurement CSVs are
pinned verbatim in ``tests/golden/``, the ECG dumps and overlay images by
sha256 in ``tests/golden/digests.txt``.

The synthetic oracle itself is pinned too: for each study in RENDERED, the
sha256 of its pixels, truth mask, envelope, QRS times, ECG rows and manifest
file sit in ``tests/golden/synth.digests.txt``.

A change meant to alter these outputs rewrites them with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import tempfile
from pathlib import Path

import pytest

from midoppler.cli import main
from midoppler.ingestion import save_image, save_manifest
from midoppler.segmentation import EnvelopeMask, export_mask
from midoppler.synth import AliasBand, Dropout, Spike, SynthParams, corpus_params, generate_synthetic

from conftest import mirrored

GOLDEN = Path(__file__).parent / "golden"
DIGESTS = GOLDEN / "digests.txt"
SYNTH_DIGESTS = GOLDEN / "synth.digests.txt"

ARTIFACTS = (Spike(650.0, 1.2, 5.0), Dropout(1500.0, 30.0), AliasBand())
CLASSICAL = {
    "plain": SynthParams(),
    "fused": SynthParams(a_velocity=0.0),
    "knee": SynthParams(dt_second_slope_fraction=0.4),
    "hr100": SynthParams(heart_rate=100.0),
    "artifacts": SynthParams(artifacts=ARTIFACTS),
    "window5_hr100": SynthParams(heart_rate=100.0),
    "window5_artifacts": SynthParams(artifacts=ARTIFACTS),
    "below_artifacts": SynthParams(artifacts=ARTIFACTS),
}
WINDOW5 = ["--median-window", "5", "--open-radius", "0", "--min-component-area", "60"]
ANALYZE_FLAGS = {"window5_hr100": WINDOW5, "window5_artifacts": WINDOW5}
MIRRORED = ("below_artifacts",)
MASKED = {
    f"noisy_{seed}": corpus_params(SynthParams(noise_sigma=0.15), seed) for seed in (1, 2, 3)
}
OVERLAID = ("plain", "noisy_1", "below_artifacts")
# Speckle is clipped to 255 only once 205 * (1 + noise_sigma) rounds above
# 255, so the 0.345 and 1.0 studies are the ones that pin the clip.
RENDERED = {
    "noise0": SynthParams(),
    "noise015": SynthParams(noise_sigma=0.15, seed=3),
    "noise0345": SynthParams(noise_sigma=0.345, seed=5),
    "noise1": SynthParams(noise_sigma=1.0, seed=9),
    "spike": SynthParams(noise_sigma=0.15, seed=11, artifacts=(Spike(650.0, 1.2, 5.0),)),
    "dropout": SynthParams(noise_sigma=0.15, seed=12, artifacts=(Dropout(1500.0, 30.0),)),
    "alias": SynthParams(noise_sigma=0.15, seed=13, artifacts=(AliasBand(),)),
    "knee": SynthParams(noise_sigma=0.15, seed=14, dt_second_slope_fraction=0.4),
    "fused": SynthParams(noise_sigma=0.15, seed=15, a_velocity=0.0),
    "small": SynthParams(noise_sigma=0.15, seed=16, width=400, height=480, n_beats=2),
    "corpus": corpus_params(SynthParams(noise_sigma=0.15), 7001),
}


def study_outputs(name, work: Path) -> dict:
    """{golden file name: bytes} of one study's `analyze --dump-ecg` run,
    plus its `overlay` image when the study is in OVERLAID."""
    image, manifest, truth = generate_synthetic(CLASSICAL.get(name) or MASKED[name])
    if name in MIRRORED:
        image, manifest = mirrored(image, manifest)
    image_path = work / f"{name}.ppm"
    save_image(image_path, image)
    save_manifest(work / f"{name}.manifest", manifest)
    mask_flags = []
    if name in MASKED:
        export_mask(work / f"{name}.mask.pgm", EnvelopeMask(truth.mask))
        mask_flags = ["--mask", str(work / f"{name}.mask.pgm")]
    out = work / "out"
    analyze_args = ["analyze", str(image_path), "--dump-ecg", "--out", str(out)]
    assert main(analyze_args + ANALYZE_FLAGS.get(name, []) + mask_flags) == 0
    names = [f"{name}.measurements.csv", f"{name}.ecg.csv"]
    if name in OVERLAID:
        overlay_args = ["overlay", str(image_path), "--out", str(out / f"{name}.overlay.ppm")]
        assert main(overlay_args + mask_flags) == 0
        names.append(f"{name}.overlay.ppm")
    return {n: (out / n).read_bytes() for n in names}


def rendered_outputs(name, work: Path) -> dict:
    """{output name: bytes} of one RENDERED study, arrays with their dtype and shape."""
    image, manifest, truth = generate_synthetic(RENDERED[name])
    save_manifest(work / f"{name}.manifest", manifest)
    arrays = {
        "pixels": image.pixels,
        "mask": truth.mask,
        "envelope": truth.envelope,
        "qrs_times": truth.qrs_times,
        "ecg_rows": truth.ecg_rows,
    }
    outputs = {
        f"{name}.{key}": f"{a.dtype.str} {a.shape}\n".encode() + a.tobytes()
        for key, a in arrays.items()
    }
    outputs[f"{name}.manifest"] = (work / f"{name}.manifest").read_bytes()
    return outputs


def pinned(file_name: str) -> bool:
    """Measurement CSVs are pinned verbatim; everything else by digest."""
    return file_name.endswith(".measurements.csv")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_digests(path=DIGESTS) -> dict:
    pairs = (line.split() for line in path.read_text().splitlines() if line.strip())
    return {file_name: digest for digest, file_name in pairs}


@pytest.mark.parametrize("name", [*CLASSICAL, *MASKED])
def test_outputs_match_the_golden_bytes(tmp_path, name):
    digests = read_digests()
    for file_name, data in study_outputs(name, tmp_path).items():
        if pinned(file_name):
            assert data.decode() == (GOLDEN / file_name).read_text(), file_name
        else:
            assert sha256(data) == digests[file_name], file_name


@pytest.mark.parametrize("name", RENDERED)
def test_synthetic_renders_match_the_golden_digests(tmp_path, name):
    digests = read_digests(SYNTH_DIGESTS)
    for output, data in rendered_outputs(name, tmp_path).items():
        assert sha256(data) == digests[output], output


def write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in [*CLASSICAL, *MASKED]:
            work = Path(tmp) / name
            work.mkdir()
            for file_name, data in study_outputs(name, work).items():
                if pinned(file_name):
                    (GOLDEN / file_name).write_bytes(data)
                else:
                    lines.append(f"{sha256(data)}  {file_name}")
    DIGESTS.write_text("\n".join(lines) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        lines = [
            f"{sha256(data)}  {output}"
            for name in RENDERED
            for output, data in rendered_outputs(name, Path(tmp)).items()
        ]
    SYNTH_DIGESTS.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    write_golden()
