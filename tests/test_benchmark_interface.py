"""The benchmark's hold on the package.

perfbench/tracing.py wraps public functions by module attribute, and the
benchmark's counting pass reads a few attributes of what they return. A
refactor that renames, inlines or stops calling one of them breaks the
benchmark, not the pipeline, so these tests run one classical and one
mask-route study through the calls the benchmark makes, under tracing's
own ``instrument``. A scan of the benchmark's source, which runs none of
it, checks that every package name it reads exists.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from midoppler import ingestion, measurement, stats, synth
from midoppler.synth import SynthParams

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
PIPELINE_SPANS = {
    "ingestion.load_image",
    "ingestion.load_manifest",
    "ingestion.route",
    "ingestion.write_csv",
    "measurement.measure_study",
    "measurement.measure_beats",
    "segmentation.trace",
    "ecg.extract",
    "ecg.detect_qrs",
}
CLASSICAL_ONLY = {
    "segmentation.segment",
    "kernels.column_median",
    "kernels.vertical_opening",
    "kernels.remove_small_components",
}
# the benchmark reads these from args[0] or from the result, per span
READS_PATH = {"ingestion.load_image", "ingestion.load_manifest", "segmentation.import_mask"}
RESULT_ATTRIBUTES = {
    "segmentation.segment": "cells",
    "segmentation.import_mask": "cells",
    "segmentation.trace": "gap_flags",
    "ingestion.route": "accepted",
    "ecg.detect_qrs": "times",
    "measurement.measure_study": "n_beats",
}


@pytest.fixture
def tracing(monkeypatch):
    """perfbench/tracing.py, loaded without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def analyze_one(stem, directory, out_dir, mask_path=None):
    """The public calls the benchmark makes for one input, in its order."""
    image = ingestion.load_image(directory / f"{stem}.ppm")
    manifest = ingestion.load_manifest(directory / f"{stem}.manifest", image_size=(image.width, image.height))
    assert ingestion.route_image(manifest).accepted
    result = measurement.measure_study(image, manifest, mask_path=mask_path)
    measurement.write_study_csv(out_dir / f"{stem}.measurements.csv", result)
    return result


def test_benchmark_spans_fire_and_counted_attributes_exist(tracing, tmp_path):
    calls = []
    route = ["setup"]

    def counting(name, fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append((route[0], name, args, result))
            return result

        return counted

    with tracing.instrument(counting):
        image, manifest, truth = synth.generate_synthetic(SynthParams(width=400, height=480, n_beats=2))
        ingestion.save_image(tmp_path / "study.ppm", image)
        ingestion.save_manifest(tmp_path / "study.manifest", manifest)
        ingestion.save_gray_image(tmp_path / "study.mask.pgm", truth.mask.astype(np.uint8) * 255)
        route[0] = "classical"
        classical = analyze_one("study", tmp_path, tmp_path)
        route[0] = "mask"
        masked = analyze_one("study", tmp_path, tmp_path, mask_path=tmp_path / "study.mask.pgm")
        route[0] = "agree"
        stats.compare(
            {i: b.e_time for i, b in enumerate(classical.beats)},
            {i: b.e_time for i, b in enumerate(masked.beats)},
        )
    assert classical.n_beats == masked.n_beats == 2

    names = {(route_name, name) for route_name, name, _, _ in calls}
    for route_name in ("classical", "mask"):
        assert {(route_name, span) for span in PIPELINE_SPANS} <= names
    assert {("classical", span) for span in CLASSICAL_ONLY} <= names
    assert not any(name in CLASSICAL_ONLY for route_name, name in names if route_name != "classical")
    assert ("mask", "segmentation.import_mask") in names
    assert not any(name == "segmentation.import_mask" for route_name, name in names if route_name != "mask")
    assert ("setup", "synth.generate") in names and ("agree", "stats.compare") in names
    assert {name for _, name, _, _ in calls} == {name for name, _, _ in tracing.LAYER_CALLS}

    for _, name, args, result in calls:
        if name in READS_PATH:
            assert Path(args[0]).is_file()
        if name.startswith("kernels."):
            assert args[0].size > 0
        if name in RESULT_ATTRIBUTES:
            getattr(result, RESULT_ATTRIBUTES[name])


def package_names_read(source):
    """Dotted names of the package that source reads: each module it imports,
    each name of a ``from midoppler... import``, and each attribute read on a
    name an import binds."""
    tree = ast.parse(source)
    bound, names = {}, set()  # name in the file -> dotted package name
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "midoppler":
                    names.add(alias.name)
                    bound[alias.asname or "midoppler"] = alias.name if alias.asname else "midoppler"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "midoppler":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    names |= set(bound.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
            names.add(f"{bound[node.value.id]}.{node.attr}")
    return names


def resolve(dotted):
    """What a dotted package name names, importing submodules on the way."""
    parts = dotted.split(".")
    found = importlib.import_module(parts[0])
    for depth, part in enumerate(parts[1:], start=2):
        if hasattr(found, part):
            found = getattr(found, part)
        else:
            found = importlib.import_module(".".join(parts[:depth]))
    return found


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_every_package_name_the_benchmark_reads_exists(path):
    missing = []
    for dotted in sorted(package_names_read(path.read_text())):
        try:
            resolve(dotted)
        except ImportError:
            missing.append(dotted)
    assert not missing, f"perfbench/{path.name} reads {missing}, which the package lacks"
