"""End-to-end CLI behavior: exit codes, file outputs, determinism."""

import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import midoppler
from midoppler import cli
from midoppler.cli import main
from midoppler.errors import ImageFormatError
from midoppler.ingestion import MITRAL_INFLOW_LABEL, load_image, save_image, save_manifest
from midoppler.kernels import MAX_MEDIAN_WINDOW
from midoppler.measurement import measure_study, read_measurement_csv, study_csv_text
from midoppler.overlay import (
    A_COLOR,
    BORDER_COLOR,
    CROSSING_COLOR,
    E_COLOR,
    SLOPE_COLOR,
    render_overlay,
    time_to_col,
    velocity_to_row,
)
from midoppler.segmentation import EnvelopeMask, export_mask
from midoppler.stats import FIELD_COLUMNS
from midoppler.synth import AliasBand, Dropout, Spike, SynthParams, generate_synthetic, write_truth_csv

from conftest import alias_band_only, checkerboard_region, one_level_region, picture_mask


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="batches run in-process without fork",
)


def report_cpus(monkeypatch, count):
    """Make `analyze` see count usable CPUs, so a batch runs on that many workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def outcome_lines(captured, image_path):
    """The stdout and stderr lines that report image_path's outcome."""
    prefix = f"{image_path}: "
    return [line for line in (captured.out + captured.err).splitlines() if line.startswith(prefix)]


def make_study(tmp_path, stem="study_0000", **params):
    image, manifest, truth = generate_synthetic(SynthParams(**params))
    save_image(tmp_path / f"{stem}.ppm", image)
    save_manifest(tmp_path / f"{stem}.manifest", manifest)
    write_truth_csv(tmp_path / f"{stem}.truth.csv", truth)
    return image, manifest, truth


# synth -----------------------------------------------------------------------


def test_synth_writes_three_files_deterministically(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["synth", "--out", str(out_a), "--seed", "7"]) == 0
    assert main(["synth", "--out", str(out_b), "--seed", "7"]) == 0
    printed = capsys.readouterr().out
    for suffix in (".ppm", ".manifest", ".truth.csv"):
        name = f"study_0007{suffix}"
        assert name in printed
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_synth_corpus_mode_uses_distinct_seeds(tmp_path):
    assert main(["synth", "--out", str(tmp_path), "--seed", "3", "--n", "4"]) == 0
    stems = sorted(p.name for p in tmp_path.glob("*.ppm"))
    assert stems == [f"study_{s:04d}.ppm" for s in (3, 4, 5, 6)]
    pixel_blobs = {p.read_bytes() for p in tmp_path.glob("*.ppm")}
    assert len(pixel_blobs) == 1  # same params, noise 0: identical renders
    assert main(["synth", "--out", str(tmp_path), "--seed", "9", "--noise", "0.2", "--n", "2"]) == 0
    noisy = [tmp_path / "study_0009.ppm", tmp_path / "study_0010.ppm"]
    assert noisy[0].read_bytes() != noisy[1].read_bytes()


def test_synth_geometry_conflict_exits_one(tmp_path, capsys):
    code = main(["synth", "--out", str(tmp_path), "--hr", "200", "--dt", "300"])
    assert code == 1
    assert "overlap" in capsys.readouterr().err


def test_synth_params_file(tmp_path):
    params_file = tmp_path / "params.txt"
    params_file.write_text("e_velocity = 1.0\na_velocity = 0.6\nn_beats = 2\nseed = 4\n")
    assert main(["synth", "--out", str(tmp_path), "--params", str(params_file)]) == 0
    truth = read_measurement_csv(tmp_path / "study_0004.truth.csv")
    assert len(truth) == 2
    assert truth[1]["e_mps"] == pytest.approx(1.0)


def test_synth_params_file_overrides_flags_and_flags_fill_the_rest(tmp_path):
    params_file = tmp_path / "params.txt"
    params_file.write_text("e_velocity = 1.0\nn_beats = 2\n")

    def synth(name, *flags):
        out = tmp_path / name
        assert main(["synth", "--out", str(out), *flags]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    # the file's e_velocity and n_beats win; --label and --hr set what it lacks
    written = synth("file", "--params", str(params_file), "--e", "0.6", "--beats", "4", "--label", "LVOT", "--hr", "90")
    assert written == synth("flags", "--e", "1.0", "--beats", "2", "--label", "LVOT", "--hr", "90")
    assert b"label = LVOT\n" in written["study_0000.manifest"]
    truth = read_measurement_csv(tmp_path / "file" / "study_0000.truth.csv")
    assert sorted(truth) == [1, 2]
    assert truth[1]["e_mps"] == pytest.approx(1.0)
    assert truth[2]["e_time_ms"] - truth[1]["e_time_ms"] == pytest.approx(60000.0 / 90.0, abs=5.0)


@pytest.mark.parametrize(
    "text, message",
    [
        ("e_velocity = 1.0\ngain = 3\n", "params.txt:2: unknown params file key 'gain'"),
        ("e_velocity 1.0\n", "params.txt:1: expected 'key = value'"),
        ("seed = 2\nseed = 3\n", "params.txt:2: duplicate params file key 'seed'"),
        (None, "params.txt: cannot read params file"),
        ("e_velocity = fast\n", "bad artifact or parameter syntax"),
        ("n_beats = 2.5\n", "bad artifact or parameter syntax"),
    ],
    ids=["unknown-key", "no-equals", "duplicate", "missing-file", "non-numeric", "non-integer"],
)
def test_synth_params_file_errors_are_one_line(tmp_path, capsys, text, message):
    params_file = tmp_path / "params.txt"
    if text is not None:
        params_file.write_text(text)
    out = tmp_path / "out"
    assert main(["synth", "--out", str(out), "--params", str(params_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert not out.exists()


def test_synth_too_short_height_is_one_error_line(tmp_path, capsys):
    params_file = tmp_path / "params.txt"
    params_file.write_text("height = 453\n")
    out = tmp_path / "out"
    assert main(["synth", "--out", str(out), "--params", str(params_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: height must be at least 454 to fit the ECG strip, got 453\n"
    assert not out.exists()


def test_synth_artifact_flags_render_those_artifacts(tmp_path):
    flags = ["--spike", "300,1.2,8", "--spike", "1900,0.9,5", "--dropout", "1200,20", "--alias-band"]
    assert main(["synth", "--out", str(tmp_path / "cli"), "--noise", "0.1", *flags]) == 0
    artifacts = (Spike(300.0, 1.2, 8.0), Spike(1900.0, 0.9, 5.0), Dropout(1200.0, 20.0), AliasBand())
    image, manifest, truth = generate_synthetic(SynthParams(noise_sigma=0.1, artifacts=artifacts))
    direct = tmp_path / "direct"
    direct.mkdir()
    save_image(direct / "study_0000.ppm", image)
    save_manifest(direct / "study_0000.manifest", manifest)
    write_truth_csv(direct / "study_0000.truth.csv", truth)
    for suffix in (".ppm", ".manifest", ".truth.csv"):
        name = f"study_0000{suffix}"
        assert (tmp_path / "cli" / name).read_bytes() == (direct / name).read_bytes()


@pytest.mark.parametrize("flag, value", [("--spike", "300,1.2"), ("--dropout", "1200"), ("--spike", "3x0,1.2,8")])
def test_synth_malformed_artifact_is_one_error_line(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    assert main(["synth", "--out", str(out), flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad artifact or parameter syntax")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, params_text, name",
    [
        (["--e", "nan"], None, "e_velocity"),
        (["--a", "nan"], None, "a_velocity"),
        (["--dt", "inf"], None, "dt"),
        ([], "e_rise_ms = nan\n", "e_rise_ms"),
        ([], "a_half_ms = nan\n", "a_half_ms"),
        ([], "lead_in_ms = inf\n", "lead_in_ms"),
        ([], "e_peak_frac = nan\n", "e_peak_frac"),
    ],
    ids=["e-flag", "a-flag", "dt-flag", "e-rise-file", "a-half-file", "lead-in-file", "e-peak-frac-file"],
)
def test_synth_non_finite_parameter_is_one_error_line(tmp_path, capsys, flags, params_text, name):
    if params_text is not None:
        (tmp_path / "params.txt").write_text(params_text)
        flags = ["--params", str(tmp_path / "params.txt")]
    out = tmp_path / "out"
    assert main(["synth", "--out", str(out), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {name} must be finite")
    assert captured.err.count("\n") == 1
    assert not list(out.glob("*.ppm"))


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--dropout", "500,inf", "Dropout width_ms must be finite, got inf"),
        ("--spike", "nan,1.2,5", "Spike time_ms must be finite, got nan"),
        ("--spike", "500,1.0,-5", "Spike width_ms must be positive, got -5.0"),
    ],
)
def test_synth_invalid_artifact_is_one_error_line(tmp_path, capsys, flag, value, message):
    out = tmp_path / "out"
    assert main(["synth", "--out", str(out), flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-2"])
def test_synth_fewer_than_one_study_is_a_usage_error(tmp_path, capsys, count):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(out), f"--n={count}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --n: must be at least 1, got {count}" in captured.err
    assert not out.exists()


# analyze ---------------------------------------------------------------------


def test_analyze_valid_study(tmp_path, capsys):
    make_study(tmp_path)
    code = main(["analyze", str(tmp_path), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "3 beats" in out
    rows = read_measurement_csv(tmp_path / "study_0000.measurements.csv")
    assert sorted(rows) == [1, 2, 3]
    assert rows[1]["e_mps"] == pytest.approx(0.8, abs=0.02)


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_outputs_are_created_under_the_umask(tmp_path, capsys, umask):
    previous = os.umask(umask)
    try:
        assert main(["synth", "--out", str(tmp_path)]) == 0
        assert main(["analyze", str(tmp_path / "study_0000.ppm")]) == 0
    finally:
        os.umask(previous)
    for name in ("study_0000.ppm", "study_0000.measurements.csv"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o666 & ~umask


def run_fresh_interpreter(script):
    """Run script in a new python process that imports this checkout's package."""
    src = str(Path(midoppler.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)


def readme_library_block() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs_after_a_lean_package_import():
    # the package namespace holds only __version__: importing it loads no
    # submodule and no numpy, and the example imports what it uses
    result = run_fresh_interpreter(
        "import sys\n"
        "import midoppler\n"
        "print(midoppler.__version__, sorted(m for m in sys.modules if m.split('.')[0] == 'numpy' or m.startswith('midoppler.')))\n"
        + readme_library_block()
    )
    assert result.returncode == 0, result.stderr
    first, second = result.stdout.splitlines()
    assert first == f"{midoppler.__version__} []"
    n_beats, *means = second.split()
    assert int(n_beats) > 0 and len(means) == 4 and all(float(m) > 0 for m in means)


def test_analyze_cold_start_imports_no_scipy(tmp_path):
    # scipy is a test oracle only: a fresh single-study call must not load
    # any of it, even lazily; nor, running in-process, the batch's process tools
    make_study(tmp_path)
    result = run_fresh_interpreter(
        "import sys, midoppler.cli\n"
        f"status = midoppler.cli.main(['analyze', {str(tmp_path)!r}, '--out', {str(tmp_path / 'out')!r}])\n"
        "print(status, sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent')))\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "out" / "study_0000.measurements.csv").exists()


def test_analyze_cold_start_loads_these_package_modules(tmp_path):
    # each module a single-study analyze loads costs a fresh process its
    # import time: a module added to or dropped from this list is a decision
    make_study(tmp_path)
    result = run_fresh_interpreter(
        "import sys, midoppler.cli\n"
        f"status = midoppler.cli.main(['analyze', {str(tmp_path / 'study_0000.ppm')!r}, '--out', {str(tmp_path / 'out')!r}])\n"
        "print(status, sorted(m for m in sys.modules if m.split('.')[0] == 'midoppler'))\n"
    )
    assert result.returncode == 0, result.stderr
    modules = [
        "midoppler", "midoppler.cli", "midoppler.ecg", "midoppler.errors", "midoppler.ingestion",
        "midoppler.kernels", "midoppler.measurement", "midoppler.overlay", "midoppler.segmentation",
        "midoppler.stats", "midoppler.synth",
    ]
    assert result.stdout.splitlines()[-1] == f"0 {modules}"


def test_analyze_cold_start_imports_no_numpy_ma(tmp_path):
    # np.percentile imports numpy.ma on its first call, about 13 ms of a
    # fresh process; the QRS threshold takes its percentile without it
    make_study(tmp_path)
    result = run_fresh_interpreter(
        "import sys, midoppler.cli\n"
        f"status = midoppler.cli.main(['analyze', {str(tmp_path)!r}, '--out', {str(tmp_path / 'out')!r}])\n"
        "print(status, sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "out" / "study_0000.measurements.csv").exists()


def test_analyze_runs_with_scipy_uninstalled(tmp_path):
    make_study(tmp_path, noise_sigma=0.15, seed=5)
    assert main(["analyze", str(tmp_path), "--out", str(tmp_path / "expected")]) == 0
    result = run_fresh_interpreter(
        "import sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'scipy' or name.startswith('scipy.'):\n"
        "            raise ImportError(f'{name} is not installed')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "import midoppler.cli\n"
        f"sys.exit(midoppler.cli.main(['analyze', {str(tmp_path)!r}, '--out', {str(tmp_path / 'out')!r}]))\n"
    )
    assert result.returncode == 0, result.stderr
    csv_name = "study_0000.measurements.csv"
    assert (tmp_path / "out" / csv_name).read_bytes() == (tmp_path / "expected" / csv_name).read_bytes()


def test_analyze_is_deterministic(tmp_path):
    make_study(tmp_path, noise_sigma=0.15, seed=5)
    csv_path = tmp_path / "study_0000.measurements.csv"
    assert main(["analyze", str(tmp_path)]) == 0
    first = csv_path.read_bytes()
    assert main(["analyze", str(tmp_path)]) == 0
    assert csv_path.read_bytes() == first


def test_analyze_rejects_non_mitral_labels(tmp_path, capsys):
    make_study(tmp_path, label="LVOT")
    code = main(["analyze", str(tmp_path)])
    assert code == 2
    assert "rejected (label=LVOT)" in capsys.readouterr().out


def test_analyze_unknown_label_is_error(tmp_path, capsys):
    make_study(tmp_path, label="spectral_unknown")
    assert main(["analyze", str(tmp_path)]) == 1
    assert "spectral_unknown" in capsys.readouterr().err


def test_analyze_continues_past_missing_manifest(tmp_path, capsys):
    make_study(tmp_path, stem="good")
    make_study(tmp_path, stem="bad")
    (tmp_path / "bad.manifest").unlink()
    code = main(["analyze", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1  # an error occurred...
    assert (tmp_path / "good.measurements.csv").exists()  # ...but work continued
    assert "bad.ppm" in captured.err


def test_analyze_continues_past_non_finite_manifest(tmp_path, capsys):
    for stem in ("a_good", "b_nan", "c_good"):
        make_study(tmp_path, stem=stem)
    path = tmp_path / "b_nan.manifest"
    path.write_text(re.sub(r"(?m)^time_scale = .*$", "time_scale = nan", path.read_text()))
    code = main(["analyze", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "b_nan.ppm: error:" in captured.err and "time_scale" in captured.err
    assert not (tmp_path / "b_nan.measurements.csv").exists()
    for stem in ("a_good", "c_good"):
        assert sorted(read_measurement_csv(tmp_path / f"{stem}.measurements.csv")) == [1, 2, 3]


def test_analyze_tiny_time_scale_is_one_line_without_traceback(tmp_path, capsys):
    # window / spacing overflows int64 at 1e-20 ms per column and float at 1e-320
    for stem, time_scale in (("a_good", None), ("b_1e20", "1e-20"), ("c_1e320", "1e-320")):
        make_study(tmp_path, stem=stem)
        if time_scale:
            path = tmp_path / f"{stem}.manifest"
            path.write_text(re.sub(r"(?m)^time_scale = .*$", f"time_scale = {time_scale}", path.read_text()))
    main(["analyze", str(tmp_path)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    for stem in ("a_good", "b_1e20", "c_1e320"):
        assert len(outcome_lines(captured, tmp_path / f"{stem}.ppm")) == 1
    assert f"{tmp_path / 'a_good.ppm'}: 3 beats" in captured.out
    assert sorted(read_measurement_csv(tmp_path / "a_good.measurements.csv")) == [1, 2, 3]


def test_analyze_reports_non_utf8_manifest_without_traceback(tmp_path, capsys):
    make_study(tmp_path, stem="a_good")
    make_study(tmp_path, stem="b_bytes")
    path = tmp_path / "b_bytes.manifest"
    path.write_bytes(path.read_bytes() + b"\xff")
    assert main(["analyze", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err == (
        f"{tmp_path / 'b_bytes.ppm'}: error: {path}: cannot read manifest: "
        f"'utf-8' codec can't decode byte 0xff in position {path.stat().st_size - 1}: invalid start byte\n"
    )
    assert (tmp_path / "a_good.measurements.csv").exists()


def test_analyze_isolates_unexpected_exception(tmp_path, capsys, monkeypatch):
    make_study(tmp_path, stem="a_good")
    boom, _, _ = make_study(tmp_path, stem="b_boom", heart_rate=70.0)
    make_study(tmp_path, stem="c_good")
    real_measure_study = cli.measure_study

    # keyed on the image, not on a call count: worker processes see the
    # monkeypatch but share no state with this process or with each other
    def flaky_measure_study(image, manifest, **kwargs):
        if np.array_equal(image.pixels, boom.pixels):
            raise RuntimeError("injected fault")
        return real_measure_study(image, manifest, **kwargs)

    monkeypatch.setattr(cli, "measure_study", flaky_measure_study)
    code = main(["analyze", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    for stem in ("a_good", "b_boom", "c_good"):
        assert len(outcome_lines(captured, tmp_path / f"{stem}.ppm")) == 1
    assert "b_boom.ppm: error: RuntimeError: injected fault" in captured.err
    assert "Traceback" in captured.err
    assert not (tmp_path / "b_boom.measurements.csv").exists()
    for stem in ("a_good", "c_good"):
        assert sorted(read_measurement_csv(tmp_path / f"{stem}.measurements.csv")) == [1, 2, 3]
        assert f"{stem}.ppm: 3 beats" in captured.out


def test_analyze_batch_equals_serial_single_runs(tmp_path, capsys, monkeypatch):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    for k in range(4):
        make_study(inputs, stem=f"m{k}", noise_sigma=0.15, heart_rate=55.0 + 15.0 * k, seed=k)
    make_study(inputs, stem="r_lvot", label="LVOT")
    make_study(inputs, stem="u_unknown", label="spectral_unknown")
    make_study(inputs, stem="t_truncated")
    truncated = inputs / "t_truncated.ppm"
    truncated.write_bytes(truncated.read_bytes()[:1000])
    images = sorted(inputs.glob("*.ppm"))
    report_cpus(monkeypatch, 3)  # fewer workers than inputs
    out = tmp_path / "out"

    def run(argvs):
        codes = [main(argv) for argv in argvs]
        captured = capsys.readouterr()
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        shutil.rmtree(out)
        return codes, captured.out, captured.err, files

    batch_codes, *batch = run([["analyze", str(inputs), "--dump-ecg", "--out", str(out)]])
    single_codes, *singles = run(
        [["analyze", str(image), "--dump-ecg", "--out", str(out)] for image in images]
    )
    assert batch == singles
    assert sorted(single_codes) == [0, 0, 0, 0, 1, 1, 2]
    assert batch_codes == [1]
    assert sorted(batch[2]) == sorted(
        f"m{k}.{kind}.csv" for k in range(4) for kind in ("measurements", "ecg")
    )


@needs_fork
def test_analyze_survives_a_dead_worker(tmp_path, capsys, monkeypatch):
    images = {
        stem: make_study(tmp_path, stem=stem, heart_rate=hr)[0]
        for stem, hr in (("a_dies", 60.0), ("b", 70.0), ("c", 80.0), ("d", 90.0))
    }
    real_measure_study = cli.measure_study
    test_pid = os.getpid()

    def dying_measure_study(image, manifest, **kwargs):
        if np.array_equal(image.pixels, images["a_dies"].pixels):
            if os.getpid() == test_pid:  # run in-process: fail, do not end pytest
                raise RuntimeError("a_dies ran in-process, not in a worker")
            os._exit(3)
        if os.getpid() == test_pid:
            time.sleep(0.2)  # meanwhile the worker claims a_dies, the first input
        return real_measure_study(image, manifest, **kwargs)

    monkeypatch.setattr(cli, "measure_study", dying_measure_study)
    report_cpus(monkeypatch, 2)
    codes = []
    batch = threading.Thread(
        target=lambda: codes.append(main(["analyze", str(tmp_path)])), daemon=True
    )
    batch.start()
    batch.join(timeout=120)
    assert not batch.is_alive(), "the batch hung after a worker died"
    captured = capsys.readouterr()
    assert codes == [1]
    (dead,) = outcome_lines(captured, tmp_path / "a_dies.ppm")
    assert dead == f"{tmp_path / 'a_dies.ppm'}: error: worker process exited with code 3"
    for stem in ("b", "c"):
        (line,) = outcome_lines(captured, tmp_path / f"{stem}.ppm")
        assert ": 3 beats" in line or ": error: " in line
    (last,) = outcome_lines(captured, tmp_path / "d.ppm")  # taken by this process first
    assert ": 3 beats" in last
    assert multiprocessing.active_children() == []


@needs_fork
def test_analyze_batch_runs_its_last_inputs_in_this_process(tmp_path, capsys, monkeypatch):
    # fork write-protects this process's pages; the studies it runs during
    # the batch take those faults instead of the caller's next study
    images = [make_study(tmp_path, stem=f"s{k}", heart_rate=60.0 + 10.0 * k)[0] for k in range(4)]
    real_measure_study = cli.measure_study
    test_pid = os.getpid()
    calls = tmp_path / "calls.txt"  # appended to by every process

    def measure_study(image, manifest, **kwargs):
        (k,) = [k for k, seen in enumerate(images) if np.array_equal(image.pixels, seen.pixels)]
        with open(calls, "a") as log:
            log.write(f"{k} {int(os.getpid() == test_pid)}\n")
        return real_measure_study(image, manifest, **kwargs)

    monkeypatch.setattr(cli, "measure_study", measure_study)
    report_cpus(monkeypatch, 2)
    assert main(["analyze", str(tmp_path)]) == 0
    ran = [tuple(map(int, line.split())) for line in calls.read_text().splitlines()]
    assert sorted(k for k, _ in ran) == [0, 1, 2, 3]  # each input once
    here = [k for k, in_here in ran if in_here]
    assert here and here == [3, 2, 1, 0][: len(here)]  # from the back, one at a time
    printed = [line.split(": ")[0] for line in capsys.readouterr().out.splitlines()]
    assert printed == [str(tmp_path / f"s{k}.ppm") for k in range(4)]
    assert multiprocessing.active_children() == []


@needs_fork
def test_analyze_batch_closed_early_leaves_no_worker(tmp_path, monkeypatch):
    pictures = [make_study(tmp_path, stem=f"s{k}", heart_rate=60.0 + 5.0 * k)[0] for k in range(6)]
    real_measure_study = cli.measure_study

    def measure_study(image, manifest, **kwargs):
        if np.array_equal(image.pixels, pictures[1].pixels):
            time.sleep(0.5)  # a worker is still on s1 when the batch is closed
        return real_measure_study(image, manifest, **kwargs)

    monkeypatch.setattr(cli, "measure_study", measure_study)
    report_cpus(monkeypatch, 3)
    args = cli.build_parser().parse_args(["analyze", str(tmp_path)])
    images = cli._expand_inputs(args.inputs)
    batch = cli._analyze_all(images, args, cli._pipeline_params(args), cli._write_measurements)
    outcome, out, _ = next(batch)
    assert outcome == "measured" and out.startswith(f"{images[0]}: 3 beats")
    batch.close()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=needs_fork)])
def test_analyze_reads_the_pixels_of_mitral_inflow_studies_only(tmp_path, capsys, monkeypatch, cpus):
    labels = {"a_lvot": "LVOT", "b_mitral": MITRAL_INFLOW_LABEL, "c_pulm_vein": "pulm_vein",
              "d_mitral": MITRAL_INFLOW_LABEL, "e_truncated": "LVOT"}
    for k, (stem, label) in enumerate(labels.items()):
        make_study(tmp_path, stem=stem, label=label, seed=k)
    truncated = tmp_path / "e_truncated.ppm"
    truncated.write_bytes(truncated.read_bytes()[:1_000_000])
    with pytest.raises(ImageFormatError) as truncation:
        load_image(truncated)
    reads = tmp_path / "reads.txt"  # appended to by every process
    real_load_image = cli.load_image

    def spy_load_image(path):
        with open(reads, "a") as log:
            log.write(f"{Path(path).name}\n")
        return real_load_image(path)

    monkeypatch.setattr(cli, "load_image", spy_load_image)
    report_cpus(monkeypatch, cpus)
    assert main(["analyze", str(tmp_path)]) == 1
    assert sorted(reads.read_text().split()) == ["b_mitral.ppm", "d_mitral.ppm"]
    captured = capsys.readouterr()
    for stem in ("a_lvot", "c_pulm_vein"):
        assert outcome_lines(captured, tmp_path / f"{stem}.ppm") == [
            f"{tmp_path / stem}.ppm: rejected (label={labels[stem]})"
        ]
    assert "truncated pixel data, expected " in str(truncation.value)
    assert outcome_lines(captured, truncated) == [f"{truncated}: error: {truncation.value}"]


@needs_fork
def test_analyze_shared_output_keeps_serial_order(tmp_path, capsys, monkeypatch):
    first_dir, second_dir, out = tmp_path / "first", tmp_path / "second", tmp_path / "out"
    first_dir.mkdir()
    second_dir.mkdir()
    first, _, _ = make_study(first_dir, heart_rate=60.0)
    make_study(second_dir, heart_rate=80.0)
    assert main(["analyze", str(second_dir)]) == 0
    expected = (second_dir / "study_0000.measurements.csv").read_bytes()
    real_measure_study = cli.measure_study

    def slow_first(image, manifest, **kwargs):
        if np.array_equal(image.pixels, first.pixels):
            time.sleep(0.5)  # run in parallel, the first input would write last
        return real_measure_study(image, manifest, **kwargs)

    monkeypatch.setattr(cli, "measure_study", slow_first)
    report_cpus(monkeypatch, 2)
    assert main(["analyze", str(first_dir), str(second_dir), "--out", str(out)]) == 0
    assert (out / "study_0000.measurements.csv").read_bytes() == expected


def test_analyze_directory_skips_overlay_output(tmp_path, capsys):
    assert main(["synth", "--n", "1", "--out", str(tmp_path)]) == 0
    assert main(["overlay", str(tmp_path / "study_0000.ppm")]) == 0
    capsys.readouterr()
    assert main(["analyze", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith(f"{tmp_path / 'study_0000.ppm'}: 3 beats") and captured.out.count("\n") == 1
    assert not (tmp_path / "study_0000.overlay.measurements.csv").exists()


@pytest.mark.parametrize("flag", ["--manifest", "--mask"])
def test_analyze_single_input_flag_with_two_inputs_exits_one(tmp_path, capsys, flag):
    make_study(tmp_path)
    make_study(tmp_path, stem="study_0001", seed=1)
    out = tmp_path / "out"
    code = main(["analyze", str(tmp_path), flag, str(tmp_path / "study_0000.manifest"), "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} requires a single input image\n"
    assert not out.exists()


def test_analyze_missing_mask_path_with_two_inputs_names_it(tmp_path, capsys):
    make_study(tmp_path)
    make_study(tmp_path, stem="study_0001", seed=1)
    missing, out = tmp_path / "no_such_masks", tmp_path / "out"
    code = main(["analyze", str(tmp_path), "--mask", str(missing), "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --mask {missing}: no such file or directory\n"
    assert not out.exists()


def test_analyze_no_inputs_is_nothing_to_do(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    assert main(["analyze", str(tmp_path / "empty")]) == 2


def test_analyze_with_imported_mask(tmp_path):
    _, manifest, truth = make_study(tmp_path)
    mask_path = tmp_path / "study_0000.mask.pgm"
    export_mask(mask_path, EnvelopeMask(truth.mask))
    code = main([
        "analyze", str(tmp_path / "study_0000.ppm"), "--mask", str(mask_path),
        "--out", str(tmp_path),
    ])
    assert code == 0
    rows = read_measurement_csv(tmp_path / "study_0000.measurements.csv")
    assert rows[1]["e_mps"] == pytest.approx(0.8, abs=0.02)


def lowered_mask(truth, rows) -> EnvelopeMask:
    """truth's envelope mask moved rows lower, so that the measurements show which mask was read."""
    cells = np.zeros_like(truth.mask)
    cells[rows:] = truth.mask[:-rows]
    return EnvelopeMask(cells)


@pytest.mark.parametrize("cpus", [1, 2])
def test_analyze_mask_directory_pairs_each_image_with_its_stem(tmp_path, capsys, monkeypatch, cpus):
    inputs, masks, out = tmp_path / "inputs", tmp_path / "masks", tmp_path / "out"
    inputs.mkdir()
    masks.mkdir()
    for k, stem in enumerate(["a_masked", "b_masked"]):
        _, _, truth = make_study(inputs, stem=stem, noise_sigma=0.15, heart_rate=60.0 + 15.0 * k, seed=k)
        export_mask(masks / f"{stem}.mask.pgm", lowered_mask(truth, 4 + 4 * k))
    make_study(inputs, stem="c_maskless", seed=2)
    make_study(inputs, stem="d_rejected", label="LVOT")
    report_cpus(monkeypatch, cpus)

    def run(argvs):
        codes = [main(argv) for argv in argvs]
        captured = capsys.readouterr()
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        shutil.rmtree(out)
        return codes, captured, files

    codes, batch, batch_files = run([["analyze", str(inputs), "--mask", str(masks), "--out", str(out)]])
    assert codes == [1]
    maskless = inputs / "c_maskless.ppm"
    [line] = outcome_lines(batch, maskless)
    assert line.startswith(f"{maskless}: error: mask-import: {masks / 'c_maskless.mask.pgm'}: cannot read file: ")
    assert outcome_lines(batch, inputs / "d_rejected.ppm") == [f"{inputs / 'd_rejected.ppm'}: rejected (label=LVOT)"]

    stems = ["a_masked", "b_masked"]
    single_codes, singles, single_files = run([
        ["analyze", str(inputs / f"{stem}.ppm"), "--mask", str(masks / f"{stem}.mask.pgm"), "--out", str(out)]
        for stem in stems
    ])
    assert single_codes == [0, 0]
    assert batch_files == single_files
    assert sorted(batch_files) == [f"{stem}.measurements.csv" for stem in stems]
    for stem in stems:
        assert outcome_lines(batch, inputs / f"{stem}.ppm") == outcome_lines(singles, inputs / f"{stem}.ppm")

    # the masks matter: each CSV differs from the classical segmentation's and from the other mask's
    assert main(["analyze", str(inputs / "a_masked.ppm"), "--mask", str(masks / "b_masked.mask.pgm"), "--out", str(out)]) == 0
    assert main(["analyze", str(inputs / "a_masked.ppm"), "--out", str(tmp_path / "plain")]) == 0
    swapped = (out / "a_masked.measurements.csv").read_bytes()
    plain = (tmp_path / "plain" / "a_masked.measurements.csv").read_bytes()
    assert batch_files["a_masked.measurements.csv"] not in (swapped, plain)

    image = str(inputs / "b_masked.ppm")
    assert main(["overlay", image, "--mask", str(masks), "--out", str(tmp_path / "dir.ppm")]) == 0
    assert main(["overlay", image, "--mask", str(masks / "b_masked.mask.pgm"), "--out", str(tmp_path / "file.ppm")]) == 0
    assert (tmp_path / "dir.ppm").read_bytes() == (tmp_path / "file.ppm").read_bytes()


def test_empty_flow_side_is_one_trace_error_and_the_batch_goes_on(tmp_path, capsys):
    make_study(tmp_path)
    image, manifest = alias_band_only()
    band = tmp_path / "band_only.ppm"
    save_image(band, image)
    save_manifest(tmp_path / "band_only.manifest", manifest)
    mask_path = tmp_path / "band_only.mask.pgm"
    export_mask(mask_path, picture_mask(image, manifest))
    error = f"{band}: error: trace: mask is empty on the flow side (above the baseline)"

    assert main(["analyze", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert outcome_lines(captured, band) == [error]
    assert (tmp_path / "study_0000.measurements.csv").exists()

    assert main(["analyze", str(band), "--mask", str(mask_path)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert outcome_lines(captured, band) == [error]
    assert not (tmp_path / "band_only.measurements.csv").exists()


def test_specks_the_opening_removes_are_one_segmentation_error(tmp_path, capsys):
    image, manifest = checkerboard_region()
    specks = tmp_path / "specks.ppm"
    save_image(specks, image)
    save_manifest(tmp_path / "specks.manifest", manifest)
    assert main(["analyze", str(specks)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{specks}: error: segmentation: no foreground remains after cleanup\n"
    assert not (tmp_path / "specks.measurements.csv").exists()


@pytest.mark.parametrize("level", [12, 205])
def test_one_gray_level_region_is_one_segmentation_error(tmp_path, capsys, level):
    image, manifest = one_level_region(level)
    flat = tmp_path / "flat.ppm"
    save_image(flat, image)
    save_manifest(tmp_path / "flat.manifest", manifest)
    assert main(["analyze", str(flat)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"{flat}: error: segmentation: spectral region is one gray level ({level}); "
        "no threshold splits it\n"
    )
    assert not (tmp_path / "flat.measurements.csv").exists()


def test_analyze_dump_ecg(tmp_path):
    make_study(tmp_path)
    assert main(["analyze", str(tmp_path), "--dump-ecg"]) == 0
    text = (tmp_path / "study_0000.ecg.csv").read_text()
    assert text.startswith("time_ms,amplitude_px,valid")


# agree -----------------------------------------------------------------------


def test_agree_file_with_itself(tmp_path, capsys):
    # E and DT vary across its beats; A and E/A read the same in every beat
    csv_path = Path(write_beats(tmp_path / "a", (1, 2, 3))) / "s.measurements.csv"
    assert main(["agree", str(csv_path), str(csv_path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "field,n,bias,sd,loa_low,loa_high,pearson_r,r_squared"
    assert [line.split(",")[0] for line in lines[1:]] == ["E", "DT"]
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[2]) == 0.0  # bias
        assert float(fields[6]) == pytest.approx(1.0)  # pearson_r


def test_agree_measurements_vs_truth(tmp_path, capsys):
    for seed in range(4):
        image, manifest, truth = generate_synthetic(
            SynthParams(
                seed=seed,
                e_velocity=0.5 + 0.15 * seed,
                a_velocity=0.35 + 0.1 * seed,
                dt=150.0 + 18.0 * seed,
            )
        )
        stem = f"study_{seed:04d}"
        save_image(tmp_path / f"{stem}.ppm", image)
        save_manifest(tmp_path / f"{stem}.manifest", manifest)
        write_truth_csv(tmp_path / f"{stem}.truth.csv", truth)
    measured = tmp_path / "measured"
    assert main(["analyze", str(tmp_path), "--out", str(measured)]) == 0
    truth_dir = tmp_path / "truth"
    truth_dir.mkdir()
    for f in tmp_path.glob("*.truth.csv"):
        (truth_dir / f.name).write_bytes(f.read_bytes())
    report = tmp_path / "agreement.csv"
    assert main(["agree", str(measured), str(truth_dir), "--out", str(report)]) == 0
    lines = report.read_text().strip().splitlines()
    assert [l.split(",")[0] for l in lines] == ["field", "E", "A", "EA", "DT"]
    e_bias = float(lines[1].split(",")[2])
    assert abs(e_bias) < 0.01


def agree_measured_vs_truth(tmp_path, capsys, stems, *analyze_flags):
    """Analyze the studies into measured/ and copy their truth CSVs to truth/,
    then return agree's exit code and output on E."""
    for i, stem in enumerate(stems):
        make_study(tmp_path, stem=stem, seed=i, e_velocity=0.6 + 0.3 * i)
    measured = tmp_path / "measured"
    assert main(["analyze", str(tmp_path), "--out", str(measured), *analyze_flags]) == 0
    truth_dir = tmp_path / "truth"
    truth_dir.mkdir()
    for f in tmp_path.glob("*.truth.csv"):
        (truth_dir / f.name).write_bytes(f.read_bytes())
    capsys.readouterr()
    return main(["agree", str(measured), str(truth_dir), "--fields", "E"]), capsys.readouterr()


def test_agree_over_dump_ecg_directory(tmp_path, capsys):
    code, captured = agree_measured_vs_truth(tmp_path, capsys, ("study_0000", "study_0001"), "--dump-ecg")
    assert code == 0
    assert (tmp_path / "measured" / "study_0000.ecg.csv").exists()
    assert "Traceback" not in captured.err
    assert captured.out.splitlines()[1].split(",")[1] == "6"  # 3 beats from each study


def test_agree_keeps_dotted_stems_apart(tmp_path, capsys):
    code, captured = agree_measured_vs_truth(tmp_path, capsys, ("a.1", "a.2"))
    assert code == 0
    assert captured.out.splitlines()[1].split(",")[1] == "6"


def test_agree_on_a_csv_without_beat_column_names_the_file(tmp_path, capsys):
    make_study(tmp_path)
    assert main(["analyze", str(tmp_path), "--dump-ecg"]) == 0
    ecg_csv = tmp_path / "study_0000.ecg.csv"
    with pytest.raises(ValueError, match=re.escape(f"{ecg_csv}: no 'beat' column")):
        read_measurement_csv(ecg_csv)
    capsys.readouterr()
    assert main(["agree", str(ecg_csv), str(tmp_path / "study_0000.truth.csv")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: {ecg_csv}: no 'beat' column")


def test_agree_refuses_a_study_read_from_two_files(tmp_path, capsys):
    # measurements written next to their truth: both name study_0000
    make_study(tmp_path, noise_sigma=0.1)
    assert main(["analyze", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["agree", str(tmp_path), str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    both = f"{tmp_path / 'study_0000.measurements.csv'} and {tmp_path / 'study_0000.truth.csv'}"
    assert captured.err == f"error: study 'study_0000' is read from both {both}\n"


def test_agree_missing_output_directory_is_one_error_line(tmp_path, capsys, monkeypatch):
    write_beats(tmp_path / "a", (1, 2, 3))  # E and DT vary across its beats
    monkeypatch.chdir(tmp_path)
    errors = []
    for _ in range(2):
        assert main(["agree", "a", "a", "--out", "no-dir/x.csv"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert errors[0].splitlines()[-1] == "error: [Errno 2] No such file or directory: 'no-dir/x.csv'"
    assert "Traceback" not in errors[0]


def test_agree_on_studies_alike_but_for_noise_finds_no_correlation(tmp_path, capsys):
    # synth --n 2 varies only the speckle seed: every field reads the same in
    # every beat on both sides, so no field has a correlation to report
    synth_dir, measured = str(tmp_path / "s"), str(tmp_path / "m")
    assert main(["synth", "--n", "2", "--out", synth_dir]) == 0
    assert main(["analyze", synth_dir, "--out", measured]) == 0
    capsys.readouterr()
    assert main(["agree", measured, synth_dir]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        *(f"warning: field {name}: correlation undefined: a series has zero variance" for name in FIELD_COLUMNS),
        "error: no field produced an agreement row",
    ]


def test_agree_disjoint_keys_exits_one(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("beat,e_mps,a_mps,ea_ratio,dt_ms,e_time_ms,a_time_ms,flags\n1,0.8,0.5,1.6,180.0,300.0,700.0,\n")
    b.write_text("beat,e_mps,a_mps,ea_ratio,dt_ms,e_time_ms,a_time_ms,flags\n9,0.8,0.5,1.6,180.0,300.0,700.0,\n")
    assert main(["agree", str(a), str(b)]) == 1
    assert "overlap" in capsys.readouterr().err


def test_agree_per_patient_collapses_beats(tmp_path, capsys):
    make_study(tmp_path)
    measured = tmp_path / "measured"
    main(["analyze", str(tmp_path), "--out", str(measured)])
    capsys.readouterr()
    csv_path = measured / "study_0000.measurements.csv"
    assert main(["agree", str(csv_path), str(csv_path), "--per-patient", "--fields", "E"]) == 1
    # a single patient cannot be correlated; two studies can
    make_study(tmp_path, stem="study_0001", e_velocity=1.1, seed=1)
    main(["analyze", str(tmp_path), "--out", str(measured)])
    capsys.readouterr()
    assert main(["agree", str(measured), str(measured), "--per-patient", "--fields", "E"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1].split(",")[1] == "2"  # n = 2 studies


MEASUREMENT_HEADER = "beat,e_mps,a_mps,ea_ratio,dt_ms,e_time_ms,a_time_ms,flags\n"


def write_beats(directory, beats):
    """directory/s.measurements.csv holding the given beat numbers."""
    directory.mkdir()
    rows = "".join(
        f"{b},{0.5 + 0.1 * b:.1f},0.5,1.6,{170 + 5 * b}.0,{800 * b}.0,{800 * b + 400}.0,\n" for b in beats
    )
    (directory / "s.measurements.csv").write_text(MEASUREMENT_HEADER + rows)
    return str(directory)


def test_agree_counts_each_unpaired_key_once(tmp_path, capsys):
    a = write_beats(tmp_path / "a", (1, 2, 3))
    b = write_beats(tmp_path / "b", (1, 2))
    assert main(["agree", a, b]) == 0
    captured = capsys.readouterr()
    assert [line.split(",")[:2] for line in captured.out.splitlines()[1:]] == [["E", "2"], ["DT", "2"]]
    assert "note: 1 unpaired keys dropped" in captured.err
    # per patient, both sides are the one study s
    main(["agree", a, b, "--per-patient"])
    assert "unpaired" not in capsys.readouterr().err
    # a field named twice, in any case, gives one row, in first-mention order
    assert main(["agree", a, b, "--fields", "DT,E,dt,e"]) == 0
    assert [line.split(",")[0] for line in capsys.readouterr().out.splitlines()[1:]] == ["DT", "E"]


@pytest.mark.parametrize(
    "series_b, flags, message",
    [
        ("empty", [], "no CSV files found"),
        ("full", ["--fields", "E,X"], "unknown field 'X'"),
        # A is constant in write_beats: its comparison would warn first
        ("full", ["--fields", "A,X"], "unknown field 'X'"),
        ("full", ["--fields", ","], "--fields names no field (choose from E,A,EA,DT)"),
        ("full", ["--fields", ""], "--fields names no field (choose from E,A,EA,DT)"),
    ],
    ids=[
        "empty-directory",
        "unknown-field",
        "unknown-field-after-an-undefined-one",
        "no-field-comma",
        "no-field-empty",
    ],
)
def test_agree_usage_faults_are_one_error_line(tmp_path, capsys, series_b, flags, message):
    full = write_beats(tmp_path / "full", (1, 2, 3))
    (tmp_path / "empty").mkdir()
    assert main(["agree", full, str(tmp_path / series_b), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


# overlay ---------------------------------------------------------------------


def colors_present(pixels, color):
    return bool((pixels == np.array(color, np.uint8)).all(axis=2).any())


def test_overlay_draws_all_marker_roles(tmp_path):
    _, manifest, truth = make_study(tmp_path)
    out = tmp_path / "annotated.ppm"
    assert main(["overlay", str(tmp_path / "study_0000.ppm"), "--out", str(out)]) == 0
    annotated = load_image(out)
    for color in (BORDER_COLOR, E_COLOR, A_COLOR, SLOPE_COLOR, CROSSING_COLOR):
        assert colors_present(annotated.pixels, color), color


def test_overlay_markers_near_truth_positions(tmp_path):
    _, manifest, truth = make_study(tmp_path)
    out = tmp_path / "annotated.ppm"
    assert main(["overlay", str(tmp_path / "study_0000.ppm"), "--out", str(out)]) == 0
    pixels = load_image(out).pixels
    e_mask = (pixels == np.array(E_COLOR, np.uint8)).all(axis=2)
    rows, cols = np.nonzero(e_mask)
    for beat in truth.beats:
        expected_col = time_to_col(beat.e_time, manifest)
        expected_row = velocity_to_row(beat.e_velocity, manifest)
        distance = np.hypot(rows - expected_row, cols - expected_col)
        assert distance.min() <= 2.0 + np.hypot(2, 2)  # marker half-size slack


def test_overlay_zero_beats_draws_border_only(tmp_path, capsys):
    make_study(tmp_path)
    out = tmp_path / "annotated.ppm"
    code = main([
        "overlay", str(tmp_path / "study_0000.ppm"), "--out", str(out),
        "--min-prominence", "5.0",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "no measurable beats" in captured.err
    pixels = load_image(out).pixels
    assert colors_present(pixels, BORDER_COLOR)
    assert not colors_present(pixels, E_COLOR)


def test_overlay_unwritable_output_exits_one(tmp_path, capsys, monkeypatch):
    # the line names the path given, not a random temporary file beside it
    make_study(tmp_path)
    monkeypatch.chdir(tmp_path)
    for _ in range(2):
        assert main(["overlay", "study_0000.ppm", "--out", "no-dir/x.ppm"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "study_0000.ppm: error: [Errno 2] No such file or directory: 'no-dir/x.ppm'\n"


def test_overlay_rejected_label_exits_two(tmp_path):
    make_study(tmp_path, label="pulm_vein")
    assert main(["overlay", str(tmp_path / "study_0000.ppm")]) == 2


def test_overlay_missing_ecg_key_names_the_stage(tmp_path, capsys):
    _, manifest, _ = make_study(tmp_path)
    save_manifest(
        tmp_path / "study_0000.manifest",
        replace(manifest, ecg_color=(255, 0, 255), ecg_color_tolerance=10),
    )
    out = tmp_path / "annotated.ppm"
    code = main(["overlay", str(tmp_path / "study_0000.ppm"), "--out", str(out)])
    assert code == 1
    assert "study_0000.ppm: error: ecg: no pixel within tolerance" in capsys.readouterr().err
    assert not out.exists()


def test_overlay_isolates_unexpected_exception(tmp_path, capsys, monkeypatch):
    make_study(tmp_path)

    def failing_measure_study(image, manifest, **kwargs):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(cli, "measure_study", failing_measure_study)
    assert main(["overlay", str(tmp_path / "study_0000.ppm")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Traceback")
    assert captured.err.splitlines()[-1] == f"{tmp_path / 'study_0000.ppm'}: error: RuntimeError: injected fault"
    assert not list(tmp_path.glob("*.overlay.ppm"))


@pytest.mark.parametrize("name", ["studies", "."])
def test_overlay_of_a_directory_is_one_error(tmp_path, capsys, monkeypatch, name):
    studies = tmp_path / "studies"
    studies.mkdir()
    make_study(studies)
    monkeypatch.chdir(studies)
    directory = str(studies) if name == "studies" else name  # "." has no stem to add a suffix to
    assert main(["overlay", directory]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(f"{directory}: error: ")
    assert not list(tmp_path.rglob("*.overlay.ppm"))


@pytest.mark.parametrize("fault", ["rejected-label", "unknown-label", "truncated-ppm", "missing-manifest"])
def test_overlay_reports_an_input_as_single_input_analyze_does(tmp_path, capsys, fault):
    label = {"rejected-label": "LVOT", "unknown-label": "spectral_unknown"}.get(fault, MITRAL_INFLOW_LABEL)
    make_study(tmp_path, label=label)
    image_path = tmp_path / "study_0000.ppm"
    if fault == "truncated-ppm":
        image_path.write_bytes(image_path.read_bytes()[:1000])
    if fault == "missing-manifest":
        (tmp_path / "study_0000.manifest").unlink()

    def run(command):
        code = main([command, str(image_path)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    analyze = run("analyze")
    assert analyze[0] == (2 if fault == "rejected-label" else 1)
    assert "Traceback" not in analyze[2]
    assert run("overlay") == analyze
    assert not list(tmp_path.glob("*.measurements.csv")) and not list(tmp_path.glob("*.overlay.ppm"))


def test_overlay_mask_draws_what_analyze_mask_measures(tmp_path):
    image, manifest, truth = make_study(tmp_path, noise_sigma=0.15, seed=5)
    # an envelope 8 rows lower than the rendered one, so the mask visibly matters
    mask_path = tmp_path / "lowered.mask.pgm"
    export_mask(mask_path, lowered_mask(truth, 8))
    image_path = str(tmp_path / "study_0000.ppm")

    assert main(["analyze", image_path, "--mask", str(mask_path), "--out", str(tmp_path)]) == 0
    assert main(["overlay", image_path, "--mask", str(mask_path), "--out", str(tmp_path / "m.ppm")]) == 0
    assert main(["overlay", image_path, "--out", str(tmp_path / "plain.ppm")]) == 0

    run = measure_study(image, manifest, mask_path=mask_path)
    assert run.n_beats == 3
    csv_text = (tmp_path / "study_0000.measurements.csv").read_text()
    assert csv_text == study_csv_text(run.beats, run)
    drawn = load_image(tmp_path / "m.ppm").pixels
    assert np.array_equal(drawn, render_overlay(image, manifest, run.trace, run.beats).pixels)
    assert not np.array_equal(drawn, load_image(tmp_path / "plain.ppm").pixels)


# pipeline flags --------------------------------------------------------------


@pytest.mark.parametrize("command", ["analyze", "overlay"])
@pytest.mark.parametrize(
    "flag, value",
    [
        ("--median-window", "2"),
        ("--median-window", str(MAX_MEDIAN_WINDOW + 2)),
        ("--qrs-threshold-fraction", "1.5"),
        ("--smooth-ms", "0"),
        ("--open-radius", "-1"),
        ("--min-component-area", "-1"),
        ("--min-prominence", "0"),
        ("--min-width-ms", "0"),
        ("--curvature-threshold", "0"),
        ("--skip-ms", "0"),
        ("--refractory-ms", "0"),
    ],
)
def test_rejected_pipeline_value_is_a_usage_error(tmp_path, capsys, command, flag, value):
    make_study(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, str(tmp_path / "study_0000.ppm"), flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.measurements.csv")) and not list(tmp_path.glob("*.overlay.ppm"))


@pytest.mark.parametrize("command", ["analyze", "overlay"])
def test_fractional_component_area_is_a_usage_error(tmp_path, capsys, command):
    make_study(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, str(tmp_path / "study_0000.ppm"), "--min-component-area", "24.5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --min-component-area: invalid int value: '24.5'" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.measurements.csv")) and not list(tmp_path.glob("*.overlay.ppm"))


# help ------------------------------------------------------------------------


def test_module_entry_point_prints_help():
    src = str(Path(midoppler.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "midoppler", "--help"], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: midoppler")
    assert "analyze" in result.stdout and "agree" in result.stdout


def test_help_lists_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "default: 15.0" in text       # --smooth-ms
    assert "default: 0.15" in text       # --min-prominence
    assert "default: 200.0" in text      # --refractory-ms


def test_cached_parser_carries_no_state_between_calls(tmp_path):
    assert cli.build_parser() is cli.build_parser()

    def outputs(directory):
        return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}

    assert main(["synth", "--spike", "300,1.5,5", "--alias-band", "--out", str(tmp_path / "artifacts")]) == 0
    assert main(["synth", "--out", str(tmp_path / "after")]) == 0
    cli.build_parser.cache_clear()
    assert main(["synth", "--out", str(tmp_path / "alone")]) == 0
    assert outputs(tmp_path / "after") == outputs(tmp_path / "alone")
    assert outputs(tmp_path / "after") != outputs(tmp_path / "artifacts")

    # a spike on an E descent makes one beat's DT an outlier
    studies = tmp_path / "spiked"
    assert main([
        "synth", "--e", "1.313", "--a", "0.677", "--dt", "114.5", "--hr", "129.1", "--beats", "4",
        "--seed", "99", "--alias-band", "--spike", "730.9,1.71,6.5", "--out", str(studies),
    ]) == 0
    csv_name = "study_0099.measurements.csv"
    assert main(["analyze", str(studies), "--drop-outliers", "--out", str(tmp_path / "dropped")]) == 0
    assert main(["analyze", str(studies), "--out", str(tmp_path / "after_drop")]) == 0
    cli.build_parser.cache_clear()
    assert main(["analyze", str(studies), "--out", str(tmp_path / "lone")]) == 0
    lone = (tmp_path / "lone" / csv_name).read_bytes()
    assert (tmp_path / "after_drop" / csv_name).read_bytes() == lone
    assert (tmp_path / "dropped" / csv_name).read_bytes() != lone


def on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not (on_glibc() and hasattr(os, "sched_setaffinity")), reason="glibc heap only")
def test_repeated_analyze_batches_keep_their_heap_pages(tmp_path):
    # A study frees arrays of a few MB; unless cli.main keeps glibc's heap,
    # the freed heap top goes back to the OS and every study of the next
    # batch faults about 1,400 pages back in.
    studies = 5
    for seed in range(studies):
        make_study(tmp_path, stem=f"study_{seed:04d}", seed=seed, noise_sigma=0.15)
    result = run_fresh_interpreter(
        "import contextlib, io, os, resource, midoppler.cli\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # one CPU: batches run in-process\n"
        "faults = []\n"
        "for batch in range(2):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        assert midoppler.cli.main(['analyze', {str(tmp_path)!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        "print(faults[1])\n"
    )
    assert result.returncode == 0, result.stderr
    assert len(list((tmp_path / "out").glob("*.measurements.csv"))) == studies
    assert int(result.stdout.split()[-1]) / studies < 100


def test_flag_defaults_are_the_dataclass_defaults():
    # every flag of analyze, overlay and synth either sets a dataclass field,
    # and then defaults to that field's default, or sets no field
    parser = cli.build_parser()
    tables = {
        "analyze": [(cls, flags) for _, cls, flags in cli._PIPELINE_FLAGS],
        "overlay": [(cls, flags) for _, cls, flags in cli._PIPELINE_FLAGS],
        "synth": [(SynthParams, cli._SYNTH_FLAGS)],
    }
    not_settings = {
        "analyze": {"inputs", "manifest", "out", "drop_outliers", "dump_ecg", "mask"},
        "overlay": {"image", "manifest", "out", "mask"},
        "synth": {"out", "n", "spike", "dropout", "alias_band", "params"},
    }
    positional = {"analyze": ["x.ppm"], "overlay": ["x.ppm"], "synth": []}
    for command, table in tables.items():
        args = vars(parser.parse_args([command, *positional[command]]))
        checked = set()
        for cls, flags in table:
            defaults = {f.name: f.default for f in fields(cls)}
            for flag, name, _ in flags:
                dest = flag[2:].replace("-", "_")
                assert args[dest] == defaults[name], (command, flag)
                checked.add(dest)
        assert set(args) - {"command", "func"} == checked | not_settings[command], command
    agree = parser.parse_args(["agree", "a", "b"])
    assert agree.fields == ",".join(FIELD_COLUMNS)
