"""End-to-end CLI behavior: exit codes, file outputs, determinism."""

import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import midoppler
from midoppler import cli
from midoppler.cli import main
from midoppler.errors import ImageFormatError
from midoppler.ingestion import KNOWN_LABELS, MITRAL_INFLOW_LABEL, load_image, load_manifest, save_image, save_manifest
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


def report_cpus(monkeypatch, count):
    """Make `analyze` see count usable CPUs: its outputs must not depend on them."""
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
        ("e_velocity = fast\n", "error: key 'e_velocity': expected a number, got 'fast'\n"),
        ("n_beats = 2.5\n", "error: key 'n_beats': expected an integer, got '2.5'\n"),
        ("width = 1e30\n", "error: width must be at most 8192, got 1000000000000000019884624838656\n"),
        (f"height = 1{'0' * 30}\n", f"error: height must be at most 8192, got 1{'0' * 30}\n"),
        ("tail_ms = -100000\n", "error: tail_ms must be >= 0, got -100000.0\n"),
        ("a_half_ms = 0\n", "error: a_half_ms must be positive, got 0.0\n"),
        ("seed = -1\n", "error: seed must be >= 0, got -1\n"),
    ],
    ids=[
        "unknown-key", "no-equals", "duplicate", "missing-file", "non-numeric", "non-integer",
        "huge-float-size", "huge-digit-size", "negative-tail", "zero-a-half", "negative-seed",
    ],
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


def test_synth_params_file_with_bom_and_crlf_writes_what_the_plain_one_writes(tmp_path):
    text = "e_velocity = 1.0\nn_beats = 2\nlabel = LVOT\n"
    written = {}
    for name, data in (("plain", text.encode()), ("windows", b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode())):
        (tmp_path / f"{name}.txt").write_bytes(data)
        out = tmp_path / name
        assert main(["synth", "--out", str(out), "--params", str(tmp_path / f"{name}.txt")]) == 0
        written[name] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert written["windows"] == written["plain"]
    assert b"label = LVOT\n" in written["plain"]["study_0000.manifest"]


def test_synth_params_file_seed_written_as_a_whole_number(tmp_path):
    (tmp_path / "params.txt").write_text("seed = 1.0\n")
    out = tmp_path / "out"
    assert main(["synth", "--out", str(out), "--params", str(tmp_path / "params.txt")]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["study_0001.manifest", "study_0001.ppm", "study_0001.truth.csv"]


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
    "flag, value, message",
    [
        ("--spike", "1,2", "--spike '1,2': expected time_ms,velocity,width_ms"),
        ("--spike", "3x0,1.2,8", "--spike '3x0,1.2,8': expected time_ms,velocity,width_ms"),
        ("--spike", "1,2,3,4", "--spike '1,2,3,4': expected time_ms,velocity,width_ms"),
        ("--dropout", "1200", "--dropout '1200': expected time_ms,width_ms"),
    ],
)
def test_synth_malformed_artifact_names_the_flag_and_its_form(tmp_path, capsys, flag, value, message):
    assert main(["synth", "--out", str(tmp_path / "out"), flag, value]) == 1
    assert capsys.readouterr().err == f"error: bad artifact or parameter syntax: {message}\n"


@pytest.mark.parametrize(
    "flags, params_text, message",
    [
        # a flag and a params file parse a float alike and refuse the value
        # before SynthParams sees it: a flag's is argparse's usage error
        (["--e", "nan"], None, "midoppler synth: error: argument --e: invalid float value: 'nan'"),
        (["--a", "nan"], None, "midoppler synth: error: argument --a: invalid float value: 'nan'"),
        (["--dt", "inf"], None, "midoppler synth: error: argument --dt: invalid float value: 'inf'"),
        ([], "e_rise_ms = nan\n", "error: key 'e_rise_ms': expected a finite number, got 'nan'"),
        ([], "a_half_ms = nan\n", "error: key 'a_half_ms': expected a finite number, got 'nan'"),
        ([], "lead_in_ms = inf\n", "error: key 'lead_in_ms': expected a finite number, got 'inf'"),
        ([], "e_peak_frac = nan\n", "error: key 'e_peak_frac': expected a finite number, got 'nan'"),
    ],
    ids=["e-flag", "a-flag", "dt-flag", "e-rise-file", "a-half-file", "lead-in-file", "e-peak-frac-file"],
)
def test_synth_non_finite_parameter_is_one_error_line(tmp_path, capsys, flags, params_text, message):
    if params_text is not None:
        (tmp_path / "params.txt").write_text(params_text)
        flags = ["--params", str(tmp_path / "params.txt")]
    out = tmp_path / "out"
    try:
        code = main(["synth", "--out", str(out), *flags])
    except SystemExit as exc:  # a usage error
        code = exc.code
    assert code == (1 if params_text else 2)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.endswith(f"{message}\n")
    assert [line for line in captured.err.splitlines() if "error: " in line] == [message]
    assert not list(out.glob("*.ppm"))


@pytest.mark.parametrize("flag, key, text", [("--seed", "seed", "1.0"), ("--beats", "n_beats", "2.0")])
def test_synth_flag_parses_its_value_as_the_params_file_does(tmp_path, flag, key, text):
    (tmp_path / "params.txt").write_text(f"{key} = {text}\n")
    assert main(["synth", "--out", str(tmp_path / "flag"), flag, text]) == 0
    assert main(["synth", "--out", str(tmp_path / "file"), "--params", str(tmp_path / "params.txt")]) == 0
    written = {
        side: {p.name: p.read_bytes() for p in (tmp_path / side).iterdir()} for side in ("flag", "file")
    }
    assert written["flag"] == written["file"]


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


@pytest.mark.parametrize(
    "label",
    ["mitral_inflow\nbaseline_row = 3", " mitral_inflow "],
    ids=["second-manifest-line", "padded"],
)
def test_synth_label_that_does_not_read_back_is_one_error_line(tmp_path, capsys, label):
    out = tmp_path / "out"
    assert main(["synth", "--out", str(out), "--label", label]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: label must be one line without leading or trailing whitespace, got {label!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("label", ["\udcff", "LV\ud800OT"], ids=["argv-non-utf8-byte", "lone-surrogate"])
def test_synth_label_that_utf8_cannot_hold_is_one_error_line(tmp_path, capsys, label):
    out = tmp_path / "out"
    assert main(["synth", "--out", str(out), "--label", label]) == 1
    assert capsys.readouterr() == ("", f"error: label must be UTF-8 text, got {label!r}\n")
    assert not out.exists()


def test_saved_manifest_escapes_a_label_utf8_cannot_hold(tmp_path):
    # the file stays UTF-8 and loads, and the label does not read back as itself
    path = tmp_path / "study.manifest"
    save_manifest(path, replace(generate_synthetic(SynthParams())[1], label="\ud800"))
    assert b"label = \\ud800\n" in path.read_bytes()
    assert load_manifest(path).label == "\\ud800"


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


def test_synth_study_count_written_as_a_whole_number(tmp_path):
    # --n follows the one integer rule, as --seed and a params file's integers do
    out = tmp_path / "out"
    assert main(["synth", "--out", str(out), "--n", "2.0", "--seed", "3.0"]) == 0
    assert sorted(p.name for p in out.glob("*.ppm")) == ["study_0003.ppm", "study_0004.ppm"]


@pytest.mark.parametrize("count", ["2.5", "abc", "nan"])
def test_synth_study_count_that_is_no_whole_number_is_a_usage_error(tmp_path, capsys, count):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(out), f"--n={count}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument --n: invalid int value: {count!r}\n")
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


def run_fresh_interpreter(script, environ=os.environ):
    """Run script in a new python process, with environ, that imports this checkout's package."""
    src = str(Path(midoppler.__file__).parents[1])
    env = {**environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, environ.get("PYTHONPATH")]))}
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


@pytest.mark.parametrize(
    "chosen, threads",
    [({}, "1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3"), ({"OMP_NUM_THREADS": "2"}, "None")],
    ids=["unset", "openblas-set", "omp-set"],
)
def test_cli_pins_openblas_to_one_thread_unless_the_user_chose(chosen, threads):
    # starting OpenBLAS's thread pool costs a fresh process tens of ms, and
    # no matrix product here is large enough to use it
    environ = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    result = run_fresh_interpreter(
        "import os, midoppler.cli\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 1)\n",
        environ={**environ, **chosen},
    )
    assert result.returncode == 0, result.stderr
    pinned, running = result.stdout.split()
    assert pinned == threads
    if not chosen:  # numpy loaded after the pin: no BLAS thread besides this one
        assert running == "1"


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


@pytest.mark.parametrize(
    "line, message",
    [
        ("time_scale = nan", "key 'time_scale': expected a finite number, got 'nan'"),
        ("velocity_scale = 0", "velocity_scale must be finite and positive, got 0.0"),
        ("spectral_region = 955, 60, 60, 620", "spectral_region corners are not ordered: (955, 60, 60, 620)"),
        ("ecg_region = -1, 650, 955, 745", "ecg_region has negative coordinates: (-1, 650, 955, 745)"),
        ("baseline_row = 621", "baseline_row 621 outside spectral_region rows [60, 620]"),
        ("ecg_color = 0, 256, 0", "ecg_color channel out of range: (0, 256, 0)"),
        ("ecg_color_tolerance = 255", "ecg_color_tolerance must be in [0, 255), got 255"),
        ("spectral_region = 60, 60, 1016, 620", "spectral_region (60, 60, 1016, 620) exceeds image bounds 1016x758"),
        ("ecg_region = 60, 650, 955, 758", "ecg_region (60, 650, 955, 758) exceeds image bounds 1016x758"),
    ],
    ids=[
        "non-finite-scale", "zero-scale", "unordered", "negative", "baseline-outside",
        "channel-256", "tolerance-255", "spectral-past-edge", "ecg-past-edge",
    ],
)
def test_analyze_manifest_invariant_is_one_error_line(tmp_path, capsys, line, message):
    make_study(tmp_path)  # 1016x758, the regions and baseline the lines above edit
    path = tmp_path / "study_0000.manifest"
    key = line.split(" = ")[0]
    text = re.sub(rf"(?m)^{key} = .*$", line, path.read_text())
    assert text != path.read_text()
    path.write_text(text)
    image_path = tmp_path / "study_0000.ppm"
    assert main(["analyze", str(image_path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"{image_path}: error: {message}\n")
    assert not (tmp_path / "study_0000.measurements.csv").exists()


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


def test_analyze_batch_holds_one_study_at_a_time(tmp_path, capsys):
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    for k in range(2):
        make_study(inputs, stem=f"study_{k:04d}", seed=k)

    def peak(path):
        main(["analyze", str(path), "--out", str(out)])  # warm: first-call caches are not the study's
        tracemalloc.start()
        try:
            assert main(["analyze", str(path), "--out", str(out)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    single = peak(inputs / "study_0000.ppm")
    batch = peak(inputs)
    capsys.readouterr()
    # the first study's image and StudyRun (its mask alone is 0.5 MB) are gone before the second is measured
    assert batch - single < 100_000


def test_analyze_isolates_unexpected_exception(tmp_path, capsys, monkeypatch):
    make_study(tmp_path, stem="a_good")
    boom, _, _ = make_study(tmp_path, stem="b_boom", heart_rate=70.0)
    make_study(tmp_path, stem="c_good")
    real_measure_study = cli.measure_study

    # keyed on the image, not on a call count: the fault stays with b_boom
    # whatever order the inputs are measured in
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
    # on two CPUs too, a batch forks nothing: each input is routed (header,
    # manifest, label), and measured only if accepted, before the next one
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    studies = 9
    for k in range(studies):
        make_study(inputs, stem=f"m{k}", noise_sigma=0.15, heart_rate=55.0 + 6.0 * k, seed=k)
    make_study(inputs, stem="r_lvot", label="LVOT")
    make_study(inputs, stem="u_unknown", label="spectral_unknown")
    make_study(inputs, stem="t_truncated")
    truncated = inputs / "t_truncated.ppm"
    truncated.write_bytes(truncated.read_bytes()[:1000])
    images = sorted(inputs.glob("*.ppm"))
    calls = []  # (function, input stem) of each header, manifest and pixel read, in call order

    def spy(name):
        real = getattr(cli, name)

        def call(path, *args, **kwargs):
            calls.append((name, Path(path).stem))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(cli, name, call)

    for name in ("read_image_size", "load_manifest", "load_image"):
        spy(name)

    def fork():
        raise AssertionError("analyze forked")

    monkeypatch.setattr(os, "fork", fork, raising=False)
    report_cpus(monkeypatch, 2)
    out = tmp_path / "out"

    def run(argvs):
        codes = [main(argv) for argv in argvs]
        captured = capsys.readouterr()
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        shutil.rmtree(out)
        return codes, captured.out, captured.err, files

    batch_codes, *batch = run([["analyze", str(inputs), "--dump-ecg", "--out", str(out)]])
    position = {image.stem: k for k, image in enumerate(images)}
    read = [position[stem] for _, stem in calls]
    assert read == sorted(read)  # an input's reads end before the next input's begin
    assert {stem for name, stem in calls if name == "read_image_size"} == set(position)
    assert [stem for name, stem in calls if name == "load_image"] == [f"m{k}" for k in range(studies)]
    single_codes, *singles = run(
        [["analyze", str(image), "--dump-ecg", "--out", str(out)] for image in images]
    )
    assert batch == singles
    assert sorted(single_codes) == [0] * studies + [1, 1, 2]
    assert batch_codes == [1]
    assert sorted(batch[2]) == sorted(
        f"m{k}.{kind}.csv" for k in range(studies) for kind in ("measurements", "ecg")
    )


def make_exam(directory, studies):
    """An echo exam as analyze sees it: studies mitral-inflow images, interleaved
    by name with six rejected labels, an unknown label and a truncated PPM whose
    manifest says mitral inflow. Returns the images to measure, in input order."""
    others = [label for label in KNOWN_LABELS if label != MITRAL_INFLOW_LABEL][:6] + ["spectral_unknown", "truncated"]
    for k, label in enumerate(others):
        make_study(directory, stem=f"{2 * k + 1:02d}_{label}", label=MITRAL_INFLOW_LABEL if label == "truncated" else label)
    truncated = directory / f"{2 * len(others) - 1:02d}_truncated.ppm"
    truncated.write_bytes(truncated.read_bytes()[:1000])
    stems = [f"{2 * k:02d}_mitral" for k in range(studies)]
    for k, stem in enumerate(stems):
        make_study(directory, stem=stem, noise_sigma=0.15, heart_rate=55.0 + 6.0 * k, seed=k)
    return [directory / f"{stem}.ppm" for stem in stems]


# "below" and "at" are one short of and exactly the six studies at which a
# batch on two CPUs used to fork a worker; no batch size forks now
@pytest.mark.parametrize("studies", [2, 5, 6], ids=["exam", "below", "at"])
def test_exam_forks_past_the_break_even_and_routes_in_this_process(tmp_path, capsys, monkeypatch, studies):
    # an exam of any size, on two CPUs, is routed and measured in this
    # process: only its mitral-inflow pixels are read, and its outputs are
    # those of the same batch on one CPU
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    mitral = make_exam(inputs, studies)
    reads = []

    def spy_load_image(path):
        reads.append(Path(path).name)
        return load_image(path)

    def fork():
        raise AssertionError("analyze forked")

    monkeypatch.setattr(os, "fork", fork, raising=False)
    argv = ["analyze", str(inputs), "--dump-ecg", "--out", str(out)]

    def batch(cpus):
        report_cpus(monkeypatch, cpus)
        code = main(argv)
        captured = capsys.readouterr()
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        shutil.rmtree(out)
        return code, captured.out, captured.err, files

    monkeypatch.setattr(cli, "load_image", spy_load_image)
    two = batch(2)
    assert reads == [image.name for image in mitral]
    assert two == batch(1)
    code, stdout, stderr, files = two
    assert code == 1 and stdout.count(" beats ") == studies and stderr.count(": error: ") == 2
    assert sorted(files) == sorted(f"{image.stem}.{kind}.csv" for image in mitral for kind in ("measurements", "ecg"))


@pytest.mark.parametrize("cpus", [1, 2])
def test_analyze_reads_the_pixels_of_mitral_inflow_studies_only(tmp_path, capsys, monkeypatch, cpus):
    labels = {"a_lvot": "LVOT", "c_pulm_vein": "pulm_vein", "e_truncated": "LVOT"}
    labels.update({f"b_mitral{k}": MITRAL_INFLOW_LABEL for k in range(3)})
    for k, (stem, label) in enumerate(labels.items()):
        make_study(tmp_path, stem=stem, label=label, seed=k)
    truncated = tmp_path / "e_truncated.ppm"
    truncated.write_bytes(truncated.read_bytes()[:1_000_000])
    with pytest.raises(ImageFormatError) as truncation:
        load_image(truncated)
    reads = []
    real_load_image = cli.load_image

    def spy_load_image(path):
        reads.append(Path(path).name)
        return real_load_image(path)

    monkeypatch.setattr(cli, "load_image", spy_load_image)
    report_cpus(monkeypatch, cpus)
    assert main(["analyze", str(tmp_path)]) == 1
    assert reads == [f"b_mitral{k}.ppm" for k in range(3)]
    captured = capsys.readouterr()
    for stem in ("a_lvot", "c_pulm_vein"):
        assert outcome_lines(captured, tmp_path / f"{stem}.ppm") == [
            f"{tmp_path / stem}.ppm: rejected (label={labels[stem]})"
        ]
    assert "truncated pixel data, expected " in str(truncation.value)
    assert outcome_lines(captured, truncated) == [f"{truncated}: error: {truncation.value}"]


def test_analyze_shared_output_keeps_serial_order(tmp_path, capsys, monkeypatch):
    # two inputs of a name write the same files: the batch measures them in
    # input order, and the second one's files stay
    first_dir, second_dir, out = tmp_path / "first", tmp_path / "second", tmp_path / "out"
    first_dir.mkdir()
    second_dir.mkdir()
    stems = [f"study_{k:04d}" for k in range(3)]
    first = [make_study(first_dir, stem=stem, heart_rate=60.0 + 5.0 * k)[0] for k, stem in enumerate(stems)]
    for k, stem in enumerate(stems):
        make_study(second_dir, stem=stem, heart_rate=80.0 + 5.0 * k)
    assert main(["analyze", str(second_dir)]) == 0
    expected = {stem: (second_dir / f"{stem}.measurements.csv").read_bytes() for stem in stems}
    real_measure_study = cli.measure_study

    def slow_first(image, manifest, **kwargs):
        if np.array_equal(image.pixels, first[0].pixels):
            time.sleep(0.5)  # run in parallel, the first input would write last
        return real_measure_study(image, manifest, **kwargs)

    monkeypatch.setattr(cli, "measure_study", slow_first)
    report_cpus(monkeypatch, 2)
    assert main(["analyze", str(first_dir), str(second_dir), "--out", str(out)]) == 0
    assert {stem: (out / f"{stem}.measurements.csv").read_bytes() for stem in stems} == expected


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


@pytest.mark.parametrize("command", ["analyze", "overlay"])
def test_mask_file_is_named_as_typed(tmp_path, capsys, monkeypatch, command):
    make_study(tmp_path)
    (tmp_path / "masks").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main([command, "study_0000.ppm", "--mask", "./masks//missing.mask.pgm"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "study_0000.ppm: error: mask-import: ./masks//missing.mask.pgm: cannot read file: "
        "[Errno 2] No such file or directory: './masks//missing.mask.pgm'\n"
    )


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
    maskless = [f"c_maskless{k}" for k in range(2)]
    for k, stem in enumerate(maskless):
        make_study(inputs, stem=stem, seed=2 + k)
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
    for stem in maskless:
        [line] = outcome_lines(batch, inputs / f"{stem}.ppm")
        assert line.startswith(f"{inputs / stem}.ppm: error: mask-import: {masks / stem}.mask.pgm: cannot read file: ")
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


def test_analyze_batch_names_the_path_of_each_unreadable_file(tmp_path, capsys):
    # a directory where a file should be, a non-UTF-8 manifest and a missing
    # one each end in one error line that names the path, and the batch goes on
    inputs, masks, out = tmp_path / "inputs", tmp_path / "masks", tmp_path / "out"
    inputs.mkdir()
    masks.mkdir()
    _, _, truth = make_study(inputs, stem="a_good")
    export_mask(masks / "a_good.mask.pgm", EnvelopeMask(truth.mask))
    odd = inputs / "b_odd.ppm"
    odd.mkdir()
    make_study(inputs, stem="c_manifest_dir", seed=2)
    manifest_dir = inputs / "c_manifest_dir.manifest"
    manifest_dir.unlink()
    manifest_dir.mkdir()
    make_study(inputs, stem="d_mask_dir", seed=3)
    mask_dir = masks / "d_mask_dir.mask.pgm"
    mask_dir.mkdir()
    make_study(inputs, stem="e_bytes", seed=4)
    non_utf8 = inputs / "e_bytes.manifest"
    non_utf8.write_bytes(non_utf8.read_bytes() + b"\xff")
    make_study(inputs, stem="f_missing", seed=5)
    missing = inputs / "f_missing.manifest"
    missing.unlink()
    assert main(["analyze", str(inputs), "--mask", str(masks), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith(f"{inputs / 'a_good.ppm'}: 3 beats ") and captured.out.count("\n") == 1
    is_a_directory, no_such_file = "[Errno 21] Is a directory", "[Errno 2] No such file or directory"
    assert captured.err.splitlines() == [
        f"{odd}: error: {odd}: cannot read file: {is_a_directory}: {str(odd)!r}",
        f"{inputs / 'c_manifest_dir.ppm'}: error: {manifest_dir}: cannot read manifest: {is_a_directory}: {str(manifest_dir)!r}",
        f"{inputs / 'd_mask_dir.ppm'}: error: mask-import: {mask_dir}: cannot read file: {is_a_directory}: {str(mask_dir)!r}",
        f"{inputs / 'e_bytes.ppm'}: error: {non_utf8}: cannot read manifest: 'utf-8' codec can't decode byte 0xff"
        f" in position {non_utf8.stat().st_size - 1}: invalid start byte",
        f"{inputs / 'f_missing.ppm'}: error: {missing}: cannot read manifest: {no_such_file}: {str(missing)!r}",
    ]
    assert sorted(path.name for path in out.iterdir()) == ["a_good.measurements.csv"]


def test_synth_params_directory_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["synth", "--out", str(out), "--params", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {tmp_path}: cannot read params file: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
    assert not out.exists()


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


@pytest.mark.parametrize("line_end", [b"\n", b"\r\n"], ids=["lf", "crlf"])
def test_agree_reads_a_truth_csv_with_a_bom_like_its_plain_copy(tmp_path, capsys, line_end):
    # Excel's "CSV UTF-8" and Windows editors start the file with a byte-order mark
    code, captured = agree_measured_vs_truth(tmp_path, capsys, ("study_0000", "study_0001"))
    assert code == 0
    bom_dir = tmp_path / "bom"
    bom_dir.mkdir()
    for plain in (tmp_path / "truth").glob("*.truth.csv"):
        copy = bom_dir / plain.name
        copy.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes().replace(b"\n", line_end))
        assert read_measurement_csv(copy) == read_measurement_csv(plain)
    assert main(["agree", str(tmp_path / "measured"), str(bom_dir), "--fields", "E"]) == 0
    assert capsys.readouterr() == captured


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
    "flag, value, field, shown",
    [
        pytest.param(flag, value, field, shown, id=f"{flag}-{value}")
        for flag, value, field, shown in [
            ("--median-window", "2", "median_window", "2"),
            ("--median-window", str(MAX_MEDIAN_WINDOW + 2), "median_window", str(MAX_MEDIAN_WINDOW + 2)),
            ("--smooth-ms", "0", "smooth_window_ms", "0.0"),
            ("--open-radius", "-1", "open_radius", "-1"),
            ("--min-component-area", "-1", "min_component_area", "-1"),
            ("--min-prominence", "0", "min_prominence", "0.0"),
            ("--min-width-ms", "0", "min_width_ms", "0.0"),
            ("--refractory-ms", "0", "refractory_ms", "0.0"),
        ]
    ],
)
def test_rejected_pipeline_value_is_a_usage_error(tmp_path, capsys, command, flag, value, field, shown):
    make_study(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, str(tmp_path / "study_0000.ppm"), flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # the message names the field the flag sets and the value it was given
    assert re.search(rf"^midoppler {command}: error: argument {flag}: {field} must .*, got {re.escape(shown)}$", err, re.M)
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


@pytest.mark.skipif(not on_glibc(), reason="glibc heap only")
def test_repeated_analyze_batches_keep_their_heap_pages(tmp_path):
    # A study frees arrays of a few MB; unless cli.main keeps glibc's heap,
    # the freed heap top goes back to the OS and every study of the next
    # batch faults about 1,400 pages back in.
    studies = 5
    for seed in range(studies):
        make_study(tmp_path, stem=f"study_{seed:04d}", seed=seed, noise_sigma=0.15)
    result = run_fresh_interpreter(
        "import contextlib, io, resource, midoppler.cli\n"
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


@pytest.mark.parametrize("command", ["analyze", "overlay"])
def test_pipeline_parameters_are_these_flags(capsys, command):
    # each pipeline flag is a setting that tests and benchmarks must cover:
    # a flag added to or dropped from this list is a decision
    with pytest.raises(SystemExit):
        main([command, "--help"])
    section = capsys.readouterr().out.split("pipeline parameters:\n")[1].split("\n\n")[0]
    assert re.findall(r"^  (--[\w-]+)", section, re.MULTILINE) == [
        "--median-window", "--open-radius", "--min-component-area", "--smooth-ms",
        "--min-prominence", "--min-width-ms", "--refractory-ms", "--mask",
    ]


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
