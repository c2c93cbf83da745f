"""End-to-end CLI behavior: exit codes, file outputs, determinism."""

import multiprocessing
import os
import re
import shutil
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from midoppler import cli
from midoppler.cli import main
from midoppler.ingestion import load_image, save_image, save_manifest
from midoppler.measurement import measure_study, read_measurement_csv, study_csv_text
from midoppler.overlay import (
    A_COLOR,
    BORDER_COLOR,
    CROSSING_COLOR,
    E_COLOR,
    SLOPE_COLOR,
    render_overlay,
)
from midoppler.segmentation import EnvelopeMask, export_mask
from midoppler.synth import SynthParams, generate_synthetic, write_truth_csv


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
    assert ": error: BrokenProcessPool: " in dead
    for stem in ("b", "c"):
        (line,) = outcome_lines(captured, tmp_path / f"{stem}.ppm")
        assert ": 3 beats" in line or ": error: " in line
    (last,) = outcome_lines(captured, tmp_path / "d.ppm")  # taken by this process first
    assert ": 3 beats" in last


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


def test_analyze_dump_ecg(tmp_path):
    make_study(tmp_path)
    assert main(["analyze", str(tmp_path), "--dump-ecg"]) == 0
    text = (tmp_path / "study_0000.ecg.csv").read_text()
    assert text.startswith("time_ms,amplitude_px,valid")


# agree -----------------------------------------------------------------------


def test_agree_file_with_itself(tmp_path, capsys):
    make_study(tmp_path)
    main(["analyze", str(tmp_path)])
    capsys.readouterr()
    csv_path = tmp_path / "study_0000.measurements.csv"
    assert main(["agree", str(csv_path), str(csv_path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "field,n,bias,sd,loa_low,loa_high,pearson_r,r_squared"
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


def test_agree_disjoint_keys_exits_one(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("beat,e_mps,a_mps,ea_ratio,dt_ms,e_time_ms,a_time_ms,flags\n1,0.8,0.5,1.6,180.0,300.0,700.0,\n")
    b.write_text("beat,e_mps,a_mps,ea_ratio,dt_ms,e_time_ms,a_time_ms,flags\n9,0.8,0.5,1.6,180.0,300.0,700.0,\n")
    assert main(["agree", str(a), str(b)]) == 1
    assert "overlap" in capsys.readouterr().err


def test_agree_per_patient_collapses_beats(tmp_path, capsys):
    make_study(tmp_path)
    main(["analyze", str(tmp_path)])
    capsys.readouterr()
    csv_path = tmp_path / "study_0000.measurements.csv"
    assert main(["agree", str(csv_path), str(csv_path), "--per-patient", "--fields", "E"]) == 1
    # a single patient cannot be correlated; two studies can
    make_study(tmp_path, stem="study_0001", e_velocity=1.1, seed=1)
    main(["analyze", str(tmp_path)])
    capsys.readouterr()
    assert main(["agree", str(tmp_path), str(tmp_path), "--per-patient", "--fields", "E"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1].split(",")[1] == "2"  # n = 2 studies


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
    from midoppler.calibration import time_to_col, velocity_to_row

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


def test_overlay_unwritable_output_exits_one(tmp_path, capsys):
    make_study(tmp_path)
    code = main([
        "overlay", str(tmp_path / "study_0000.ppm"),
        "--out", str(tmp_path / "missing-dir" / "x.ppm"),
    ])
    assert code == 1


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


def test_overlay_mask_draws_what_analyze_mask_measures(tmp_path):
    image, manifest, truth = make_study(tmp_path, noise_sigma=0.15, seed=5)
    # an envelope 8 rows lower than the rendered one, so the mask visibly matters
    cells = np.zeros_like(truth.mask)
    cells[8:] = truth.mask[:-8]
    mask_path = tmp_path / "lowered.mask.pgm"
    export_mask(mask_path, EnvelopeMask(cells))
    image_path = str(tmp_path / "study_0000.ppm")

    assert main(["analyze", image_path, "--mask", str(mask_path), "--out", str(tmp_path)]) == 0
    assert main(["overlay", image_path, "--mask", str(mask_path), "--out", str(tmp_path / "m.ppm")]) == 0
    assert main(["overlay", image_path, "--out", str(tmp_path / "plain.ppm")]) == 0

    run = measure_study(image, manifest, mask_path=mask_path)
    assert run.n_beats == 3
    csv_text = (tmp_path / "study_0000.measurements.csv").read_text()
    assert csv_text == study_csv_text(run.beats, run)
    drawn = load_image(tmp_path / "m.ppm").pixels
    assert np.array_equal(drawn, render_overlay(image, manifest, run.trace, run.details).pixels)
    assert not np.array_equal(drawn, load_image(tmp_path / "plain.ppm").pixels)


# pipeline flags --------------------------------------------------------------


@pytest.mark.parametrize("command", ["analyze", "overlay"])
@pytest.mark.parametrize(
    "flag, value",
    [("--median-window", "2"), ("--qrs-threshold-fraction", "1.5"), ("--smooth-ms", "0")],
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


# help ------------------------------------------------------------------------


def test_help_lists_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "default: 15.0" in text       # --smooth-ms
    assert "default: 0.15" in text       # --min-prominence
    assert "default: 200.0" in text      # --refractory-ms