"""End-to-end CLI behavior: exit codes, file outputs, determinism."""

import re

import numpy as np
import pytest

from midoppler import cli
from midoppler.cli import main
from midoppler.ingestion import load_image, save_image, save_manifest
from midoppler.measurement import read_measurement_csv
from midoppler.overlay import A_COLOR, BORDER_COLOR, CROSSING_COLOR, E_COLOR, SLOPE_COLOR
from midoppler.synth import SynthParams, generate_synthetic, write_truth_csv


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
    for stem in ("a_good", "b_boom", "c_good"):
        make_study(tmp_path, stem=stem)
    real_measure_study = cli.measure_study
    seen = []

    def flaky_measure_study(image, manifest, **kwargs):
        seen.append(image)
        if len(seen) == 2:
            raise RuntimeError("injected fault")
        return real_measure_study(image, manifest, **kwargs)

    monkeypatch.setattr(cli, "measure_study", flaky_measure_study)
    code = main(["analyze", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert len(seen) == 3
    assert "b_boom.ppm: error: RuntimeError: injected fault" in captured.err
    assert "Traceback" in captured.err
    assert not (tmp_path / "b_boom.measurements.csv").exists()
    for stem in ("a_good", "c_good"):
        assert sorted(read_measurement_csv(tmp_path / f"{stem}.measurements.csv")) == [1, 2, 3]
        assert f"{stem}.ppm: 3 beats" in captured.out


def test_analyze_no_inputs_is_nothing_to_do(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    assert main(["analyze", str(tmp_path / "empty")]) == 2


def test_analyze_with_imported_mask(tmp_path):
    from midoppler.segmentation import EnvelopeMask, export_mask

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


# help ------------------------------------------------------------------------


def test_help_lists_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "default: 15.0" in text       # --smooth-ms
    assert "default: 0.15" in text       # --min-prominence
    assert "default: 200.0" in text      # --refractory-ms