"""Acceptance gate: oracle- and property-based end-to-end criteria.

Each test prints one PASS line (visible with ``pytest -s``); pytest's own
per-test verdict doubles as the pass/fail record. The shared 100-study
corpus draws E in [0.4, 1.2] m/s, A in [0.3, 1.0] m/s, HR in [50, 110] bpm,
DT in [120, 260] ms (clipped to the geometrically feasible range for the
drawn heart rate), seeds 0..99.
"""

import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from midoppler.cli import main as cli_main
from midoppler.ecg import EcgSignal, QrsParams, detect_qrs, extract_ecg
from midoppler.ingestion import save_image, save_manifest
from midoppler.measurement import measure_study, read_measurement_csv
from midoppler.ecg import QrsMarks
from midoppler.stats import bland_altman, r_squared
from midoppler.synth import Spike, SynthParams, corpus_params, generate_synthetic, write_truth_csv

from conftest import make_manifest, make_trace, measure_trace, triangle

N_STUDIES = 100
E_A_TOL = 0.02    # m/s, criterion 1
DT_TOL = 15.0     # ms, criterion 1
NOISY_E_A_TOL = 0.05
NOISY_DT_TOL = 25.0


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Generate the corpus, run the analyze CLI over it, parse everything."""
    root = tmp_path_factory.mktemp("corpus")
    studies = {}
    t_start = time.perf_counter()
    for seed in range(N_STUDIES):
        params = corpus_params(SynthParams(), seed)
        image, manifest, truth = generate_synthetic(params)
        stem = f"study_{seed:04d}"
        save_image(root / f"{stem}.ppm", image)
        save_manifest(root / f"{stem}.manifest", manifest)
        write_truth_csv(root / f"{stem}.truth.csv", truth)
        studies[seed] = SimpleNamespace(params=params, truth=truth)
    out_dir = root / "measured"
    exit_code = cli_main(["analyze", str(root), "--out", str(out_dir)])
    elapsed = time.perf_counter() - t_start
    assert exit_code == 0
    measured = {
        seed: read_measurement_csv(out_dir / f"study_{seed:04d}.measurements.csv")
        for seed in range(N_STUDIES)
    }
    return SimpleNamespace(
        root=root, out_dir=out_dir, studies=studies, measured=measured, elapsed=elapsed
    )


def test_criterion_1_synthetic_round_trip(corpus):
    checked = 0
    for seed in range(N_STUDIES):
        truth = corpus.studies[seed].truth
        rows = corpus.measured[seed]
        assert len(rows) == len(truth.beats), f"seed {seed}: beat count mismatch"
        for i, true_beat in enumerate(truth.beats, start=1):
            row = rows[i]
            assert abs(row["e_mps"] - true_beat.e_velocity) <= E_A_TOL, f"seed {seed} beat {i} E"
            assert abs(row["a_mps"] - true_beat.a_velocity) <= E_A_TOL, f"seed {seed} beat {i} A"
            assert abs(row["dt_ms"] - true_beat.dt_ms) <= DT_TOL, f"seed {seed} beat {i} DT"
            checked += 1
    assert corpus.elapsed < 60.0, f"corpus run took {corpus.elapsed:.1f} s"
    print(
        f"PASS criterion 1: {checked} beats recovered within ±{E_A_TOL} m/s and "
        f"±{DT_TOL:.0f} ms in {corpus.elapsed:.1f} s"
    )


def test_criterion_2_noise_robustness(corpus):
    within = total = 0
    for seed in range(N_STUDIES):
        params = replace(corpus.studies[seed].params, noise_sigma=0.15)
        image, manifest, truth = generate_synthetic(params)
        result = measure_study(image, manifest)  # must not abort
        assert result.n_beats == len(truth.beats), f"seed {seed}: lost beats under noise"
        for beat, true_beat in zip(result.beats, truth.beats):
            total += 1
            ok = (
                abs(beat.e_velocity - true_beat.e_velocity) <= NOISY_E_A_TOL
                and abs(beat.a_velocity - true_beat.a_velocity) <= NOISY_E_A_TOL
                and beat.dt_ms is not None
                and abs(beat.dt_ms - true_beat.dt_ms) <= NOISY_DT_TOL
            )
            within += ok
    fraction = within / total
    assert fraction >= 0.95, f"only {fraction:.1%} of noisy beats within tolerance"
    print(f"PASS criterion 2: {fraction:.1%} of {total} noisy beats within ±0.05 m/s / ±25 ms")


def test_criterion_3_artifact_spike_exclusion(corpus):
    pytest_tol_e = E_A_TOL + 0.001   # CSV rounding of the clean reference
    pytest_tol_dt = DT_TOL + 0.1
    for seed in range(N_STUDIES):
        study = corpus.studies[seed]
        params, truth = study.params, study.truth
        spikes = []
        for i, beat in enumerate(truth.beats):
            foot = beat.e_time + params.dt
            a_onset = beat.a_time - params.a_half_ms
            spikes.append(
                Spike(
                    time_ms=(foot + a_onset) / 2.0,
                    velocity=1.5 * params.e_velocity,
                    width_ms=5.0,
                )
            )
        spiked_params = replace(params, artifacts=tuple(spikes))
        image, manifest, _ = generate_synthetic(spiked_params)
        result = measure_study(image, manifest)
        clean_rows = corpus.measured[seed]
        assert result.n_beats == len(truth.beats), f"seed {seed}: spike changed beat count"
        for i, beat in enumerate(result.beats, start=1):
            assert abs(beat.e_velocity - clean_rows[i]["e_mps"]) <= pytest_tol_e
            assert abs(beat.a_velocity - clean_rows[i]["a_mps"]) <= pytest_tol_e
            assert abs(beat.dt_ms - clean_rows[i]["dt_ms"]) <= pytest_tol_dt

        # no spike may survive the width gate as a detected peak
        assert len(result.peaks) == 2 * len(truth.beats), f"seed {seed}: extra peak detected"
        for peak in result.peaks:
            assert all(abs(peak.time - s.time_ms) > 15.0 for s in spikes), (
                f"seed {seed}: peak at a spike position"
            )
    print(f"PASS criterion 3: spikes never detected, E/A/DT shifts within criterion-1 tolerances")


def test_criterion_4_high_rate_ea_discrimination():
    beats_checked = 0
    for hr in np.linspace(140.0, 180.0, 9):
        beat_ms = 60000.0 / hr
        gap = 10.0 + 45.0  # a_gap + a_half
        params = SynthParams(
            e_velocity=0.7,
            a_velocity=0.6,
            dt=105.0,
            heart_rate=float(hr),
            n_beats=3,
            e_rise_ms=50.0,
            a_half_ms=45.0,
            a_gap_ms=10.0,
            e_peak_frac=0.5 - gap / beat_ms,  # E and A evenly spaced
            seed=int(hr),
        )
        image, manifest, truth = generate_synthetic(params)
        # construction self-check: E->A spacing equals A->next-E spacing
        spacing_ea = truth.beats[0].a_time - truth.beats[0].e_time
        spacing_ae = truth.beats[1].e_time - truth.beats[0].a_time
        assert abs(spacing_ea - spacing_ae) < 2.0 * manifest.time_scale

        result = measure_study(image, manifest)
        assert result.n_beats == 3, f"HR {hr:.0f}: expected 3 beats"
        for beat, true_beat in zip(result.beats, truth.beats):
            assert abs(beat.e_velocity - true_beat.e_velocity) <= 0.05, f"HR {hr:.0f}: E mislabeled"
            assert abs(beat.a_velocity - true_beat.a_velocity) <= 0.05, f"HR {hr:.0f}: A mislabeled"
            assert abs(beat.e_time - true_beat.e_time) <= beat_ms / 4
            assert abs(beat.a_time - true_beat.a_time) <= beat_ms / 4
            beats_checked += 1
    print(f"PASS criterion 4: {beats_checked} evenly-spaced beats at HR 140-180 all labeled correctly")


def test_criterion_5_agreement_methodology(corpus, capsys):
    report = corpus.root / "agreement.csv"
    code = cli_main(["agree", str(corpus.out_dir), str(corpus.root), "--out", str(report)])
    assert code == 0
    lines = report.read_text().strip().splitlines()
    assert lines[0] == "field,n,bias,sd,loa_low,loa_high,pearson_r,r_squared"
    assert [line.split(",")[0] for line in lines[1:]] == ["E", "A", "EA", "DT"]

    bias, sd, lo, hi = bland_altman([1, 2, 3], [0, 2, 4])
    assert abs(bias - 0.0) < 1e-9
    assert abs(sd - 1.0) < 1e-9
    assert abs(lo + 2.0) < 1e-9
    assert abs(hi - 2.0) < 1e-9

    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(3, 50))
        a = rng.normal(size=n)
        b = rng.uniform(-2, 2) * a + rng.normal(scale=rng.uniform(0.05, 3.0), size=n)
        if np.ptp(a) == 0 or np.ptp(b) == 0:
            continue
        # the least-squares fit's own 1 - SS_res / SS_tot, not the r^2 that r_squared computes
        slope, intercept = np.polyfit(a, b, 1)
        ss_res = np.sum((b - (slope * a + intercept)) ** 2)
        ss_tot = np.sum((b - b.mean()) ** 2)
        assert abs(r_squared(a, b) - (1.0 - ss_res / ss_tot)) < 1e-12
    print("PASS criterion 5: Table-shaped agree report; hand stats at 1e-9; R^2 = 1 - SS_res/SS_tot of the fit at 1e-12")


def test_criterion_6_ea_ratio_scale_invariance():
    rng = np.random.default_rng(99)
    spacing = 2.5
    checked = 0
    for _ in range(50):
        e = float(rng.uniform(0.4, 1.2))
        a = float(rng.uniform(0.35, 1.0))
        e_half = float(rng.uniform(60.0, 90.0))
        a_half = float(rng.uniform(45.0, 70.0))
        times = spacing * np.arange(int(1900 / spacing))
        base = np.zeros_like(times)
        for start in (0.0, 900.0):
            base = np.maximum(base, triangle(times, start + 300.0, e_half, e))
            base = np.maximum(base, triangle(times, start + 740.0, a_half, a))
        qrs = QrsMarks(times=np.array([40.0, 940.0, 1840.0]))
        reference = [
            d.ea_ratio
            for d in measure_trace(make_trace(base, spacing_ms=spacing), qrs)
        ]
        assert len(reference) == 2 and all(r is not None for r in reference)
        for k in (0.5, 1.0, 2.0):
            scaled = [
                d.ea_ratio
                for d in measure_trace(make_trace(base * k, spacing_ms=spacing), qrs)
            ]
            for r0, r1 in zip(reference, scaled):
                assert abs(r1 - r0) <= 1e-9 * abs(r0)
                checked += 1
    print(f"PASS criterion 6: E/A ratio identical to 1e-9 over {checked} scaled measurements")


def test_criterion_7_determinism(tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for out in (dir_a, dir_b):
        assert cli_main(["synth", "--out", str(out), "--seed", "42", "--noise", "0.1"]) == 0
    for name in ("study_0042.ppm", "study_0042.manifest", "study_0042.truth.csv"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    csv_path = dir_a / "study_0042.measurements.csv"
    assert cli_main(["analyze", str(dir_a / "study_0042.ppm")]) == 0
    first = csv_path.read_bytes()
    assert cli_main(["analyze", str(dir_a / "study_0042.ppm")]) == 0
    assert csv_path.read_bytes() == first
    print("PASS criterion 7: synth and analyze outputs byte-identical across reruns")


def test_criterion_8_qrs_detector():
    # mark count and position across the heart-rate range, via rendered images
    for hr in range(40, 181, 20):
        beat_ms = 60000.0 / hr
        if hr <= 120:
            params = SynthParams(heart_rate=float(hr), dt=150.0, seed=hr)
        else:
            feasible = 0.72 * beat_ms - 160.0
            params = SynthParams(
                heart_rate=float(hr),
                dt=min(140.0, feasible - 5.0),
                e_rise_ms=50.0,
                a_half_ms=45.0,
                a_gap_ms=10.0,
                systole_frac=0.28,
                seed=hr,
            )
        image, manifest, truth = generate_synthetic(params)
        marks = detect_qrs(extract_ecg(image, manifest), QrsParams(), manifest)
        assert len(marks) == len(truth.qrs_times), f"HR {hr}: mark count"
        detected_cols = np.round(marks.times / manifest.time_scale)
        truth_cols = np.round(truth.qrs_times / manifest.time_scale)
        assert np.abs(detected_cols - truth_cols).max() <= 1, f"HR {hr}: mark position"

    # refractory and scale-invariance properties on randomized 1-D signals
    manifest = make_manifest(spectral_region=(10, 10, 709, 99), ecg_region=(10, 110, 709, 140))
    params = QrsParams()
    rng = np.random.default_rng(123)
    for _ in range(1000):
        n_spikes = int(rng.integers(0, 6))
        centers = np.sort(rng.choice(np.arange(15, 685), size=n_spikes, replace=False))
        amp = np.full(700, 18.0)
        for c in centers:
            half = int(rng.integers(3, 6))
            height = float(rng.uniform(12, 55))
            for dc in range(-half, half + 1):
                if 0 <= c + dc < 700:
                    bump = height * (1 - abs(dc) / (half + 1))
                    amp[c + dc] = max(amp[c + dc], 18.0 + bump)
        amp += rng.normal(0, 0.15, amp.shape)
        signal = EcgSignal(amp, np.ones(700, bool))
        marks = detect_qrs(signal, params, manifest)
        gaps = np.diff(marks.times)
        assert (gaps > 0).all() and (gaps >= params.refractory_ms).all()
        for k in (0.25, 4.0):
            scaled = detect_qrs(EcgSignal(amp * k, signal.valid_flags), params, manifest)
            assert np.array_equal(marks.times, scaled.times)
    print("PASS criterion 8: QRS counts/positions exact at HR 40-180; properties hold on 1000 signals")
