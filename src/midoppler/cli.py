"""Command-line front end: analyze, synth, agree, overlay.

Exit codes: 0 when at least one study produced output, 2 when every input
was rejected or there was nothing to do, 1 when any error occurred.
"""

import argparse
import os
import sys
import traceback
from collections import Counter
from dataclasses import fields as dataclass_fields, replace
from functools import partial
from pathlib import Path

from .ecg import QrsParams, ecg_csv_rows
from .errors import GenerationError, MidopplerError, StatsError
from .ingestion import (
    atomic_write_text,
    load_image,
    load_manifest,
    route_image,
    save_image,
    save_manifest,
)
from .measurement import (
    DtParams,
    PeakParams,
    StudyMeans,
    measure_study,
    read_measurement_csv,
    write_study_csv,
)
from .overlay import render_overlay
from .segmentation import THRESHOLD_MODES, SegmentationParams
from .stats import FIELD_COLUMNS, agreement_csv_text, compare
from .synth import AliasBand, Dropout, Spike, SynthParams, generate_synthetic, write_truth_csv

_SYNTH_FILE_KEYS = {
    f.name: f.type for f in dataclass_fields(SynthParams) if f.name != "artifacts"
}


# (measure_study keyword, param dataclass, ((flag, field, help), ...)) in
# --help order; each flag takes its type and default from the dataclass field.
_PIPELINE_FLAGS = (
    ("seg_params", SegmentationParams, (
        ("--median-window", "median_window", "per-column median window (odd)"),
        ("--threshold-mode", "threshold_mode", None),
        ("--fixed-threshold", "fixed_threshold", "threshold for fixed mode"),
        ("--open-radius", "open_radius", "vertical opening radius"),
        ("--min-component-area", "min_component_area", "px^2; smaller components are dropped"),
    )),
    ("peak_params", PeakParams, (
        ("--smooth-ms", "smooth_window_ms", "trace smoothing window"),
        ("--min-prominence", "min_prominence", "m/s; flow peak prominence gate"),
        ("--min-width-ms", "min_width_ms", "flow peak width gate at half prominence"),
    )),
    ("dt_params", DtParams, (
        ("--curvature-threshold", "curvature_threshold", "m/s per ms^2; DT slope-change gate"),
        ("--skip-ms", "skip_ms", "descent skipped right after the E peak"),
    )),
    ("qrs_params", QrsParams, (
        ("--refractory-ms", "refractory_ms", "minimum QRS spacing"),
        ("--qrs-threshold-fraction", "threshold_fraction", "fraction of the 98th-percentile derivative energy"),
    )),
)


def _checked_type(cls, field):
    """argparse type of one pipeline flag: the field's type, then cls's own checks.

    A value the dataclass rejects becomes a usage error naming the flag.
    """
    def convert(text):
        value = field.type(text)
        try:
            cls(**{field.name: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    convert.__name__ = field.type.__name__  # argparse's "invalid int value" names it
    return convert


def _add_pipeline_flags(parser):
    group = parser.add_argument_group("pipeline parameters")
    for _, cls, flags in _PIPELINE_FLAGS:
        fields = {f.name: f for f in dataclass_fields(cls)}
        for flag, name, help_text in flags:
            field = fields[name]
            group.add_argument(
                flag,
                type=_checked_type(cls, field),
                default=field.default,
                choices=THRESHOLD_MODES if name == "threshold_mode" else None,
                help=help_text,
            )
    group.add_argument("--mask", default=None, help="import an external envelope mask (single input only)")


def _pipeline_params(args) -> dict:
    """measure_study's param keywords, built from the pipeline flags."""
    return {
        keyword: cls(**{name: getattr(args, flag[2:].replace("-", "_")) for flag, name, _ in flags})
        for keyword, cls, flags in _PIPELINE_FLAGS
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="midoppler",
        description="Automated mitral-inflow Doppler measurement",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser(
        "analyze",
        help="measure studies and write per-study CSVs",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    pa.add_argument("inputs", nargs="+", help="image files or directories of .ppm images")
    pa.add_argument("--manifest", default=None, help="manifest path (single input only; default <image-stem>.manifest)")
    pa.add_argument("--out", default=None, help="output directory (default: alongside each image)")
    pa.add_argument("--drop-outliers", action="store_true", help="drop beats >2 MADs from the per-field median before averaging")
    pa.add_argument("--dump-ecg", action="store_true", help="also write <stem>.ecg.csv with the recovered ECG signal")
    _add_pipeline_flags(pa)
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser(
        "synth",
        help="generate synthetic studies with ground truth",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    ps.add_argument("--out", default=".", help="output directory")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--n", type=int, default=1, help="number of studies (seeds seed..seed+n-1)")
    ps.add_argument("--e", type=float, default=0.8, help="E velocity, m/s")
    ps.add_argument("--a", type=float, default=0.5, help="A velocity, m/s (0 = fused)")
    ps.add_argument("--dt", type=float, default=180.0, help="deceleration time, ms")
    ps.add_argument("--hr", type=float, default=60.0, help="heart rate, bpm")
    ps.add_argument("--beats", type=int, default=3, help="number of cardiac cycles")
    ps.add_argument("--noise", type=float, default=0.0, help="speckle intensity, 0..1")
    ps.add_argument("--knee-fraction", type=float, default=0.0, help="fraction of the E descent after the slope change")
    ps.add_argument("--label", default="mitral_inflow", help="manifest label")
    ps.add_argument("--spike", action="append", default=[], metavar="T,V,W", help="bright spike artifact time_ms,velocity,width_ms (repeatable)")
    ps.add_argument("--dropout", action="append", default=[], metavar="T,W", help="signal dropout time_ms,width_ms (repeatable)")
    ps.add_argument("--alias-band", action="store_true", help="add a bright band below the baseline")
    ps.add_argument("--params", default=None, help="key = value file of SynthParams fields; overrides the numeric flags")
    ps.set_defaults(func=cmd_synth)

    pg = sub.add_parser(
        "agree",
        help="agreement report between two measurement CSV sets",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    pg.add_argument("series_a", help="CSV file or directory")
    pg.add_argument("series_b", help="CSV file or directory")
    pg.add_argument("--out", default=None, help="output CSV (default: stdout)")
    pg.add_argument("--fields", default="E,A,EA,DT", help="comma-separated subset of E,A,EA,DT")
    pg.add_argument("--per-patient", action="store_true", help="average each study before pairing")
    pg.set_defaults(func=cmd_agree)

    po = sub.add_parser(
        "overlay",
        help="write an annotated copy of a study image",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    po.add_argument("image", help="study image (.ppm)")
    po.add_argument("--manifest", default=None, help="default <image-stem>.manifest")
    po.add_argument("--out", default=None, help="default <image-stem>.overlay.ppm")
    _add_pipeline_flags(po)
    po.set_defaults(func=cmd_overlay)

    return parser


# ---------------------------------------------------------------------------
# analyze


def _expand_inputs(inputs):
    images = []
    for raw in inputs:
        path = Path(raw)
        if path.is_dir():
            images.extend(sorted(path.glob("*.ppm")))
        else:
            images.append(path)
    return images


def _load_study(image_path, manifest_arg):
    """The image and its manifest (by default <image-stem>.manifest)."""
    manifest_path = Path(manifest_arg) if manifest_arg else image_path.with_suffix(".manifest")
    image = load_image(image_path)
    return image, load_manifest(manifest_path, image_size=(image.width, image.height))


def cmd_analyze(args) -> int:
    images = _expand_inputs(args.inputs)
    if not images:
        print("no input images found", file=sys.stderr)
        return 2
    if args.manifest and len(images) > 1:
        print("--manifest requires a single input image", file=sys.stderr)
        return 1
    if args.mask and len(images) > 1:
        print("--mask requires a single input image", file=sys.stderr)
        return 1

    outcomes = Counter()
    for outcome, out_text, err_text in _analyze_all(images, args, _pipeline_params(args)):
        sys.stdout.write(out_text)
        sys.stderr.write(err_text)
        outcomes[outcome] += 1
    if outcomes["error"]:
        return 1
    return 0 if outcomes["measured"] else 2


def _analyze_all(images, args, params):
    """(outcome, stdout text, stderr text) of each input, in input order.

    Two or more inputs run on one process per usable CPU, at most one per
    input: this process and forked workers. A single input, a single CPU,
    a platform without fork or sched_getaffinity, or inputs that would
    write the same output files run in-process only.
    """
    analyze = partial(_analyze_one, args=args, params=params)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(images))
    distinct_outputs = len({_out_dir(p, args) / p.stem for p in images}) == len(images)
    if workers > 1 and distinct_outputs:
        import multiprocessing  # imported here, so that `import midoppler.cli` stays lean

        if "fork" in multiprocessing.get_all_start_methods():
            # fork, not spawn: workers inherit the imported numpy/scipy, which
            # a fresh interpreter would take about a second to import again.
            yield from _pooled(analyze, images, workers, multiprocessing.get_context("fork"))
            return
    yield from map(analyze, images)


def _pooled(analyze, images, workers, context):
    """Run the batch on workers - 1 forked workers and on this process.

    The workers take inputs from the front of the batch and this process
    takes them from the back, each input claimed first in a shared array so
    that it runs once; finished inputs are yielded in input order between
    this process's own. Fork write-protects every page of this process, and
    an idle wait lets the workers evict its caches: staying busy until the
    two ends meet takes those costs inside the batch, instead of in the
    caller's next study.
    """
    from concurrent.futures import ProcessPoolExecutor

    def collect(index):
        try:
            return futures[index].result()
        except Exception as exc:  # e.g. BrokenProcessPool: a worker died
            return "error", "", f"{images[index]}: error: {type(exc).__name__}: {exc}\n"

    claims = context.Array("b", len(images))
    pool = ProcessPoolExecutor(
        workers - 1, mp_context=context, initializer=_hold_claims, initargs=(claims,)
    )
    try:
        futures = [
            pool.submit(_analyze_claimed, index, analyze, image_path)
            for index, image_path in enumerate(images)
        ]
        here, done, back = {}, 0, len(images)
        while done < back:
            if futures[done].done():
                yield collect(done)
                done += 1
            elif _claim(claims, back - 1):
                back -= 1
                here[back] = analyze(images[back])
            else:  # a worker has it, and the workers have all before it
                break
        for index in range(done, len(images)):
            yield here[index] if index in here else collect(index)
    finally:
        pool.shutdown(cancel_futures=True)


_worker_claims = None  # in a forked worker: the claims of its batch


def _hold_claims(claims):
    global _worker_claims
    _worker_claims = claims


def _analyze_claimed(index, analyze, image_path):
    """A worker's run of one input; None when another process claimed it."""
    return analyze(image_path) if _claim(_worker_claims, index) else None


def _claim(claims, index) -> bool:
    """Claim input index for the calling process; False if it was taken."""
    with claims.get_lock():
        taken = claims[index]
        claims[index] = 1
    return not taken


def _out_dir(image_path, args) -> Path:
    return Path(args.out) if args.out else image_path.parent


def _analyze_one(image_path, args, params):
    """One input of `analyze`: (outcome, stdout text, stderr text).

    The outcome is "measured", "rejected" or "error". Writes the output
    files and prints nothing, so that a worker process can run it.
    """
    try:
        image, manifest = _load_study(image_path, args.manifest)
        decision = route_image(manifest)
        if not decision.accepted:
            return "rejected", f"{image_path}: rejected (label={decision.label})\n", ""
        run = measure_study(
            image,
            manifest,
            mask_path=args.mask,
            drop_outliers=args.drop_outliers,
            **params,
        )
        out_dir = _out_dir(image_path, args)
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / f"{image_path.stem}.measurements.csv"
        write_study_csv(csv_path, run)
        if args.dump_ecg:
            _dump_ecg(out_dir / f"{image_path.stem}.ecg.csv", run.ecg, manifest)
        return "measured", f"{image_path}: {_summary_line(run)} -> {csv_path}\n", ""
    except (MidopplerError, OSError) as exc:
        return "error", "", f"{image_path}: error: {exc}\n"
    except Exception as exc:  # one faulty study must not abort the batch
        return "error", "", f"{traceback.format_exc()}{image_path}: error: {type(exc).__name__}: {exc}\n"


def _summary_line(means: StudyMeans) -> str:
    def fmt(value, pattern):
        return pattern.format(value) if value is not None else "-"

    return (
        f"{means.n_beats} beats"
        f"  E={fmt(means.mean_e, '{:.3f}')}"
        f"  A={fmt(means.mean_a, '{:.3f}')}"
        f"  E/A={fmt(means.mean_ea, '{:.3f}')}"
        f"  DT={fmt(means.mean_dt, '{:.1f}')}ms"
    )


def _dump_ecg(path, signal, manifest) -> None:
    lines = ["time_ms,amplitude_px,valid"]
    for t, amp, valid in ecg_csv_rows(signal, manifest):
        lines.append(f"{t:.1f},{amp:.2f},{int(valid)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# synth


def _parse_artifacts(args):
    artifacts = []
    for raw in args.spike:
        t, v, w = (float(x) for x in raw.split(","))
        artifacts.append(Spike(time_ms=t, velocity=v, width_ms=w))
    for raw in args.dropout:
        t, w = (float(x) for x in raw.split(","))
        artifacts.append(Dropout(time_ms=t, width_ms=w))
    if args.alias_band:
        artifacts.append(AliasBand())
    return tuple(artifacts)


def _params_from_file(path) -> dict:
    values = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise GenerationError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SYNTH_FILE_KEYS:
            raise GenerationError(f"{path}:{lineno}: unknown parameter {key!r}")
        if key == "label":
            values[key] = value
        elif key in ("n_beats", "seed", "width", "height"):
            values[key] = int(value)
        else:
            values[key] = float(value)
    return values


def cmd_synth(args) -> int:
    try:
        if args.params:
            file_values = _params_from_file(args.params)
            file_values.setdefault("seed", args.seed)
            params = SynthParams(artifacts=_parse_artifacts(args), **file_values)
        else:
            params = SynthParams(
                e_velocity=args.e,
                a_velocity=args.a,
                dt=args.dt,
                heart_rate=args.hr,
                n_beats=args.beats,
                dt_second_slope_fraction=args.knee_fraction,
                noise_sigma=args.noise,
                artifacts=_parse_artifacts(args),
                seed=args.seed,
                label=args.label,
            )
    except ValueError as exc:
        print(f"error: bad artifact or parameter syntax: {exc}", file=sys.stderr)
        return 1

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for k in range(args.n):
        seed = params.seed + k
        try:
            image, manifest, truth = generate_synthetic(replace(params, seed=seed))
        except GenerationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        stem = f"study_{seed:04d}"
        image_path = out_dir / f"{stem}.ppm"
        manifest_path = out_dir / f"{stem}.manifest"
        truth_path = out_dir / f"{stem}.truth.csv"
        save_image(image_path, image)
        save_manifest(manifest_path, manifest)
        write_truth_csv(truth_path, truth)
        print(f"{image_path}\n{manifest_path}\n{truth_path}")
    return 0


# ---------------------------------------------------------------------------
# agree


def _load_series(path_str):
    """{(stem, beat): {column: value}} for a CSV file or directory of CSVs."""
    path = Path(path_str)
    files = sorted(path.glob("*.csv")) if path.is_dir() else [path]
    if not files:
        raise StatsError(f"{path}: no CSV files found")
    series = {}
    for f in files:
        stem = f.name.split(".")[0]
        for beat, fields in read_measurement_csv(f).items():
            series[(stem, beat)] = fields
    return series


def _per_patient(series):
    """Average each study's beats per field; keys become the study stems."""
    grouped = {}
    for (stem, _beat), fields in series.items():
        grouped.setdefault(stem, []).append(fields)
    collapsed = {}
    for stem, rows in grouped.items():
        fields = {}
        for column in set(k for row in rows for k in row):
            values = [row[column] for row in rows if column in row]
            if values:
                fields[column] = sum(values) / len(values)
        collapsed[stem] = fields
    return collapsed


def cmd_agree(args) -> int:
    try:
        series_a = _load_series(args.series_a)
        series_b = _load_series(args.series_b)
    except (OSError, StatsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.per_patient:
        series_a = _per_patient(series_a)
        series_b = _per_patient(series_b)

    if not set(series_a) & set(series_b):
        print("error: no overlapping keys between the two series", file=sys.stderr)
        return 1

    field_names = [f.strip().upper() for f in args.fields.split(",") if f.strip()]
    rows = []
    total_dropped = 0
    for name in field_names:
        if name not in FIELD_COLUMNS:
            print(f"error: unknown field {name!r} (choose from E,A,EA,DT)", file=sys.stderr)
            return 1
        column = FIELD_COLUMNS[name]
        a_map = {k: v[column] for k, v in series_a.items() if column in v}
        b_map = {k: v[column] for k, v in series_b.items() if column in v}
        try:
            stats, dropped = compare(a_map, b_map)
        except StatsError as exc:
            print(f"warning: field {name}: {exc}", file=sys.stderr)
            continue
        rows.append((name, stats))
        total_dropped += dropped

    if not rows:
        print("error: no field produced an agreement row", file=sys.stderr)
        return 1
    text = agreement_csv_text(rows)
    if args.out:
        atomic_write_text(args.out, text)
        print(args.out)
    else:
        sys.stdout.write(text)
    if total_dropped:
        print(f"note: {total_dropped} unpaired keys dropped", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# overlay


def cmd_overlay(args) -> int:
    image_path = Path(args.image)
    try:
        image, manifest = _load_study(image_path, args.manifest)
        decision = route_image(manifest)
        if not decision.accepted:
            print(f"{image_path}: rejected (label={decision.label})")
            return 2

        run = measure_study(image, manifest, mask_path=args.mask, **_pipeline_params(args))
        if not run.details:
            print(f"warning: {image_path}: no measurable beats, drawing border only", file=sys.stderr)

        annotated = render_overlay(image, manifest, run.trace, run.details)
        out_path = Path(args.out) if args.out else image_path.with_suffix(".overlay.ppm")
        save_image(out_path, annotated)
        print(out_path)
        return 0
    except (MidopplerError, OSError) as exc:
        print(f"{image_path}: error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
