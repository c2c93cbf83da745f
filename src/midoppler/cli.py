"""Command-line front end: analyze, synth, agree, overlay.

Exit codes: 0 when at least one study produced output, 2 when every input
was rejected or there was nothing to do, 1 when any error occurred.
"""

import argparse
import ctypes
import functools
import os
import sys
import traceback
from collections import Counter
from dataclasses import fields as dataclass_fields, replace
from functools import partial
from pathlib import Path

from .ecg import QrsParams, ecg_csv_text
from .errors import GenerationError, MidopplerError, StatsError
from .ingestion import (
    atomic_write_text,
    load_image,
    load_manifest,
    read_image_size,
    read_key_values,
    route_image,
    save_image,
    save_manifest,
)
from .kernels import MAX_MEDIAN_WINDOW
from .measurement import (
    DtParams,
    PeakParams,
    StudyMeans,
    measure_study,
    read_measurement_csv,
    write_study_csv,
)
from .overlay import render_overlay
from .segmentation import SegmentationParams
from .stats import FIELD_COLUMNS, agreement_csv_text, compare
from .synth import AliasBand, Dropout, Spike, SynthParams, generate_synthetic, write_truth_csv

# Each flag takes its type and default from a dataclass field: tables of
# (flag, field, help) rows, in --help order.

# (measure_study keyword, param dataclass, flag rows)
_PIPELINE_FLAGS = (
    ("seg_params", SegmentationParams, (
        ("--median-window", "median_window", f"per-column median window (odd, at most {MAX_MEDIAN_WINDOW})"),
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

# SynthParams flag rows; --n, between --seed and --e in --help, is not a field
_SYNTH_FLAGS = (
    ("--seed", "seed", None),
    ("--e", "e_velocity", "E velocity, m/s"),
    ("--a", "a_velocity", "A velocity, m/s (0 = fused)"),
    ("--dt", "dt", "deceleration time, ms"),
    ("--hr", "heart_rate", "heart rate, bpm"),
    ("--beats", "n_beats", "number of cardiac cycles"),
    ("--noise", "noise_sigma", "speckle intensity, 0..1"),
    ("--knee-fraction", "dt_second_slope_fraction", "fraction of the E descent after the slope change"),
    ("--label", "label", "manifest label"),
)

# a params file sets any SynthParams field but the artifacts; float | None parses as float
_SYNTH_FILE_TYPES = {
    f.name: float if f.type == float | None else f.type for f in dataclass_fields(SynthParams) if f.name != "artifacts"
}

_ALL_FIELDS = ",".join(FIELD_COLUMNS)


def _checked_type(cls, field):
    """argparse type of one flag: the field's type, then cls's own checks.

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


def _study_count(text) -> int:
    """argparse type of synth's --n: a whole number of studies, at least 1."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


_study_count.__name__ = "int"  # argparse's "invalid int value" names it


def _add_flags(group, cls, flags):
    fields = {f.name: f for f in dataclass_fields(cls)}
    for flag, name, help_text in flags:
        field = fields[name]
        group.add_argument(flag, type=_checked_type(cls, field), default=field.default, help=help_text)


def _flag_values(args, flags) -> dict:
    """{field: parsed value} of a table's flags."""
    return {name: getattr(args, flag[2:].replace("-", "_")) for flag, name, _ in flags}


def _add_pipeline_flags(parser):
    group = parser.add_argument_group("pipeline parameters")
    for _, cls, flags in _PIPELINE_FLAGS:
        _add_flags(group, cls, flags)
    group.add_argument(
        "--mask",
        default=None,
        help="import external envelope masks: a PGM file (single input only) or a directory of <image-stem>.mask.pgm",
    )


def _pipeline_params(args) -> dict:
    """measure_study's param keywords, built from the pipeline flags."""
    return {keyword: cls(**_flag_values(args, flags)) for keyword, cls, flags in _PIPELINE_FLAGS}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parse_args keeps no state in it."""
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
    _add_flags(ps, SynthParams, _SYNTH_FLAGS[:1])
    ps.add_argument("--n", type=_study_count, default=1, help="number of studies (seeds seed..seed+n-1)")
    _add_flags(ps, SynthParams, _SYNTH_FLAGS[1:])
    ps.add_argument("--spike", action="append", default=[], metavar="T,V,W", help="bright spike artifact time_ms,velocity,width_ms (repeatable)")
    ps.add_argument("--dropout", action="append", default=[], metavar="T,W", help="signal dropout time_ms,width_ms (repeatable)")
    ps.add_argument("--alias-band", action="store_true", help="add a bright band below the baseline")
    ps.add_argument("--params", default=None, help="key = value file of SynthParams fields; overrides the flags")
    ps.set_defaults(func=cmd_synth)

    pg = sub.add_parser(
        "agree",
        help="agreement report between two measurement CSV sets",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    pg.add_argument("series_a", help="CSV file or directory")
    pg.add_argument("series_b", help="CSV file or directory")
    pg.add_argument("--out", default=None, help="output CSV (default: stdout)")
    pg.add_argument("--fields", default=_ALL_FIELDS, help=f"comma-separated subset of {_ALL_FIELDS}")
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
# analyze and overlay: one per-input path, a writer per command


def _expand_inputs(inputs):
    """The named images, and each named directory's studies: its .ppm files but overlay's output."""
    images = []
    for raw in inputs:
        path = Path(raw)
        if path.is_dir():
            images.extend(sorted(p for p in path.glob("*.ppm") if not p.name.endswith(".overlay.ppm")))
        else:
            images.append(path)
    return images


def cmd_analyze(args) -> int:
    images = _expand_inputs(args.inputs)
    if not images:
        print("no input images found", file=sys.stderr)
        return 2
    if args.mask and len(images) > 1 and not Path(args.mask).exists():
        print(f"error: --mask {args.mask}: no such file or directory", file=sys.stderr)
        return 1
    mask_file = args.mask and not Path(args.mask).is_dir()
    for flag, single in (("--manifest", args.manifest), ("--mask", mask_file)):
        if single and len(images) > 1:
            print(f"error: {flag} requires a single input image", file=sys.stderr)
            return 1
    params = {**_pipeline_params(args), "drop_outliers": args.drop_outliers}
    return _run(images, args, params, _write_measurements)


def cmd_overlay(args) -> int:
    # the one named image, never a directory's studies: a directory is an error
    return _run([Path(args.image)], args, _pipeline_params(args), _write_overlay)


def _run(images, args, params, write) -> int:
    """Print each input's lines and return the exit code of the module docstring."""
    outcomes = Counter()
    for outcome, out_text, err_text in _analyze_all(images, args, params, write):
        sys.stdout.write(out_text)
        sys.stderr.write(err_text)
        outcomes[outcome] += 1
    if outcomes["error"]:
        return 1
    return 0 if outcomes["measured"] else 2


def _analyze_all(images, args, params, write):
    """(outcome, stdout text, stderr text) of each input, in input order.

    Two or more inputs run on one process per usable CPU, at most one per
    input: this process and forked workers. A single input, a single CPU,
    a platform without fork or sched_getaffinity, or inputs that would
    write the same output files run in-process only.
    """
    analyze = partial(_analyze_one, args=args, params=params, write=write)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(images))
    distinct_outputs = len({_out_dir(p, args) / p.stem for p in images}) == len(images)
    if workers > 1 and distinct_outputs:
        import multiprocessing  # imported here, so that `import midoppler.cli` stays lean

        if "fork" in multiprocessing.get_all_start_methods():
            # fork, not spawn: workers inherit the imported package and numpy,
            # which a fresh interpreter would take about 0.13 s to import again.
            yield from _pooled(analyze, images, workers, multiprocessing.get_context("fork"))
            return
    yield from map(analyze, images)


_HERE = -1  # the claims mark of an input this process takes


def _pooled(analyze, images, workers, context):
    """Run the batch on workers - 1 forked workers and on this process.

    Each worker drains the batch from the front and sends each result back
    over its own pipe; this process takes inputs from the back, and between
    two of them yields the finished inputs in input order. Every input is
    claimed first in a shared array, which records the claimant, so that it
    runs once; an input claimed by a worker that dies before returning it
    ends in an error line naming the worker's exit code. Fork write-protects
    every page of this process, and an idle wait lets the workers evict its
    caches: staying busy until the two ends meet takes those costs inside
    the batch, instead of in the caller's next study.
    """
    from multiprocessing.connection import wait

    claims = context.Array("i", len(images))
    live = {}  # a worker's receiving end of its pipe: (worker mark, process)
    results = {}  # finished inputs not yet yielded, by index

    def collect(conn):
        """Take every result conn has ready; at its end, settle what its worker left."""
        while conn.poll():
            try:
                index, result = conn.recv()
            except EOFError:
                mark, process = live.pop(conn)
                conn.close()
                process.join()
                lost = f"error: worker process exited with code {process.exitcode}"
                for index in range(done, len(images)):
                    if claims[index] == mark and index not in results:
                        results[index] = "error", "", f"{images[index]}: {lost}\n"
                return
            results[index] = result

    done, back = 0, len(images)  # inputs yielded; the lowest index this process took
    try:
        for mark in range(1, workers):
            receiving, sending = context.Pipe(duplex=False)
            process = context.Process(target=_drain, args=(analyze, images, claims, mark, sending), daemon=True)
            process.start()
            sending.close()  # so that the worker's exit ends the pipe
            live[receiving] = mark, process
        while done < len(images):
            if done not in results:
                for conn in wait(live, timeout=0):
                    collect(conn)
            if done in results:
                yield results.pop(done)
                done += 1
            elif back > done and _claim(claims, back - 1, _HERE):
                back -= 1
                results[back] = analyze(images[back])
            else:  # a worker has it, and the workers have all before it
                for conn in wait(live):
                    collect(conn)
    finally:
        # after an early stop, so that the workers stop after their current input
        for index in range(done, len(images)):
            _claim(claims, index, _HERE)
        while live:
            for conn in wait(live):
                collect(conn)


def _drain(analyze, images, claims, mark, sending):
    """A worker's loop: run each input it can claim, front first, and send back (index, result)."""
    for index, image_path in enumerate(images):
        if _claim(claims, index, mark):
            sending.send((index, analyze(image_path)))
    sending.close()


def _claim(claims, index, mark) -> bool:
    """Claim input index for the process of mark; False if it was taken."""
    with claims.get_lock():
        if claims[index]:
            return False
        claims[index] = mark
    return True


def _out_dir(image_path, args) -> Path:
    return Path(args.out) if args.out else image_path.parent


def _analyze_one(image_path, args, params, write):
    """One input: (outcome, stdout text, stderr text).

    Reads the image's size from its header, loads its manifest (by default
    <image-stem>.manifest) against that size and routes the study; only a
    mitral-inflow study's pixels are read and measured with
    measure_study(**params), on the mask --mask names: a file, or
    <image-stem>.mask.pgm in a directory. Then write(image_path, args,
    image, manifest, run) writes the command's files and returns the
    measured input's triple. The outcome is "measured", "rejected" or
    "error". Prints nothing, so that a worker process can run it.
    """
    try:
        image_size = read_image_size(image_path)
        manifest_path = Path(args.manifest) if args.manifest else image_path.with_suffix(".manifest")
        manifest = load_manifest(manifest_path, image_size=image_size)
        decision = route_image(manifest)
        if not decision.accepted:
            return "rejected", f"{image_path}: rejected (label={decision.label})\n", ""
        image = load_image(image_path)
        run = measure_study(image, manifest, mask_path=_mask_path(image_path, args.mask), **params)
        return write(image_path, args, image, manifest, run)
    except (MidopplerError, OSError) as exc:
        return "error", "", f"{image_path}: error: {exc}\n"
    except Exception as exc:  # one faulty study must not abort the batch
        return "error", "", f"{traceback.format_exc()}{image_path}: error: {type(exc).__name__}: {exc}\n"


def _mask_path(image_path, mask):
    """The mask of image_path that --mask names: mask itself, or the image's mask in directory mask."""
    if mask and Path(mask).is_dir():
        return Path(mask) / f"{image_path.stem}.mask.pgm"
    return mask


def _write_measurements(image_path, args, image, manifest, run):
    """analyze's writer: the CSV, the --dump-ecg signal and the summary line."""
    out_dir = _out_dir(image_path, args)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{image_path.stem}.measurements.csv"
    write_study_csv(csv_path, run)
    if args.dump_ecg:
        atomic_write_text(out_dir / f"{image_path.stem}.ecg.csv", ecg_csv_text(run.ecg, manifest))
    return "measured", f"{image_path}: {_summary_line(run)} -> {csv_path}\n", ""


def _write_overlay(image_path, args, image, manifest, run):
    """overlay's writer: the annotated image and its path."""
    out_path = Path(args.out) if args.out else image_path.with_suffix(".overlay.ppm")
    save_image(out_path, render_overlay(image, manifest, run.trace, run.beats))
    warning = "" if run.beats else f"warning: {image_path}: no measurable beats, drawing border only\n"
    return "measured", f"{out_path}\n", warning


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
    """The SynthParams fields a key = value file sets, converted by field type."""
    raw = read_key_values(path, _SYNTH_FILE_TYPES, GenerationError, "params file")
    return {key: _SYNTH_FILE_TYPES[key](value) for key, value in raw.items()}


def cmd_synth(args) -> int:
    """Write study, manifest and truth files; params file values override flags."""
    try:
        values = _flag_values(args, _SYNTH_FLAGS)
        if args.params:
            values.update(_params_from_file(args.params))
        params = SynthParams(artifacts=_parse_artifacts(args), **values)
        out_dir = Path(args.out)
        for seed in range(params.seed, params.seed + args.n):
            image, manifest, truth = generate_synthetic(replace(params, seed=seed))
            out_dir.mkdir(parents=True, exist_ok=True)
            image_path, manifest_path, truth_path = (
                out_dir / f"study_{seed:04d}{suffix}" for suffix in (".ppm", ".manifest", ".truth.csv")
            )
            save_image(image_path, image)
            save_manifest(manifest_path, manifest)
            write_truth_csv(truth_path, truth)
            print(f"{image_path}\n{manifest_path}\n{truth_path}")
    except ValueError as exc:
        print(f"error: bad artifact or parameter syntax: {exc}", file=sys.stderr)
        return 1
    except (GenerationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# agree


def _load_series(path_str):
    """{(stem, beat): {column: value}} for a CSV file or directory of CSVs.

    Two files of one directory that name the same study (say its
    measurements and its truth) are a StatsError naming both.
    """
    path = Path(path_str)
    if path.is_dir():
        files = sorted(f for f in path.glob("*.csv") if not f.name.endswith(".ecg.csv"))
    else:
        files = [path]
    if not files:
        raise StatsError(f"{path}: no CSV files found")
    series, sources = {}, {}
    for f in files:
        stem = _study_stem(f.name)
        if stem in sources:
            raise StatsError(f"study {stem!r} is read from both {sources[stem]} and {f}")
        sources[stem] = f
        for beat, fields in read_measurement_csv(f).items():
            series[(stem, beat)] = fields
    return series


def _study_stem(name):
    """The study a CSV belongs to: its name without the measurement or truth suffix."""
    for suffix in (".measurements.csv", ".truth.csv"):
        if name.endswith(suffix):
            return name[:-len(suffix)]
    return Path(name).stem


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

    # each field once, in first-mention order
    field_names = list(dict.fromkeys(f.strip().upper() for f in args.fields.split(",") if f.strip()))
    if not field_names:
        print(f"error: --fields names no field (choose from {_ALL_FIELDS})", file=sys.stderr)
        return 1
    for name in field_names:
        if name not in FIELD_COLUMNS:
            print(f"error: unknown field {name!r} (choose from {_ALL_FIELDS})", file=sys.stderr)
            return 1
    rows = []
    for name in field_names:
        column = FIELD_COLUMNS[name]
        a_map = {k: v[column] for k, v in series_a.items() if column in v}
        b_map = {k: v[column] for k, v in series_b.items() if column in v}
        try:
            stats = compare(a_map, b_map)
        except StatsError as exc:
            print(f"warning: field {name}: {exc}", file=sys.stderr)
            continue
        rows.append((name, stats))

    if not rows:
        print("error: no field produced an agreement row", file=sys.stderr)
        return 1
    text = agreement_csv_text(rows)
    if args.out:
        try:
            atomic_write_text(args.out, text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(args.out)
    else:
        sys.stdout.write(text)
    unpaired = len(set(series_a) ^ set(series_b))
    if unpaired:
        print(f"note: {unpaired} unpaired keys dropped", file=sys.stderr)
    return 0


@functools.cache
def _keep_heap() -> None:
    """Stop glibc from returning the heap top to the OS after every study.

    A study allocates and frees a few arrays of 0.5-2.5 MB. glibc serves
    them from the heap once its dynamic mmap threshold has grown past them,
    but then trims the freed top of the heap back to the OS whenever more
    than twice that threshold is free, and the next study faults the pages
    in again (about 1,400 minor faults a study). Fixed thresholds well
    above a study's arrays keep those pages for the life of the process.
    Elsewhere than glibc this does nothing.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):  # no confstr name, no libc symbol
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # from glibc's <malloc.h>
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 64 << 20)


def main(argv=None) -> int:
    _keep_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
