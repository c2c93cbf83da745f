"""Command-line front end: analyze, synth, agree, overlay.

Exit codes: 0 when at least one study produced output, 2 when every input
was rejected or there was nothing to do, 1 when any error occurred.
"""

import os

# No matrix product here is large enough for a second BLAS thread, and starting
# OpenBLAS's thread pool costs a fresh process tens of ms: pin it before
# numpy loads, unless the user chose a thread count.
if "OMP_NUM_THREADS" not in os.environ:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import ctypes
import functools
import sys
import traceback
from dataclasses import fields as dataclass_fields, replace
from pathlib import Path

from .ecg import QrsParams, ecg_csv_text
from .errors import GenerationError, MidopplerError, StatsError
from .ingestion import (
    _parse_int,
    atomic_write_text,
    key_value_fields,
    load_image,
    load_manifest,
    read_fields,
    read_image_size,
    route_image,
    save_image,
    save_manifest,
)
from .kernels import MAX_MEDIAN_WINDOW
from .measurement import (
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
    ("qrs_params", QrsParams, (
        ("--refractory-ms", "refractory_ms", "minimum QRS spacing"),
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

_PARAMS_FILE_FIELDS = key_value_fields(SynthParams, skip=("artifacts",))

_ALL_FIELDS = ",".join(FIELD_COLUMNS)


def _checked_type(cls, field, parse):
    """argparse type of one flag: parse, the field's key = value file parser, then cls's own checks.

    A value the dataclass rejects becomes a usage error naming the flag.
    """
    def convert(text):
        value = parse(text)
        try:
            cls(**{field.name: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    convert.__name__ = field.type.__name__  # argparse's "invalid int value" names it
    return convert


def _study_count(text) -> int:
    """argparse type of synth's --n: a whole number of studies, at least 1, by the one integer rule."""
    count = _parse_int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


_study_count.__name__ = "int"  # argparse's "invalid int value" names it


def _add_flags(group, cls, flags, table):
    """Add a flag for each (flag, field, help) row, parsed as table (cls's key_value_fields) parses a file."""
    fields = {f.name: f for f in dataclass_fields(cls)}
    for flag, name, help_text in flags:
        field = fields[name]
        parse = table[name][0]
        group.add_argument(flag, type=_checked_type(cls, field, parse), default=field.default, help=help_text)


def _flag_values(args, flags) -> dict:
    """{field: parsed value} of a table's flags."""
    return {name: getattr(args, flag[2:].replace("-", "_")) for flag, name, _ in flags}


def _add_pipeline_flags(parser):
    group = parser.add_argument_group("pipeline parameters")
    for _, cls, flags in _PIPELINE_FLAGS:
        _add_flags(group, cls, flags, key_value_fields(cls))
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
    _add_flags(ps, SynthParams, _SYNTH_FLAGS[:1], _PARAMS_FILE_FIELDS)
    ps.add_argument("--n", type=_study_count, default=1, help="number of studies (seeds seed..seed+n-1)")
    _add_flags(ps, SynthParams, _SYNTH_FLAGS[1:], _PARAMS_FILE_FIELDS)
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
    """The named images, and each named directory's studies: its *.ppm entries but overlay's output, by name.

    An entry is a study whatever its type, so a directory named x.ppm is an
    input that ends in an error line. A directory that cannot be listed
    holds no studies, as Path.glob finds none in it.
    """
    images = []
    for raw in inputs:
        path = Path(raw)
        if not path.is_dir():
            images.append(path)
            continue
        try:
            with os.scandir(path) as entries:
                names = sorted(
                    e.name for e in entries if e.name.endswith(".ppm") and not e.name.endswith(".overlay.ppm")
                )
        except PermissionError:
            names = []
        images.extend(path / name for name in names)
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
    """Route, measure and write each input before the next; return the exit code of the module docstring.

    An input's lines print as soon as they are known. Only a mitral-inflow
    study has its pixels read and is measured with measure_study(**params),
    on the mask --mask names: a file, or <image-stem>.mask.pgm in a
    directory. write(image_path, args, image, manifest, run) writes the
    command's files and prints its lines.
    """
    mask_dir = Path(args.mask) if args.mask and Path(args.mask).is_dir() else None
    measured = errors = 0
    for image_path in images:
        try:
            # the header first: it makes an input such as "." one error line,
            # where Path(".").with_suffix would raise ValueError
            image_size = read_image_size(image_path)
            manifest_path = Path(args.manifest) if args.manifest else image_path.with_suffix(".manifest")
            manifest = load_manifest(manifest_path, image_size=image_size)
            decision = route_image(manifest)
            if not decision.accepted:
                print(f"{image_path}: rejected (label={decision.label})")
                continue
            image = load_image(image_path)
            # a mask file goes on as typed, so its error lines name it so
            mask_path = mask_dir / f"{image_path.stem}.mask.pgm" if mask_dir else args.mask
            run = measure_study(image, manifest, mask_path=mask_path, **params)
            write(image_path, args, image, manifest, run)
            del image, run  # held into the next input, they would raise the batch's peak memory
            measured += 1
        except (MidopplerError, OSError) as exc:
            print(f"{image_path}: error: {exc}", file=sys.stderr)
            errors += 1
        except Exception as exc:
            # one faulty study must not abort the batch
            traceback.print_exc()
            print(f"{image_path}: error: {type(exc).__name__}: {exc}", file=sys.stderr)
            errors += 1
    if errors:
        return 1
    return 0 if measured else 2


def _write_measurements(image_path, args, image, manifest, run):
    """analyze's writer: the CSV, the --dump-ecg signal and the summary line."""
    out_dir = Path(args.out) if args.out else image_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{image_path.stem}.measurements.csv"
    write_study_csv(csv_path, run)
    if args.dump_ecg:
        atomic_write_text(out_dir / f"{image_path.stem}.ecg.csv", ecg_csv_text(run.ecg, manifest))
    print(f"{image_path}: {_summary_line(run)} -> {csv_path}")


def _write_overlay(image_path, args, image, manifest, run):
    """overlay's writer: the annotated image and its path."""
    out_path = Path(args.out) if args.out else image_path.with_suffix(".overlay.ppm")
    save_image(out_path, render_overlay(image, manifest, run.trace, run.beats))
    print(out_path)
    if not run.beats:
        print(f"warning: {image_path}: no measurable beats, drawing border only", file=sys.stderr)


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
    """The artifacts of --spike, --dropout and --alias-band; a malformed value's ValueError names its flag."""
    artifacts = []
    for flag, cls, values in (("--spike", Spike, args.spike), ("--dropout", Dropout, args.dropout)):
        names = [f.name for f in dataclass_fields(cls)]
        for raw in values:
            try:
                kwargs = dict(zip(names, map(float, raw.split(",")), strict=True))
            except ValueError:
                raise ValueError(f"{flag} {raw!r}: expected {','.join(names)}") from None
            artifacts.append(cls(**kwargs))
    if args.alias_band:
        artifacts.append(AliasBand())
    return tuple(artifacts)


def cmd_synth(args) -> int:
    """Write study, manifest and truth files; params file values override flags."""
    try:
        values = _flag_values(args, _SYNTH_FLAGS)
        if args.params:
            values.update(read_fields(args.params, _PARAMS_FILE_FIELDS, GenerationError, "params file"))
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
