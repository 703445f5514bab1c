"""Command-line surface: ingestion, codebook fitting, encoding, pair
evaluation, parameter sweeps, timing benchmarks, and synthetic scenarios.

All artefacts are plain files in a run directory; identical inputs and
seeds reproduce byte-identical outputs regardless of ``--jobs``.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import runs, sweep
from .codebook import load_codebook, save_codebook
from .config import (
    METHOD_RAPLACE, METHOD_RINGKEY, METHODS, build_run_config, config_fields, parse_config_file, setting_type
)
from .descriptors import save_descriptor
from .errors import ArgumentError, IngestError, NumericError
from .evaluate import (
    bench_timings,
    downsample_trajectory,
    encode_trajectory,
    fit_method_codebook,
    run_pair,
    write_timing_csv,
)
from .scans import SAMPLE_ENCODINGS, RasterLayoutConfig, load_polar_scan, load_poses, write_poses, write_prsn
from .scenarios import SCENARIO_WORLDS, run_rotation_scenario, run_self_scenario, run_translation_scenario
from .synthetic import WorldConfig

JOBS_ENV_VAR = "RADVLAD_JOBS"


def _jobs(text: str) -> int:
    """argparse ``type=`` of ``--jobs``; argparse also runs it on the
    default, ``$RADVLAD_JOBS`` (unset or empty means 1), when the flag is
    not given."""
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"--jobs and ${JOBS_ENV_VAR} take an integer >= 1, got {text!r}")
    return int(text)


def _add_jobs_flag(parser) -> None:
    parser.add_argument(
        "--jobs",
        type=_jobs,
        default=os.environ.get(JOBS_ENV_VAR) or "1",
        help=f"worker parallelism; ${JOBS_ENV_VAR} sets the default (default: 1)",
    )


def _add_config_flags(parser, include_method: bool = True) -> None:
    group = parser.add_argument_group("run configuration (flags override --config file values)")
    group.add_argument("--config", metavar="FILE", help="'key = value' config file with # comments")
    for key, setting in config_fields().items():
        if key == "method" and not include_method:
            continue
        kind, shown = setting_type(setting.type), setting.default
        if kind is bool:
            options, shown = {"action": argparse.BooleanOptionalAction}, "on" if shown else "off"
        else:
            options = {"choices": METHODS} if key == "method" else {"type": kind}
            shown = f"{shown:g}" if isinstance(shown, float) else shown
        flag = "--" + key.replace(".", "-").replace("_", "-")
        group.add_argument(flag, help=f"{setting.metadata['help']} (default: {shown})", **options)


def _config_from_args(args):
    file_values = parse_config_file(args.config) if getattr(args, "config", None) else None
    overrides = {key: getattr(args, key.replace(".", "_")) for key in config_fields()}
    return build_run_config(file_values, overrides)


def _list_of(kind):
    """argparse ``type=`` for a comma list of ``kind``; blank items are skipped."""

    def parse(text: str) -> list:
        try:
            return [kind(part) for part in text.split(",") if part.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a comma list of {kind.__name__}, got {text!r}") from None

    return parse


def _given(args, names) -> dict:
    """The given flags among the dests ``names``; the rest keep their owners' defaults."""
    return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}


def cmd_ingest(args) -> int:
    layout = RasterLayoutConfig(
        rows=args.rows,
        header_bytes_per_row=args.header_bytes,
        payload_bins=args.bins,
        **_given(args, ("sample_encoding", "range_resolution_m")),
    )
    src = Path(args.src)
    if not src.is_dir():
        print(f"ingest: source directory not found: {src}", file=sys.stderr)
        return 1
    out = Path(args.out)
    scan_dir = out / runs.SCANS_SUBDIR
    scan_dir.mkdir(parents=True, exist_ok=True)

    failures = []
    written = 0
    sources = sorted(p for p in src.iterdir() if p.is_file() and p.suffix != ".csv")
    for i, path in enumerate(sources):
        try:
            scan = load_polar_scan(path, layout)
        except IngestError as exc:
            failures.append(str(exc))
            continue
        write_prsn(scan_dir / runs.scan_filename(i), scan)
        written += 1

    if args.poses:
        try:
            write_poses(out / "poses.csv", load_poses(args.poses))
        except IngestError as exc:
            failures.append(str(exc))

    for failure in failures:
        print(f"ingest: {failure}", file=sys.stderr)
    print(f"ingest: wrote {written} scans to {scan_dir}")
    return 1 if failures else 0


def cmd_cluster(args) -> int:
    cfg = _config_from_args(args)
    trajectory = runs.load_trajectory(args.run, require_poses=False)
    scans = downsample_trajectory(trajectory.scans, cfg.stride)
    codebook = fit_method_codebook(scans, cfg.method, cfg)
    save_codebook(args.out, codebook)
    print(
        f"cluster: k={codebook.k} width={codebook.width} "
        f"inertia={codebook.inertia:.6g} iterations={codebook.iterations_run} -> {args.out}"
    )
    return 0


def cmd_encode(args) -> int:
    cfg = _config_from_args(args)
    trajectory = runs.load_trajectory(args.run, require_poses=False)
    scans = downsample_trajectory(trajectory.scans, cfg.stride)
    codebook = load_codebook(args.codebook) if args.codebook else None
    descriptors = encode_trajectory(scans, cfg.method, cfg, codebook, jobs=args.jobs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, descriptor in enumerate(descriptors):
        save_descriptor(out / f"{i:06d}.desc", descriptor)
    print(f"encode: wrote {len(descriptors)} descriptors to {out}")
    return 0


def cmd_localize(args) -> int:
    cfg = _config_from_args(args)
    query = runs.load_trajectory(args.query)
    ref = runs.load_trajectory(args.ref)
    run = run_pair(query, ref, cfg.method, cfg, out_dir=args.out, jobs=args.jobs)
    print(
        f"localize: {run.query_name} vs {run.ref_name} [{run.method}] "
        f"Recall@1 = {run.recall.recall_pct[0]:.2f}% "
        f"({run.recall.evaluated_queries} evaluated, {run.recall.skipped_queries} skipped)"
    )
    return 0


def cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    query = runs.load_trajectory(args.query)
    ref = runs.load_trajectory(args.ref)
    if args.method == METHOD_RINGKEY:
        rows = sweep.sweep_ringkey(query, ref, cfg, args.azis, args.bins, args.lengths, jobs=args.jobs)
    else:
        rows = sweep.sweep_raplace(query, ref, cfg, args.scales, args.resolutions, args.widths, jobs=args.jobs)
    sweep.write_sweep_csv(args.out, rows)
    print(f"sweep: wrote {len(rows)} grid points to {args.out}")
    return 0


def cmd_bench(args) -> int:
    cfg = _config_from_args(args)
    trajectory = runs.load_trajectory(args.run, require_poses=False)
    report = bench_timings(cfg.method, trajectory.scans, args.repetitions, cfg)
    write_timing_csv(args.out, [report])
    if args.repetitions > 0:
        threads = "unknown" if report.blas_threads is None else report.blas_threads
        print(
            f"bench: {cfg.method} build median {report.median('build'):.6f}s, "
            f"distance median {report.median('distance'):.9f}s, BLAS threads {threads} -> {args.out}"
        )
    else:
        print(f"bench: empty report -> {args.out}")
    return 0


def cmd_synth(args) -> int:
    world_cfg = replace(SCENARIO_WORLDS[args.scenario], **_given(args, [f.name for f in fields(WorldConfig)]))
    common = {"world_cfg": world_cfg, "jobs": args.jobs, **_given(args, ("seed", "k"))}
    if args.scenario == "rotation":
        run = run_rotation_scenario(args.out, **common, **_given(args, ("trials",)))
        print(f"synth rotation: Recall@1 = {run.recall.recall_pct[0]:.2f}% over {len(run.distances.values)} trials")
    elif args.scenario == "translation":
        bounds = _given(args, ("translate_min_m", "translate_max_m"))
        raw, spectral = run_translation_scenario(args.out, **common, **bounds)
        print(
            f"synth translation: Recall@1 raw rows = {raw.recall.recall_pct[0]:.2f}%, "
            f"radial spectra = {spectral.recall.recall_pct[0]:.2f}%"
        )
    else:
        scenario_runs = run_self_scenario(args.out, **common)
        summary = ", ".join(f"{r.method}={r.recall.recall_pct[0]:.1f}%" for r in scenario_runs)
        print(f"synth self: Recall@1 {summary}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radvlad",
        description="Radar place recognition pipeline: polar scans to Recall@N tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert raw scan files into a run directory")
    p.add_argument("--src", required=True, help="directory of raw scan files")
    p.add_argument("--out", required=True, help="run directory to create")
    p.add_argument("--rows", type=int, required=True, help="azimuth rows per scan file")
    p.add_argument("--header-bytes", type=int, default=0, help="metadata bytes before each row's samples")
    p.add_argument("--bins", type=int, required=True, help="range bins per row")
    p.add_argument("--encoding", dest="sample_encoding", choices=SAMPLE_ENCODINGS, help="sample encoding")
    p.add_argument(
        "--range-resolution", dest="range_resolution_m", metavar="RANGE_RESOLUTION", type=float,
        help="metres per range bin",
    )
    p.add_argument("--poses", help="pose CSV to validate and copy into the run directory")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("cluster", help="fit a codebook from a run directory's scans")
    p.add_argument("--run", required=True, help="ingested run directory")
    p.add_argument("--out", required=True, help="output codebook file")
    _add_config_flags(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("encode", help="write one descriptor file per (downsampled) scan")
    p.add_argument("--run", required=True, help="ingested run directory")
    p.add_argument("--out", required=True, help="output directory for .desc files")
    p.add_argument("--codebook", help="codebook file (required for the residual methods)")
    _add_config_flags(p)
    _add_jobs_flag(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("localize", help="evaluate a query run against a reference run")
    p.add_argument("--query", required=True, help="query run directory")
    p.add_argument("--ref", required=True, help="reference (map) run directory")
    p.add_argument("--out", required=True, help="output directory for results artefacts")
    _add_config_flags(p)
    _add_jobs_flag(p)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("sweep", help="grid-sweep baseline settings, one Recall@1 row per point")
    p.add_argument("--method", choices=(METHOD_RINGKEY, METHOD_RAPLACE), required=True)
    p.add_argument("--query", required=True, help="query run directory")
    p.add_argument("--ref", required=True, help="reference run directory")
    p.add_argument("--out", required=True, help="output CSV path")
    ints, floats = _list_of(int), _list_of(float)
    p.add_argument("--azis", type=ints, default="50,100,200,400", help="ring key: azimuth row counts (comma list)")
    p.add_argument("--bins", type=ints, default="1884,3768", help="ring key: cropped range bin counts")
    p.add_argument("--lengths", type=ints, default="128,512", help="ring key: final vector lengths")
    p.add_argument("--scales", type=floats, default="10,20,30,40", help="sinogram: radial scale percents")
    p.add_argument(
        "--resolutions",
        type=floats,
        default="1.2717,0.63585,2.5424,0.3178",
        help="sinogram: Cartesian resolutions, zipped with --widths",
    )
    p.add_argument(
        "--widths", type=ints, default="256,512,128,1024", help="sinogram: Cartesian widths, zipped with --resolutions"
    )
    _add_config_flags(p, include_method=False)
    _add_jobs_flag(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="time descriptor builds and descriptor-pair distances")
    p.add_argument("--run", required=True, help="run directory providing the scans")
    p.add_argument("--repetitions", type=int, default=1000, help="timing samples per phase")
    p.add_argument("--out", required=True, help="output timing CSV")
    _add_config_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("synth", help="run a deterministic synthetic scenario end to end")
    p.add_argument("--scenario", choices=tuple(SCENARIO_WORLDS), required=True)
    p.add_argument("--out", required=True, help="output directory for results artefacts")
    p.add_argument("--seed", type=int)
    # Each flag below sets a WorldConfig field or a scenario argument.
    for flag, dest, kind, text in (
        ("--places", "n_places", int, "places in the world (default: per scenario)"),
        ("--reflectors", "n_reflectors", int, "reflectors per place scene"),
        ("--trials", "trials", int, "rotation scenario: query count"),
        ("--azimuths", "n_azimuths", int, "render: azimuth rows"),
        ("--bins", "n_bins", int, "render: range bins"),
        ("--max-range", "max_range_m", float, "render: max range (m)"),
        ("--beam-sigma", "beam_sigma_bins", float, "render: blob sigma (bins)"),
        ("--noise-sigma", "noise_sigma", float, "render: additive noise std"),
        ("--translate-min", "translate_min_m", float, "translation scenario: min offset (m)"),
        ("--translate-max", "translate_max_m", float, "translation scenario: max offset (m)"),
        ("--k", "k", int, "codebook size for the synthetic worlds"),
    ):
        p.add_argument(flag, dest=dest, metavar=flag[2:].replace("-", "_").upper(), type=kind, help=text)
    _add_jobs_flag(p)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ArgumentError, IngestError, NumericError, OSError) as exc:
        print(f"radvlad {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
