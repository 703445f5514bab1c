"""Command-line surface: ingestion, codebook fitting, encoding, pair
evaluation, parameter sweeps, timing benchmarks, and synthetic scenarios.

All artefacts are plain files in a run directory; identical inputs and
seeds reproduce byte-identical outputs regardless of ``--jobs``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import runs, sweep
from .codebook import save_codebook
from .config import METHODS, VLAD_METHODS, build_run_config, config_keys, parse_config_file
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
from .scans import RasterLayoutConfig, load_polar_scan, load_poses, write_poses, write_prsn
from .scenarios import run_rotation_scenario, run_self_scenario, run_translation_scenario
from .synthetic import WorldConfig

JOBS_ENV_VAR = "RADVLAD_JOBS"


def _default_jobs() -> int:
    try:
        return max(1, int(os.environ.get(JOBS_ENV_VAR, "1")))
    except ValueError:
        return 1


def _add_jobs_flag(parser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=_default_jobs(),
        help=f"worker parallelism; ${JOBS_ENV_VAR} sets the default (default: 1)",
    )


def _add_config_flags(parser, include_method: bool = True) -> None:
    group = parser.add_argument_group("run configuration (flags override --config file values)")
    group.add_argument("--config", metavar="FILE", help="'key = value' config file with # comments")
    if include_method:
        group.add_argument("--method", choices=METHODS, help="place descriptor method (default: fft_radvlad)")
    group.add_argument("--suppress-bins", type=int, help="near-range bins zeroed before resampling (default: 60)")
    group.add_argument("--target-bins", type=int, help="range bins after resampling (default: 512)")
    group.add_argument("--k", type=int, help="codebook cluster count (default: 64)")
    group.add_argument("--kmeans-tol", type=float, help="relative inertia decrease to stop (default: 0.0001)")
    group.add_argument("--kmeans-seed", type=int, help="codebook seeding RNG seed (default: 0)")
    group.add_argument("--kmeans-max-iter", type=int, help="iteration cap for clustering (default: 300)")
    group.add_argument("--stride", type=int, help="keep every stride-th scan (default: 10)")
    group.add_argument("--threshold-m", type=float, help="ground-truth match gate in metres (default: 25)")
    group.add_argument("--n-max", type=int, help="largest N in the Recall@N curve (default: 50)")
    group.add_argument(
        "--vlad-l2-normalize",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="L2-normalise aggregated descriptors (default: off)",
    )
    group.add_argument("--raplace-width-px", type=int, help="Cartesian grid side in pixels (default: 256)")
    group.add_argument(
        "--raplace-resolution-m", type=float, help="Cartesian metres per pixel (default: 1.2717)"
    )
    group.add_argument(
        "--raplace-scale-pct", type=float, help="sinogram radial downscale percent (default: 25)"
    )
    group.add_argument(
        "--raplace-n-angles", type=int, help="sinogram projection angles (default: width_px)"
    )


def _config_from_args(args):
    file_values = parse_config_file(args.config) if getattr(args, "config", None) else None
    overrides = {key: getattr(args, key.replace(".", "_")) for key in config_keys()}
    return build_run_config(file_values, overrides)


def _list_of(kind):
    """argparse ``type=`` for a comma list of ``kind``; blank items are skipped."""

    def parse(text: str) -> list:
        try:
            return [kind(part) for part in text.split(",") if part.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a comma list of {kind.__name__}, got {text!r}") from None

    return parse


def cmd_ingest(args) -> int:
    layout = RasterLayoutConfig(
        rows=args.rows,
        header_bytes_per_row=args.header_bytes,
        payload_bins=args.bins,
        sample_encoding=args.encoding,
        range_resolution_m=args.range_resolution,
    )
    src = Path(args.src)
    if not src.is_dir():
        print(f"ingest: source directory not found: {src}", file=sys.stderr)
        return 1
    out = Path(args.out)
    scan_dir = out / runs.SCANS_SUBDIR
    scan_dir.mkdir(parents=True, exist_ok=True)

    failures = []
    sources = sorted(p for p in src.iterdir() if p.is_file() and p.suffix != ".csv")
    for i, path in enumerate(sources):
        try:
            scan = load_polar_scan(path, layout)
        except IngestError as exc:
            failures.append(f"{path}: {exc}")
            continue
        write_prsn(scan_dir / runs.scan_filename(i), scan)

    if args.poses:
        try:
            write_poses(out / "poses.csv", load_poses(args.poses))
        except IngestError as exc:
            failures.append(str(exc))

    for failure in failures:
        print(f"ingest: {failure}", file=sys.stderr)
    print(f"ingest: wrote {len(sources) - len(failures)} scans to {scan_dir}")
    return 1 if failures else 0


def cmd_cluster(args) -> int:
    cfg = _config_from_args(args)
    if cfg.method not in VLAD_METHODS:
        print(f"cluster: method must be one of {VLAD_METHODS}", file=sys.stderr)
        return 1
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
    codebook = None
    if cfg.method in VLAD_METHODS:
        if not args.codebook:
            print(f"encode: --codebook is required for {cfg.method}", file=sys.stderr)
            return 1
        from .codebook import load_codebook

        codebook = load_codebook(args.codebook)
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
    if args.method == "ringkey":
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
    default_places = {"rotation": 50, "translation": 30, "self": 100}
    places = args.places if args.places is not None else default_places[args.scenario]
    world_cfg = WorldConfig(
        n_places=places,
        n_reflectors=args.reflectors,
        n_azimuths=args.azimuths,
        n_bins=args.bins,
        max_range_m=args.max_range,
        beam_sigma_bins=args.beam_sigma,
        noise_sigma=args.noise_sigma,
    )
    if args.scenario == "rotation":
        run = run_rotation_scenario(
            args.out, seed=args.seed, world_cfg=world_cfg, trials=args.trials, k=args.k, jobs=args.jobs
        )
        print(f"synth rotation: Recall@1 = {run.recall.recall_pct[0]:.2f}% over {args.trials} trials")
    elif args.scenario == "translation":
        raw, spectral = run_translation_scenario(
            args.out,
            seed=args.seed,
            world_cfg=world_cfg,
            translate_min_m=args.translate_min,
            translate_max_m=args.translate_max,
            k=args.k,
            jobs=args.jobs,
        )
        print(
            f"synth translation: Recall@1 raw rows = {raw.recall.recall_pct[0]:.2f}%, "
            f"radial spectra = {spectral.recall.recall_pct[0]:.2f}%"
        )
    else:
        scenario_runs = run_self_scenario(args.out, seed=args.seed, world_cfg=world_cfg, k=args.k, jobs=args.jobs)
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
    p.add_argument("--encoding", choices=("u8", "f32-LE"), default="u8", help="sample encoding")
    p.add_argument("--range-resolution", type=float, default=0.0432, help="metres per range bin")
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
    p.add_argument("--method", choices=("ringkey", "raplace"), required=True)
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
    p.add_argument("--scenario", choices=("rotation", "translation", "self"), required=True)
    p.add_argument("--out", required=True, help="output directory for results artefacts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--places", type=int, default=None, help="places in the world (default: per scenario)")
    p.add_argument("--reflectors", type=int, default=50, help="reflectors per place scene")
    p.add_argument("--trials", type=int, default=100, help="rotation scenario: query count")
    p.add_argument("--azimuths", type=int, default=64, help="render: azimuth rows")
    p.add_argument("--bins", type=int, default=256, help="render: range bins")
    p.add_argument("--max-range", type=float, default=60.0, help="render: max range (m)")
    p.add_argument("--beam-sigma", type=float, default=1.5, help="render: blob sigma (bins)")
    p.add_argument("--noise-sigma", type=float, default=0.0, help="render: additive noise std")
    p.add_argument("--translate-min", type=float, default=1.0, help="translation scenario: min offset (m)")
    p.add_argument("--translate-max", type=float, default=5.0, help="translation scenario: max offset (m)")
    p.add_argument("--k", type=int, default=8, help="codebook size for the synthetic worlds")
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
