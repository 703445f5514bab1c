"""Workload definitions and the input generator.

Each workload fixes a synthetic world, a localisation method and its run
configuration. ``generate`` renders the maps and a pool of query scans
for one seed and writes them as run directories; the measuring process
only ever reads those directories. Run as a script, this module is the
generator process:

    python3 perfbench/workloads.py --workload NAME --seed N --out DIR
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from radvlad import runs
from radvlad.config import METHOD_FFT_RADVLAD, METHOD_RAPLACE, RunConfig
from radvlad.descriptors import RaplaceConfig
from radvlad.scans import TrajectoryPoses
from radvlad.synthetic import PlaceWorld, SensorPose, WorldConfig, render_polar

QUERY_DIR = "queries"
# Set-up is timed on this many maps of the same make-up, each drawn from
# its own world, so its median depends less on one draw's k-means
# convergence. Queries run against the last map.
N_MAPS = 3
_TIMESTAMP_STEP_NS = 1_000_000_000

# Full-size raw scans: 400 azimuths x 3768 range bins of 4.32 cm.
_RAW_BINS = 3768
_RAW_RANGE_M = _RAW_BINS * 0.0432
_RAW_WORLD = WorldConfig(
    n_places=24,
    n_reflectors=80,
    extent_m=140.0,
    n_azimuths=400,
    n_bins=_RAW_BINS,
    max_range_m=_RAW_RANGE_M,
    beam_sigma_bins=2.0,
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``heading_step`` is the granularity of query headings in azimuth rows:
    1 draws any integer-azimuth heading, ``n_azimuths // 4`` draws quarter
    turns only. ``query_pool`` distinct queries are rendered and cycled
    through by the closed loop.
    """

    name: str
    method: str
    world: WorldConfig
    run_config: RunConfig
    query_pool: int
    heading_step: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        # Several hundred places with the standard k=64, 512-bin descriptor
        # (256 KiB per place); raw scans are small so the map stays in
        # memory and matching dominates each query.
        Workload(
            name="localize-fft-largemap",
            method=METHOD_FFT_RADVLAD,
            world=WorldConfig(
                n_places=300,
                n_reflectors=50,
                extent_m=80.0,
                n_azimuths=32,
                n_bins=1024,
                max_range_m=60.0,
                beam_sigma_bins=1.5,
            ),
            run_config=RunConfig(method=METHOD_FFT_RADVLAD),
            query_pool=100,
        ),
        # Full-size raw scans against a few dozen places: encoding
        # (suppress 60 bins, resample 3768 -> 512, FFT, VLAD) outweighs
        # matching.
        Workload(
            name="localize-fft-rawscan",
            method=METHOD_FFT_RADVLAD,
            world=_RAW_WORLD,
            run_config=RunConfig(method=METHOD_FFT_RADVLAD),
            query_pool=24,
        ),
        # The sinogram baseline on the same raw scans, on the 128-px grid
        # whose rotation tables fit the encoder's table cache. Quarter
        # turns are exact on the Cartesian grid, so top-1 is checkable.
        Workload(
            name="localize-raplace",
            method=METHOD_RAPLACE,
            world=_RAW_WORLD,
            run_config=RunConfig(
                method=METHOD_RAPLACE,
                raplace=RaplaceConfig(width_px=128, resolution_m=2.0 * _RAW_RANGE_M / 128),
            ),
            query_pool=24,
            heading_step=_RAW_WORLD.n_azimuths // 4,
        ),
    )
}


def _render(world: PlaceWorld, place: int, heading_rows: int, index: int):
    cfg = world.cfg
    scan = render_polar(
        world.scenes[place],
        SensorPose(0.0, 0.0, 2.0 * np.pi * heading_rows / cfg.n_azimuths),
        n_azimuths=cfg.n_azimuths,
        n_bins=cfg.n_bins,
        max_range_m=cfg.max_range_m,
        beam_sigma_bins=cfg.beam_sigma_bins,
    )
    return replace(scan, timestamp_ns=index * _TIMESTAMP_STEP_NS, id=f"{index:06d}")


def _poses(places, spacing_m: float) -> TrajectoryPoses:
    places = np.asarray(places)
    return TrajectoryPoses(
        np.arange(len(places), dtype=np.int64) * _TIMESTAMP_STEP_NS,
        places * spacing_m,
        np.zeros(len(places)),
    )


def query_plan(workload: Workload, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(place, heading in azimuth rows) of every query in the pool."""
    rng = np.random.default_rng([seed, 1])
    cfg = workload.world
    if workload.query_pool >= cfg.n_places:
        places = rng.permutation(np.resize(np.arange(cfg.n_places), workload.query_pool))
    else:
        places = rng.choice(cfg.n_places, size=workload.query_pool, replace=False)
    steps = cfg.n_azimuths // workload.heading_step
    headings = rng.integers(steps, size=workload.query_pool) * workload.heading_step
    return places, headings


def map_dir(index: int) -> str:
    return f"map{index}"


def generate(workload: Workload, seed: int, out_dir) -> Path:
    """Render and write the maps and the query pool for one seed.

    Scans are streamed to disk one at a time, so no run is held in
    memory. Each map holds one scan per place at heading zero; queries
    re-render places of the last map's world at the planned headings,
    with poses on the places' ground-truth anchors.
    """
    out_dir = Path(out_dir)
    n_places = workload.world.n_places
    spacing = workload.world.spacing_m
    for index in range(N_MAPS):
        world = PlaceWorld(seed * N_MAPS + index, workload.world)
        runs.write_trajectory(
            out_dir / map_dir(index),
            (_render(world, p, 0, p) for p in range(n_places)),
            _poses(range(n_places), spacing),
        )
    places, headings = query_plan(workload, seed)
    runs.write_trajectory(
        out_dir / QUERY_DIR,
        (_render(world, int(p), int(h), i) for i, (p, h) in enumerate(zip(places, headings))),
        _poses(places, spacing),
    )
    return out_dir


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write one workload's map and query runs.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(WORKLOADS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
