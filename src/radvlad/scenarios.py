"""Canned synthetic experiments: rotation invariance, translation ranking,
and self-localisation. These drive the `synth` CLI command and give the
test suite deterministic end-to-end runs with known correct answers.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from .config import METHOD_FFT_RADVLAD, METHOD_RADVLAD, METHODS, RaplaceConfig, RunConfig
from .evaluate import EvalRun, run_pair, write_distance_matrix, write_results_csv
from .synthetic import PlaceWorld, WorldConfig

# The codebook size and the world each scenario runs with unless it is given them.
SCENARIO_K = 8
SCENARIO_WORLDS = {
    "rotation": WorldConfig(n_places=50),
    "translation": WorldConfig(n_places=30),
    "self": WorldConfig(n_places=100),
}


def synthetic_run_config(world_cfg: WorldConfig, method: str = METHOD_FFT_RADVLAD, k: int = SCENARIO_K) -> RunConfig:
    """RunConfig matched to a synthetic world's render geometry.

    Synthetic scenes carry no self-return, so suppression is disabled and
    the range axis is kept as rendered. The Cartesian grid of the
    sinogram-spectrum baseline is sized to cover the render's max range.
    """
    width = 128
    return RunConfig(
        method=method,
        suppress_bins=0,
        target_bins=world_cfg.n_bins,
        k=k,
        stride=1,
        n_max=min(RunConfig.n_max, world_cfg.n_places),
        raplace=RaplaceConfig(width_px=width, resolution_m=2.0 * world_cfg.max_range_m / width),
    )


def run_rotation_scenario(
    out_dir=None,
    seed: int = 0,
    world_cfg: WorldConfig = SCENARIO_WORLDS["rotation"],
    trials: int = 100,
    k: int = SCENARIO_K,
    jobs: int = 1,
) -> EvalRun:
    """Noiseless queries re-rendered at random integer-azimuth headings.

    The residual-aggregation descriptor on radial spectra is heading
    invariant, so every rotated query should localise to its own place.
    """
    world = PlaceWorld(seed, world_cfg)
    ref = world.reference_trajectory()
    query = world.rotated_query_trajectory(trials, seed=seed + 1)
    cfg = synthetic_run_config(world_cfg, METHOD_FFT_RADVLAD, k)
    return run_pair(query, ref, METHOD_FFT_RADVLAD, cfg, out_dir=out_dir, jobs=jobs)


def run_translation_scenario(
    out_dir=None,
    seed: int = 0,
    world_cfg: WorldConfig = SCENARIO_WORLDS["translation"],
    translate_min_m: float = 1.0,
    translate_max_m: float = 5.0,
    k: int = SCENARIO_K,
    jobs: int = 1,
) -> tuple[EvalRun, EvalRun]:
    """Paired run on translated queries: raw-row VLAD vs spectral VLAD.

    Returns (raw, spectral) runs over identical queries; when out_dir is
    set, a combined results.csv and one ``distances_<method>.dmat`` per
    method are written there (the codebooks stay on the returned runs).
    """
    world = PlaceWorld(seed, world_cfg)
    query = world.translated_query_trajectory(translate_min_m, translate_max_m, seed=seed + 1)
    ref = world.reference_trajectory()

    runs = []
    for method in (METHOD_RADVLAD, METHOD_FFT_RADVLAD):
        cfg = synthetic_run_config(world_cfg, method, k)
        runs.append(run_pair(query, ref, method, cfg, out_dir=None, jobs=jobs))
    raw_run, spectral_run = runs

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_results_csv(out_dir / "results.csv", runs)
        for run in runs:
            write_distance_matrix(out_dir / f"distances_{run.method}.dmat", run.distances)
    return raw_run, spectral_run


def run_self_scenario(
    out_dir=None,
    seed: int = 0,
    world_cfg: WorldConfig = SCENARIO_WORLDS["self"],
    methods=METHODS,
    k: int = SCENARIO_K,
    jobs: int = 1,
) -> list[EvalRun]:
    """Localise a trajectory against itself with every method.

    The self descriptor sits at the distance/similarity extremum, so
    Recall@1 must be 100% across the board.
    """
    world = PlaceWorld(seed, world_cfg)
    ref = world.reference_trajectory()
    query = replace(ref, name="self-query")
    runs = [
        run_pair(query, ref, method, synthetic_run_config(world_cfg, method, k), jobs=jobs)
        for method in methods
    ]
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_results_csv(out_dir / "results.csv", runs)
    return runs
