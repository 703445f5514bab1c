"""Radar place recognition from polar scans.

The pipeline encodes each scan as a vector and localises by nearest
neighbour in descriptor space: radial DFT magnitudes give partial
translation robustness, and aggregating per-azimuth residuals against a
clustered codebook gives a rotation-invariant, highly discriminative
descriptor. Ring-key averaging and a Radon sinogram-spectrum method are
included as baselines, together with the Recall@N evaluation harness,
timing benchmarks, and a deterministic synthetic world generator.
"""

from .codebook import Codebook, assign_nearest, fit_kmeans_pp, load_codebook, save_codebook
from .config import (
    METHOD_FFT_RADVLAD,
    METHOD_RADVLAD,
    METHOD_RAPLACE,
    METHOD_RINGKEY,
    METHODS,
    RaplaceConfig,
    RunConfig,
    build_run_config,
    parse_config_file,
)
from .descriptors import (
    RaplaceDescriptor,
    RingKeyDescriptor,
    VladDescriptor,
    descriptor_distance,
    encode_raplace,
    encode_ring_key,
    encode_vlad,
    load_descriptor,
    radon_sinogram,
    raplace_similarity,
    save_descriptor,
)
from .errors import ArgumentError, IngestError, NumericError
from .evaluate import (
    DistanceMatrix,
    EvalRun,
    GroundTruthMatrix,
    PlaceMap,
    RecallCurve,
    TimingReport,
    associate_poses,
    bench_timings,
    downsample_trajectory,
    ground_truth_matrix,
    recall_at_n,
    run_pair,
    write_results_csv,
    write_timing_csv,
)
from .runs import load_trajectory, write_trajectory
from .scans import (
    CartesianScan,
    PolarScan,
    RasterLayoutConfig,
    Trajectory,
    TrajectoryPoses,
    load_polar_scan,
    load_poses,
    polar_to_cartesian,
    read_prsn,
    resample_range,
    suppress_near_range,
    write_poses,
    write_prsn,
)
from .scenarios import run_rotation_scenario, run_self_scenario, run_translation_scenario
from .spectral import SpectralScan, naive_dft_magnitude, radial_fft_magnitude
from .synthetic import (
    PlaceWorld,
    ReflectorScene,
    SensorPose,
    WorldConfig,
    generate_scene,
    render_polar,
)

__version__ = "0.1.0"
