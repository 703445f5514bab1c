"""Trajectory-pair localisation experiments and timing benchmarks.

A run matches every downsampled query scan against a reference map by
descriptor distance, gates correctness by planar pose distance, and
reports Recall@N. Distance matrices are oriented queries-by-references;
similarity scores (the sinogram-spectrum method) are negated on ingestion
so that lower always means more similar.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import functools
import struct
import time
import warnings
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from dataclasses import replace as dc_replace
from pathlib import Path

import numpy as np

from .codebook import Codebook, fit_kmeans_pp, pairwise_sq_dist, save_codebook, sq_norms
from .config import (
    METHOD_FFT_RADVLAD,
    METHOD_RADVLAD,
    METHOD_RAPLACE,
    METHOD_RINGKEY,
    METHODS,
    VLAD_METHODS,
    RunConfig,
)
from .descriptors import (
    VladDescriptor,
    _peak_correlation,
    descriptor_distance,
    encode_raplace,
    encode_ring_key,
    encode_vlad,
    raplace_similarity,
)
from .errors import ArgumentError
from .scans import (
    PolarScan,
    Trajectory,
    TrajectoryPoses,
    resample_range,
    suppress_near_range,  # perfbench/tracing.py wraps it in this namespace
)
from .spectral import fold_half_spectrum, is_mirror_symmetric, radial_fft_magnitude, unfold_half_spectrum

DMAT_MAGIC = b"DMAT"
_DMAT_HEADER = struct.Struct("<4sII")

RESULTS_CSV_HEADER = ["query_traj", "ref_traj", "method", "N", "recall_pct", "evaluated", "skipped"]
TIMING_CSV_HEADER = ["method", "phase", "sample_idx", "seconds"]


@dataclass(frozen=True)
class GroundTruthMatrix:
    """Q x M booleans: query pose within ``threshold_m`` of reference pose."""

    is_match: np.ndarray
    threshold_m: float

    def __post_init__(self):
        is_match = np.asarray(self.is_match, dtype=bool)
        if is_match.ndim != 2:
            raise ArgumentError("is_match must be 2-D")
        if self.threshold_m <= 0.0:
            raise ArgumentError("threshold_m must be positive")
        object.__setattr__(self, "is_match", is_match)


@dataclass(frozen=True)
class DistanceMatrix:
    """Q x M descriptor distances, lower = more similar."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ArgumentError("values must be 2-D")
        if not np.isfinite(values).all():
            raise ArgumentError("values must be finite")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_similarity(cls, similarity) -> "DistanceMatrix":
        return cls(-np.asarray(similarity, dtype=np.float64))


@dataclass(frozen=True)
class RecallCurve:
    n_values: np.ndarray
    recall_pct: np.ndarray
    evaluated_queries: int
    skipped_queries: int = 0

    def at(self, n: int) -> float:
        idx = int(np.searchsorted(self.n_values, n))
        if idx >= len(self.n_values) or self.n_values[idx] != n:
            raise ArgumentError(f"N={n} not in curve")
        return float(self.recall_pct[idx])


@dataclass
class EvalRun:
    """All artefacts of one query-vs-reference localisation experiment."""

    query_name: str
    ref_name: str
    method: str
    distances: DistanceMatrix
    ground_truth: GroundTruthMatrix
    recall: RecallCurve
    codebook: Codebook | None = None


def downsample_trajectory(scans, stride: int) -> list:
    """Every ``stride``-th element, starting at index 0."""
    if stride < 1:
        raise ArgumentError(f"stride must be >= 1, got {stride}")
    return list(scans[::stride])


def associate_poses(scans, poses: TrajectoryPoses) -> TrajectoryPoses:
    """Pose of nearest timestamp for each scan (earlier pose wins ties)."""
    if len(poses) == 0:
        raise ArgumentError("pose list is empty")
    ts = np.array([scan.timestamp_ns for scan in scans], dtype=np.int64)
    if len(ts) > 1 and not (np.diff(ts) > 0).all():
        raise ArgumentError("scan timestamps must be strictly increasing")
    ref = poses.timestamps_ns
    right = np.searchsorted(ref, ts)
    left = np.clip(right - 1, 0, len(ref) - 1)
    right = np.clip(right, 0, len(ref) - 1)
    pick = np.where(np.abs(ref[right] - ts) < np.abs(ts - ref[left]), right, left)
    return TrajectoryPoses(ts, poses.easting_m[pick], poses.northing_m[pick])


def ground_truth_matrix(queries: TrajectoryPoses, refs: TrajectoryPoses, threshold_m: float) -> GroundTruthMatrix:
    """Planar distance gate between every query pose and reference pose."""
    if len(queries) == 0 or len(refs) == 0:
        raise ArgumentError("pose lists must be non-empty")
    de = queries.easting_m[:, None] - refs.easting_m[None, :]
    dn = queries.northing_m[:, None] - refs.northing_m[None, :]
    dist = np.hypot(de, dn)
    return GroundTruthMatrix(dist <= threshold_m, float(threshold_m))


def recall_at_n(dist: DistanceMatrix, gt: GroundTruthMatrix, n_max: int) -> RecallCurve:
    """Recall@1..n_max over queries that have at least one true match.

    A query counts as recalled at N when its N smallest-distance
    references (ties broken by lower reference index) include a true
    match. Matchless queries are excluded from the denominator and
    reported in ``skipped_queries``.
    """
    if dist.values.shape != gt.is_match.shape:
        raise ArgumentError(
            f"shape mismatch: distances {dist.values.shape} vs ground truth {gt.is_match.shape}"
        )
    if n_max < 1:
        raise ArgumentError("n_max must be >= 1")
    has_match = gt.is_match.any(axis=1)
    evaluated = int(has_match.sum())
    skipped = int(len(has_match) - evaluated)
    n_values = np.arange(1, n_max + 1)
    if evaluated == 0:
        return RecallCurve(n_values, np.zeros(n_max), 0, skipped)
    order = np.argsort(dist.values[has_match], axis=1, kind="stable")
    gt_in_order = np.take_along_axis(gt.is_match[has_match], order, axis=1)
    first_hit = np.argmax(gt_in_order, axis=1)
    hits_by_rank = np.bincount(first_hit, minlength=dist.values.shape[1])
    cumulative = np.cumsum(hits_by_rank)
    capped = np.minimum(n_values, dist.values.shape[1]) - 1
    recall_pct = 100.0 * cumulative[capped] / evaluated
    return RecallCurve(n_values, recall_pct, evaluated, skipped)


def preprocess_scan(scan: PolarScan, cfg: RunConfig) -> PolarScan:
    """Near-range suppression and range resampling, in one pass over the scan."""
    return resample_range(scan, cfg.target_bins, suppress_bins=cfg.suppress_bins)


def _map_jobs(fn, items, jobs: int):
    """Yield ``fn(item)`` for each item in order, using up to ``jobs`` threads."""
    if jobs <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(fn, items)


def _rows_of(method: str, cfg: RunConfig):
    """Per-scan closure giving the per-azimuth rows a residual method
    clusters and aggregates: folded radial spectra
    (``spectral.fold_half_spectrum``, W//2+1 columns) or preprocessed
    power (W columns)."""
    if method == METHOD_FFT_RADVLAD:
        return lambda s: fold_half_spectrum(radial_fft_magnitude(preprocess_scan(s, cfg)).magnitude)
    if method == METHOD_RADVLAD:
        return lambda s: preprocess_scan(s, cfg).power
    raise ArgumentError(f"method {method!r} does not use a codebook")


def training_rows(scans, method: str, cfg: RunConfig) -> np.ndarray:
    """Stacked per-azimuth training vectors for codebook fitting, as
    ``_rows_of`` gives them.

    Each scan's rows are written straight into one array sized up front,
    so the training set is held once.
    """
    rows_of = _rows_of(method, cfg)
    width = cfg.target_bins // 2 + 1 if method == METHOD_FFT_RADVLAD else cfg.target_bins
    out = np.empty((sum(s.azimuth_count for s in scans), width))
    start = 0
    for s in scans:
        out[start : start + s.azimuth_count] = rows_of(s)
        start += s.azimuth_count
    return out


def fit_method_codebook(ref_scans, method: str, cfg: RunConfig) -> Codebook:
    """The method's codebook, fitted on the training rows of ``ref_scans``.

    Radial spectra are fitted folded; the fold keeps every distance, so
    the centres unfold to the full-width fit's up to rounding, and the
    codebook is ``cfg.target_bins`` wide for either method.
    """
    rows = training_rows(ref_scans, method, cfg)
    codebook = fit_kmeans_pp(rows, cfg.k, tol=cfg.kmeans_tol, seed=cfg.kmeans_seed, max_iter=cfg.kmeans_max_iter)
    if method == METHOD_FFT_RADVLAD:
        codebook = dc_replace(codebook, centres=unfold_half_spectrum(codebook.centres, cfg.target_bins))
    return codebook


def _encoder(method: str, cfg: RunConfig, codebook: Codebook | None = None):
    """Per-scan descriptor closure taking the raw scan: the
    sinogram-spectrum pipeline consumes it as is, the polar methods
    preprocess it first."""
    if method == METHOD_RINGKEY:
        return lambda s: encode_ring_key(preprocess_scan(s, cfg))
    if method == METHOD_RAPLACE:
        return lambda s: encode_raplace(s, cfg.raplace)
    if method not in VLAD_METHODS:
        raise ArgumentError(f"unknown method {method!r}")
    if codebook is None:
        raise ArgumentError(f"method {method!r} requires a codebook")
    rows_of = _rows_of(method, cfg)
    if method == METHOD_RADVLAD:
        return lambda s: encode_vlad(rows_of(s), codebook, l2_normalize=cfg.vlad_l2_normalize)

    # Radial spectra are labelled and aggregated folded, against centres
    # folded once here; the k x (W//2+1) residual unfolds to the k x W
    # descriptor. That needs centres that are spectra themselves.
    k, width = codebook.k, codebook.width
    if width != cfg.target_bins or not is_mirror_symmetric(codebook.centres):
        raise ArgumentError(f"{method} needs a mirror-symmetric codebook of width {cfg.target_bins}")
    folded = dc_replace(codebook, centres=fold_half_spectrum(codebook.centres))

    def encode(scan):
        half = encode_vlad(rows_of(scan), folded, l2_normalize=cfg.vlad_l2_normalize)
        return VladDescriptor(unfold_half_spectrum(half.values.reshape(k, -1), width).reshape(-1), k, width)

    return encode


class PlaceMap(Sequence):
    """Encoded places of one run, held once with what matching reuses.

    A sequence of the method's descriptors. Their arrays are copied, as
    they arrive, into one contiguous read-only float64 ``stack`` and each
    descriptor is re-pointed at its row, so the map holds a single copy
    and writing to a descriptor raises instead of leaving a cache stale.
    Matching reads every row's squared norm (``sq_norms``), or for
    ``raplace`` every spectrum's conjugated angle-axis FFT (``fft_conj``)
    and Frobenius norm (``norms``); each is computed on first use and kept.
    """

    def __init__(self, method: str, descriptors, count: int | None = None):
        if method not in METHODS:
            raise ArgumentError(f"method must be one of {METHODS}, got {method!r}")
        if count is None:
            descriptors = list(descriptors)
            count = len(descriptors)
        if count < 1:
            raise ArgumentError("a map needs at least one descriptor")
        field = "spectrum" if method == METHOD_RAPLACE else "values"
        stack = None
        placed = []
        for i, descriptor in enumerate(descriptors):
            array = getattr(descriptor, field)
            if stack is None:
                stack = np.empty((count, *array.shape))
            elif i >= count or array.shape != stack.shape[1:]:
                raise ArgumentError(f"descriptor {i} does not fit a map of {count} x {stack.shape[1:]}")
            stack[i] = array
            # A view keeps its own write flag, so freezing the stack later would not cover it.
            placed.append(dc_replace(descriptor, **{field: _frozen(stack[i])}))
        if len(placed) != count:
            raise ArgumentError(f"expected {count} descriptors, got {len(placed)}")
        self._field = field
        self.stack = _frozen(stack)
        self._descriptors = tuple(placed)

    def __len__(self) -> int:
        return len(self._descriptors)

    def __getitem__(self, index):
        return self._descriptors[index]

    @functools.cached_property
    def sq_norms(self) -> np.ndarray:
        return _frozen(sq_norms(self.stack))

    @functools.cached_property
    def fft_conj(self) -> np.ndarray:
        return _frozen(np.conj(np.fft.fft(self.stack, axis=1)))

    @functools.cached_property
    def norms(self) -> np.ndarray:
        return _frozen(_frobenius_norms(self.stack))


def _frobenius_norms(spectra: np.ndarray) -> np.ndarray:
    return np.array([np.linalg.norm(spectrum) for spectrum in spectra])


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def encode_trajectory(scans, method: str, cfg: RunConfig, codebook: Codebook | None = None, jobs: int = 1) -> PlaceMap:
    """The map of ``scans``: one descriptor per scan, encoded with up to ``jobs`` workers."""
    return PlaceMap(method, _map_jobs(_encoder(method, cfg, codebook), scans, jobs), len(scans))


def _raplace_similarity_matrix(queries: np.ndarray, refs: PlaceMap) -> np.ndarray:
    """Peak circular correlation of every query spectrum with the map's, normalised by descriptor norms.

    The normalisation bounds every entry by 1 with equality only for a
    self pair at zero shift, so the self descriptor is always the
    similarity extremum; raw correlation would instead favour references
    with large spectral mass.
    """
    fq = np.fft.fft(queries, axis=1)
    scale = np.maximum(_frobenius_norms(queries)[:, None] * refs.norms[None, :], np.finfo(float).tiny)
    sim = np.empty((len(queries), len(refs)))
    for i in range(len(queries)):
        sim[i] = _peak_correlation(fq[i], refs.fft_conj)
    return sim / scale


def distance_matrix_from_descriptors(method: str, query_descs, ref_descs) -> DistanceMatrix:
    """Queries-by-references distances. The references are matched as a
    ``PlaceMap``, built here from a plain sequence of descriptors; the
    queries are stacked, or a query ``PlaceMap``'s stack is taken as is."""
    refs = ref_descs if isinstance(ref_descs, PlaceMap) else PlaceMap(method, ref_descs)
    shape = refs.stack.shape[1:]
    if isinstance(query_descs, PlaceMap):
        queries = query_descs.stack
    else:
        queries = [getattr(descriptor, refs._field) for descriptor in query_descs]
    if len(queries) == 0 or any(query.shape != shape for query in queries):
        raise ArgumentError(f"queries must be one or more descriptors of the reference shape {shape}")
    queries = np.asarray(queries)
    if method == METHOD_RAPLACE:
        return DistanceMatrix.from_similarity(_raplace_similarity_matrix(queries, refs))
    return DistanceMatrix(pairwise_sq_dist(queries, refs.stack, b_sq=refs.sq_norms))


def _timed_map(fn, items, jobs: int, seconds: list):
    """``_map_jobs`` that appends each call's duration to ``seconds`` in item order."""

    def timed(item):
        start = time.perf_counter()
        result = fn(item)
        return result, time.perf_counter() - start

    for result, elapsed in _map_jobs(timed, items, jobs):
        seconds.append(elapsed)
        yield result


def pair_setup(query: Trajectory, ref: Trajectory, cfg: RunConfig):
    """Both trajectories downsampled by ``cfg.stride``, and the ground
    truth between them: ``(query_scans, ref_scans, gt)``."""
    query_scans = downsample_trajectory(query.scans, cfg.stride)
    ref_scans = downsample_trajectory(ref.scans, cfg.stride)
    if not query_scans or not ref_scans:
        raise ArgumentError("both trajectories must contain at least one scan")
    gt = ground_truth_matrix(
        associate_poses(query_scans, query.poses),
        associate_poses(ref_scans, ref.poses),
        cfg.threshold_m,
    )
    return query_scans, ref_scans, gt


def run_pair(
    query: Trajectory,
    ref: Trajectory,
    method: str,
    cfg: RunConfig,
    out_dir=None,
    jobs: int = 1,
) -> EvalRun:
    """Localise a query trajectory against a reference map with one method.

    Both trajectories are downsampled by ``cfg.stride``; the codebook (for
    the residual-aggregation methods) is fitted on the reference side
    only. When ``out_dir`` is given, results.csv, distances.dmat,
    timing.csv (per-scan encode durations plus one distance-matrix
    sample; values naturally vary between runs) and any codebook are
    written there.
    """
    query_scans, ref_scans, gt = pair_setup(query, ref, cfg)

    codebook = None
    if method in VLAD_METHODS:
        codebook = fit_method_codebook(ref_scans, method, cfg)

    encode = _encoder(method, cfg, codebook)
    encode_seconds = []
    ref_map = PlaceMap(method, _timed_map(encode, ref_scans, jobs, encode_seconds), len(ref_scans))
    query_map = PlaceMap(method, _timed_map(encode, query_scans, jobs, encode_seconds), len(query_scans))

    start = time.perf_counter()
    distances = distance_matrix_from_descriptors(method, query_map, ref_map)
    distance_seconds = time.perf_counter() - start

    recall = recall_at_n(distances, gt, cfg.n_max)
    run = EvalRun(query.name, ref.name, method, distances, gt, recall, codebook)

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_results_csv(out_dir / "results.csv", [run])
        write_distance_matrix(out_dir / "distances.dmat", distances)
        timing = TimingReport(
            method,
            np.array(encode_seconds),
            np.array([distance_seconds]),
        )
        write_timing_csv(out_dir / "timing.csv", [timing])
        if codebook is not None:
            save_codebook(out_dir / "codebook.cdbk", codebook)
    return run


def write_results_csv(path, runs) -> None:
    """One row per (run, N): query_traj,ref_traj,method,N,recall_pct,evaluated,skipped."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_CSV_HEADER)
        for run in runs:
            for n, pct in zip(run.recall.n_values, run.recall.recall_pct):
                writer.writerow(
                    [
                        run.query_name,
                        run.ref_name,
                        run.method,
                        int(n),
                        f"{pct:.6f}",
                        run.recall.evaluated_queries,
                        run.recall.skipped_queries,
                    ]
                )


def write_distance_matrix(path, dist: DistanceMatrix) -> None:
    q, m = dist.values.shape
    header = _DMAT_HEADER.pack(DMAT_MAGIC, q, m)
    Path(path).write_bytes(header + dist.values.astype("<f4").tobytes())


def read_distance_matrix(path) -> DistanceMatrix:
    from .errors import IngestError

    path = Path(path)
    buf = path.read_bytes()
    if len(buf) < _DMAT_HEADER.size:
        raise IngestError(f"{path}: file shorter than header")
    magic, q, m = _DMAT_HEADER.unpack_from(buf)
    if magic != DMAT_MAGIC:
        raise IngestError(f"{path}: bad magic {magic!r}")
    need = _DMAT_HEADER.size + q * m * 4
    if len(buf) != need:
        raise IngestError(f"{path}: expected {need} bytes, found {len(buf)}")
    values = np.frombuffer(buf, dtype="<f4", offset=_DMAT_HEADER.size)
    return DistanceMatrix(values.astype(np.float64).reshape(q, m))


@dataclass
class TimingReport:
    """Per-sample wall-clock durations for one method's two phases."""

    method: str
    build_seconds: np.ndarray
    distance_seconds: np.ndarray
    blas_threads: int | None = None

    def median(self, phase: str) -> float:
        return float(np.median(self._samples(phase)))

    def percentile(self, phase: str, q: float) -> float:
        return float(np.percentile(self._samples(phase), q))

    def _samples(self, phase: str) -> np.ndarray:
        if phase == "build":
            return self.build_seconds
        if phase == "distance":
            return self.distance_seconds
        raise ArgumentError(f"unknown phase {phase!r}")


def _openblas_thread_functions():
    """(get, set) thread-count functions of the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    functions = _openblas_thread_functions()
    return None if functions is None else int(functions[0]())


@contextlib.contextmanager
def _single_thread_context():
    """Pin BLAS to one thread for the block, then restore the previous count.

    Uses ``threadpoolctl`` when it is installed, else OpenBLAS's own
    setter; warns when neither is available.
    """
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        pass
    else:
        with threadpool_limits(limits=1):
            yield
        return
    functions = _openblas_thread_functions()
    if functions is None:
        warnings.warn(
            "cannot pin BLAS to one thread (no threadpoolctl, no OpenBLAS found); "
            "timings use the BLAS default thread count",
            RuntimeWarning,
            stacklevel=3,
        )
        yield
        return
    get, put = functions
    previous = get()
    put(1)
    try:
        yield
    finally:
        put(previous)


def bench_timings(method: str, scans, repetitions: int, cfg: RunConfig | None = None) -> TimingReport:
    """Time descriptor construction and one descriptor-pair comparison.

    Each build sample times one raw scan's encode, preprocessing
    included, through the same per-method encoder and timed loop
    (``_timed_map``) as ``run_pair``, cycling through the given scans;
    each distance sample times one distance/similarity evaluation
    between two fixed descriptors, through the same loop. The
    codebook is fitted on the scans outside the timed region, and BLAS
    thread pools are pinned to one thread so the samples are comparable
    across methods; the report records the BLAS thread count in effect
    while timing.
    """
    if method not in METHODS:
        raise ArgumentError(f"method must be one of {METHODS}, got {method!r}")
    if not scans:
        raise ArgumentError("at least one scan is required")
    if repetitions < 0:
        raise ArgumentError("repetitions must be >= 0")
    if repetitions == 0:
        return TimingReport(method, np.zeros(0), np.zeros(0))
    cfg = cfg if cfg is not None else RunConfig(method=method)
    codebook = fit_method_codebook(scans, method, cfg) if method in VLAD_METHODS else None
    encode = _encoder(method, cfg, codebook)
    compare = raplace_similarity if method == METHOD_RAPLACE else descriptor_distance

    build, distance = [], []
    with _single_thread_context():
        threads = blas_threads()
        for _ in _timed_map(encode, [scans[i % len(scans)] for i in range(repetitions)], 1, build):
            pass
        left = encode(scans[0])
        right = encode(scans[min(1, len(scans) - 1)])
        for _ in _timed_map(functools.partial(compare, left), [right] * repetitions, 1, distance):
            pass
    return TimingReport(method, np.array(build), np.array(distance), threads)


def write_timing_csv(path, reports) -> None:
    """Flatten reports to rows: method,phase,sample_idx,seconds."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TIMING_CSV_HEADER)
        for report in reports:
            for phase in ("build", "distance"):
                for i, seconds in enumerate(report._samples(phase)):
                    writer.writerow([report.method, phase, i, f"{seconds:.9e}"])
