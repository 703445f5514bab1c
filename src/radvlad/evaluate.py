"""Trajectory-pair localisation experiments and timing benchmarks.

A run matches every downsampled query scan against a reference map by
descriptor distance, gates correctness by planar pose distance, and
reports Recall@N. Distance matrices are oriented queries-by-references;
similarity scores (the sinogram-spectrum method) are negated by the
map's match so that lower always means more similar.

Every method runs one pipeline: per-azimuth rows, a codebook fitted on
the reference run only, a per-scan encode, and a match against the map.
``Method`` makes each per-method choice in that pipeline once; the rest
of this module prepares a ``Method`` and calls it.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import time
import warnings
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from dataclasses import replace as dc_replace
from pathlib import Path

import numpy as np

from ._files import FrameReader, ingesting, write_csv_rows, write_frame
from .codebook import Codebook, fit_kmeans_pp, save_codebook, sq_dist_of_products, sq_norms
from .config import (
    METHOD_FFT_RADVLAD,
    METHOD_RADVLAD,
    METHOD_RAPLACE,
    METHOD_RINGKEY,
    METHODS,
    RunConfig,
)
from .descriptors import (
    RaplaceDescriptor,
    RingKeyDescriptor,
    VladDescriptor,
    _peak_correlation,
    descriptor_distance,
    encode_raplace,
    encode_ring_key,
    encode_vlad,
    raplace_similarity,
)
from .errors import ArgumentError, IngestError, bounded_int, finite_array, finite_positive
from .runs import scan_headers
from .scans import (
    PolarScan,
    Trajectory,
    TrajectoryPoses,
    resample_range,
    suppress_near_range,  # perfbench/tracing.py wraps it in this namespace
)
from .spectral import fold_half_spectrum, is_mirror_symmetric, radial_fft_magnitude, unfold_half_spectrum

DMAT_MAGIC = b"DMAT"
_DMAT_HEADER = "<II"

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
        finite_positive("threshold_m", self.threshold_m)
        object.__setattr__(self, "is_match", is_match)


@dataclass(frozen=True)
class DistanceMatrix:
    """Q x M descriptor distances, lower = more similar."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", finite_array("distances", self.values, 2))


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


def downsample_trajectory(scans, stride: int):
    """Every ``stride``-th element, starting at index 0, as the sequence's
    own slice: of a run's ``ScanFiles``, another that reads only those scans."""
    bounded_int("stride", stride, 1)
    return scans[::stride]


def associate_poses(scans, poses: TrajectoryPoses) -> TrajectoryPoses:
    """Pose of nearest timestamp for each scan (earlier pose wins ties).
    The scans of a run's ``ScanFiles`` are not read: their timestamps come
    from the files' headers."""
    if len(poses) == 0:
        raise ArgumentError("pose list is empty")
    ts = np.array([header.timestamp_ns for header in scan_headers(scans)], dtype=np.int64)
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
    bounded_int("n_max", n_max, 1)
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
    """Yield ``fn(item)`` for each item in order, using up to ``jobs`` threads.
    Items are taken from ``items`` only as results are yielded, at most
    ``2 * jobs`` ahead, so a run whose scans are read when used holds only
    the scans in flight."""
    if bounded_int("jobs", jobs, 1) == 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        pending = collections.deque()
        try:
            for item in items:
                pending.append(pool.submit(fn, item))
                if len(pending) == 2 * jobs:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


class Method:
    """One method, prepared: every choice that depends on which method runs
    is made here, once, from ``(name, cfg, codebook)``: the per-azimuth
    ``rows`` a residual method clusters and aggregates (``width`` columns;
    None for the methods without a codebook; for ``fft_radvlad`` the
    folded half spectrum, ``SpectralScan.folded``, with no full-width
    spectrum built), ``fit``, the per-scan ``encode``, the
    ``descriptor_class`` and ``field`` a ``PlaceMap`` takes, whether it
    ``folds`` them, the store class a map ``holds`` them in, which owns the
    map's match, and the descriptor-pair ``compare``, which reads the rows
    a map holds, so it never unfolds a folded pair. ``cfg`` defaults to the
    method's ``RunConfig``. The stages it runs are looked up in this
    module's globals when they run, not when it is built.
    """

    def __init__(self, name: str, cfg: RunConfig | None = None, codebook: Codebook | None = None):
        if name not in METHODS:
            raise ArgumentError(f"method must be one of {METHODS}, got {name!r}")
        cfg = cfg if cfg is not None else RunConfig(method=name)
        self.name, self.cfg, self.codebook = name, cfg, codebook
        self.descriptor_class, self.field, self.folds = VladDescriptor, "values", False
        self.holds = SectionedRows
        self.rows, self.width, self.encode = None, cfg.target_bins, self._needs_codebook
        # The encoders capture locals, not self, so a method that can encode
        # holds no reference cycle and is freed as soon as it is dropped.
        if name == METHOD_RINGKEY:
            self.descriptor_class = RingKeyDescriptor
            self.encode = lambda scan: encode_ring_key(preprocess_scan(scan, cfg))
        elif name == METHOD_RAPLACE:
            self.descriptor_class, self.field = RaplaceDescriptor, "spectrum"
            self.holds = Spectra
            self.encode = lambda scan: encode_raplace(scan, cfg.raplace)
        elif name == METHOD_RADVLAD:
            self.rows = rows = lambda scan: preprocess_scan(scan, cfg).power
            if codebook is not None:
                self.encode = lambda scan: encode_vlad(rows(scan), codebook)
        else:
            self.rows = rows = lambda scan: radial_fft_magnitude(preprocess_scan(scan, cfg)).folded
            self.width, self.folds = cfg.target_bins // 2 + 1, True
            if codebook is not None:
                self.encode = _folded_encoder(rows, codebook, cfg)

    def _needs_codebook(self, scan):
        raise ArgumentError(f"method {self.name!r} requires a codebook")

    def training_rows(self, scans: Sequence) -> np.ndarray:
        """Every scan's ``rows``, copied scan by scan into one array
        allocated once at its exact size, in one pass over ``scans``. The
        size is the sum of the scans' azimuth counts, which a run's
        ``ScanFiles`` reads from the files' headers, so each scan is read
        once and the rows are never held twice. ``scans`` is a sequence,
        since it is counted before it is read."""
        if not isinstance(scans, Sequence):
            raise ArgumentError(f"training scans must be a sequence, not {type(scans).__name__}")
        counts = [header.azimuth_count for header in scan_headers(scans)]
        out = np.empty((sum(counts), self.width))
        at = 0
        for scan, count in zip(scans, counts):
            rows = self.rows(scan)
            if rows.shape[0] != count:
                raise IngestError(f"scan {scan.id!r} has {rows.shape[0]} azimuths; its header said {count}")
            out[at : at + count] = rows
            at += count
        return out

    def fit(self, scans) -> "Method":
        """This method with its codebook fitted on the training rows of
        ``scans``, or itself if it uses no codebook. Radial spectra are
        fitted folded; the fold keeps every distance, so the centres unfold
        to the full-width fit's up to rounding, and the codebook is
        ``cfg.target_bins`` wide for either residual method."""
        if self.rows is None:
            return self
        cfg = self.cfg
        rows = self.training_rows(scans)
        codebook = fit_kmeans_pp(rows, cfg.k)
        if self.folds:
            codebook = dc_replace(codebook, centres=unfold_half_spectrum(codebook.centres, cfg.target_bins))
        return Method(self.name, cfg, codebook)

    def array_of(self, descriptor) -> np.ndarray:
        """The row a map holds of ``descriptor``, which must be of this
        method's class: its array, or, when the method ``folds``, each of
        its k sections folded onto its W//2+1 leading columns. A descriptor
        this module made from that row (``VladDescriptor._of_folded``) gives
        it back as kept; any other is folded here. The fold keeps every
        distance only between mirror-symmetric sections, so other sections
        are an ``ArgumentError``."""
        if not isinstance(descriptor, self.descriptor_class):
            raise ArgumentError(f"{self.name} takes {self.descriptor_class.__name__}, not {type(descriptor).__name__}")
        if not self.folds:
            return getattr(descriptor, self.field)
        if descriptor._folded is not None:
            return descriptor._folded
        sections = descriptor.values.reshape(descriptor.k, descriptor.w)
        if not is_mirror_symmetric(sections):
            raise ArgumentError(f"{self.name} takes descriptors whose sections are mirror-symmetric")
        return fold_half_spectrum(sections).reshape(-1)

    def stack_of(self, descriptors, count: int | None = None, holds=None) -> tuple:
        """``(store, layout)``: the rows (``array_of``) of one or more
        ``descriptors``, walked once and taken as they arrive into the store
        class the method ``holds`` of ``count`` rows (by default, as many as
        there are), or into ``holds`` when given, and the layout they share:
        a ``VladDescriptor``'s (k, w), else the row's shape. A vector
        method's map holds ``SectionedRows`` (a ``VladDescriptor`` row is
        its k sections, a ring key one section); ``raplace``'s, and any
        plain query list, one dense array (``Spectra``)."""
        if count is None:
            descriptors = list(descriptors)
            count = len(descriptors)
        if count < 1:
            raise ArgumentError("need at least one descriptor")
        layout = None

        def rows():
            nonlocal layout
            placed = 0
            for descriptor in descriptors:
                row = self.array_of(descriptor)
                if self.descriptor_class is VladDescriptor:
                    shape, row = (descriptor.k, descriptor.w), row.reshape(descriptor.k, -1)
                else:
                    shape = row.shape
                if layout is None:
                    layout = shape
                elif placed >= count or shape != layout:
                    raise ArgumentError(f"descriptor {placed} does not fit {count} descriptors of layout {layout}")
                yield row
                placed += 1
            if placed != count:
                raise ArgumentError(f"expected {count} descriptors, got {placed}")

        return (holds or self.holds).of_rows(rows(), count), layout

    def descriptor_of(self, row: np.ndarray, layout: tuple):
        """The descriptor of ``layout`` whose ``array_of`` is the read-only
        ``row``; its array is read-only too. A folded row is kept, not
        unfolded, until the descriptor's ``values`` are read."""
        if self.descriptor_class is not VladDescriptor:
            return self.descriptor_class(row)
        k, w = layout
        if self.folds:
            return VladDescriptor._of_folded(row, k, w)
        return VladDescriptor(row, k, w)

    def compare(self, a, b) -> float:
        """One descriptor pair's score: ``raplace_similarity`` for
        ``raplace``, else the squared distance of the rows a map holds of
        them (``array_of``). The fold keeps every distance, so a folded
        pair is compared folded, with no unfold."""
        if self.name == METHOD_RAPLACE:
            return raplace_similarity(a, b)
        return descriptor_distance(self.array_of(a), self.array_of(b))


def _folded_encoder(rows, codebook: Codebook, cfg: RunConfig):
    """``fft_radvlad``'s encode. Radial spectra are labelled and aggregated
    folded, against the codebook's folded centres (``Codebook.folded``,
    built once per codebook); the k x (W//2+1) residual is kept as the
    k x W descriptor's folded row, which unfolds only when its ``values``
    are read. That needs a codebook as wide as the spectra, whose centres
    are spectra themselves."""
    if codebook.width != cfg.target_bins:
        raise ArgumentError(
            f"{METHOD_FFT_RADVLAD} needs a codebook of width target_bins = {cfg.target_bins}, got {codebook.width}"
        )
    k, width, folded = codebook.k, codebook.width, codebook.folded

    def encode(scan):
        half = encode_vlad(rows(scan), folded)
        return VladDescriptor._of_folded(_frozen(half.values), k, width)

    return encode


def fit_method_codebook(ref_scans, method: str, cfg: RunConfig) -> Codebook:
    """The method's codebook, fitted on the training rows of ``ref_scans`` (see ``Method.fit``)."""
    codebook = Method(method, cfg).fit(ref_scans).codebook
    if codebook is None:
        raise ArgumentError(f"method {method!r} does not use a codebook")
    return codebook


class PlaceMap(Sequence):
    """Encoded places of one run, held once with what matching reuses.

    A sequence of one method's descriptors; ``method`` is that ``Method``,
    or its name. Each descriptor's row is taken, as it arrives, into the
    map's read-only ``store`` (``Method.stack_of``), which is all the map
    keeps of it: for a vector method ``SectionedRows``, only the live
    sections of each row (folded for ``fft_radvlad``), and for ``raplace``
    one contiguous float64 array of the spectra. The descriptors share one
    ``layout``, and indexing rebuilds each, read-only, from its row. The
    store owns the match (``store.distances``) and what it caches of the
    rows for it.
    """

    def __init__(self, method, descriptors, count: int | None = None):
        self.method = method if isinstance(method, Method) else Method(method)
        self.store, self.layout = self.method.stack_of(descriptors, count)

    def __len__(self) -> int:
        return len(self.store)

    def __getitem__(self, index):
        rows = range(len(self))[index]
        if isinstance(rows, range):
            return tuple(self[i] for i in rows)
        return self.method.descriptor_of(self.store[rows], self.layout)


@dataclass(frozen=True, eq=False)
class SectionedRows:
    """``count`` rows of equal sections, held as only their live sections.

    A section is live when some entry of it is not +0.0 (a VLAD section
    whose centre gets no azimuth row of a scan is exactly zero). ``data``
    holds the live sections section by section: section s of every row it
    is live in forms the contiguous read-only block
    ``data[bounds[s]:bounds[s + 1]]``, whose rows belong to the rows
    ``owners[bounds[s]:bounds[s + 1]]``, in ascending order. Indexing
    rebuilds a row, read-only, with the same bytes: its dead sections are
    +0.0, and a live section is kept as it was, signed zeros included.
    """

    data: np.ndarray
    owners: np.ndarray
    bounds: np.ndarray
    count: int

    @classmethod
    def of_rows(cls, rows, count: int) -> "SectionedRows":
        """The ``count`` rows of ``rows``, each of k sections of equal width
        as a k x width array (or one section, as a flat array), taken one
        at a time; no row is held. Each live section is copied, as it
        arrives, into room for ``count`` rows of its section in an array
        with room for every section of every row; the blocks are then
        moved down into one run and the array is shrunk in place to them,
        so no section is held twice and the room never filled is given
        back."""
        data, lives = None, []
        for row in rows:
            row = np.atleast_2d(row)
            if data is None:
                data, sizes = np.empty((len(row) * count, row.shape[1])), np.zeros(len(row), dtype=np.intp)
            live = _live(row)
            data[live * count + sizes[live]] = row[live]
            sizes[live] += 1
            lives.append(live)
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        starts = bounds.tolist()
        for s in np.flatnonzero(sizes).tolist():
            if starts[s] != s * count:
                data[starts[s] : starts[s + 1]] = data[s * count : s * count + starts[s + 1] - starts[s]]
        data.resize((starts[-1], data.shape[1]), refcheck=False)
        owners = np.repeat(np.arange(count), [len(live) for live in lives])
        owners = owners[np.argsort(np.concatenate(lives), kind="stable")]
        return cls(_frozen(data), _frozen(owners), _frozen(bounds), count)

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, row: int) -> np.ndarray:
        """Row ``row`` (in ``range(count)``), flat."""
        out = np.zeros((len(self.bounds) - 1, self.data.shape[1]))
        at = np.flatnonzero(self.owners == row)
        out[np.searchsorted(self.bounds, at, side="right") - 1] = self.data[at]
        return _frozen(out.reshape(-1))

    @functools.cached_property
    def sq_norms(self) -> np.ndarray:
        """Each row's squared norm, summed over its live sections in ascending order."""
        return _frozen(np.bincount(self.owners, sq_norms(self.data), minlength=self.count))

    def distances(self, queries) -> np.ndarray:
        """Squared distance of every query row to every row held here.
        ``queries`` is a sequence of rows of as many sections of the same
        width (a dense stack, or another ``SectionedRows``), read one at a
        time. Each distance is ‖q‖² − 2q·r + ‖r‖² (``sq_dist_of_products``),
        with ‖q‖² summed over the query's live sections and ‖r‖² cached
        here. For each section s the query fills, block s times the query's
        section s gives q_s·r_s for every row live in s, and those products
        are scatter-added into the rows that own them, in ascending section
        order. A section dead on either side adds q_s·r_s = 0, and its
        block is never read."""
        products, query_sq = np.empty((len(queries), self.count)), np.empty(len(queries))
        starts = self.bounds.tolist()
        for i in range(len(queries)):
            row = queries[i].reshape(len(starts) - 1, -1)
            live = _live(row)
            query_sq[i] = sq_norms(row[live]).sum()
            parts = np.zeros(len(self.owners))
            for s in live.tolist():
                block = slice(starts[s], starts[s + 1])
                np.matmul(self.data[block], row[s], out=parts[block])
            products[i] = np.bincount(self.owners, parts, minlength=self.count)
        return sq_dist_of_products(products, query_sq, self.sq_norms)


def _live(sections: np.ndarray) -> np.ndarray:
    """Indices of the rows of ``sections`` (k x width) that hold some entry
    other than +0.0: tested bit by bit, so a section of negative zeros is
    live and is kept with its signs."""
    return np.flatnonzero(np.bitwise_or.reduce(np.ascontiguousarray(sections).view(np.uint64), axis=1))


@dataclass(frozen=True, eq=False)
class Spectra:
    """Rows held as one dense read-only array, ``data``: a ``raplace`` map's
    spectra, or the rows of any plain query list. A map's conjugated
    angle-axis FFTs (``fft_conj``) and Frobenius norms (``norms``) are
    computed on first use and kept."""

    data: np.ndarray

    @classmethod
    def of_rows(cls, rows, count: int) -> "Spectra":
        """The ``count`` rows of ``rows``, copied as they arrive into one new array."""
        stack = None
        for placed, row in enumerate(rows):
            if stack is None:
                stack = np.empty((count, *row.shape))
            stack[placed] = row
        return cls(_frozen(stack))

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, row: int) -> np.ndarray:
        return self.data[row]

    @functools.cached_property
    def fft_conj(self) -> np.ndarray:
        return _frozen(np.conj(np.fft.fft(self.data, axis=1)))

    @functools.cached_property
    def norms(self) -> np.ndarray:
        return _frozen(np.array([np.linalg.norm(spectrum) for spectrum in self.data]))

    def distances(self, queries) -> np.ndarray:
        """Negated peak circular correlation of every query spectrum with
        every spectrum held here, normalised by both Frobenius norms.
        ``queries`` is a sequence of spectra of the same shape, read one at
        a time.

        The normalisation bounds every similarity by 1 with equality only
        for a self pair at zero shift, so the self descriptor is always the
        distance minimum; raw correlation would instead favour references
        with large spectral mass.
        """
        out = np.empty((len(queries), len(self)))
        for i in range(len(queries)):
            query = queries[i]
            scale = np.maximum(np.linalg.norm(query) * self.norms, np.finfo(float).tiny)
            out[i] = -(_peak_correlation(np.fft.fft(query, axis=0), self.fft_conj) / scale)
        return out


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def encode_trajectory(scans, method: str, cfg: RunConfig, codebook: Codebook | None = None, jobs: int = 1) -> PlaceMap:
    """The map of ``scans``: one descriptor per scan, encoded with up to ``jobs`` workers."""
    prepared = Method(method, cfg, codebook)
    return PlaceMap(prepared, _map_jobs(prepared.encode, scans, jobs), len(scans))


def distance_matrix_from_descriptors(method: str, query_descs, ref_descs) -> DistanceMatrix:
    """Queries-by-references distances under ``method``. The references are
    matched as a ``PlaceMap``, built here from a plain sequence of
    descriptors; plain queries are stacked by the same ``Method.stack_of``
    into one dense ``Spectra`` but not mapped, or a query ``PlaceMap``'s
    store is taken as is; the map's store matches them. A map of another
    method, or a descriptor not of the method's class or the map's layout,
    is an ``ArgumentError``."""
    for given in (ref_descs, query_descs):
        if isinstance(given, PlaceMap) and given.method.name != method:
            raise ArgumentError(f"cannot match by {method}: given a {given.method.name} map")
    refs = ref_descs if isinstance(ref_descs, PlaceMap) else PlaceMap(method, ref_descs)
    if isinstance(query_descs, PlaceMap):
        queries, layout = query_descs.store, query_descs.layout
    else:
        queries, layout = refs.method.stack_of(query_descs, holds=Spectra)
    if layout != refs.layout:
        raise ArgumentError(f"queries must be descriptors of the reference layout {refs.layout}, not {layout}")
    return DistanceMatrix(refs.store.distances(queries))


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
    prepared = Method(method, cfg).fit(ref_scans)

    encode_seconds = []
    ref_map = PlaceMap(prepared, _timed_map(prepared.encode, ref_scans, jobs, encode_seconds), len(ref_scans))
    query_map = PlaceMap(prepared, _timed_map(prepared.encode, query_scans, jobs, encode_seconds), len(query_scans))

    start = time.perf_counter()
    distances = distance_matrix_from_descriptors(method, query_map, ref_map)
    distance_seconds = time.perf_counter() - start

    recall = recall_at_n(distances, gt, cfg.n_max)
    run = EvalRun(query.name, ref.name, method, distances, gt, recall, prepared.codebook)

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
        if prepared.codebook is not None:
            save_codebook(out_dir / "codebook.cdbk", prepared.codebook)
    return run


def write_results_csv(path, runs) -> None:
    """One row per (run, N): query_traj,ref_traj,method,N,recall_pct,evaluated,skipped."""
    rows = (
        [run.query_name, run.ref_name, run.method, int(n), f"{pct:.6f}"]
        + [run.recall.evaluated_queries, run.recall.skipped_queries]
        for run in runs
        for n, pct in zip(run.recall.n_values, run.recall.recall_pct)
    )
    write_csv_rows(path, RESULTS_CSV_HEADER, rows)


def write_distance_matrix(path, dist: DistanceMatrix) -> None:
    write_frame(path, DMAT_MAGIC, _DMAT_HEADER, dist.values.shape, dist.values, "<f4")


def read_distance_matrix(path) -> DistanceMatrix:
    frame = FrameReader(path, DMAT_MAGIC)
    values = frame.payload("<f4", frame.header(_DMAT_HEADER)).astype(np.float64)
    with ingesting(frame.path):
        return DistanceMatrix(values)


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
    """Pin BLAS to one thread for the block with OpenBLAS's own setter, then
    restore the previous count; warns when no OpenBLAS is found."""
    functions = _openblas_thread_functions()
    if functions is None:
        warnings.warn(
            "cannot pin BLAS to one thread (no OpenBLAS found); "
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
    included, through the same ``Method.encode`` and timed loop
    (``_timed_map``) as ``run_pair``, cycling through the first
    ``repetitions`` scans (or all, if fewer), each read once and held;
    each distance sample times one ``Method.compare`` between two fixed
    descriptors, through the same loop. The
    codebook is fitted on the scans outside the timed region, and BLAS
    thread pools are pinned to one thread so the samples are comparable
    across methods; the report records the BLAS thread count in effect
    while timing.
    """
    prepared = Method(method, cfg)
    if not scans:
        raise ArgumentError("at least one scan is required")
    if bounded_int("repetitions", repetitions, 0) == 0:
        return TimingReport(method, np.zeros(0), np.zeros(0))
    held = list(scans[:repetitions])
    prepared = prepared.fit(held if len(held) == len(scans) else scans)
    encode = prepared.encode

    build, distance = [], []
    with _single_thread_context():
        threads = blas_threads()
        for _ in _timed_map(encode, [held[i % len(held)] for i in range(repetitions)], 1, build):
            pass
        left = encode(held[0])
        right = encode(held[min(1, len(held) - 1)])
        for _ in _timed_map(functools.partial(prepared.compare, left), [right] * repetitions, 1, distance):
            pass
    return TimingReport(method, np.array(build), np.array(distance), threads)


def write_timing_csv(path, reports) -> None:
    """Flatten reports to rows: method,phase,sample_idx,seconds."""
    rows = (
        [report.method, phase, i, f"{seconds:.9e}"]
        for report in reports
        for phase in ("build", "distance")
        for i, seconds in enumerate(report._samples(phase))
    )
    write_csv_rows(path, TIMING_CSV_HEADER, rows)
