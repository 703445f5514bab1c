"""k-means++ codebooks over radial response vectors.

Cluster centres are fitted once per reference trajectory on the pooled
per-azimuth vectors of all its scans, then reused to aggregate residuals
into place descriptors.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ArgumentError, IngestError

CDBK_MAGIC = b"CDBK"
_CDBK_HEADER = struct.Struct("<4sIIQ")
# Elements squared at once by sq_norms: 512 KiB of float64.
_NORM_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class Codebook:
    """Fitted cluster centres plus fit diagnostics.

    ``inertia`` is the sum of squared distances from every training vector
    to its nearest centre, under the returned centres. ``inertia_trace``
    records that value for each Lloyd iteration in order.
    """

    centres: np.ndarray
    inertia: float
    iterations_run: int
    seed: int = 0
    inertia_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))
    centre_sq_norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # The centres are copied and frozen so their cached norms cannot go stale.
        centres = np.array(self.centres, dtype=np.float64)
        if centres.ndim != 2 or centres.shape[0] < 1:
            raise ArgumentError(f"centres must be a k x W matrix, got shape {centres.shape}")
        if not np.isfinite(centres).all():
            raise ArgumentError("centres must be finite")
        if self.inertia < 0.0:
            raise ArgumentError("inertia must be non-negative")
        centres.setflags(write=False)
        object.__setattr__(self, "centres", centres)
        object.__setattr__(self, "centre_sq_norms", sq_norms(centres))
        object.__setattr__(self, "inertia_trace", np.asarray(self.inertia_trace, dtype=np.float64))

    @property
    def k(self) -> int:
        return self.centres.shape[0]

    @property
    def width(self) -> int:
        return self.centres.shape[1]


def sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared L2 norm of every row of ``x``.

    Rows are squared and summed a block at a time, so a large stack's
    squares are never held whole; each row's sum is the one a single
    pass over ``x`` gives.
    """
    out = np.empty(x.shape[0])
    step = max(1, _NORM_BLOCK_ELEMENTS // max(1, x.shape[1]))
    for start in range(0, x.shape[0], step):
        block = x[start : start + step]
        np.multiply(block, block).sum(axis=1, out=out[start : start + step])
    return out


def pairwise_sq_dist(a: np.ndarray, b: np.ndarray, a_sq=None, b_sq=None) -> np.ndarray:
    """Squared Euclidean distance between every row of ``a`` and of ``b``.

    Expanded as |a|^2 - 2 a.b + |b|^2 so that one matrix product does the
    work; ``a_sq`` and ``b_sq`` are the rows' ``sq_norms`` when the caller
    already holds them. Entries that rounding pushes below zero are
    clamped to zero.
    """
    if a_sq is None:
        a_sq = sq_norms(a)
    if b_sq is None:
        b_sq = sq_norms(b)
    # Scaling the product, not ``a``, gives the same bits without an
    # a-sized temporary.
    d2 = a @ b.T
    d2 *= -2.0
    d2 += a_sq[:, None]
    d2 += b_sq[None, :]
    return np.maximum(d2, 0.0, out=d2)


def _seed_centres(vectors: np.ndarray, vector_sq: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    # D^2 seeding: each next centre is drawn with probability proportional
    # to its squared distance from the nearest centre chosen so far.
    n = vectors.shape[0]
    centres = np.empty((k, vectors.shape[1]))
    idx = int(rng.integers(n))
    d2 = np.full(n, np.inf)
    for i in range(k):
        if i > 0:
            total = float(d2.sum())
            if total <= 0.0:
                raise ArgumentError(f"k={k} exceeds the number of distinct vectors")
            threshold = rng.random() * total
            idx = min(int(np.searchsorted(np.cumsum(d2), threshold, side="right")), n - 1)
        centres[i] = vectors[idx]
        if i < k - 1:
            np.minimum(d2, _sq_dist_to_vector(vectors, vector_sq, idx), out=d2)
    return centres


def _sq_dist_to_vector(vectors: np.ndarray, vector_sq: np.ndarray, idx: int) -> np.ndarray:
    """Squared distance of every vector to vector ``idx``: one matrix-vector
    product against the cached norms."""
    d2 = pairwise_sq_dist(vectors, vectors[idx : idx + 1], vector_sq, vector_sq[idx : idx + 1])[:, 0]
    # Exact copies of the vector lie at distance zero, so they are never
    # drawn again; the expansion's rounding would leave them a small weight.
    # A copy has the same cached norm, which keeps the exact compare small.
    twins = np.flatnonzero((vector_sq == vector_sq[idx]) & (d2 != 0.0))
    d2[twins[(vectors[twins] == vectors[idx]).all(axis=1)]] = 0.0
    return d2


def cluster_sums(rows: np.ndarray, labels: np.ndarray, k: int):
    """Per-cluster sum of ``rows`` and member count, for labels in [0, k).

    One matrix product of the k x n one-hot membership matrix with the
    rows; a cluster with no members sums to exactly zero.
    """
    members = np.zeros((k, rows.shape[0]))
    members[labels, np.arange(rows.shape[0])] = 1.0
    return members @ rows, np.bincount(labels, minlength=k)


def _update_centres(vectors: np.ndarray, labels: np.ndarray, centres: np.ndarray, vector_sq=None) -> np.ndarray:
    sums, counts = cluster_sums(vectors, labels, centres.shape[0])
    new = centres.copy()
    occupied = counts > 0
    new[occupied] = sums[occupied] / counts[occupied, None]
    # An emptied cluster is re-seeded at the vector farthest from its
    # nearest current centre, one empty cluster at a time.
    for empty in np.flatnonzero(~occupied):
        d2 = pairwise_sq_dist(vectors, new, vector_sq).min(axis=1)
        new[empty] = vectors[int(np.argmax(d2))]
    return new


def fit_kmeans_pp(vectors, k: int, tol: float = 1e-4, seed: int = 0, max_iter: int = 300) -> Codebook:
    """Fit k centres by k-means++ seeding followed by Lloyd iterations.

    Iteration stops when the relative decrease in inertia is <= ``tol`` or
    after ``max_iter`` assignment passes. The whole procedure is
    deterministic for a fixed (vectors order, k, tol, seed, max_iter).

    Finiteness is checked on the rows' squared norms, so a row whose
    squared norm overflows is rejected along with rows holding NaN or
    infinity; the distance expansion could not rank it either.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] < 1:
        raise ArgumentError("vectors must be a non-empty n x W matrix")
    with np.errstate(over="ignore"):  # an overflowed norm is rejected just below
        vector_sq = sq_norms(vectors)
    if not np.isfinite(vector_sq).all():
        raise ArgumentError("vectors must be finite, with finite squared norms")
    if k < 1:
        raise ArgumentError(f"k must be >= 1, got {k}")
    if k > vectors.shape[0]:
        raise ArgumentError(f"k={k} exceeds the {vectors.shape[0]} available vectors")
    if tol <= 0.0 or max_iter < 1:
        raise ArgumentError("tol must be positive and max_iter >= 1")
    if seed < 0:
        raise ArgumentError(f"seed must be >= 0, got {seed}")

    centres = _seed_centres(vectors, vector_sq, k, np.random.default_rng(seed))

    trace = []
    previous = None
    iterations = 0
    for iterations in range(1, max_iter + 1):
        d2 = pairwise_sq_dist(vectors, centres, vector_sq)
        labels = np.argmin(d2, axis=1)
        inertia = float(np.take_along_axis(d2, labels[:, None], axis=1).sum())
        trace.append(inertia)
        if previous is not None and previous - inertia <= tol * previous:
            break
        previous = inertia
        if iterations == max_iter:
            break
        centres = _update_centres(vectors, labels, centres, vector_sq)

    return Codebook(
        centres=centres,
        inertia=trace[-1],
        iterations_run=iterations,
        seed=seed,
        inertia_trace=np.array(trace),
    )


def assign_nearest(codebook: Codebook, x) -> int:
    """Index of the centre nearest to ``x``; ties go to the lowest index."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size != codebook.width:
        raise ArgumentError(f"vector length {x.size} != codebook width {codebook.width}")
    if not np.isfinite(x).all():
        raise ArgumentError("vector must be finite")
    return int(nearest_centre_labels(x[None, :], codebook)[0])


def nearest_centre_labels(rows: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Nearest-centre index per row; ties go to the lowest centre index."""
    d2 = pairwise_sq_dist(rows, codebook.centres, b_sq=codebook.centre_sq_norms)
    return np.argmin(d2, axis=1)


def save_codebook(path, codebook: Codebook) -> None:
    """Write centres to the native binary format (fit diagnostics are not persisted)."""
    if codebook.seed < 0:
        raise ArgumentError("codebook file stores the seed unsigned; negative seeds unsupported")
    header = _CDBK_HEADER.pack(CDBK_MAGIC, codebook.k, codebook.width, codebook.seed)
    Path(path).write_bytes(header + codebook.centres.astype("<f8").tobytes())


def load_codebook(path) -> Codebook:
    path = Path(path)
    buf = path.read_bytes()
    if len(buf) < _CDBK_HEADER.size:
        raise IngestError(f"{path}: file shorter than header")
    magic, k, width, seed = _CDBK_HEADER.unpack_from(buf)
    if magic != CDBK_MAGIC:
        raise IngestError(f"{path}: bad magic {magic!r}")
    need = _CDBK_HEADER.size + k * width * 8
    if len(buf) != need:
        raise IngestError(f"{path}: expected {need} bytes, found {len(buf)}")
    centres = np.frombuffer(buf, dtype="<f8", offset=_CDBK_HEADER.size).reshape(k, width)
    return Codebook(centres=centres, inertia=0.0, iterations_run=0, seed=seed)
