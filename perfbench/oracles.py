"""Independent reference computations for the benchmark's output checks.

Each oracle recomputes one stage by its definition, with explicit loops
or sums and no code from the package under test, so that agreement is
evidence rather than a comparison of the program with itself. ``agrees``
compares within ``REL_TOL`` of a stated magnitude: the largest value the
computation passes through, which bounds its floating-point error.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-9


def agrees(actual, expected, scale) -> bool:
    """Every entry within REL_TOL * scale (scale broadcast per entry)."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if actual.shape != expected.shape:
        return False
    bound = REL_TOL * np.maximum(np.asarray(scale, dtype=np.float64), np.finfo(float).tiny)
    return bool(np.all(np.abs(actual - expected) <= bound))


def box_resample(rows, target: int) -> np.ndarray:
    """Downsample each row to ``target`` bins by box-interval integration.

    Output bin j is the mean of the piecewise-constant input over
    [j*W/target, (j+1)*W/target): every input bin overlapping the interval
    contributes its value times the overlap length.
    """
    rows = np.asarray(rows, dtype=np.float64)
    n, width = rows.shape
    if not 1 <= target <= width:
        raise ValueError(f"target must be in [1, {width}], got {target}")
    out = np.empty((n, target))
    step = width / target
    for j in range(target):
        lo = j * step
        hi = width if j == target - 1 else (j + 1) * step
        acc = np.zeros(n)
        i = int(math.floor(lo))
        while i < hi and i < width:
            overlap = min(hi, i + 1) - max(lo, i)
            if overlap > 0.0:
                acc += rows[:, i] * overlap
            i += 1
        out[:, j] = acc / (hi - lo)
    return out


def dft_magnitude(rows) -> np.ndarray:
    """|DFT| of each row through the explicit W x W DFT matrix."""
    rows = np.asarray(rows, dtype=np.float64)
    width = rows.shape[1]
    r = np.arange(width)
    # Reduce k*r modulo W before scaling so every phase stays in [0, 2*pi).
    matrix = np.exp(-2j * np.pi * (np.outer(r, r) % width) / width)
    return np.abs(rows @ matrix.T)


def vlad(rows, centres) -> np.ndarray:
    """Residual aggregation by an explicit nearest-centre loop.

    Each row goes to the centre with the smallest direct sum of squared
    differences (the lowest index on ties); section c is the sum of
    (row - centre c) over its rows. Sections are concatenated in centre
    order.
    """
    rows = np.asarray(rows, dtype=np.float64)
    centres = np.asarray(centres, dtype=np.float64)
    best = np.full(rows.shape[0], np.inf)
    label = np.zeros(rows.shape[0], dtype=np.int64)
    for c in range(centres.shape[0]):
        d2 = ((rows - centres[c]) ** 2).sum(axis=1)
        closer = d2 < best
        best[closer] = d2[closer]
        label[closer] = c
    out = np.zeros_like(centres)
    for r in range(rows.shape[0]):
        out[label[r]] += rows[r] - centres[label[r]]
    return out.ravel()


def vlad_scale(rows, centres) -> float:
    """Bound on any VLAD entry: every row's and centre's largest magnitude, summed."""
    rows = np.asarray(rows, dtype=np.float64)
    return float(np.abs(rows).max(axis=1).sum() + rows.shape[0] * np.abs(centres).max())


def distance_row(query, refs) -> tuple[np.ndarray, np.ndarray]:
    """Squared Euclidean distance to each reference by a per-pair sum.

    Returns (distances, scale) where scale is |q|^2 + |r|^2 per pair.
    """
    q = np.asarray(query, dtype=np.float64).ravel()
    dist = np.empty(len(refs))
    scale = np.empty(len(refs))
    for j, ref in enumerate(refs):
        r = np.asarray(ref, dtype=np.float64).ravel()
        diff = q - r
        dist[j] = float(np.sum(diff * diff))
        scale[j] = float(np.sum(q * q) + np.sum(r * r))
    return dist, scale


def raplace_similarity_row(spectrum, refs) -> np.ndarray:
    """Peak correlation over circular angle-row shifts, normalised by norms.

    For each reference, the query spectrum is multiplied entrywise with the
    reference rolled by every angle shift; the largest sum is divided by
    the product of the two Frobenius norms.
    """
    a = np.asarray(spectrum, dtype=np.float64)
    norm_a = math.sqrt(float(np.sum(a * a)))
    out = np.empty(len(refs))
    for j, ref in enumerate(refs):
        b = np.asarray(ref, dtype=np.float64)
        best = max(float(np.sum(a * np.roll(b, s, axis=0))) for s in range(b.shape[0]))
        out[j] = best / max(norm_a * math.sqrt(float(np.sum(b * b))), np.finfo(float).tiny)
    return out


def recall_curve(dist, is_match, n_max: int) -> tuple[np.ndarray, int, int]:
    """Recall@1..n_max in percent by sorting each query's distances.

    References are ranked by (distance, index); a query counts at N when a
    true match is among its first N. Queries with no true match are
    skipped. Returns (recall_pct, evaluated, skipped).
    """
    dist = np.asarray(dist, dtype=np.float64)
    is_match = np.asarray(is_match, dtype=bool)
    hits = np.zeros(n_max)
    evaluated = 0
    for q in range(dist.shape[0]):
        if not is_match[q].any():
            continue
        evaluated += 1
        order = sorted(range(dist.shape[1]), key=lambda j: (dist[q, j], j))
        first = next(rank for rank, j in enumerate(order) if is_match[q, j])
        for n in range(first, n_max):
            hits[n] += 1
    pct = 100.0 * hits / evaluated if evaluated else np.zeros(n_max)
    return pct, evaluated, dist.shape[0] - evaluated
