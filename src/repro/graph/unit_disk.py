"""Unit-disk graph construction.

An edge ``(u, v)`` exists in a unit-disk graph when the Euclidean distance
between the nodes is at most the *conflict radius*.  The paper treats each
node as a unit disk centred on itself, so two disks intersect when their
centres are within distance 2; we keep the radius configurable because the
topology generators (``repro.graph.topology``) use it to control the average
degree of random networks.

Two builders share one distance predicate:

* :func:`unit_disk_edge_array` — the production path.  Points are bucketed
  into a spatial grid of cell side ``radius``
  (:func:`repro.graph.geometry.grid_cell_keys`); candidate pairs are drawn
  only from the same or adjacent cells, and the whole pipeline (bucketing,
  block cartesian products, distance filter, canonical sort) is vectorised
  numpy.  Expected cost is ``O(n + m)`` for the near-uniform deployments the
  topology generators produce, against ``O(n^2)`` for the naive builder —
  the difference between milliseconds and minutes at ``n = 10^5``.
* :func:`unit_disk_edges_naive` — the original all-pairs reference, kept as
  ground truth for the randomized property tests
  (``tests/graph/test_unit_disk.py``) and the macro speedup benchmark
  (``benchmarks/test_bench_macro.py``).

Both builders evaluate the *bit-identical* predicate
``sqrt(dx*dx + dy*dy) <= radius`` in float64 and emit edges as ``(i, j)``
index pairs with ``i < j`` in lexicographic order, so their edge sets —
including ties at distance exactly ``radius`` — are equal element for
element.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.graph.geometry import Point, grid_cell_keys, points_to_array

__all__ = ["unit_disk_edge_array", "unit_disk_edges_naive", "DEFAULT_CONFLICT_RADIUS"]

#: Conflict radius implied by the paper's unit-disk model (two unit disks
#: intersect when their centres are within distance 2).
DEFAULT_CONFLICT_RADIUS = 2.0

#: Row-block size of the naive reference builder; bounds its peak memory at
#: ``block * n`` floats instead of the full ``n x n`` distance matrix.
_NAIVE_BLOCK = 1024


def _block_pairs(
    starts_a: np.ndarray,
    counts_a: np.ndarray,
    starts_b: np.ndarray,
    counts_b: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """All (row of block a) x (row of block b) index pairs, fully vectorised.

    ``starts``/``counts`` describe contiguous blocks in a sorted point
    array; the result enumerates the cartesian product of every aligned
    block pair without a Python-level loop over blocks.
    """
    pair_counts = counts_a * counts_b
    total = int(pair_counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    offsets = np.cumsum(pair_counts) - pair_counts
    flat = np.arange(total, dtype=np.int64) - np.repeat(offsets, pair_counts)
    width = np.repeat(counts_b, pair_counts)
    ai = flat // width
    bi = flat - ai * width
    return np.repeat(starts_a, pair_counts) + ai, np.repeat(starts_b, pair_counts) + bi


def unit_disk_edge_array(
    points: Sequence[Point], radius: float = DEFAULT_CONFLICT_RADIUS
) -> np.ndarray:
    """Spatial-grid (cell-bucket) unit-disk edge construction.

    Accepts either a sequence of :class:`Point` or an ``(n, 2)`` coordinate
    array and returns the edges as an ``(m, 2)`` int64 array of ``(i, j)``
    pairs with ``i < j``, sorted lexicographically — exactly the output of
    :func:`unit_disk_edges_naive` (same float predicate, same order).

    Cells have side ``radius``, so every conflicting pair lies in the same
    or an adjacent cell; each unordered cell pair is visited exactly once
    via the four forward offsets (E, NW, N, NE), which keeps candidates
    duplicate-free by construction.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    coords = points_to_array(points)
    n = coords.shape[0]
    if n < 2:
        return np.zeros((0, 2), dtype=np.int64)
    keys, stride = grid_cell_keys(coords, radius)
    order = np.argsort(keys, kind="stable")
    cells, starts, counts = np.unique(
        keys[order], return_index=True, return_counts=True
    )
    left_parts: List[np.ndarray] = []
    right_parts: List[np.ndarray] = []
    # Offset 0 = same cell; the rest pair each cell with its E / NW / N / NE
    # neighbour (all strictly larger keys, so each cell pair appears once).
    for offset in (0, 1, stride - 1, stride, stride + 1):
        if offset == 0:
            li, ri = _block_pairs(starts, counts, starts, counts)
            keep = li < ri  # upper triangle: each in-cell pair once
            li, ri = li[keep], ri[keep]
        else:
            slot = np.searchsorted(cells, cells + offset)
            slot = np.minimum(slot, len(cells) - 1)
            hit = cells[slot] == cells + offset
            li, ri = _block_pairs(
                starts[hit], counts[hit], starts[slot[hit]], counts[slot[hit]]
            )
        if li.size:
            left_parts.append(li)
            right_parts.append(ri)
    if not left_parts:
        return np.zeros((0, 2), dtype=np.int64)
    cand_i = order[np.concatenate(left_parts)]
    cand_j = order[np.concatenate(right_parts)]
    dx = coords[cand_i, 0] - coords[cand_j, 0]
    dy = coords[cand_i, 1] - coords[cand_j, 1]
    within = np.sqrt(dx * dx + dy * dy) <= radius
    cand_i, cand_j = cand_i[within], cand_j[within]
    lo = np.minimum(cand_i, cand_j)
    hi = np.maximum(cand_i, cand_j)
    canonical = np.lexsort((hi, lo))
    return np.stack((lo[canonical], hi[canonical]), axis=1)


def unit_disk_edges_naive(
    points: Sequence[Point], radius: float = DEFAULT_CONFLICT_RADIUS
) -> np.ndarray:
    """All-pairs O(n^2) reference builder (the pre-grid implementation).

    Retained as the ground truth the grid builder is property-tested against
    and as the baseline of the macro speedup benchmark.  Distances are
    evaluated in row blocks so the reference stays runnable at ``n = 10^4``
    without materializing the full ``n x n`` matrix; the float operations
    per pair are identical to the historical full-matrix version.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    coords = points_to_array(points)
    n = coords.shape[0]
    rows: List[np.ndarray] = []
    cols: List[np.ndarray] = []
    for start in range(0, n, _NAIVE_BLOCK):
        block = coords[start : start + _NAIVE_BLOCK]
        diff = block[:, None, :] - coords[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=-1))
        bi, bj = np.nonzero(dist <= radius)
        keep = start + bi < bj  # global upper triangle only
        rows.append(start + bi[keep])
        cols.append(bj[keep])
    if not rows:
        return np.zeros((0, 2), dtype=np.int64)
    return np.stack(
        (np.concatenate(rows), np.concatenate(cols)), axis=1
    ).astype(np.int64)

