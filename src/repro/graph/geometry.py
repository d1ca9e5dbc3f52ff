"""Planar geometry helpers used by the unit-disk graph model.

The paper models conflicts with unit disks: each node is a disk centred on
itself and two nodes conflict when their disks intersect, i.e. when the
Euclidean distance between the centres is at most twice the disk radius
(the paper uses ``||u, v|| <= 2`` for unit radius disks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = ["Point", "points_to_array", "grid_cell_keys"]


@dataclass(frozen=True, order=True)
class Point:
    """A point in the plane.

    Coordinates are plain floats; ``Point`` instances are immutable and
    hashable so they can be used as dictionary keys and set members.
    """

    x: float
    y: float



def points_to_array(points: Sequence[Point]) -> np.ndarray:
    """Convert a sequence of points to an ``(n, 2)`` float array.

    An ``(n, 2)`` ndarray passes through unchanged (as float64), so the
    large-``n`` code paths can hand coordinate arrays around without ever
    materializing :class:`Point` objects.
    """
    if isinstance(points, np.ndarray):
        return np.asarray(points, dtype=float).reshape(-1, 2)
    if not points:
        return np.zeros((0, 2), dtype=float)
    return np.array([[p.x, p.y] for p in points], dtype=float)


def grid_cell_keys(coords: np.ndarray, cell_size: float) -> Tuple[np.ndarray, int]:
    """Bucket planar coordinates into square grid cells of side ``cell_size``.

    Returns ``(keys, stride)`` where ``keys[i]`` is a single int64 key that is
    equal for two points iff they fall into the same cell, and neighbouring
    cells differ by exactly ``{±1, ±stride, ±stride ± 1}``.  The y component
    is offset by one inside its ``stride``-wide band, so stepping to
    ``key ± 1`` from an occupied cell can never collide with a cell of the
    adjacent column — off-grid neighbours simply match nothing.  Only
    *occupied* cells ever exist; no dense grid is allocated, so the key space
    is as sparse as the data.
    """
    if cell_size <= 0:
        raise ValueError(f"cell_size must be positive, got {cell_size}")
    coords = np.asarray(coords, dtype=float).reshape(-1, 2)
    if coords.shape[0] == 0:
        return np.zeros(0, dtype=np.int64), 3
    cells = np.floor(coords / cell_size).astype(np.int64)
    cx = cells[:, 0] - cells[:, 0].min()
    cy = cells[:, 1] - cells[:, 1].min()
    # +3 leaves an empty guard row above and below every column band.
    stride = int(cy.max()) + 3
    return cx * stride + (cy + 1), stride

