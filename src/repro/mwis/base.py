"""Solver interface and common helpers for the MWIS subpackage.

All solvers work on a generic adjacency-set representation (a sequence of
neighbour sets indexed by vertex id) and a flat weight vector, so they can be
applied to the original conflict graph ``G``, the extended conflict graph
``H`` or any induced sub-neighbourhood without conversion.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Sequence, Set, Tuple

__all__ = ["IndependentSet", "MWISSolver", "is_independent", "set_weight"]

Adjacency = Sequence[Set[int]]


def is_independent(adjacency: Adjacency, vertices: Iterable[int]) -> bool:
    """Return ``True`` when ``vertices`` is an independent set."""
    selected = set(vertices)
    for vertex in selected:
        if not (0 <= vertex < len(adjacency)):
            raise ValueError(f"vertex {vertex} out of range [0, {len(adjacency)})")
        if adjacency[vertex] & selected:
            return False
    return True


def set_weight(weights: Sequence[float], vertices: Iterable[int]) -> float:
    """Summed weight ``W(I)`` of a vertex set."""
    return float(sum(weights[vertex] for vertex in vertices))


@dataclass(frozen=True)
class IndependentSet:
    """An independent set together with its total weight.

    ``vertices`` is stored as a frozenset; ``weight`` is the sum of the
    vertex weights under the weight vector the solver was given.
    """

    vertices: FrozenSet[int]
    weight: float

    @classmethod
    def from_iterable(
        cls, vertices: Iterable[int], weights: Sequence[float]
    ) -> "IndependentSet":
        """Build an :class:`IndependentSet` computing the weight from
        ``weights``."""
        vertex_set = frozenset(vertices)
        return cls(vertices=vertex_set, weight=set_weight(weights, vertex_set))

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __contains__(self, vertex: int) -> bool:
        return vertex in self.vertices


class MWISSolver(abc.ABC):
    """Interface of every MWIS solver in the library.

    ``approximation_ratio`` reports the solver's worst-case guarantee
    ``beta >= 1`` meaning the returned weight is at least ``OPT / beta``
    (``1.0`` for exact solvers, ``None`` when no guarantee is known).
    """

    #: Worst-case approximation guarantee (``None`` when unknown).
    approximation_ratio: Optional[float] = None

    @abc.abstractmethod
    def solve(self, adjacency: Adjacency, weights: Sequence[float]) -> IndependentSet:
        """Return a (possibly approximate) maximum weighted independent set.

        Vertices with non-positive weight may be left out of the solution
        since they can never increase the objective.
        """

    def _validate_inputs(
        self, adjacency: Adjacency, weights: Sequence[float]
    ) -> Tuple[int, Sequence[float]]:
        """Shared input validation: sizes must agree and weights be finite."""
        n = len(adjacency)
        if len(weights) != n:
            raise ValueError(
                f"weights has length {len(weights)} but the graph has {n} vertices"
            )
        for vertex, neighbors in enumerate(adjacency):
            for neighbor in neighbors:
                if not (0 <= neighbor < n):
                    raise ValueError(
                        f"neighbour {neighbor} of vertex {vertex} out of range"
                    )
        return n, weights
