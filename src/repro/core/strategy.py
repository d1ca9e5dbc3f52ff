"""Strategy value object: a feasible channel assignment for one round.

A strategy ``s_x`` assigns to a subset of the users one channel each; users
not present in the assignment stay silent for the round (the paper notes the
actual length of a feasible strategy may be smaller than ``N`` when the
chromatic number of ``G`` exceeds ``M``).  Feasibility means the assignment
maps to an independent set of the extended conflict graph ``H``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.graph.extended import ExtendedConflictGraph

__all__ = ["Strategy"]


@dataclass(frozen=True)
class Strategy:
    """An immutable ``{node: channel}`` assignment.

    The assignment is stored as a sorted tuple of ``(node, channel)`` pairs so
    strategies are hashable and comparable (useful as dictionary keys when
    counting how often each strategy is played).
    """

    assignment: Tuple[Tuple[int, int], ...]

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_assignment(cls, assignment: Mapping[int, int]) -> "Strategy":
        """Build a strategy from a ``{node: channel}`` mapping."""
        return cls(tuple(sorted(assignment.items())))

    @classmethod
    def from_independent_set(
        cls, graph: ExtendedConflictGraph, independent_set: Iterable[int]
    ) -> "Strategy":
        """Build a strategy from an independent set of ``H`` (vertex ids)."""
        assignment = graph.independent_set_to_assignment(independent_set)
        return cls.from_assignment(assignment)

    @classmethod
    def empty(cls) -> "Strategy":
        """The silent strategy (nobody transmits)."""
        return cls(())

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[int, int]:
        """The assignment as a plain ``{node: channel}`` dictionary."""
        return dict(self.assignment)

    def nodes(self) -> FrozenSet[int]:
        """The set of transmitting nodes."""
        return frozenset(node for node, _ in self.assignment)

    def channel_of(self, node: int) -> Optional[int]:
        """Channel assigned to ``node``; ``None`` when the node stays silent."""
        return self.as_dict().get(node)

    def arms(self, graph: ExtendedConflictGraph) -> FrozenSet[int]:
        """Flat arm indices (vertices of ``H``) played by this strategy."""
        return frozenset(
            graph.vertex_index(node, channel) for node, channel in self.assignment
        )

    def arm_array(self, graph: ExtendedConflictGraph) -> np.ndarray:
        """Flat arm indices as a sorted ``int64`` array (vectorized fast path).

        The assignment tuple is sorted by node and holds one channel per
        node, so the produced arms (``node * M + channel``) are already in
        ascending order — the same order the dict APIs iterate in.
        """
        if not self.assignment:
            return np.empty(0, dtype=np.int64)
        pairs = np.asarray(self.assignment, dtype=np.int64)
        return pairs[:, 0] * graph.num_channels + pairs[:, 1]

    def is_feasible(self, graph: ExtendedConflictGraph) -> bool:
        """``True`` when the assignment is conflict free on ``H``."""
        try:
            graph.assignment_to_independent_set(self.as_dict())
        except ValueError:
            return False
        return True

    def expected_reward(self, mean_matrix) -> float:
        """Expected per-round throughput under a true ``(N, M)`` mean matrix."""
        return float(
            sum(mean_matrix[node][channel] for node, channel in self.assignment)
        )

    def __len__(self) -> int:
        return len(self.assignment)

    def __iter__(self):
        return iter(self.assignment)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        pairs = ", ".join(f"{node}->{channel}" for node, channel in self.assignment)
        return f"Strategy({pairs})"
