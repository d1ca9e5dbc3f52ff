"""Per-network channel state: who sees which quality on which channel.

:class:`ChannelState` stores one :class:`~repro.channels.models.ChannelModel`
per (node, channel) pair and exposes them through the same flat *arm index*
``k = node * M + channel`` used by :class:`repro.graph.extended.ExtendedConflictGraph`
and the learning policies, so a strategy (an independent set of ``H``) can be
"played" directly against the channel state.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.channels.catalog import DEFAULT_RELATIVE_STD, assign_rates_to_network
from repro.channels.models import ChannelModel, GaussianChannel

__all__ = ["ChannelState"]


class ChannelState:
    """The ground-truth channel environment of a simulated network.

    Parameters
    ----------
    models:
        A nested sequence ``models[node][channel]`` of channel models; all
        rows must have the same length ``M``.
    """

    def __init__(self, models: Sequence[Sequence[ChannelModel]]) -> None:
        if not models:
            raise ValueError("models must contain at least one node")
        num_channels = len(models[0])
        if num_channels == 0:
            raise ValueError("each node needs at least one channel model")
        for row in models:
            if len(row) != num_channels:
                raise ValueError("all nodes must have the same number of channels")
        self._models: List[List[ChannelModel]] = [list(row) for row in models]
        self._num_nodes = len(models)
        self._num_channels = num_channels
        self._means = np.array(
            [[model.mean for model in row] for row in self._models], dtype=float
        )
        # Flat arm-indexed state (k = node * M + channel).  When every model
        # is a zero-clipped Gaussian the per-arm std vector enables the
        # vectorized sampling fast path of :meth:`sample_arm_array`.
        self._flat_means = self._means.reshape(-1)
        self._flat_models: List[ChannelModel] = [
            model for row in self._models for model in row
        ]
        params = [model.gaussian_params() for model in self._flat_models]
        if all(p is not None for p in params):
            self._flat_stds: Optional[np.ndarray] = np.array(
                [p[1] for p in params], dtype=float
            )
        else:
            self._flat_stds = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_mean_matrix(
        cls,
        means: np.ndarray,
        relative_std: float = DEFAULT_RELATIVE_STD,
    ) -> "ChannelState":
        """Build Gaussian channels from an ``(N, M)`` matrix of mean rates."""
        means = np.asarray(means, dtype=float)
        if means.ndim != 2:
            raise ValueError(f"means must be a 2-D array, got shape {means.shape}")
        models = [
            [GaussianChannel(float(mu), float(mu) * relative_std) for mu in row]
            for row in means
        ]
        return cls(models)

    @classmethod
    def random_paper_rates(
        cls,
        num_nodes: int,
        num_channels: int,
        rng: Optional[np.random.Generator] = None,
        relative_std: float = DEFAULT_RELATIVE_STD,
    ) -> "ChannelState":
        """Sample a channel state from the paper's 8-rate catalogue.

        Every (node, channel) pair gets a mean drawn uniformly from the
        catalogue and evolves as an independent Gaussian process, matching
        the Section V setup.
        """
        rng = rng if rng is not None else np.random.default_rng()
        means = assign_rates_to_network(num_nodes, num_channels, rng=rng)
        return cls.from_mean_matrix(means, relative_std=relative_std)

    # ------------------------------------------------------------------
    # Shape / mean accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of users ``N``."""
        return self._num_nodes

    @property
    def num_channels(self) -> int:
        """Number of channels ``M``."""
        return self._num_channels

    @property
    def num_arms(self) -> int:
        """Number of arms ``K = N * M``."""
        return self._num_nodes * self._num_channels

    @property
    def has_stateful_models(self) -> bool:
        """``True`` when any model mutates internal state on sampling.

        Stateful models (Gilbert-Elliott, adversarial sequences) cannot be
        shared between independent replications.
        """
        return any(model.stateful for model in self._flat_models)

    def mean(self, node: int, channel: int) -> float:
        """True mean quality ``mu_{node, channel}``."""
        self._check(node, channel)
        return float(self._means[node, channel])

    def mean_matrix(self) -> np.ndarray:
        """Copy of the ``(N, M)`` true-mean matrix."""
        return self._means.copy()

    def mean_vector(self) -> np.ndarray:
        """True means flattened to the arm index ``k = node * M + channel``."""
        return self._means.reshape(-1).copy()

    def model(self, node: int, channel: int) -> ChannelModel:
        """The underlying channel model of a (node, channel) pair."""
        self._check(node, channel)
        return self._models[node][channel]

    def _check(self, node: int, channel: int) -> None:
        if not (0 <= node < self._num_nodes):
            raise ValueError(f"node {node} out of range [0, {self._num_nodes})")
        if not (0 <= channel < self._num_channels):
            raise ValueError(
                f"channel {channel} out of range [0, {self._num_channels})"
            )

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, node: int, channel: int, rng: np.random.Generator) -> float:
        """Draw one observation of channel ``channel`` at node ``node``."""
        self._check(node, channel)
        return float(self._models[node][channel].sample(rng))

    def sample_arm_array(
        self, arms: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw one observation per flat arm index, as an array.

        This is the vectorized fast path used by the simulators: when every
        model is a zero-clipped Gaussian the whole strategy is sampled with a
        single ``rng.normal`` call.  The fast path consumes the generator
        stream exactly like per-arm scalar draws in the same order, so dict
        and array sampling agree bit for bit from the same generator state.
        """
        arms = np.asarray(arms, dtype=np.int64)
        if arms.ndim != 1:
            raise ValueError(f"arms must be a 1-D array, got shape {arms.shape}")
        if arms.size == 0:
            return np.empty(0, dtype=float)
        if arms.min() < 0 or arms.max() >= self.num_arms:
            raise ValueError(
                f"arm indices must lie in [0, {self.num_arms}), got {arms}"
            )
        if self._flat_stds is not None:
            draws = rng.normal(self._flat_means[arms], self._flat_stds[arms])
            return np.clip(draws, 0.0, None)
        return np.array(
            [self._flat_models[arm].sample(rng) for arm in arms], dtype=float
        )

    def expected_reward_arms(self, arms: np.ndarray) -> float:
        """Expected throughput of a set of arms (vectorized gather)."""
        arms = np.asarray(arms, dtype=np.int64)
        return float(self._flat_means[arms].sum())

    def expected_reward(self, assignment: Mapping[int, int]) -> float:
        """Expected per-round throughput of a strategy (sum of true means)."""
        return float(
            sum(self.mean(node, channel) for node, channel in assignment.items())
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"ChannelState(N={self._num_nodes}, M={self._num_channels}, "
            f"mean_range=[{self._means.min():.3g}, {self._means.max():.3g}])"
        )
