"""Channel quality models.

Every model represents an i.i.d. process over rounds with a fixed mean; the
learning policies never see the model, only the samples observed after a
transmission.  Means can be expressed in any unit (the paper uses kbps for
the throughput experiments and values in ``[0, 1]`` for the analysis).
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

import numpy as np

__all__ = ["ChannelModel", "GaussianChannel"]


class ChannelModel(abc.ABC):
    """Abstract i.i.d. channel-quality process with a known mean.

    Subclasses implement :meth:`sample`, drawing one observation per call
    using the supplied random generator, so that simulations are reproducible
    from a single seed.
    """

    #: Whether :meth:`sample` mutates internal model state.  Stateful models
    #: (e.g. the Gilbert-Elliott extension) cannot be shared between
    #: independent replications;
    #: :meth:`~repro.api.ChannelAccessSystem.simulate_batch` refuses them for
    #: ``replications > 1``.
    stateful: bool = False

    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """The true mean of the process (unknown to the learners)."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Draw one observation (or ``size`` observations) of the process."""

    def gaussian_params(self) -> Optional[Tuple[float, float]]:
        """``(mean, std)`` when the model is a zero-clipped Gaussian.

        :class:`~repro.channels.state.ChannelState` uses this to build its
        flat-arm fast path: when every model of a network reports parameters,
        a whole strategy can be sampled with one vectorized ``rng.normal``
        call that consumes the generator stream exactly like per-model scalar
        draws would.  Models with a different law return ``None`` (the
        default) and fall back to per-arm sampling.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"{type(self).__name__}(mean={self.mean:.4g})"


class GaussianChannel(ChannelModel):
    """Gaussian data-rate process, the model used in the paper's Section V.

    Negative draws are clipped at zero because a data rate cannot be negative;
    with the small relative standard deviations used in the experiments the
    clipping has negligible effect on the mean.
    """

    def __init__(self, mean: float, std: float) -> None:
        if mean < 0:
            raise ValueError(f"mean must be non-negative, got {mean}")
        if std < 0:
            raise ValueError(f"std must be non-negative, got {std}")
        self._mean = float(mean)
        self._std = float(std)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def std(self) -> float:
        """Standard deviation of the underlying Gaussian."""
        return self._std

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        draws = rng.normal(self._mean, self._std, size=size)
        return np.clip(draws, 0.0, None) if size is not None else max(float(draws), 0.0)

    def gaussian_params(self) -> Tuple[float, float]:
        return (self._mean, self._std)
