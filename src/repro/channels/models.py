"""Channel quality models.

Every model represents an i.i.d. process over rounds with a fixed mean; the
learning policies never see the model, only the samples observed after a
transmission.  Means can be expressed in any unit (the paper uses kbps for
the throughput experiments and values in ``[0, 1]`` for the analysis); the
:mod:`repro.channels.catalog` module provides the normalisation helpers.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "ChannelModel",
    "GaussianChannel",
    "TruncatedGaussianChannel",
    "BernoulliChannel",
    "UniformChannel",
    "ConstantChannel",
]


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


class TruncatedGaussianChannel(ChannelModel):
    """Gaussian process truncated (by clipping) to a ``[low, high]`` interval.

    Useful when rewards must stay inside ``[0, 1]`` as assumed by the regret
    bounds of Theorem 1.  Note the reported :attr:`mean` is the mean of the
    *untruncated* Gaussian; with symmetric clipping margins the bias is
    negligible for the std values used in the experiments.
    """

    def __init__(self, mean: float, std: float, low: float = 0.0, high: float = 1.0) -> None:
        if std < 0:
            raise ValueError(f"std must be non-negative, got {std}")
        if low >= high:
            raise ValueError(f"low must be < high, got [{low}, {high}]")
        if not (low <= mean <= high):
            raise ValueError(f"mean {mean} outside [{low}, {high}]")
        self._mean = float(mean)
        self._std = float(std)
        self._low = float(low)
        self._high = float(high)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def bounds(self) -> tuple:
        """The ``(low, high)`` clipping interval."""
        return (self._low, self._high)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        draws = rng.normal(self._mean, self._std, size=size)
        clipped = np.clip(draws, self._low, self._high)
        return clipped if size is not None else float(clipped)


class BernoulliChannel(ChannelModel):
    """Bernoulli channel: the channel is either fully available or not.

    This is the classical model of the single-hop opportunistic-access
    literature the paper builds on; we provide it for the property-based
    tests and the regret-bound sanity checks where rewards in ``{0, 1}``
    make the analysis exact.
    """

    def __init__(self, mean: float) -> None:
        if not (0.0 <= mean <= 1.0):
            raise ValueError(f"Bernoulli mean must be in [0, 1], got {mean}")
        self._mean = float(mean)

    @property
    def mean(self) -> float:
        return self._mean

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        draws = rng.binomial(1, self._mean, size=size)
        return draws.astype(float) if size is not None else float(draws)


class UniformChannel(ChannelModel):
    """Uniform channel quality on ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        if low > high:
            raise ValueError(f"low must be <= high, got [{low}, {high}]")
        self._low = float(low)
        self._high = float(high)

    @property
    def mean(self) -> float:
        return 0.5 * (self._low + self._high)

    @property
    def bounds(self) -> tuple:
        """The ``(low, high)`` support of the uniform distribution."""
        return (self._low, self._high)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        draws = rng.uniform(self._low, self._high, size=size)
        return draws if size is not None else float(draws)


class ConstantChannel(ChannelModel):
    """Deterministic channel, convenient for unit tests and oracles."""

    def __init__(self, value: float) -> None:
        self._value = float(value)

    @property
    def mean(self) -> float:
        return self._value

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        if size is None:
            return self._value
        return np.full(size, self._value, dtype=float)
