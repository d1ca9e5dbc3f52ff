"""Beyond-i.i.d. channel dynamics (the paper's future-work models).

The paper's analysis assumes i.i.d. channel gains and explicitly lists two
harder settings as future work (Section VII):

* *Markovian channels* — the classical Gilbert-Elliott good/bad model used by
  the restless-bandit line of work the related-work section cites; and
* *adversarial channels* — gains "generated by an adversary that may
  obliviously or adaptively learn to play against our strategies".

These models let users stress the learning policies outside the assumptions
of Theorem 1.  They are intentionally *not* used by the paper-reproduction
experiments (which keep the i.i.d. Gaussian model of Section V); they power
the extension example and the robustness tests.

Both models are stateful, so unlike :class:`~repro.channels.models.ChannelModel`
subclasses their successive samples are not independent; the reported
:attr:`mean` is the *stationary* (or nominal) mean.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.channels.models import ChannelModel

__all__ = ["GilbertElliottChannel", "AdversarialChannel"]


class GilbertElliottChannel(ChannelModel):
    """Two-state Markov (Gilbert-Elliott) channel.

    The channel alternates between a *good* state with rate ``good_rate`` and
    a *bad* state with rate ``bad_rate``; transitions happen independently at
    every sample with probabilities ``p_good_to_bad`` and ``p_bad_to_good``.
    The reported mean is the stationary mean

        pi_good * good_rate + (1 - pi_good) * bad_rate,

    where ``pi_good = p_bad_to_good / (p_good_to_bad + p_bad_to_good)``.
    """

    stateful = True

    def __init__(
        self,
        good_rate: float,
        bad_rate: float,
        p_good_to_bad: float,
        p_bad_to_good: float,
        start_good: bool = True,
    ) -> None:
        if good_rate < bad_rate:
            raise ValueError(
                f"good_rate ({good_rate}) must be >= bad_rate ({bad_rate})"
            )
        if bad_rate < 0:
            raise ValueError(f"bad_rate must be non-negative, got {bad_rate}")
        for name, p in (("p_good_to_bad", p_good_to_bad), ("p_bad_to_good", p_bad_to_good)):
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if p_good_to_bad + p_bad_to_good == 0.0:
            raise ValueError("the chain must be able to move between states")
        self._good_rate = float(good_rate)
        self._bad_rate = float(bad_rate)
        self._p_gb = float(p_good_to_bad)
        self._p_bg = float(p_bad_to_good)
        self._in_good_state = bool(start_good)

    @property
    def mean(self) -> float:
        pi_good = self._p_bg / (self._p_gb + self._p_bg)
        return pi_good * self._good_rate + (1.0 - pi_good) * self._bad_rate

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        if size is None:
            return self._step(rng)
        return np.array([self._step(rng) for _ in range(size)], dtype=float)

    def _step(self, rng: np.random.Generator) -> float:
        if self._in_good_state:
            if rng.random() < self._p_gb:
                self._in_good_state = False
        else:
            if rng.random() < self._p_bg:
                self._in_good_state = True
        return self._good_rate if self._in_good_state else self._bad_rate


class AdversarialChannel(ChannelModel):
    """Oblivious adversarial channel replaying a fixed gain sequence.

    The adversary commits to a sequence of gains up front (oblivious
    adversary); sampling walks through the sequence and wraps around.  The
    reported mean is the average of the committed sequence, which is the
    right benchmark for weak (static-comparator) regret.
    """

    stateful = True

    def __init__(self, gains: Sequence[float]) -> None:
        gains = [float(g) for g in gains]
        if not gains:
            raise ValueError("the adversary must commit to at least one gain")
        if any(g < 0 for g in gains):
            raise ValueError("gains must be non-negative")
        self._gains = gains
        self._cursor = 0

    @property
    def mean(self) -> float:
        return float(np.mean(self._gains))

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        if size is None:
            return self._next()
        return np.array([self._next() for _ in range(size)], dtype=float)

    def _next(self) -> float:
        value = self._gains[self._cursor]
        self._cursor = (self._cursor + 1) % len(self._gains)
        return value
