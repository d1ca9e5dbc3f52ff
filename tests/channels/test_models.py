"""Tests for repro.channels.models."""

import numpy as np
import pytest

from repro.channels.models import GaussianChannel


class TestGaussianChannel:
    def test_mean_property(self):
        assert GaussianChannel(600.0, 30.0).mean == 600.0

    def test_sample_mean_converges(self, rng):
        channel = GaussianChannel(600.0, 30.0)
        samples = channel.sample(rng, size=20000)
        assert np.mean(samples) == pytest.approx(600.0, rel=0.01)

    def test_samples_are_non_negative(self, rng):
        channel = GaussianChannel(1.0, 5.0)
        samples = channel.sample(rng, size=1000)
        assert (samples >= 0.0).all()

    def test_scalar_sample(self, rng):
        value = GaussianChannel(10.0, 0.0).sample(rng)
        assert value == pytest.approx(10.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GaussianChannel(-1.0, 1.0)
        with pytest.raises(ValueError):
            GaussianChannel(1.0, -1.0)
