"""Tests for repro.channels.catalog."""

import numpy as np
import pytest

from repro.channels.catalog import (
    PAPER_RATES_KBPS,
    assign_rates_to_network,
)


class TestPaperRates:
    def test_exact_catalogue_values(self):
        assert tuple(PAPER_RATES_KBPS) == (150.0, 225.0, 300.0, 450.0, 600.0, 900.0, 1200.0, 1350.0)


class TestAssignRates:
    def test_shape(self, rng):
        means = assign_rates_to_network(10, 4, rng=rng)
        assert means.shape == (10, 4)

    def test_values_come_from_catalogue(self, rng):
        means = assign_rates_to_network(20, 5, rng=rng)
        assert set(np.unique(means)).issubset(set(PAPER_RATES_KBPS))

    def test_custom_rate_pool(self, rng):
        means = assign_rates_to_network(5, 3, rng=rng, rates=[1.0, 2.0])
        assert set(np.unique(means)).issubset({1.0, 2.0})

    def test_reproducibility(self):
        a = assign_rates_to_network(6, 3, rng=np.random.default_rng(5))
        b = assign_rates_to_network(6, 3, rng=np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_invalid_arguments(self, rng):
        with pytest.raises(ValueError):
            assign_rates_to_network(0, 3, rng=rng)
        with pytest.raises(ValueError):
            assign_rates_to_network(3, 3, rng=rng, rates=[])
