"""Tests for repro.sim.timing (Table II / Fig. 2)."""

import pytest

from repro.sim.timing import TimingConfig


class TestPaperDefaults:
    def test_table2_values(self):
        timing = TimingConfig.paper_defaults()
        assert timing.local_broadcast_ms == 100.0
        assert timing.local_computation_ms == 50.0
        assert timing.data_transmission_ms == 1000.0
        assert timing.decision_mini_rounds == 4

    def test_derived_round_structure(self):
        timing = TimingConfig.paper_defaults()
        # t_m = 2*100 + 50 = 250 ms, t_s = 4 * 250 = 1000 ms, t_a = 2000 ms.
        assert timing.mini_round_ms == 250.0
        assert timing.strategy_decision_ms == 1000.0
        assert timing.round_ms == 2000.0

    def test_theta_is_one_half(self):
        assert TimingConfig.paper_defaults().theta == pytest.approx(0.5)

    def test_period_efficiencies_match_paper(self):
        # Section V-C: 1/2, 9/10, 19/20, 39/40 for y = 1, 5, 10, 20.
        timing = TimingConfig.paper_defaults()
        assert timing.period_efficiency(1) == pytest.approx(0.5)
        assert timing.period_efficiency(5) == pytest.approx(0.9)
        assert timing.period_efficiency(10) == pytest.approx(0.95)
        assert timing.period_efficiency(20) == pytest.approx(0.975)

    def test_period_efficiency_approaches_one(self):
        timing = TimingConfig.paper_defaults()
        assert timing.period_efficiency(10_000) == pytest.approx(1.0, abs=1e-3)


class TestValidationAndVariants:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            TimingConfig(local_broadcast_ms=-1.0)
        with pytest.raises(ValueError):
            TimingConfig(data_transmission_ms=0.0)
        with pytest.raises(ValueError):
            TimingConfig(decision_mini_rounds=-1)

    def test_period_slots_must_be_positive(self):
        with pytest.raises(ValueError):
            TimingConfig.paper_defaults().period_efficiency(0)

    def test_custom_timing(self):
        timing = TimingConfig(
            local_broadcast_ms=10.0,
            local_computation_ms=5.0,
            data_transmission_ms=100.0,
            decision_mini_rounds=2,
        )
        assert timing.mini_round_ms == 25.0
        assert timing.round_ms == 150.0
        assert timing.theta == pytest.approx(100.0 / 150.0)

    def test_frozen(self):
        timing = TimingConfig.paper_defaults()
        with pytest.raises(Exception):
            timing.data_transmission_ms = 5.0
