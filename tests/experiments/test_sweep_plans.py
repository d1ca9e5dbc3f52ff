"""The paper figure grids as built-in sweep plans (``figN-paper-sweep``)."""

import pytest

from repro.spec import SpecError, get_scenario
from repro.sweep import get_plan, list_plans

FIGURES = ("fig6", "fig7", "fig8")


class TestBuiltinPlans:
    def test_every_figure_has_a_plan(self):
        for figure in FIGURES:
            assert f"{figure}-paper-sweep" in list_plans()

    def test_fig6_plan_reproduces_the_paper_size_grid(self):
        plan = get_plan("fig6-paper-sweep")
        cells = {
            (
                dict(p.overrides)["topology.num_nodes"],
                dict(p.overrides)["topology.num_channels"],
            )
            for p in plan.points()
        }
        # The same {50,100,200} x {5,10} cross product fig6-paper bakes
        # into its network_sweep.
        assert cells == set(get_scenario("fig6-paper").network_sweep)
        for point in plan.points():
            assert point.spec.schedule.mode == "protocol"
            assert point.spec.network_sweep == ()

    def test_fig7_plan_varies_channel_dynamics(self):
        plan = get_plan("fig7-paper-sweep")
        stds = [p.spec.channels.relative_std for p in plan.points()]
        assert stds == sorted(stds)
        assert len(set(stds)) == len(stds) == plan.num_points

    def test_fig8_plan_has_one_update_period_per_point(self):
        plan = get_plan("fig8-paper-sweep")
        periods = [p.spec.schedule.periods for p in plan.points()]
        assert periods == [(1,), (5,), (10,), (20,)]

    def test_unknown_figure_lists_the_known_ones(self):
        with pytest.raises(SpecError, match="fig6-paper-sweep.*fig7-paper-sweep.*fig8"):
            get_plan("fig9-paper-sweep")

    def test_registry_round_trip(self):
        for name in list_plans():
            assert get_plan(name).name == name

    def test_unknown_plan_name_lists_builtins(self):
        with pytest.raises(SpecError, match="fig6-paper-sweep"):
            get_plan("nope")

    def test_plans_are_deterministic_across_calls(self):
        first = get_plan("fig6-paper-sweep")
        second = get_plan("fig6-paper-sweep")
        assert [p.hash for p in first.points()] == [p.hash for p in second.points()]
