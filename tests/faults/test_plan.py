"""FaultPlan generation, validation and serialization (repro.faults.plan)."""

import numpy as np
import pytest

from repro.faults import (
    BYZANTINE_BEHAVIORS,
    ByzantineFault,
    CrashFault,
    FaultPlan,
    generate_fault_plan,
)


def make_plan(seed=7, n=30, crash=0.2, byz=0.2, behavior="mixed"):
    return generate_fault_plan(
        n,
        crash_fraction=crash,
        byzantine_fraction=byz,
        behavior=behavior,
        max_crash_round=3,
        rng=np.random.default_rng(seed),
    )


class TestGeneration:
    def test_same_seed_same_plan(self):
        assert make_plan() == make_plan()
        assert make_plan().content_hash() == make_plan().content_hash()

    def test_different_seed_different_plan(self):
        assert make_plan(seed=7) != make_plan(seed=8)

    def test_crash_and_byzantine_sets_are_disjoint(self):
        plan = make_plan()
        assert not (set(plan.crashes) & set(plan.byzantine))

    def test_counts_round_and_floor_at_one(self):
        plan = make_plan(n=30, crash=0.2, byz=0.2)
        assert len(plan.crashes) == 6
        assert len(plan.byzantine) == 6
        tiny = make_plan(n=30, crash=0.001, byz=0.0)
        assert len(tiny.crashes) == 1  # positive fraction always hits someone
        assert len(tiny.byzantine) == 0

    def test_zero_fractions_mean_empty_plan(self):
        plan = make_plan(crash=0.0, byz=0.0)
        assert plan.num_faults == 0

    def test_mixed_behavior_round_robins_all_behaviors(self):
        plan = make_plan(n=40, crash=0.0, byz=0.3, behavior="mixed")
        used = {fault.behavior for fault in plan.byzantine.values()}
        assert used == set(BYZANTINE_BEHAVIORS)

    def test_single_behavior_is_uniform(self):
        plan = make_plan(byz=0.2, behavior="weight-inflation")
        assert {f.behavior for f in plan.byzantine.values()} == {"weight-inflation"}

    def test_crash_rounds_within_budget(self):
        plan = make_plan(crash=0.3, byz=0.0)
        for fault in plan.crashes.values():
            assert 0 <= fault.mini_round <= 3
            if fault.mini_round == 0:
                assert fault.phase == "WB"
            else:
                assert fault.phase in ("LD", "LB")


class TestValidation:
    def test_one_fault_per_vertex(self):
        with pytest.raises(ValueError, match="vertex"):
            FaultPlan(
                faults=(
                    CrashFault(vertex=1, mini_round=0, phase="WB"),
                    ByzantineFault(vertex=1, behavior="weight-inflation"),
                )
            )

    def test_wb_crash_requires_round_zero(self):
        with pytest.raises(ValueError, match="WB"):
            CrashFault(vertex=0, mini_round=2, phase="WB")
        with pytest.raises(ValueError, match="WB"):
            CrashFault(vertex=0, mini_round=0, phase="LD")

    def test_unknown_behavior_rejected(self):
        with pytest.raises(ValueError, match="behavior"):
            ByzantineFault(vertex=0, behavior="gaslighting")

    def test_negative_vertex_rejected(self):
        with pytest.raises(ValueError, match="vertex"):
            CrashFault(vertex=-1, mini_round=0, phase="WB")

    def test_crash_time_orders_phases(self):
        early = CrashFault(vertex=0, mini_round=0, phase="WB")
        mid = CrashFault(vertex=1, mini_round=1, phase="LD")
        late = CrashFault(vertex=2, mini_round=1, phase="LB")
        assert early.crash_time() < mid.crash_time() < late.crash_time()


class TestSerialization:
    def test_content_hash_tracks_content(self):
        a = make_plan(seed=7)
        b = make_plan(seed=8)
        assert a.content_hash() != b.content_hash()
