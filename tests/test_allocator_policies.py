"""Tests for the DiffServe MILP allocator and allocation policies."""

import pytest

from repro.core.allocator import AllocationPlan, ControlContext, DiffServeAllocator
from repro.core.config import FleetSpec
from repro.core.policies import (
    AIMDBatchState,
    AIMDBatchingPolicy,
    DiffServePolicy,
    StaticThresholdPolicy,
    make_diffserve_policy,
)
from repro.core.queueing import TwoXExecutionModel
from repro.milp.branch_and_bound import BranchAndBoundSolver


def ctx(demand, *, slo=5.0, workers=16, **kwargs):
    return ControlContext(demand=demand, slo=slo, fleet=FleetSpec.homogeneous(workers), **kwargs)


# ------------------------------------------------------------------------ plan
def test_allocation_plan_validation():
    with pytest.raises(ValueError):
        AllocationPlan(num_light=-1, num_heavy=0, light_batch=1, heavy_batch=1, threshold=0.5)
    with pytest.raises(ValueError):
        AllocationPlan(num_light=1, num_heavy=0, light_batch=0, heavy_batch=1, threshold=0.5)
    with pytest.raises(ValueError):
        AllocationPlan(num_light=1, num_heavy=0, light_batch=1, heavy_batch=1, threshold=1.5)
    plan = AllocationPlan(num_light=3, num_heavy=5, light_batch=2, heavy_batch=1, threshold=0.5)
    assert plan.total_workers == 8


def test_control_context_validation():
    with pytest.raises(ValueError):
        ControlContext(demand=-1.0, slo=5.0, fleet=FleetSpec.homogeneous(16))
    with pytest.raises(ValueError):
        ControlContext(demand=1.0, slo=0.0, fleet=FleetSpec.homogeneous(16))


# ------------------------------------------------------------------- allocator
def test_low_demand_maximises_threshold(allocator):
    plan = allocator.plan(ctx(3.0, observed_deferral=0.5))
    assert plan.feasible
    assert plan.threshold == pytest.approx(1.0)
    assert plan.num_light >= 1
    assert plan.num_heavy >= 1


def test_threshold_decreases_with_demand(allocator):
    thresholds = []
    for demand in (4.0, 12.0, 20.0, 28.0):
        plan = allocator.plan(ctx(demand, observed_deferral=0.4))
        thresholds.append(plan.threshold)
    assert all(b <= a + 1e-9 for a, b in zip(thresholds, thresholds[1:]))
    assert thresholds[-1] < thresholds[0]


def test_plan_satisfies_throughput_constraints(allocator, cascade1):
    for demand in (6.0, 16.0, 26.0):
        plan = allocator.plan(ctx(demand, observed_deferral=0.4))
        assert plan.feasible
        provisioned = demand * allocator.over_provision
        light_capacity = plan.num_light * cascade1.light.throughput(plan.light_batch)
        heavy_capacity = plan.num_heavy * cascade1.heavy.throughput(plan.heavy_batch)
        assert light_capacity >= provisioned - 1e-6
        assert heavy_capacity >= provisioned * plan.heavy_fraction - 1e-6
        assert plan.total_workers <= 16


def test_plan_uses_all_workers(allocator):
    plan = allocator.plan(ctx(10.0, observed_deferral=0.4))
    assert plan.total_workers == 16


def test_overload_falls_back_to_best_effort(allocator):
    plan = allocator.plan(ctx(500.0, observed_deferral=0.5))
    assert not plan.feasible
    assert plan.num_heavy == 0
    assert plan.threshold == 0.0


def test_solver_time_recorded_and_reasonable(allocator):
    plan = allocator.plan(ctx(16.0, observed_deferral=0.4))
    assert 0 < plan.solver_time_s < 2.0
    assert allocator.mean_solve_time_s > 0


def test_fraction_and_binary_formulations_agree(allocator):
    context = ctx(16.0, observed_deferral=0.4)
    demand = 16.0 * allocator.over_provision
    frac_problem = allocator.build_problem(context, 1, 2, demand, formulation="fraction")
    bin_problem = allocator.build_problem(context, 1, 2, demand, formulation="binary")
    solver = BranchAndBoundSolver()
    frac_solution = solver.solve(frac_problem)
    bin_solution = solver.solve(bin_problem)
    assert frac_solution.is_optimal and bin_solution.is_optimal
    frac_threshold, _ = allocator._threshold_from_solution(frac_solution)
    bin_threshold, _ = allocator._threshold_from_solution(bin_solution)
    # Both formulations should land on (nearly) the same grid threshold.
    assert frac_threshold == pytest.approx(bin_threshold, abs=0.06)
    with pytest.raises(ValueError):
        allocator.build_problem(context, 1, 2, demand, formulation="other")


def test_tighter_slo_prevents_large_batches(cascade1, deferral_profile):
    allocator = DiffServeAllocator(cascade1.light, cascade1.heavy, deferral_profile)
    tight = allocator.plan(ctx(8.0, slo=2.5, observed_deferral=0.3))
    loose = allocator.plan(ctx(8.0, slo=10.0, observed_deferral=0.3))
    assert tight.heavy_batch <= loose.heavy_batch
    # A looser SLO can never yield a lower threshold at equal demand.
    assert loose.threshold >= tight.threshold - 1e-9


def test_queue_backlog_restricts_plan(allocator):
    clean = allocator.plan(ctx(12.0, observed_deferral=0.4))
    backlogged = allocator.plan(
        ctx(12.0, observed_deferral=0.4, light_queue_length=200, heavy_queue_length=200)
    )
    # With a huge backlog the latency budget rules out (most) deferral.
    assert backlogged.threshold <= clean.threshold + 1e-9


def test_allocator_validation(cascade1, deferral_profile):
    with pytest.raises(ValueError):
        DiffServeAllocator(cascade1.light, cascade1.heavy, deferral_profile, over_provision=0.9)


# -------------------------------------------------------------------- policies
def test_diffserve_policy_delegates_to_allocator(allocator):
    policy = DiffServePolicy(allocator)
    assert policy.dynamic
    plan = policy.plan(ctx(10.0, observed_deferral=0.4))
    assert isinstance(plan, AllocationPlan)


def test_static_threshold_policy_pins_threshold(allocator):
    policy = StaticThresholdPolicy(allocator, threshold=0.5)
    for demand in (4.0, 24.0):
        plan = policy.plan(ctx(demand, observed_deferral=0.4))
        if plan.feasible:
            assert plan.threshold == pytest.approx(0.5)
    with pytest.raises(ValueError):
        StaticThresholdPolicy(allocator, threshold=2.0)


def test_aimd_state_additive_increase_multiplicative_decrease():
    state = AIMDBatchState(batch=4, max_batch=16)
    assert state.update(had_violation=False) == 5
    assert state.update(had_violation=True) == 2
    assert state.update(had_violation=True) == 1
    assert state.update(had_violation=False) == 2
    for _ in range(40):
        state.update(had_violation=False)
    assert state.batch == 16  # capped


def test_aimd_policy_reacts_to_violations(allocator):
    policy = AIMDBatchingPolicy(allocator)
    grown = policy.plan(ctx(6.0, observed_deferral=0.3, slo_violations_in_window=0))
    shrunk = policy.plan(ctx(6.0, observed_deferral=0.3, slo_violations_in_window=5))
    assert shrunk.light_batch <= grown.light_batch
    # AIMD disables the proactive queueing model.
    assert isinstance(allocator.queueing_model, TwoXExecutionModel)
    assert allocator.queueing_model.multiplier == 0.0


def test_make_diffserve_policy_variants(cascade1, deferral_profile):
    for variant, cls in (
        ("full", DiffServePolicy),
        ("static-threshold", StaticThresholdPolicy),
        ("aimd", AIMDBatchingPolicy),
        ("no-queueing", DiffServePolicy),
    ):
        policy = make_diffserve_policy(
            cascade1.light, cascade1.heavy, deferral_profile, variant=variant
        )
        assert isinstance(policy, cls)
    no_q = make_diffserve_policy(
        cascade1.light, cascade1.heavy, deferral_profile, variant="no-queueing"
    )
    assert isinstance(no_q.allocator.queueing_model, TwoXExecutionModel)
    with pytest.raises(ValueError):
        make_diffserve_policy(cascade1.light, cascade1.heavy, deferral_profile, variant="bogus")
