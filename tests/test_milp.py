"""Tests for the MILP toolkit (problem construction and both solvers)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from milp_oracle import reference_solve

from repro.milp import exhaustive
from repro.milp.branch_and_bound import BranchAndBoundSolver
from repro.milp.exhaustive import ExhaustiveSolver
from repro.milp.problem import MILPProblem, Variable
from repro.milp.solution import SolveStatus


def knapsack_problem():
    """A tiny knapsack: maximise 10a + 6b + 4c s.t. 5a + 4b + 3c <= 8, binary."""
    p = MILPProblem("knapsack")
    for name in ("a", "b", "c"):
        p.add_binary(name)
    p.set_objective({"a": 10, "b": 6, "c": 4})
    p.add_le({"a": 5, "b": 4, "c": 3}, 8)
    return p


def test_problem_construction_and_validation():
    p = MILPProblem()
    p.add_integer("x", lower=0, upper=5)
    p.add_continuous("y", lower=0, upper=1)
    with pytest.raises(ValueError):
        p.add_integer("x")  # duplicate
    with pytest.raises(KeyError):
        p.add_le({"z": 1.0}, 1.0)  # unknown variable
    with pytest.raises(KeyError):
        p.set_objective({"z": 1.0})
    with pytest.raises(ValueError):
        Variable(name="bad", lower=2.0, upper=1.0)


def test_is_feasible_checks_bounds_integrality_and_constraints():
    p = MILPProblem()
    p.add_integer("x", lower=0, upper=5)
    p.add_le({"x": 1.0}, 3.0)
    assert p.is_feasible({"x": 2.0})
    assert not p.is_feasible({"x": 2.5})  # not integral
    assert not p.is_feasible({"x": 4.0})  # violates constraint
    assert not p.is_feasible({"x": -1.0})  # below bound
    assert not p.is_feasible({})  # missing variable


def test_objective_value():
    p = knapsack_problem()
    assert p.objective_value({"a": 1, "b": 0, "c": 1}) == pytest.approx(14.0)


def test_branch_and_bound_solves_knapsack():
    solution = BranchAndBoundSolver().solve(knapsack_problem())
    assert solution.is_optimal
    assert solution.objective == pytest.approx(14.0)
    assert solution.get_int("a") == 1 and solution.get_int("c") == 1


def test_exhaustive_solves_knapsack():
    solution = ExhaustiveSolver().solve(knapsack_problem())
    assert solution.is_optimal
    assert solution.objective == pytest.approx(14.0)


def test_mixed_integer_continuous_problem():
    # maximise 3x + y with x integer <= 4.3 constraint region.
    p = MILPProblem()
    p.add_integer("x", lower=0, upper=10)
    p.add_continuous("y", lower=0, upper=10)
    p.set_objective({"x": 3, "y": 1})
    p.add_le({"x": 1, "y": 1}, 6.5)
    p.add_le({"x": 1}, 4.3)
    for solver in (BranchAndBoundSolver(), ExhaustiveSolver()):
        solution = solver.solve(p)
        assert solution.is_optimal
        assert solution.get_int("x") == 4
        assert solution["y"] == pytest.approx(2.5, abs=1e-5)
        assert solution.objective == pytest.approx(14.5, abs=1e-5)


def test_infeasible_problem_detected():
    p = MILPProblem()
    p.add_integer("x", lower=0, upper=5)
    p.set_objective({"x": 1})
    p.add_ge({"x": 1}, 10)
    for solver in (BranchAndBoundSolver(), ExhaustiveSolver()):
        assert solver.solve(p).status == SolveStatus.INFEASIBLE


def test_equality_constraints_respected():
    p = MILPProblem()
    p.add_integer("x", lower=0, upper=10)
    p.add_integer("y", lower=0, upper=10)
    p.set_objective({"x": 1, "y": 2})
    p.add_eq({"x": 1, "y": 1}, 7)
    solution = BranchAndBoundSolver().solve(p)
    assert solution.is_optimal
    assert solution.get_int("x") + solution.get_int("y") == 7
    assert solution.get_int("y") == 7  # maximising prefers all-y


def test_branch_and_bound_matches_exhaustive_on_random_problems():
    rng = np.random.default_rng(42)
    for trial in range(10):
        p = MILPProblem(f"random-{trial}")
        n = 4
        for i in range(n):
            p.add_integer(f"x{i}", lower=0, upper=4)
        p.set_objective({f"x{i}": float(rng.uniform(0.5, 3)) for i in range(n)})
        # Two random <= constraints keep the problem bounded and non-trivial.
        for c in range(2):
            coeffs = {f"x{i}": float(rng.uniform(0.5, 2)) for i in range(n)}
            p.add_le(coeffs, float(rng.uniform(4, 10)))
        bnb = BranchAndBoundSolver().solve(p)
        exh = ExhaustiveSolver().solve(p)
        assert bnb.is_optimal and exh.is_optimal
        assert bnb.objective == pytest.approx(exh.objective, abs=1e-6)


def test_exhaustive_rejects_unbounded_integer():
    p = MILPProblem()
    p.add_integer("x", lower=0, upper=None)
    p.set_objective({"x": 1})
    with pytest.raises(ValueError):
        ExhaustiveSolver().solve(p)


def test_exhaustive_respects_combination_limit():
    p = MILPProblem()
    for i in range(6):
        p.add_integer(f"x{i}", lower=0, upper=9)
    p.set_objective({"x0": 1})
    with pytest.raises(ValueError):
        ExhaustiveSolver(max_combinations=1000).solve(p)


def test_binary_formulation_to_matrices_roundtrip():
    p = knapsack_problem()
    mats = p.to_matrices()
    assert mats["A_ub"].shape == (1, 3)
    assert len(mats["bounds"]) == 3
    assert all(b == (0.0, 1.0) for b in mats["bounds"])
    # Objective is negated for minimisation.
    assert mats["c"][mats["order"].index("a")] == pytest.approx(-10.0)


def test_solution_solve_time_recorded():
    solution = BranchAndBoundSolver().solve(knapsack_problem())
    assert solution.solve_time_s > 0
    assert solution.nodes_explored >= 1


# ------------------------------------------------------------- warm starts
def fraction_problem(demand, *, t1=2.1, t2=1.3, S=16):
    """The allocator's online formulation: max f over (x1, x2, f)."""
    p = MILPProblem("fraction")
    p.add_integer("x1", lower=1, upper=S)
    p.add_integer("x2", lower=0, upper=S)
    p.add_continuous("f", lower=0.0, upper=1.0)
    p.set_objective({"f": 1.0})
    p.add_ge({"x1": t1}, demand, name="light-throughput")
    p.add_le({"f": demand, "x2": -t2}, 0.0, name="heavy-throughput")
    p.add_le({"x1": 1.0, "x2": 1.0}, S, name="device-budget")
    return p


def test_warm_start_seeds_incumbent_and_matches_cold_optimum():
    problem = fraction_problem(14.0)
    cold = BranchAndBoundSolver().solve(problem)
    assert cold.is_optimal and not cold.warm_start_used

    warm = BranchAndBoundSolver().solve(problem, warm_start=cold.values)
    assert warm.is_optimal
    assert warm.warm_start_used
    assert warm.objective == pytest.approx(cold.objective)
    assert warm.lp_solves <= cold.lp_solves


def test_warm_start_prunes_root_when_relaxation_is_tight():
    # Low demand: the LP relaxation already hits the f <= 1 cap, so a warm
    # incumbent matching it lets the solve finish after the root LP alone.
    problem = fraction_problem(2.0)
    cold = BranchAndBoundSolver().solve(problem)
    assert cold.objective == pytest.approx(1.0)
    warm = BranchAndBoundSolver().solve(problem, warm_start=cold.values)
    assert warm.is_optimal and warm.warm_start_used
    assert warm.lp_solves == 1


def test_infeasible_warm_start_is_ignored():
    problem = fraction_problem(14.0)
    # x1 too small for the light-throughput constraint at this demand.
    bogus = {"x1": 1.0, "x2": 10.0, "f": 0.9}
    solution = BranchAndBoundSolver().solve(problem, warm_start=bogus)
    assert solution.is_optimal
    assert not solution.warm_start_used
    assert solution.objective == pytest.approx(
        BranchAndBoundSolver().solve(problem).objective
    )


def test_warm_start_with_missing_variables_is_ignored():
    problem = fraction_problem(14.0)
    solution = BranchAndBoundSolver().solve(problem, warm_start={"x1": 7.0})
    assert solution.is_optimal
    assert not solution.warm_start_used


def test_solver_counts_lp_relaxations():
    solver = BranchAndBoundSolver()
    assert solver.total_lp_solves == 0
    first = solver.solve(fraction_problem(14.0))
    assert first.lp_solves >= 1
    assert solver.total_lp_solves == first.lp_solves
    second = solver.solve(fraction_problem(20.0))
    assert solver.total_lp_solves == first.lp_solves + second.lp_solves


# --------------------------------------------- exhaustive closed-form path
def test_exhaustive_single_continuous_runs_without_lps():
    problem = fraction_problem(8.0, S=6)
    solution = ExhaustiveSolver().solve(problem)
    reference = BranchAndBoundSolver().solve(problem)
    assert solution.is_optimal
    assert solution.objective == pytest.approx(reference.objective)
    assert solution.lp_solves == 0
    assert problem.is_feasible(solution.values, tol=1e-6)


def test_exhaustive_rejects_coupled_continuous_variables():
    p = MILPProblem("coupled")
    p.add_integer("x", lower=0, upper=2)
    p.add_continuous("u", lower=0.0, upper=1.0)
    p.add_continuous("v", lower=0.0, upper=1.0)
    p.set_objective({"u": 1.0, "v": 1.0})
    p.add_le({"u": 1.0, "v": 1.0, "x": -0.5}, 0.5, name="shared")
    with pytest.raises(ValueError, match="couples u, v") as excinfo:
        ExhaustiveSolver().solve(p)
    assert "\n" not in str(excinfo.value)


def test_exhaustive_separable_continuous_variables_without_lps():
    # The allocator's reload shape: f in the heavy row, and one reload
    # variable per pool, each bounded by its own r >= x - prev row.
    p = fraction_problem(6.0, S=6)
    for x_name, r_name, prev in (("x1", "r1", 2.0), ("x2", "r2", 3.0)):
        p.add_continuous(r_name, lower=0.0, upper=6.0)
        p.add_ge({r_name: 1.0, x_name: -1.0}, -prev, name=f"reload[{x_name}]")
    p.set_objective({"f": 1.0, "r1": -0.03, "r2": -0.07})
    solution = ExhaustiveSolver().solve(p)
    reference = BranchAndBoundSolver().solve(p)
    assert solution.is_optimal and reference.is_optimal
    assert solution.lp_solves == 0
    assert solution.objective == pytest.approx(reference.objective, abs=1e-9)
    assert p.is_feasible(solution.values, tol=1e-9)
    # Each reload variable sits at its tight value max(0, x - prev).
    assert solution.values["r1"] == max(0.0, solution.values["x1"] - 2.0)
    assert solution.values["r2"] == max(0.0, solution.values["x2"] - 3.0)


def test_exhaustive_single_continuous_equality_pin():
    solution = ExhaustiveSolver().solve(_eq_pin_problem())
    assert solution.is_optimal
    # x=0 gives y=2 (obj 2); x=3 gives y=0.5 (obj 3.5) — the max.
    assert solution.objective == pytest.approx(3.5)
    assert solution.values["x"] == pytest.approx(3.0)
    assert solution.lp_solves == 0


def test_exhaustive_warm_start_keeps_previous_solution_on_ties():
    p = _tie_problem()
    # Many assignments reach the optimum 4; a feasible warm start at the
    # optimum must be returned verbatim (plan stability under ties).
    warm = {"x": 1.0, "y": 3.0}
    solution = ExhaustiveSolver().solve(p, warm_start=warm)
    assert solution.is_optimal and solution.warm_start_used
    assert solution.objective == pytest.approx(4.0)
    assert solution.values == {"x": 1, "y": 3}


def test_exhaustive_infeasible_warm_start_ignored():
    p = fraction_problem(8.0, S=6)
    solution = ExhaustiveSolver().solve(p, warm_start={"x1": 1.0, "x2": 1.0, "f": 1.0})
    assert solution.is_optimal
    assert not solution.warm_start_used


# ------------------------------- vectorized enumeration vs per-assignment oracle
def _same_solution(solution, reference):
    """Field-for-field agreement, down to value types, signed zeros and key order."""
    assert solution.status == reference.status
    assert repr(solution.objective) == repr(reference.objective)
    assert repr(list(solution.values.items())) == repr(list(reference.values.items()))
    assert solution.nodes_explored == reference.nodes_explored
    assert solution.warm_start_used == reference.warm_start_used
    assert solution.lp_solves == 0


def _empty_domain_problem():
    p = MILPProblem("empty")
    p.add_integer("x", lower=0, upper=3)
    p.add_integer("y", lower=0.5, upper=0.7)  # no integer in [0.5, 0.7]
    p.set_objective({"x": 1.0})
    return p


def _pure_integer_problem():
    p = knapsack_problem()
    p.add_ge({"a": 1, "b": 1, "c": 1}, 1)
    return p


def _integral_tolerance_problem():
    # x = 1 overshoots the row by 5e-7: feasible within the 1e-6 tolerance a
    # problem with no continuous variable is checked at.
    p = MILPProblem("tolerance")
    p.add_integer("x", lower=0, upper=2)
    p.set_objective({"x": 1.0})
    p.add_le({"x": 1.0000005}, 1.0)
    return p


def _eq_pin_problem():
    p = MILPProblem("pin")
    p.add_integer("x", lower=0, upper=3)
    p.add_continuous("y", lower=0.0, upper=10.0)
    p.set_objective({"x": 1.0, "y": 1.0})
    p.add_eq({"y": 2.0, "x": 1.0}, 4.0)  # y = (4 - x) / 2
    return p


def _unbounded_continuous_problem():
    # No row caps y, so under its positive objective coefficient every
    # assignment is unbounded and skipped.
    p = MILPProblem("unbounded")
    p.add_integer("x", lower=0, upper=3)
    p.add_continuous("y", lower=0.0)
    p.set_objective({"x": 1.0, "y": 1.0})
    p.add_ge({"y": 1.0, "x": 1.0}, 2.0)
    return p


def _free_below_problem():
    # z is unbounded below under a negative objective coefficient: it
    # takes the finite fallback 0; y is capped at 9 - 3x by its own row.
    p = MILPProblem("free-below")
    p.add_integer("x", lower=0, upper=3)
    p.add_continuous("y", lower=0.0)
    p.add_continuous("z", lower=float("-inf"), upper=5.0)
    p.set_objective({"x": 0.5, "y": 1.0, "z": -1.0})
    p.add_le({"y": 1.0, "x": 3.0}, 9.0)
    p.add_le({"x": -1.0}, -2.0)
    return p


def _tie_problem():
    # Every assignment on the x + y = 4 diagonal ties at objective 4.
    p = MILPProblem("ties")
    p.add_integer("x", lower=0, upper=4)
    p.add_integer("y", lower=0, upper=4)
    p.set_objective({"x": 1.0, "y": 1.0})
    p.add_le({"x": 1.0, "y": 1.0}, 4.0)
    return p


@pytest.mark.parametrize(
    "build, warm",
    [
        (_empty_domain_problem, None),
        (_pure_integer_problem, None),
        (_integral_tolerance_problem, None),
        (_eq_pin_problem, None),
        (_unbounded_continuous_problem, None),
        (_free_below_problem, None),
        (_tie_problem, None),
        (_tie_problem, {"x": 3.0, "y": 1.0}),  # a warm-start tie
        (_tie_problem, {"x": 4.0, "y": 4.0}),  # an infeasible warm start
        (lambda: fraction_problem(9.0, S=6), None),
    ],
    ids=["empty-domain", "pure-integer", "integral-tolerance", "eq-pin", "unbounded",
         "free-below", "tie", "warm-tie", "warm-infeasible", "fraction"],
)
@pytest.mark.parametrize("chunk_rows", [1, 3, 65_536])
def test_vectorized_enumeration_matches_per_assignment_oracle(build, warm, chunk_rows):
    problem = build()
    with mock.patch.object(exhaustive, "CHUNK_ROWS", chunk_rows):
        solution = ExhaustiveSolver().solve(problem, warm_start=warm)
    _same_solution(solution, reference_solve(problem, warm_start=warm))


def test_vectorized_enumeration_named_cases():
    assert ExhaustiveSolver().solve(_empty_domain_problem()).status == SolveStatus.INFEASIBLE
    assert ExhaustiveSolver().solve(_unbounded_continuous_problem()).status == (
        SolveStatus.INFEASIBLE
    )
    free = ExhaustiveSolver().solve(_free_below_problem())
    assert free.values == {"x": 2.0, "y": 3.0, "z": 0.0}
    assert ExhaustiveSolver().solve(_integral_tolerance_problem()).values == {"x": 1.0}


def test_first_maximum_wins_across_a_chunk_boundary():
    # Grid rows in product order: (x, y) = (0,0) (0,1) ... (0,4) (1,0) ...;
    # the first optimum (0, 4) is row 4 and the next, (1, 3), row 8.  With
    # 5-row chunks they fall in different chunks; the earlier one must win.
    problem = _tie_problem()
    for chunk_rows in (5, 6, 8, 9):
        with mock.patch.object(exhaustive, "CHUNK_ROWS", chunk_rows):
            solution = ExhaustiveSolver().solve(problem)
        assert solution.values == {"x": 0.0, "y": 4.0}
        _same_solution(solution, reference_solve(problem))


_COEFFS = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 3.0])


@st.composite
def _separable_problems(draw):
    """Small separable MILPs with coarse coefficients, so ties, empty
    domains, unbounded and infeasible assignments all come up often."""
    p = MILPProblem("generated")
    ints = []
    for i in range(draw(st.integers(0, 3))):
        lo = draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0]))
        p.add_integer(f"x{i}", lower=lo, upper=lo + draw(st.sampled_from([0.2, 1.0, 2.0, 3.0])))
        ints.append(f"x{i}")
    conts = []
    for j in range(draw(st.integers(0, 2))):
        lower = draw(st.sampled_from([0.0, -1.0, float("-inf")]))
        upper = draw(st.sampled_from([None, 2.0, 5.0]))
        p.add_continuous(f"u{j}", lower=lower, upper=upper)
        conts.append(f"u{j}")
    for _ in range(draw(st.integers(0, 4))):
        row = {n: draw(_COEFFS) for n in draw(st.lists(st.sampled_from(ints), unique=True))
               } if ints else {}
        if conts and draw(st.booleans()):
            row[draw(st.sampled_from(conts))] = draw(_COEFFS.filter(lambda c: c != 0.0))
        if not row:
            continue
        rhs = draw(st.sampled_from([-2.0, 0.0, 1.0, 2.5, 4.0]))
        add = draw(st.sampled_from([p.add_le, p.add_ge, p.add_eq]))
        add(row, rhs)
    names = ints + conts
    if names:
        p.set_objective({n: draw(_COEFFS) for n in draw(st.lists(st.sampled_from(names),
                                                                    unique=True))})
    warm = None
    if names and draw(st.booleans()):
        warm = {n: draw(st.sampled_from([-1.0, 0.0, 1.0, 2.0])) for n in names}
    return p, warm


@given(case=_separable_problems(), chunk_rows=st.sampled_from([1, 2, 5, 65_536]))
@settings(max_examples=200, deadline=None)
def test_vectorized_enumeration_matches_oracle_on_generated_problems(case, chunk_rows):
    problem, warm = case
    with mock.patch.object(exhaustive, "CHUNK_ROWS", chunk_rows):
        solution = ExhaustiveSolver().solve(problem, warm_start=warm)
        reference = reference_solve(problem, warm_start=warm)
        _same_solution(solution, reference)
        if reference.is_optimal and warm is None:
            # Warm-starting from the optimum itself is a tie the warm side wins.
            rewarmed = ExhaustiveSolver().solve(problem, warm_start=reference.values)
            _same_solution(rewarmed, reference_solve(problem, warm_start=reference.values))
