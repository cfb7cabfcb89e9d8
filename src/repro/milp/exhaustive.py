"""Exhaustive MILP solver for small, fully bounded integer problems.

It enumerates every integral assignment and optimises the continuous
variables in closed form, so a solve runs no LP at all.  That needs a
*separable* problem: every constraint mentions at most one continuous
variable.  With the integral variables fixed, each constraint is then an
interval bound on its one continuous variable (or a pure feasibility check),
and a linear objective over an interval peaks at an endpoint.  The
allocator's ``fraction`` formulation is separable: ``f`` sits only in the
heavy-throughput row and each reload variable ``r[c]`` only in its own
``r[c] >= x[c] - prev`` row.  Non-separable problems are rejected on entry.

The allocator routes every per-pair MILP whose integral search space is at
most :data:`repro.core.allocator.EXHAUSTIVE_SEARCH_LIMIT` here; the tests and
the Section 4.5 overhead study use it to cross-check branch-and-bound.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

# Not called here: perfbench's layer probes wrap this module attribute.
from scipy.optimize import linprog  # noqa: F401

from repro.milp.problem import MILPProblem, Sense
from repro.milp.solution import MILPSolution, SolveStatus

#: Feasibility slack used when reducing constraints on a continuous variable
#: (matches the tolerance of :meth:`MILPProblem.is_feasible` checks).
_TOL = 1e-9

#: One constraint split for the closed form: its integral terms, the one
#: continuous variable it bounds (``None`` for a pure feasibility check) and
#: that variable's coefficient, the sense and the right-hand side.
_Row = Tuple[Tuple[Tuple[str, float], ...], Optional[str], float, Sense, float]


class ExhaustiveSolver:
    """Enumerates all integral assignments of a separable MILP; the continuous
    variables are optimised per assignment in closed form."""

    def __init__(self, max_combinations: int = 2_000_000) -> None:
        if max_combinations < 1:
            raise ValueError("max_combinations must be >= 1")
        self.max_combinations = max_combinations

    def _integer_domains(self, problem: MILPProblem) -> Dict[str, List[int]]:
        domains: Dict[str, List[int]] = {}
        for name, var in problem.variables.items():
            if not var.is_integral:
                continue
            if var.upper is None:
                raise ValueError(
                    f"exhaustive solver requires bounded integer variables; {name!r} is unbounded"
                )
            lo = int(np.ceil(var.lower))
            hi = int(np.floor(var.upper))
            domains[name] = list(range(lo, hi + 1))
        return domains

    @staticmethod
    def _separable_rows(problem: MILPProblem) -> List[_Row]:
        """Split every constraint into integral terms plus at most one
        continuous term; a constraint coupling two continuous variables has
        no closed form and is rejected."""
        rows: List[_Row] = []
        for con in problem.constraints:
            terms = []
            continuous = []
            for name, coeff in con.coefficients.items():
                if problem.variables[name].is_integral:
                    terms.append((name, coeff))
                elif coeff != 0.0:
                    continuous.append(name)
            if len(continuous) > 1:
                raise ValueError(
                    f"exhaustive solver needs separable continuous variables; constraint "
                    f"{con.name or '<unnamed>'!r} couples {', '.join(continuous)}"
                )
            cont = continuous[0] if continuous else None
            a = con.coefficients[cont] if cont is not None else 0.0
            rows.append((tuple(terms), cont, a, con.sense, con.rhs))
        return rows

    def search_space(self, problem: MILPProblem) -> Optional[int]:
        """Number of integral assignments, or ``None`` if any is unbounded."""
        total = 1
        for var in problem.variables.values():
            if not var.is_integral:
                continue
            if var.upper is None:
                return None
            total *= max(int(np.floor(var.upper)) - int(np.ceil(var.lower)) + 1, 0)
        return total

    def solve(
        self, problem: MILPProblem, *, warm_start: Optional[Mapping[str, float]] = None
    ) -> MILPSolution:
        """Enumerate the integral grid and return the best feasible assignment.

        A feasible ``warm_start`` seeds the running best, so assignments that
        cannot strictly beat the previous solution are discarded — and ties
        resolve to the warm solution, keeping re-planned allocations stable.
        """
        start = time.perf_counter()
        rows = self._separable_rows(problem)
        domains = self._integer_domains(problem)
        int_names = list(domains)
        cont_names = [n for n, v in problem.variables.items() if not v.is_integral]

        total = 1
        for values in domains.values():
            total *= len(values)
        if total > self.max_combinations:
            raise ValueError(
                f"search space too large for exhaustive solver ({total} combinations)"
            )

        best_obj = -np.inf
        best_values: Optional[Dict[str, float]] = None
        seeded = problem.validated_assignment(warm_start)
        warm_used = seeded is not None
        if seeded is not None:
            best_obj = problem.objective_value(seeded)
            best_values = seeded

        checked = 0
        for combo in itertools.product(*(domains[name] for name in int_names)):
            checked += 1
            assignment = {name: float(v) for name, v in zip(int_names, combo)}
            if cont_names:
                full = self._optimise_continuous(problem, assignment, rows, cont_names)
                if full is None:
                    continue
            else:
                if not problem.is_feasible(assignment):
                    continue
                full = assignment
            obj = problem.objective_value(full)
            if obj > best_obj:
                best_obj = obj
                best_values = dict(full)

        elapsed = time.perf_counter() - start
        if best_values is None:
            return MILPSolution(status=SolveStatus.INFEASIBLE, solve_time_s=elapsed)
        return MILPSolution(
            status=SolveStatus.OPTIMAL,
            objective=best_obj,
            values=best_values,
            nodes_explored=checked,
            solve_time_s=elapsed,
            warm_start_used=warm_used,
        )

    @staticmethod
    def _optimise_continuous(
        problem: MILPProblem,
        fixed: Dict[str, float],
        rows: List[_Row],
        cont_names: List[str],
    ) -> Optional[Dict[str, float]]:
        """Closed-form optimum over the continuous variables, integrals fixed.

        Each row is a one-sided (or, for an equality, two-sided) bound on its
        continuous variable, or a feasibility check when it has none; each
        variable's linear objective term peaks at an endpoint of its interval.
        """
        lower: Dict[str, float] = {}
        upper: Dict[str, float] = {}
        for name in cont_names:
            var = problem.variables[name]
            lower[name] = var.lower
            upper[name] = np.inf if var.upper is None else var.upper
        for terms, cont, a, sense, con_rhs in rows:
            const = sum(coeff * fixed[name] for name, coeff in terms)
            if cont is None:
                if sense == Sense.LE and const > con_rhs + _TOL:
                    return None
                if sense == Sense.GE and const < con_rhs - _TOL:
                    return None
                if sense == Sense.EQ and abs(const - con_rhs) > _TOL:
                    return None
                continue
            bound = (con_rhs - const) / a
            if sense == Sense.EQ:
                lower[cont] = max(lower[cont], bound)
                upper[cont] = min(upper[cont], bound)
            elif (sense == Sense.LE) == (a > 0.0):
                upper[cont] = min(upper[cont], bound)
            else:
                lower[cont] = max(lower[cont], bound)
        full = dict(fixed)
        for name in cont_names:
            lo, hi = lower[name], upper[name]
            if lo > hi:
                if lo > hi + _TOL:
                    return None
                lo = hi = (lo + hi) / 2.0  # degenerate interval within tolerance
            coeff = problem.objective.get(name, 0.0)
            if not np.isfinite(hi) and coeff > 0:
                return None  # unbounded objective for this assignment
            value = hi if coeff > 0 else lo
            if not np.isfinite(value):
                value = lo if np.isfinite(lo) else 0.0
            full[name] = float(min(max(value, lo), hi))
        return full
