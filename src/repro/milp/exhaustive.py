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

The enumeration is one NumPy pass per chunk of the integral grid: each
integral variable is a column, each separable row turns into per-assignment
interval bounds (or a feasibility mask), and the objective is a vector whose
first maximum wins.  Rows come out in :func:`itertools.product` order and
every sum is accumulated term by term in the problem's own order, so the
result is bit-for-bit what a per-assignment loop computes.  On a 2-CPU VM one
solve of the allocator's 16-worker problem (272 assignments) takes about
0.1 ms, against 2-6 ms for branch-and-bound.

The allocator routes every per-pair MILP whose integral search space is at
most :data:`repro.core.allocator.EXHAUSTIVE_SEARCH_LIMIT` here.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

# Not called here: perfbench's layer probes wrap this module attribute.
from scipy.optimize import linprog  # noqa: F401

from repro.milp.problem import MILPProblem, Sense
from repro.milp.solution import MILPSolution, SolveStatus

#: Integral assignments evaluated per NumPy pass, so peak memory does not grow
#: with ``max_combinations``.
CHUNK_ROWS = 65_536

#: Feasibility slack used when reducing constraints on a continuous variable.
_TOL = 1e-9
#: Feasibility slack of a problem with no continuous variable (the default
#: tolerance of :meth:`MILPProblem.is_feasible`).
_INTEGRAL_TOL = 1e-6

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

    def _integer_domains(self, problem: MILPProblem) -> Dict[str, Tuple[int, int]]:
        """``(lowest value, domain size)`` of every integral variable."""
        domains: Dict[str, Tuple[int, int]] = {}
        for name, var in problem.variables.items():
            if not var.is_integral:
                continue
            if var.upper is None:
                raise ValueError(
                    f"exhaustive solver requires bounded integer variables; {name!r} is unbounded"
                )
            lo = int(np.ceil(var.lower))
            domains[name] = (lo, max(int(np.floor(var.upper)) - lo + 1, 0))
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
        Among assignments that tie for the best, the first in
        :func:`itertools.product` order wins, across chunks too.
        """
        start = time.perf_counter()
        rows = self._separable_rows(problem)
        domains = self._integer_domains(problem)
        total = 1
        for _, size in domains.values():
            total *= size
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

        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            for begin in range(0, total, CHUNK_ROWS):
                columns = self._grid_chunk(domains, begin, min(begin + CHUNK_ROWS, total))
                values, feasible = self._optimise_continuous(problem, rows, columns)
                obj = np.zeros(len(feasible))
                for name, coeff in problem.objective.items():
                    obj = obj + coeff * values[name]
                better = feasible & (obj > best_obj)
                if not better.any():
                    continue
                pick = int(np.argmax(np.where(better, obj, -np.inf)))
                best_obj = float(obj[pick])
                best_values = {name: float(column[pick]) for name, column in values.items()}

        elapsed = time.perf_counter() - start
        if best_values is None:
            return MILPSolution(status=SolveStatus.INFEASIBLE, solve_time_s=elapsed)
        return MILPSolution(
            status=SolveStatus.OPTIMAL,
            objective=best_obj,
            values=best_values,
            nodes_explored=total,
            solve_time_s=elapsed,
            warm_start_used=warm_used,
        )

    @staticmethod
    def _grid_chunk(
        domains: Mapping[str, Tuple[int, int]], begin: int, end: int
    ) -> Dict[str, np.ndarray]:
        """Rows ``begin:end`` of the integral grid, one float column per
        variable, in :func:`itertools.product` order (last variable fastest)."""
        if not domains:
            return {}
        digits = np.unravel_index(
            np.arange(begin, end), tuple(size for _, size in domains.values())
        )
        return {
            name: (lo + digit).astype(float)
            for (name, (lo, _)), digit in zip(domains.items(), digits)
        }

    @staticmethod
    def _optimise_continuous(
        problem: MILPProblem, rows: List[_Row], columns: Dict[str, np.ndarray]
    ) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
        """Closed-form optimum over the continuous variables for every row of
        the grid: ``(value column per variable, feasibility mask)``.

        Each constraint is a one-sided (or, for an equality, two-sided) bound
        on its continuous variable, or a feasibility check when it has none;
        each variable's linear objective term peaks at an endpoint of its
        interval.  ``np.where`` stands in for :func:`max`/:func:`min` so that
        ties keep the same operand (and the same signed zero) they would.
        """
        n = len(next(iter(columns.values()))) if columns else 1
        cont_names = [name for name, var in problem.variables.items() if not var.is_integral]
        tol = _TOL if cont_names else _INTEGRAL_TOL
        feasible = np.ones(n, dtype=bool)
        lower: Dict[str, np.ndarray] = {}
        upper: Dict[str, np.ndarray] = {}
        for name in cont_names:
            var = problem.variables[name]
            lower[name] = np.full(n, float(var.lower))
            upper[name] = np.full(n, np.inf if var.upper is None else float(var.upper))
        for terms, cont, a, sense, con_rhs in rows:
            const = np.zeros(n)
            for name, coeff in terms:
                const = const + coeff * columns[name]
            if cont is None:
                if sense == Sense.LE:
                    feasible &= ~(const > con_rhs + tol)
                elif sense == Sense.GE:
                    feasible &= ~(const < con_rhs - tol)
                else:
                    feasible &= ~(np.abs(const - con_rhs) > tol)
                continue
            bound = (con_rhs - const) / a
            if sense == Sense.EQ or (sense == Sense.LE) != (a > 0.0):
                lower[cont] = np.where(bound > lower[cont], bound, lower[cont])
            if sense == Sense.EQ or (sense == Sense.LE) == (a > 0.0):
                upper[cont] = np.where(bound < upper[cont], bound, upper[cont])
        values = dict(columns)
        for name in cont_names:
            lo, hi = lower[name], upper[name]
            crossed = lo > hi
            if crossed.any():
                feasible &= ~(lo > hi + _TOL)
                mid = (lo + hi) / 2.0  # degenerate interval within tolerance
                lo = np.where(crossed, mid, lo)
                hi = np.where(crossed, mid, hi)
            coeff = problem.objective.get(name, 0.0)
            if coeff > 0:
                feasible &= np.isfinite(hi)  # else the objective is unbounded
                value = hi
            else:
                value = lo
            value = np.where(np.isfinite(value), value, np.where(np.isfinite(lo), lo, 0.0))
            value = np.where(lo > value, lo, value)
            values[name] = np.where(hi < value, hi, value)
        return values, feasible
