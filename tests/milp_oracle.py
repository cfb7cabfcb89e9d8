"""Per-assignment reference enumerator: the oracle for :class:`ExhaustiveSolver`.

It walks the integral grid one assignment at a time with
:func:`itertools.product`, bounds each continuous variable in plain Python and
scores the result with :meth:`MILPProblem.objective_value`.  The vectorized
solver must return exactly what this returns: the same status, objective,
``values`` dict (value types, signed zeros and key order included) and
``nodes_explored``.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.milp.exhaustive import ExhaustiveSolver
from repro.milp.problem import MILPProblem, Sense
from repro.milp.solution import MILPSolution, SolveStatus

_TOL = 1e-9


def reference_solve(
    problem: MILPProblem, *, warm_start: Optional[Mapping[str, float]] = None
) -> MILPSolution:
    """Solve ``problem`` by per-assignment enumeration (separable problems only)."""
    rows = ExhaustiveSolver._separable_rows(problem)
    domains: Dict[str, List[int]] = {}
    for name, var in problem.variables.items():
        if var.is_integral:
            domains[name] = list(range(int(np.ceil(var.lower)), int(np.floor(var.upper)) + 1))
    int_names = list(domains)
    cont_names = [n for n, v in problem.variables.items() if not v.is_integral]

    best_obj = -np.inf
    best_values: Optional[Dict[str, float]] = None
    seeded = problem.validated_assignment(warm_start)
    if seeded is not None:
        best_obj = problem.objective_value(seeded)
        best_values = seeded

    checked = 0
    for combo in itertools.product(*(domains[name] for name in int_names)):
        checked += 1
        assignment = {name: float(v) for name, v in zip(int_names, combo)}
        if cont_names:
            full = _optimise_continuous(problem, assignment, rows, cont_names)
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

    if best_values is None:
        return MILPSolution(status=SolveStatus.INFEASIBLE)
    return MILPSolution(
        status=SolveStatus.OPTIMAL,
        objective=best_obj,
        values=best_values,
        nodes_explored=checked,
        warm_start_used=seeded is not None,
    )


def _optimise_continuous(problem, fixed, rows, cont_names):
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
            lo = hi = (lo + hi) / 2.0
        coeff = problem.objective.get(name, 0.0)
        if not np.isfinite(hi) and coeff > 0:
            return None
        value = hi if coeff > 0 else lo
        if not np.isfinite(value):
            value = lo if np.isfinite(lo) else 0.0
        full[name] = float(min(max(value, lo), hi))
    return full
