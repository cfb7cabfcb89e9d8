"""A small mixed-integer linear programming (MILP) toolkit.

The paper solves its resource-allocation problem with Gurobi.  Gurobi is not
available offline, so this package provides two from-scratch solvers over the
same declarative problem description:

* :class:`BranchAndBoundSolver` — best-first branch-and-bound over
  :func:`scipy.optimize.linprog` LP relaxations, for problems of any size;
* :class:`ExhaustiveSolver` — LP-free enumeration of the integral grid with
  the continuous variables optimised in closed form, for small separable
  problems (every constraint mentions at most one continuous variable).

The allocator picks between them by each problem's integral search space;
the tests use each as the other's oracle.
"""

from repro.milp.problem import Constraint, MILPProblem, Sense, Variable, VarType
from repro.milp.solution import MILPSolution, SolveStatus
from repro.milp.branch_and_bound import BranchAndBoundSolver
from repro.milp.exhaustive import ExhaustiveSolver

__all__ = [
    "Variable",
    "VarType",
    "Constraint",
    "Sense",
    "MILPProblem",
    "MILPSolution",
    "SolveStatus",
    "BranchAndBoundSolver",
    "ExhaustiveSolver",
]
