"""LP solving on top of ``scipy.optimize.linprog`` (HiGHS).

Solver statuses are mapped onto the library's exception hierarchy:
infeasibility raises :class:`~repro.errors.InfeasibleError` (the paper notes
the access-strategy LP "might not exist if, e.g., the node capacities are set
too low"), anything else unexpected raises
:class:`~repro.errors.SolverError`.

:func:`solve` is the one-shot path: it rebuilds the program's arrays on
every call. When the same program must be solved for many right-hand
sides (a capacity sweep, the iterative algorithm's per-iteration capacity
vectors), wrap it in :class:`~repro.lp.batched.BatchedProgram` instead —
assembly happens once and solves reuse the factorized structure.
:func:`solve` and the batched scipy fallback both go through
:func:`_cold_solve`, the one ``linprog`` call site and the one place its
statuses are mapped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from repro.errors import InfeasibleError, SolverError
from repro.lp.problem import LinearProgram

__all__ = ["LPSolution", "solve"]

_STATUS_INFEASIBLE = 2
_STATUS_UNBOUNDED = 3


@dataclass(frozen=True)
class LPSolution:
    """Solution of a :class:`~repro.lp.problem.LinearProgram`.

    ``x`` is the flat solution vector; use the program's variable blocks to
    reshape it. ``objective`` is the attained minimum.
    """

    x: np.ndarray
    objective: float

    def block_values(self, program: LinearProgram, name: str) -> np.ndarray:
        """Extract one named variable block from the solution."""
        return program.block(name).reshape(self.x)


def solve(program: LinearProgram) -> LPSolution:
    """Minimize the program; raise on infeasibility or solver failure.

    >>> from repro.lp.problem import LinearProgram
    >>> lp = LinearProgram()
    >>> x = lp.add_block("x", 1, lower=0.0)
    >>> lp.set_objective(x.index(0), 1.0)
    >>> lp.add_le([x.index(0)], [-1.0], -2.0)   # x >= 2
    0
    >>> solve(lp).objective
    2.0
    """
    solution = _cold_solve(program.build())
    if solution is None:
        raise InfeasibleError("linear program is infeasible")
    return solution


def _cold_solve(
    arrays: dict, b_ub: np.ndarray | None = None
) -> LPSolution | None:
    """One cold HiGHS solve of built arrays; ``None`` when infeasible.

    ``b_ub`` overrides the built inequality RHS (the batched scipy
    backend's per-variant sweep). Unbounded or otherwise failed solves
    raise :class:`~repro.errors.SolverError`.
    """
    result = linprog(
        arrays["c"],
        A_ub=arrays["A_ub"],
        b_ub=arrays["b_ub"] if b_ub is None else b_ub,
        A_eq=arrays["A_eq"],
        b_eq=arrays["b_eq"],
        bounds=arrays["bounds"],
        method="highs",
    )
    if result.status == _STATUS_INFEASIBLE:
        return None
    if result.status == _STATUS_UNBOUNDED:
        raise SolverError("linear program is unbounded")
    if not result.success:
        raise SolverError(f"LP solver failed: {result.message}")
    return LPSolution(x=np.asarray(result.x), objective=float(result.fun))
