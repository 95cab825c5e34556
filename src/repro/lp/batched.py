"""Build-once/solve-many LP solving.

The capacity-sweep technique and the iterative algorithm solve families of
LPs that share every coefficient except the inequality right-hand sides
(the node-capacity column of (4.4)). :class:`BatchedProgram` exploits that:
it assembles the constraint matrices of a :class:`~repro.lp.problem.LinearProgram`
exactly once and then solves any number of RHS variants against the shared
structure.

Two solver paths sit behind one interface:

* **HiGHS warm-start** — when HiGHS python bindings are importable (the
  standalone ``highspy`` package, or the copy scipy vendors as
  ``scipy.optimize._highspy``), the model is passed to a persistent
  ``Highs`` instance once; each variant only changes the affected row
  bounds and re-runs the solver, which re-optimizes from a warm basis
  (dual simplex) instead of solving cold. This is where the batched
  sweep's order-of-magnitude win comes from.
* **scipy fallback** — otherwise each variant is one cold
  ``scipy.optimize.linprog`` call (through the same helper as
  :func:`repro.lp.solver.solve`) reusing the prebuilt CSR matrices, so
  only assembly (not the cold solve) is amortized.

Families whose *coefficients* drift — not just their RHS — are covered by
the in-place update hooks: :meth:`BatchedProgram.update_objective` and
:meth:`BatchedProgram.update_le_rows` rewrite objective entries or whole
inequality rows against the fixed sparsity structure, keeping the scipy
arrays and the persistent HiGHS model in sync. The fractional-placement
LP uses this: its element-load rows change as the iterative algorithm's
strategy evolves, while everything else in the constraint system stays
put.

Canonical (trajectory-independent) solves
-----------------------------------------
A chained warm start — re-optimizing from wherever the previous solve
left the basis — makes the *answer* on degenerate LPs depend on the whole
solve history: two programs asked the same question after different
request sequences can return different (equally optimal) vertices. That
is fatal for result caching and for ``jobs=N``/``jobs=1`` bit-identity
once worker processes keep programs warm across the candidates they
happen to be handed. The backend therefore pins every solve to a
deterministic **anchor basis**: before the first single solve or in-place
update, one calibration solve of the program exactly as built is run and
its final basis captured; every later single solve restarts the solver
from that anchor. Each solve's result is then a pure function of (built
program, request) — tied optima always break the same way, no matter
which process solved what before. A :meth:`BatchedProgram.solve_many`
batch instead starts cold and chains warm starts *within* itself: the
variant list is one request, so batches are equally deterministic
without paying for a calibration. The anchor costs one extra solve per
program and keeps most of the warm win: re-solves start from an optimal
basis of a sibling LP instead of from scratch.

:meth:`BatchedProgram.solve_many` always sweeps the RHS variants in
lexicographically ascending order (monotone for capacity sweeps, so each
warm step is a small dual-simplex perturbation) and un-permutes the
results, so the returned list lines up with the input and does not
depend on the caller's level order.

The probe is transparent: callers never see which path ran unless they ask
(:attr:`BatchedProgram.backend`). Set ``REPRO_LP_BACKEND=scipy`` to force
the fallback (the equivalence tests use this to compare both paths); the
scipy path is stateless per solve, hence trivially canonical.
"""

from __future__ import annotations

import os
from typing import Any, Iterable, Sequence

import numpy as np

from repro.errors import InfeasibleError, SolverError
from repro.lp.problem import LinearProgram
from repro.lp.solver import LPSolution, _cold_solve
from repro.obs import tracer as obs

__all__ = ["BatchedProgram", "lp_backend_name"]

#: Environment variable forcing a backend ("scipy" disables the HiGHS probe).
LP_BACKEND_ENV = "REPRO_LP_BACKEND"


def _probe_highs_bindings() -> tuple[Any, str]:
    """``(module, name)`` for importable HiGHS bindings, or ``(None, "scipy")``.

    Tries the standalone ``highspy`` package first, then the bindings scipy
    ships internally. Returns ``(None, "scipy")`` when neither imports or
    when ``REPRO_LP_BACKEND=scipy`` forces the fallback.
    """
    forced = os.environ.get(LP_BACKEND_ENV, "")  # repro-lint: disable=RL002 -- backend selector; cache keys record the backend, so entries never cross
    if forced.strip().lower() == "scipy":
        return None, "scipy"
    try:
        import highspy  # standalone distribution

        if hasattr(highspy, "Highs"):
            return highspy, "highspy"
    except ImportError:
        pass
    try:
        from scipy.optimize._highspy import _core  # vendored by scipy

        if hasattr(_core, "_Highs") or hasattr(_core, "Highs"):
            return _core, "scipy-highspy"
    except ImportError:
        pass
    return None, "scipy"


def lp_backend_name() -> str:
    """Name of the backend a new :class:`BatchedProgram` would use."""
    return _probe_highs_bindings()[1]


class _HighsBackend:
    """Persistent HiGHS model; RHS variants only change row bounds."""

    def __init__(
        self, bindings: Any, arrays: dict, n_le: int, n_eq: int
    ) -> None:
        from scipy import sparse

        self._hs = bindings
        self._inf = float(bindings.kHighsInf)
        self._n_le = n_le
        self._anchor = None  # calibration basis; see capture_anchor()
        self.stateful = True  # solves reuse solver state: needs the anchor

        blocks = [m for m in (arrays["A_ub"], arrays["A_eq"]) if m is not None]
        n_vars = arrays["c"].size
        if blocks:
            a = sparse.vstack(blocks).tocsc()
        else:
            a = sparse.csc_matrix((0, n_vars))

        lp = bindings.HighsLp()
        lp.num_col_ = n_vars
        lp.num_row_ = n_le + n_eq
        lp.col_cost_ = np.ascontiguousarray(arrays["c"])
        lp.col_lower_ = np.ascontiguousarray(arrays["bounds"][:, 0])
        lp.col_upper_ = np.ascontiguousarray(arrays["bounds"][:, 1])
        row_lower = np.full(n_le + n_eq, -self._inf)
        row_upper = np.full(n_le + n_eq, self._inf)
        if n_le:
            row_upper[:n_le] = arrays["b_ub"]
        if n_eq:
            row_lower[n_le:] = arrays["b_eq"]
            row_upper[n_le:] = arrays["b_eq"]
        lp.row_lower_ = row_lower
        lp.row_upper_ = row_upper
        matrix = lp.a_matrix_
        matrix.format_ = bindings.MatrixFormat.kColwise
        matrix.num_col_ = n_vars
        matrix.num_row_ = n_le + n_eq
        matrix.start_ = a.indptr
        matrix.index_ = a.indices
        matrix.value_ = a.data

        highs_cls = getattr(bindings, "Highs", None) or bindings._Highs
        solver = highs_cls()
        solver.setOptionValue("output_flag", False)
        status = solver.passModel(lp)
        if status == bindings.HighsStatus.kError:
            raise SolverError(f"HiGHS rejected the model: {status}")
        self._solver = solver

    def _copy_basis(self, basis: Any) -> Any:
        # getBasis() hands back a view of solver-internal state; snapshot
        # the status vectors so the anchor survives later solves.
        copy = self._hs.HighsBasis()
        copy.col_status = list(basis.col_status)
        copy.row_status = list(basis.row_status)
        copy.valid = basis.valid
        copy.alien = basis.alien
        return copy

    def capture_anchor(self) -> None:
        """Snapshot the current basis as the canonical restart point."""
        basis = self._solver.getBasis()
        self._anchor = self._copy_basis(basis) if basis.valid else None

    def restart(self) -> bool:
        """Reset the solver onto the anchor basis (cold if none captured).

        Either way the solver state right before the next solve is a pure
        function of the built model, never of earlier requests. Returns
        whether the anchor basis was applied — i.e. whether the next
        solve is a warm start (the ``lp.warm_start_hit`` counter).
        """
        if self._anchor is not None:
            status = self._solver.setBasis(self._copy_basis(self._anchor))
            if status != self._hs.HighsStatus.kError:
                return True
        self._solver.clearSolver()
        return False

    def cold_restart(self) -> None:
        """Discard all solver state: the next solve runs from scratch."""
        self._solver.clearSolver()

    def update_objective(self, variables: np.ndarray, values: np.ndarray) -> None:
        bulk = getattr(self._solver, "changeColsCost", None)
        if bulk is not None:
            # One bulk call instead of a per-variable Python loop — the
            # dynamics controller rewrites every objective entry per
            # RTT-drift epoch, so this is on its hot path.
            bulk(
                int(variables.size),
                np.ascontiguousarray(variables, dtype=np.int32),
                np.ascontiguousarray(values, dtype=np.float64),
            )
            return
        for var, value in zip(variables, values):
            self._solver.changeColCost(int(var), float(value))

    def update_coefficients(
        self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray
    ) -> None:
        for row, col, value in zip(rows, cols, values):
            self._solver.changeCoeff(int(row), int(col), float(value))

    def solve(self, b_ub: np.ndarray | None) -> LPSolution | None:
        hs = self._hs
        if self._n_le:
            assert b_ub is not None
            solver = self._solver
            inf = self._inf
            for row in range(self._n_le):
                solver.changeRowBounds(row, -inf, float(b_ub[row]))
        self._solver.run()
        status = self._solver.getModelStatus()
        if status == hs.HighsModelStatus.kOptimal:
            x = np.asarray(self._solver.getSolution().col_value, dtype=float)
            objective = float(
                self._solver.getInfo().objective_function_value
            )
            return LPSolution(x=x, objective=objective)
        if status == hs.HighsModelStatus.kInfeasible:
            return None
        raise SolverError(
            "HiGHS solve failed: "
            f"{self._solver.modelStatusToString(status)}"
        )


class _ScipyBackend:
    """One cold ``linprog`` call per variant over the shared arrays."""

    def __init__(self, arrays: dict) -> None:
        self._arrays = arrays
        self.stateful = False  # fresh linprog call per variant: no anchor

    def capture_anchor(self) -> None:
        pass  # stateless: every solve is already trajectory-independent

    def restart(self) -> bool:
        return False  # stateless: every solve runs cold by construction

    def cold_restart(self) -> None:
        pass  # ditto

    def update_objective(
        self, variables: np.ndarray, values: np.ndarray
    ) -> None:
        pass  # BatchedProgram already rewrote the shared arrays in place

    def update_coefficients(
        self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray
    ) -> None:
        pass  # ditto: linprog reads the CSR matrix freshly every call

    def solve(self, b_ub: np.ndarray | None) -> LPSolution | None:
        return _cold_solve(self._arrays, b_ub)


class BatchedProgram:
    """A built LP whose inequality RHS can be swept without reassembly.

    ``min x + 2y`` subject to ``x + y >= b`` over ``[0, 10]^2``, solved
    for a family of ``b`` values against one assembled structure:

    >>> from repro.lp.problem import LinearProgram
    >>> lp = LinearProgram()
    >>> v = lp.add_block("v", 2, lower=0.0, upper=10.0)
    >>> lp.set_objective_many([v.index(0), v.index(1)], [1.0, 2.0])
    >>> lp.add_le([v.index(0), v.index(1)], [-1.0, -1.0], -1.0)
    0
    >>> batched = BatchedProgram(lp)
    >>> [None if s is None else round(s.objective, 9)
    ...  for s in batched.solve_many([[-1.0], [-4.0], [-25.0]])]
    [1.0, 4.0, None]

    (``x + y >= 25`` exceeds the variable bounds, so that variant is
    reported infeasible rather than raising.)

    ``solve_many`` returns one entry per variant: an
    :class:`~repro.lp.solver.LPSolution` when that variant is feasible,
    ``None`` when it is infeasible (so sweeps can record dropped levels).
    Unbounded or otherwise failed solves raise
    :class:`~repro.errors.SolverError` — those are programming errors, not
    data.

    Solves are *canonical*: the first solve (or in-place update) runs one
    calibration solve of the program exactly as built and captures its
    final basis as the anchor; every request then restarts the solver from
    that anchor. The solution returned for a given (updates, RHS) request
    is therefore a pure function of the built program and the request —
    degenerate ties always break the same way regardless of what was
    solved before, which is what keeps worker-warm parallel searches
    bit-identical to serial ones.

    Parameters
    ----------
    program:
        The assembled program; its arrays are built exactly once here.
    backend:
        ``None`` probes for HiGHS bindings and falls back to scipy;
        ``"highs"`` requires the bindings (raises if missing);
        ``"scipy"`` forces the per-variant ``linprog`` fallback.
    """

    def __init__(
        self, program: LinearProgram, backend: str | None = None
    ) -> None:
        if backend not in (None, "highs", "scipy"):
            raise SolverError(
                f"unknown LP backend {backend!r}; "
                "choose 'highs', 'scipy', or None to auto-probe"
            )
        # Only the built arrays are retained — holding the LinearProgram
        # itself would pin every COO chunk for the program's lifetime.
        self.n_variables = program.n_variables
        self._arrays = program.build()
        self._n_le = program.n_le_constraints

        bindings, probed = (None, "scipy")
        if backend != "scipy":
            bindings, probed = _probe_highs_bindings()
            if backend == "highs" and bindings is None:
                raise SolverError(
                    "no HiGHS python bindings importable (tried 'highspy' "
                    "and scipy's vendored copy); use backend='scipy'"
                )
        if bindings is not None:
            self.backend = probed
            self._impl = _HighsBackend(
                bindings,
                self._arrays,
                self._n_le,
                program.n_eq_constraints,
            )
        else:
            self.backend = "scipy"
            self._impl = _ScipyBackend(self._arrays)
        self._anchored = False
        #: Solver invocations so far (calibration included) — the cost
        #: accounting consumers like the dynamics controller report.
        self.solve_count = 0

    @property
    def n_le_constraints(self) -> int:
        return self._n_le

    @property
    def arrays(self) -> dict:
        """The built solver arrays (``c``, ``A_ub``, ``b_ub``, ...).

        Shared with the backend — treat as read-only and go through
        :meth:`update_objective` / :meth:`update_le_rows` to mutate, so the
        persistent HiGHS model never drifts from the arrays.
        """
        return self._arrays

    def _ensure_anchor(self) -> None:
        """Calibrate once: solve the program exactly as built and keep the
        final basis as the anchor every later solve restarts from.

        Runs before the first solve *and* before the first in-place
        update, so the calibration state — and with it the anchor — is
        always the pristine built program, never some
        request-sequence-dependent intermediate. An infeasible (or
        otherwise failed) calibration simply leaves no anchor; solves then
        restart cold, which is equally deterministic.
        """
        if self._anchored:
            return
        self._anchored = True
        if not self._impl.stateful:
            return  # stateless backend: nothing to calibrate
        # An earlier solve_many batch may have left its final basis in the
        # solver; calibrate from a cold state or the anchor would inherit
        # that history and the canonical guarantee would be a lie.
        self._impl.cold_restart()
        obs.count("lp.calibration")
        try:
            self.solve_count += 1
            self._impl.solve(
                np.asarray(self._arrays["b_ub"], dtype=np.float64)
                if self._n_le
                else None
            )
        except SolverError:
            pass  # no anchor; restart() degrades to deterministic cold
        self._impl.capture_anchor()

    def update_objective(
        self,
        variables: np.ndarray | Sequence[int],
        coefficients: np.ndarray | Sequence[float],
    ) -> None:
        """Overwrite the objective coefficients of selected variables.

        Unlike :meth:`~repro.lp.problem.LinearProgram.set_objective`, this
        *replaces* (does not accumulate) — it is the re-parameterization
        hook for solved-in-place program families. The persistent HiGHS
        model, when active, is updated in the same call; the next solve
        restarts from the anchor basis against the new objective.
        """
        self._ensure_anchor()
        variables = np.asarray(variables, dtype=np.intp)
        coefficients = np.asarray(coefficients, dtype=np.float64)
        if variables.shape != coefficients.shape:
            raise SolverError(
                "objective variables and coefficients length mismatch"
            )
        if variables.size and (
            variables.min() < 0 or variables.max() >= self.n_variables
        ):
            raise SolverError(
                f"objective variables must lie in [0, {self.n_variables})"
            )
        self._arrays["c"][variables] = coefficients
        self._impl.update_objective(variables, coefficients)
        obs.count("lp.update")

    def update_le_rows(
        self,
        rows: np.ndarray | Sequence[int],
        values: np.ndarray,
    ) -> None:
        """Overwrite the stored values of whole inequality rows.

        ``values[k]`` must hold row ``rows[k]``'s coefficients for its
        existing sparsity structure, in ascending-column order (the
        canonical CSR order the program was built into). Only values
        change — entries cannot be added or removed, which is exactly the
        contract of a program family whose coefficients drift over a fixed
        structure (e.g. the element-load rows of the fractional-placement
        LP). Explicitly stored zeros stay in the structure and may be
        overwritten with new values later.
        """
        matrix = self._arrays["A_ub"]
        if matrix is None:
            raise SolverError("program has no inequality rows to update")
        self._ensure_anchor()
        rows = np.asarray(rows, dtype=np.intp)
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != rows.size:
            raise SolverError(
                "update_le_rows expects one value row per updated row"
            )
        if rows.size and (rows.min() < 0 or rows.max() >= self._n_le):
            raise SolverError(
                f"row indices must lie in [0, {self._n_le})"
            )
        indptr, indices = matrix.indptr, matrix.indices
        starts, ends = indptr[rows], indptr[rows + 1]
        if np.any(ends - starts != values.shape[1]):
            raise SolverError(
                "value rows must match each row's stored entry count"
            )
        for start, row_values in zip(starts, values):
            matrix.data[start : start + values.shape[1]] = row_values
        cols = np.concatenate(
            [indices[s:e] for s, e in zip(starts, ends)]
        ) if rows.size else np.empty(0, dtype=indices.dtype)
        self._impl.update_coefficients(
            np.repeat(rows, values.shape[1]), cols, values.ravel()
        )
        obs.count("lp.update")

    def _check_rhs(self, b_ub: "np.ndarray | Sequence | None") -> np.ndarray | None:
        if self._n_le == 0:
            if b_ub is not None and np.asarray(b_ub).size:
                raise SolverError(
                    "program has no inequality rows to take an RHS"
                )
            return None
        rhs = np.asarray(b_ub, dtype=np.float64)
        if rhs.shape != (self._n_le,):
            raise SolverError(
                f"RHS variant must have shape ({self._n_le},), "
                f"got {rhs.shape}"
            )
        return rhs

    def solve_many(
        self,
        b_ub_variants: Iterable[Sequence[float] | np.ndarray],
    ) -> list[LPSolution | None]:
        """Solve every RHS variant against the shared structure.

        The batch starts from a cold solver state and chains warm starts
        *within* itself — deterministic, because the whole variant list
        is one request and nothing from earlier requests leaks in.
        (Unlike single solves, batches skip the anchor: the first
        variant's cold solve plays the calibration role and every later
        variant chains off it, so a sweep costs no extra solve.)

        Variants are solved in lexicographically ascending RHS order —
        the basis-aware schedule: a monotone capacity sweep makes every
        warm step a small dual-simplex perturbation — and un-permuted, so
        the returned list always lines up with the input *and* does not
        depend on the caller's level order.
        """
        variants = [self._check_rhs(v) for v in b_ub_variants]
        self.solve_count += len(variants)
        if variants:
            obs.count("lp.solve", len(variants))
        self._impl.cold_restart()
        if not self._n_le or len(variants) < 2:
            return [self._impl.solve(variant) for variant in variants]
        # lexsort's last key is primary: reverse so coordinate 0 leads
        permutation = np.lexsort(np.stack(variants).T[::-1])
        results: list[LPSolution | None] = [None] * len(variants)
        for index in permutation:
            results[index] = self._impl.solve(variants[index])
        return results

    def solve(
        self, b_ub: Sequence[float] | np.ndarray | None = None
    ) -> LPSolution:
        """Solve one variant; raises :class:`InfeasibleError` if infeasible.

        With ``b_ub=None`` the RHS the program was built with is used.
        """
        if b_ub is None and self._n_le:
            b_ub = self._arrays["b_ub"]
        rhs = self._check_rhs(b_ub)
        self._ensure_anchor()
        warm = self._impl.restart()
        self.solve_count += 1
        obs.count("lp.solve")
        if warm:
            obs.count("lp.warm_start_hit")
        solution = self._impl.solve(rhs)
        if solution is None:
            raise InfeasibleError("linear program is infeasible")
        return solution

    def __repr__(self) -> str:
        return (
            f"BatchedProgram(n_vars={self.n_variables}, "
            f"n_le={self._n_le}, backend={self.backend!r})"
        )
