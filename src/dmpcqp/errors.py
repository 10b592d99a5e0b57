"""Exception types shared across the solver stack."""

from __future__ import annotations


class SolverError(Exception):
    """Base class for all structured solver failures."""


class RankDeficientWorkingSet(SolverError):
    """Working-set rows are linearly dependent for one agent.

    `working_row` indexes the stacked working-set matrix (equality rows
    first).  `active_position` is the position inside the active list when
    the dependent row is an activated inequality, else None.
    """

    def __init__(self, agent, working_row, active_position=None):
        self.agent = agent
        self.working_row = working_row
        self.active_position = active_position
        super().__init__(
            f"agent {agent}: working-set row {working_row} is linearly "
            f"dependent (active position {active_position})"
        )


class IndefiniteReducedHessian(SolverError):
    """The Hessian restricted to the working-set null space is not positive
    definite (Cholesky pivot below threshold)."""

    def __init__(self, agent, pivot):
        self.agent = agent
        self.pivot = pivot
        super().__init__(
            f"agent {agent}: reduced Hessian is not positive definite "
            f"(pivot {pivot:.3e})"
        )


class CurvatureBreakdown(SolverError):
    """Conjugate-gradient direction has non-positive curvature while the
    residual is not yet converged; the aggregated system is not positive
    definite."""

    def __init__(self, sigma, residual_inf):
        self.sigma = sigma
        self.residual_inf = residual_inf
        super().__init__(
            f"non-positive curvature {sigma:.3e} with residual {residual_inf:.3e}"
        )


class InconsistentWarmStart(SolverError):
    """Multiplier warm start disagrees across agents on shared rows."""


class DcgIterationLimit(SolverError):
    """Distributed CG hit its iteration cap; carries the last iterate."""

    def __init__(self, lambdas, residual_inf, iterations):
        self.lambdas = lambdas
        self.residual_inf = residual_inf
        self.iterations = iterations
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(residual {residual_inf:.3e})"
        )


class AsmIterationLimit(SolverError):
    """Active-set loop hit its iteration cap; carries a short trace."""

    def __init__(self, iterations, trace=None):
        self.iterations = iterations
        self.trace = tuple(trace or ())
        super().__init__(f"no convergence after {iterations} active-set iterations")


class InfeasibleStart(SolverError):
    """Feasible-point initialization did not terminate within its round cap."""

    def __init__(self, rounds):
        self.rounds = rounds
        super().__init__(f"no feasible point after {rounds} initialization rounds")


class FeasibilityViolation(SolverError):
    """An iterate violated a feasibility invariant beyond tolerance."""


class FabricDeadlock(SolverError):
    """A synchronous round was entered with at least one agent missing."""

    def __init__(self, missing, round_index):
        self.missing = tuple(missing)
        self.round_index = round_index
        super().__init__(
            f"round {round_index}: missing contributions from agents {self.missing}"
        )


class CommAccountingError(SolverError):
    """Measured communication disagrees with the per-iteration identities."""


class LocalQpError(SolverError):
    """Single-agent QP subsolver failed."""
