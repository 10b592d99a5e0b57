"""Per-agent elimination of working-set constraints.

For a working set (equality rows plus activated inequality rows) the agent's
step system is reduced onto the working-set null space: with orthonormal
bases ``Y`` (range of the working-set rows) and ``Z`` (null space) from a QR
factorization, the constrained stationary point of

    min 0.5 dz' H dz + g' dz   s.t.  C_work dz = d,  coupling rows shared

is split into a particular part ``Y w`` and a reduced unknown on ``Z``.
Eliminating the reduced unknown yields each agent's contribution to the
coupling-multiplier system: a local Schur matrix and right-hand side,
compressed to the coupling rows the agent actually touches.  The triangular
factor ``R1`` of ``C_work' = Y R1`` is kept, so the working-set multipliers
are one triangular solve away (``R1 gamma = Y' rhs``).  Factorizations are
not reused across working-set changes; every call refactorizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import IndefiniteReducedHessian, RankDeficientWorkingSet

#: Cholesky pivots of the reduced Hessian below this threshold fail the solve.
PIVOT_TOL = 1e-12
#: Relative threshold on QR diagonals for declaring dependent working rows.
RANK_TOL = 1e-10


@dataclass(frozen=True)
class WorkingConstraints:
    """Stacked working-set rows: equalities first, then active inequalities."""

    matrix: np.ndarray
    rhs: np.ndarray
    n_eq: int
    active: tuple[int, ...]

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]


def working_constraints(qp, active: Sequence[int], *,
                        homogeneous: bool) -> WorkingConstraints:
    """Assemble the working set of ``qp`` for the given active rows.

    With ``homogeneous=True`` the right-hand side is zero (step systems);
    otherwise it carries the equality and activated bound values (solves in
    the absolute variable).
    """
    active = tuple(int(a) for a in active)
    for a in active:
        if not 0 <= a < qp.ineq_matrix.shape[0]:
            raise ValueError(f"active row {a} out of range")
    if len(set(active)) != len(active):
        raise ValueError("active rows repeated")
    if active:
        matrix = np.vstack([qp.eq_matrix, qp.ineq_matrix[list(active)]])
    else:
        matrix = qp.eq_matrix
    if homogeneous:
        rhs = np.zeros(matrix.shape[0])
    else:
        rhs = np.concatenate([qp.eq_rhs, qp.ineq_rhs[list(active)]]) \
            if active else qp.eq_rhs.copy()
    return WorkingConstraints(matrix=matrix, rhs=rhs,
                              n_eq=qp.eq_matrix.shape[0], active=active)


@dataclass(frozen=True)
class CondensedAgent:
    """One agent's condensed step system.

    ``schur`` and ``schur_rhs`` are the agent's contribution to the coupling
    multiplier system, compressed to ``rows`` (the global coupling rows with
    a nonzero entry for this agent).  ``null_basis``/``range_basis`` and the
    cached Cholesky factor allow back-substitution once the multipliers are
    known; ``range_factor`` is the triangular ``R1`` with
    ``C_work' = range_basis @ R1``, used to recover the working-set
    multipliers.
    """

    agent: int
    rows: np.ndarray
    null_basis: np.ndarray
    range_basis: np.ndarray
    range_factor: np.ndarray
    particular: np.ndarray
    reduced_chol: tuple | None
    reduced_grad: np.ndarray
    cpl_reduced: np.ndarray
    schur: np.ndarray
    schur_rhs: np.ndarray

    @property
    def n_reduced(self) -> int:
        return self.null_basis.shape[1]


def _null_range_bases(matrix: np.ndarray, agent: int, n_eq: int):
    """Orthonormal range/null bases of the working-set rows via QR.

    Raises :class:`RankDeficientWorkingSet` naming the first dependent row
    (pivoted QR) before computing the unpivoted full factorization used for
    the bases.
    """
    n_rows, n_cols = matrix.shape
    if n_rows > n_cols:
        raise RankDeficientWorkingSet(agent, n_cols, max(0, n_cols - n_eq))
    if n_rows == 0:
        return np.zeros((n_cols, 0)), np.eye(n_cols), np.zeros((0, 0))
    _, R_piv, piv = scipy.linalg.qr(matrix.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R_piv))
    ref = max(diag[0], 1.0)
    rank = int(np.sum(diag > RANK_TOL * ref))
    if rank < n_rows:
        dependent = sorted(int(p) for p in piv[rank:])
        row = dependent[0]
        pos = row - n_eq if row >= n_eq else None
        raise RankDeficientWorkingSet(agent, row, pos)
    Q, R = np.linalg.qr(matrix.T, mode="complete")
    return Q[:, :n_rows], Q[:, n_rows:], R[:n_rows, :n_rows]


def condense(qp, work: WorkingConstraints,
             gradient: np.ndarray | None = None) -> CondensedAgent:
    """Reduce one agent's step system onto the working-set null space.

    Parameters
    ----------
    qp : AgentQP (or any object with ``hessian``, ``cpl_local``,
        ``coupled_rows`` and ``index`` attributes)
    work : WorkingConstraints
        Working set with its right-hand side ``d``.
    gradient : array, optional
        Linear term of the step objective (zero when omitted).

    Returns
    -------
    CondensedAgent
        Null-space factorization plus the agent's compressed Schur matrix
        and right-hand side for the coupling multiplier system.
    """
    H = qp.hessian
    nz = H.shape[0]
    if work.matrix.shape[1] != nz:
        raise ValueError("working set does not match the agent dimension")
    g = np.zeros(nz) if gradient is None else np.asarray(gradient, dtype=float)
    Y, Z, R1 = _null_range_bases(work.matrix, qp.index, work.n_eq)
    n_red = Z.shape[1]

    if np.any(work.rhs):
        # C Y = R1' is lower triangular, so the particular solution is one
        # triangular solve away.
        w = scipy.linalg.solve_triangular(R1.T, work.rhs, lower=True)
        particular = Y @ w
    else:
        particular = np.zeros(nz)

    reduced_chol = None
    if n_red:
        reduced = Z.T @ H @ Z
        try:
            reduced_chol = scipy.linalg.cho_factor(reduced)
        except scipy.linalg.LinAlgError:
            raise IndefiniteReducedHessian(qp.index, float(np.min(
                np.diag(reduced)))) from None
        pivots = np.diag(reduced_chol[0])
        if np.min(pivots) ** 2 < PIVOT_TOL:
            raise IndefiniteReducedHessian(qp.index, float(np.min(pivots) ** 2))

    rhs_lin = g + H @ particular if np.any(particular) else g
    reduced_grad = Z.T @ rhs_lin if n_red else np.zeros(0)

    Cc = qp.cpl_local
    n_local = Cc.shape[0]
    cpl_reduced = Cc @ Z if n_red else np.zeros((n_local, 0))
    b_local = Cc @ particular if np.any(particular) else np.zeros(n_local)
    if n_red and n_local:
        solved = scipy.linalg.cho_solve(reduced_chol, cpl_reduced.T)
        schur = cpl_reduced @ solved
        schur = 0.5 * (schur + schur.T)
        schur_rhs = b_local - cpl_reduced @ scipy.linalg.cho_solve(
            reduced_chol, reduced_grad)
    else:
        schur = np.zeros((n_local, n_local))
        schur_rhs = b_local.copy()

    return CondensedAgent(
        agent=qp.index, rows=qp.coupled_rows,
        null_basis=Z, range_basis=Y, range_factor=R1, particular=particular,
        reduced_chol=reduced_chol, reduced_grad=reduced_grad,
        cpl_reduced=cpl_reduced, schur=schur, schur_rhs=schur_rhs,
    )


def backsubstitute(ca: CondensedAgent, lam_local: np.ndarray) -> np.ndarray:
    """Recover the agent's step from the coupling multipliers.

    ``lam_local`` must be compressed to ``ca.rows``.
    """
    lam_local = np.asarray(lam_local, dtype=float).reshape(ca.rows.size)
    if ca.n_reduced == 0:
        return ca.particular.copy()
    rhs = -ca.reduced_grad - ca.cpl_reduced.T @ lam_local
    v = scipy.linalg.cho_solve(ca.reduced_chol, rhs)
    return ca.null_basis @ v + ca.particular


@dataclass(frozen=True)
class DualRecovery:
    """Working-set multipliers for one agent."""

    eq_duals: np.ndarray
    ineq_duals: np.ndarray
    residual: float


def recover_duals(qp, ca: CondensedAgent, gradient: np.ndarray,
                  lam_local: np.ndarray) -> DualRecovery:
    """Working-set multipliers from the range-space factor of ``ca``.

    Solves ``C_work' gamma = -(gradient + C_cpl' lam)`` in the least-squares
    sense: with ``C_work' = Y R1`` that is ``R1 gamma = Y' rhs``.  The
    attained residual ``C_work' gamma - rhs = Y Y' rhs - rhs`` is reported
    so callers can judge stationarity.
    """
    lam_local = np.asarray(lam_local, dtype=float).reshape(qp.coupled_rows.size)
    rhs = -np.asarray(gradient, dtype=float)
    if lam_local.size:
        rhs = rhs - qp.cpl_local.T @ lam_local
    Y = ca.range_basis
    projected = Y.T @ rhs
    gamma = scipy.linalg.solve_triangular(ca.range_factor, projected)
    residual = float(np.abs(Y @ projected - rhs).max(initial=0.0))
    return DualRecovery(eq_duals=gamma[:qp.n_eq], ineq_duals=gamma[qp.n_eq:],
                        residual=residual)
