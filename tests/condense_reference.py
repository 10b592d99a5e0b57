"""The per-call condensing kernel the cached working-set factors replaced.

Kept verbatim as the reference that
``test_condense.py`` and ``test_admm.py`` check the cached path against:
every call eliminates the working set on the dynamics basis and factors the
reduced Hessian afresh, and back-substitution and dual recovery run
triangular and Cholesky solves.  :func:`working_set_duals` adds to the
package's bound multipliers the equality multipliers it no longer forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

import dmpcqp.condense
from dmpcqp.condense import PIVOT_TOL, WorkingConstraints
from dmpcqp.errors import IndefiniteReducedHessian, RankDeficientWorkingSet

from conftest import dense_coupling, working_matrix


@dataclass(frozen=True)
class CondensedAgent:
    """One agent's condensed step system.

    ``schur`` and ``schur_rhs`` are the agent's contribution to the coupling
    multiplier system, compressed to ``rows`` (the global coupling rows with
    a nonzero entry for this agent).  ``null_basis``, ``particular`` and
    the cached Cholesky factor of ``Z' H Z`` allow back-substitution once
    the multipliers are known; ``pinned`` (the columns the active rows pin,
    in active order) and ``pin_signs`` give the bound multipliers.
    """

    agent: int
    rows: np.ndarray
    null_basis: np.ndarray
    pinned: np.ndarray
    pin_signs: np.ndarray
    particular: np.ndarray
    reduced_chol: tuple | None
    reduced_grad: np.ndarray
    cpl_reduced: np.ndarray
    schur: np.ndarray
    schur_rhs: np.ndarray

    @property
    def n_reduced(self) -> int:
        return self.null_basis.shape[1]


def condense(qp, work: WorkingConstraints,
             gradient: np.ndarray | None = None) -> CondensedAgent:
    """Reduce one agent's step system onto the working-set null space.

    Requires the structure :func:`~dmpcqp.qp_builder.build_agent_qp`
    gives: the equality rows' first ``layout.u_offset`` columns form a
    square unit lower triangular block, and every activated row is a signed
    unit row on a later column.  Two active rows pinning the same column
    raise :class:`RankDeficientWorkingSet` naming the later one.

    Parameters
    ----------
    qp : AgentQP
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
    matrix = working_matrix(qp, work)
    if matrix.shape[1] != nz:
        raise ValueError("working set does not match the agent dimension")
    g = np.zeros(nz) if gradient is None else np.asarray(gradient, dtype=float)
    n_eq, nx = work.n_eq, qp.layout.u_offset
    bounds = matrix[n_eq:]
    pinned = np.abs(bounds).argmax(axis=1)
    pin_signs = bounds[np.arange(pinned.size), pinned]
    cols = pinned.tolist()
    for pos, col in enumerate(cols):
        if col in cols[:pos]:
            raise RankDeficientWorkingSet(qp.index, n_eq + pos, pos)
    C_eq = matrix[:n_eq]
    free = np.setdiff1d(np.arange(nx, nz), pinned)
    n_red = free.size
    Z = np.zeros((nz, n_red))
    Z[:nx] = -scipy.linalg.solve_triangular(C_eq[:, :nx], C_eq[:, free],
                                            lower=True, unit_diagonal=True)
    Z[free, np.arange(n_red)] = 1.0

    particular = np.zeros(nz)
    if np.any(work.rhs):
        particular[pinned] = pin_signs * work.rhs[n_eq:]
        particular[:nx] = scipy.linalg.solve_triangular(
            C_eq[:, :nx], work.rhs[:n_eq] - C_eq @ particular, lower=True,
            unit_diagonal=True)

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

    Cc = dense_coupling(qp)
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
        agent=qp.index, rows=qp.coupled.rows, null_basis=Z, pinned=pinned,
        pin_signs=pin_signs, particular=particular,
        reduced_chol=reduced_chol, reduced_grad=reduced_grad,
        cpl_reduced=cpl_reduced, schur=schur, schur_rhs=schur_rhs,
    )


def backsubstitute(ca: CondensedAgent, lam_local: np.ndarray,
                   gradient: np.ndarray | None = None) -> np.ndarray:
    """Recover the agent's step from the coupling multipliers.

    ``lam_local`` must be compressed to ``ca.rows``.  ``gradient`` is added
    to the linear term ``ca`` was condensed with.
    """
    lam_local = np.asarray(lam_local, dtype=float).reshape(ca.rows.size)
    if ca.n_reduced == 0:
        return ca.particular.copy()
    rhs = -ca.reduced_grad - ca.cpl_reduced.T @ lam_local
    if gradient is not None:
        rhs = rhs - ca.null_basis.T @ gradient
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
    """Working-set multipliers of ``ca`` at a stationary point.

    Solves ``C_work' gamma = rhs`` with ``rhs = -(gradient + C_cpl' lam)``
    on its square part: the state rows give the equality multipliers
    (``C_x' mu = rhs_x``, one transposed unit-triangular solve) and the
    pinned rows the bound multipliers (``nu = sign * (rhs - C_eq' mu)``
    there).  The attained residual ``|C_work' gamma - rhs|``, which only the
    free rows can carry, is reported so callers can judge stationarity.
    """
    lam_local = np.asarray(lam_local, dtype=float).reshape(qp.coupled.rows.size)
    rhs = -np.asarray(gradient, dtype=float)
    if lam_local.size:
        rhs = rhs - dense_coupling(qp).T @ lam_local
    nx = qp.layout.u_offset
    C_eq = qp.eq_matrix
    mu = scipy.linalg.solve_triangular(C_eq[:, :nx], rhs[:nx], trans="T",
                                       lower=True, unit_diagonal=True)
    left = rhs - C_eq.T @ mu
    nu = ca.pin_signs * left[ca.pinned]
    left[ca.pinned] = 0.0
    return DualRecovery(eq_duals=mu, ineq_duals=nu,
                        residual=float(np.abs(left).max(initial=0.0)))


def working_set_duals(qp, ca, gradient: np.ndarray,
                      lam_local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equality and bound multipliers of the package's condensed agent
    ``ca`` at a stationary point.

    With the objective gradient ``r = gradient + Cc' lam`` the equality
    multipliers are ``mu = -C_x^{-T} r_x``, from the state rows, and the
    bound multipliers those of :func:`dmpcqp.condense.recover_duals`.
    """
    lam_local = np.asarray(lam_local, dtype=float).reshape(qp.coupled.rows.size)
    r = np.asarray(gradient, dtype=float) + qp.coupled.scatter(lam_local)
    inverse = qp.factors.state_inverse
    return (-(inverse.T @ r[:inverse.shape[0]]),
            dmpcqp.condense.recover_duals(qp, ca, gradient, lam_local))
