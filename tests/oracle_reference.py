"""The dense oracle path the sparse one replaced, and the oracle's
test-only solvers.

Kept as the reference that ``test_oracle.py`` and
``test_qp_builder.py`` check the sparse path against: the stacked matrices
assembled as dense ``nz x nz`` arrays, the saddle-point matrix factored
with ``lu_factor``, the ratio test as a loop over the rows, the feasible
start filled slice by slice, and the coupling rows folded into the
stacked equalities by ``sp.vstack``.

The solvers only tests call live here too: the phase-1 linear program
(:func:`phase1`) that gives a cold start, :func:`cold_solve`, which runs
the sparse oracle from it, and the brute-force
:func:`enumerate_active_sets`; and the checks only tests read: the
objective (:func:`objective`) and the KKT residual (:func:`kkt_residual`)
of a solution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse as sp

from dmpcqp.errors import SolverError
from dmpcqp.model import PlantState, plant_step
from dmpcqp.oracle import (_BASE_ITERS, _DEGENERATE_STEP, _DUAL_TOL,
                           _ITERS_PER_ROW, _RATIO_TOL, _STEP_TOL,
                           DenseSolution, prepare_kkt, solve_dense_qp)
from dmpcqp.qp_builder import StackedQp, _block, _layout_for, _sparse


class InfeasibleProblem(SolverError):
    """The constraint system admits no feasible point."""


@dataclass(frozen=True)
class ReferenceQp:
    """The stacked QP with dense matrices, coupling rows folded into the
    equalities."""

    hessian: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    ineq_matrix: np.ndarray
    ineq_rhs: np.ndarray
    cpl_matrix: np.ndarray

    @property
    def size(self) -> int:
        return self.hessian.shape[0]


def stack_dense(qps) -> ReferenceQp:
    """The stacked matrices as dense arrays, agent-major."""
    sizes = [qp.size for qp in qps]
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    eq_sizes = [qp.n_eq for qp in qps]
    ineq_sizes = [qp.n_ineq for qp in qps]
    eq_offsets = np.concatenate(([0], np.cumsum(eq_sizes)[:-1]))
    ineq_offsets = np.concatenate(([0], np.cumsum(ineq_sizes)[:-1]))
    nz = sum(sizes)
    H = np.zeros((nz, nz))
    C_eq = np.zeros((sum(eq_sizes), nz))
    C_ineq = np.zeros((sum(ineq_sizes), nz))
    cpl = np.zeros((qps[0].n_coupling, nz))
    for qp, off, eo, io in zip(qps, offsets, eq_offsets, ineq_offsets):
        H[off:off + qp.size, off:off + qp.size] = qp.hessian
        C_eq[eo:eo + qp.n_eq, off:off + qp.size] = qp.eq_matrix
        C_ineq[io + np.arange(qp.n_ineq), off + qp.bounds.cols] = \
            qp.bounds.signs
        cpl[qp.coupled.rows, off + qp.coupled.cols] = qp.coupled.signs
    eq_rhs = np.concatenate([qp.eq_rhs for qp in qps])
    if cpl.shape[0]:
        eq = np.vstack([C_eq, cpl])
        rhs = np.concatenate([eq_rhs, np.zeros(cpl.shape[0])])
    else:
        eq, rhs = C_eq, eq_rhs
    return ReferenceQp(hessian=H, eq_matrix=eq, eq_rhs=rhs,
                       ineq_matrix=C_ineq,
                       ineq_rhs=np.concatenate([qp.ineq_rhs for qp in qps]),
                       cpl_matrix=cpl)


def objective(qp, z) -> float:
    """The stacked QP's objective ``0.5 z' H z``."""
    return 0.5 * float(z @ (qp.hessian @ z))


def kkt_residual(qp, z, eq_duals, ineq_duals, active=()) -> float:
    """Max-norm KKT residual (stationarity, feasibility, complementarity)."""
    grad = qp.hessian @ z
    if qp.eq_matrix.shape[0]:
        grad = grad + qp.eq_matrix.T @ eq_duals
    nu = np.zeros(qp.ineq_matrix.shape[0])
    if len(active):
        nu[list(active)] = ineq_duals
    if nu.size:
        grad = grad + qp.ineq_matrix.T @ nu
    parts = [np.abs(grad).max() if grad.size else 0.0]
    if qp.eq_matrix.shape[0]:
        parts.append(np.abs(qp.eq_matrix @ z - qp.eq_rhs).max())
    if qp.ineq_matrix.shape[0]:
        slack = qp.ineq_matrix @ z - qp.ineq_rhs
        parts.append(max(0.0, slack.max()))
        parts.append(np.abs(nu * slack).max())
        parts.append(max(0.0, -nu.min()) if nu.size else 0.0)
    return float(max(parts))


def ratio_test_loop(cp, slack, active):
    """Step length and blocking row, one row at a time."""
    alpha, blocking = 1.0, None
    for row in range(cp.size):
        if row in active or cp[row] <= _RATIO_TOL:
            continue
        ratio = max(0.0, slack[row] / cp[row])
        if ratio < alpha:
            alpha, blocking = ratio, row
    return alpha, blocking


def phase1(qp) -> np.ndarray:
    """A feasible point of a stacked QP (dense or sparse), from a
    zero-cost ``linprog``."""
    n = qp.size
    res = scipy.optimize.linprog(
        c=np.zeros(n),
        A_ub=qp.ineq_matrix if qp.ineq_matrix.shape[0] else None,
        b_ub=qp.ineq_rhs if qp.ineq_matrix.shape[0] else None,
        A_eq=qp.eq_matrix if qp.eq_matrix.shape[0] else None,
        b_eq=qp.eq_rhs if qp.eq_matrix.shape[0] else None,
        bounds=[(None, None)] * n,
        method="highs",
    )
    if res.status == 2:
        raise InfeasibleProblem("phase-1 linear program is infeasible")
    if not res.success:
        raise SolverError(f"phase-1 linear program failed: {res.message}")
    return np.asarray(res.x, dtype=float)


def solve_dense(qp: ReferenceQp, z0=None, warm_active=()):
    """The active-set loop on ``lu_factor`` of the dense saddle-point matrix.

    Returns ``(z, eq_duals, ineq_duals, active, iterations)``.
    """
    n_ineq = qp.ineq_matrix.shape[0]
    max_iter = _ITERS_PER_ROW * n_ineq + _BASE_ITERS
    n, me = qp.size, qp.eq_matrix.shape[0]
    K = np.zeros((n + me, n + me))
    K[:n, :n] = qp.hessian
    K[:n, n:] = qp.eq_matrix.T
    K[n:, :n] = qp.eq_matrix
    lu = scipy.linalg.lu_factor(K)
    if z0 is None:
        z = phase1(qp)
        active = []
    else:
        z = np.asarray(z0, dtype=float).copy()
        active = list(warm_active)
    for it in range(1, max_iter + 1):
        rhs = np.concatenate([-(qp.hessian @ z),
                              qp.eq_rhs - qp.eq_matrix @ z])
        base = scipy.linalg.lu_solve(lu, rhs)
        if active:
            E = qp.ineq_matrix[active]
            F = np.zeros((n + me, len(active)))
            F[:n] = E.T
            X = scipy.linalg.lu_solve(lu, F)
            S = E @ X[:n]
            target = qp.ineq_rhs[active] - E @ z
            nu = np.linalg.solve(S, E @ base[:n] - target)
            y = base - X @ nu
        else:
            nu = np.zeros(0)
            y = base
        p, mu = y[:n], y[n:]

        if np.abs(p).max(initial=0.0) <= \
                _STEP_TOL * (1.0 + np.abs(z).max(initial=0.0)):
            if nu.size == 0 or nu.min() >= -_DUAL_TOL:
                return z, mu, nu, tuple(active), it
            active.pop(int(np.argmin(nu)))
            continue

        alpha, blocking = 1.0, None
        if n_ineq:
            alpha, blocking = ratio_test_loop(
                qp.ineq_matrix @ p, qp.ineq_rhs - qp.ineq_matrix @ z, active)
        if alpha >= _DEGENERATE_STEP:
            z = z + alpha * p
        if blocking is not None:
            active.append(blocking)
    raise SolverError(f"active-set oracle hit the {max_iter}-iteration cap")


def rollout_feasible_point_loop(net, horizon, x0s, inputs=None):
    """The simulated feasible start, filled slice by slice."""
    M = net.n_agents
    if inputs is None:
        inputs = [np.zeros((horizon, net.agents[i].m)) for i in range(M)]
    state = PlantState(tuple(x0s))
    traj = [state.states]
    for k in range(horizon):
        state = plant_step(net, state, [u[k] for u in inputs])
        traj.append(state.states)
    zs = []
    for i in range(M):
        layout = _layout_for(net, i, horizon)
        z = np.zeros(layout.size)
        for k in range(horizon + 1):
            z[layout.x_slice(k)] = traj[k][i]
        for k in range(horizon):
            z[layout.u_slice(k)] = inputs[i][k]
        for j in layout.in_neighbors:
            for k in range(horizon):
                z[layout.v_slice(j, k)] = traj[k][j]
        zs.append(z)
    return zs


def cold_solve(qp: StackedQp) -> DenseSolution:
    """The sparse oracle from the phase-1 start, with a fresh factor."""
    z0 = phase1(qp)
    return solve_dense_qp(qp, z0, prepared=prepare_kkt(qp))


def enumerate_active_sets(qp, max_ineq: int = 20) -> DenseSolution:
    """Brute-force minimizer by enumerating candidate active sets.

    Every subset of inequality rows is treated as equalities, the resulting
    KKT system solved by least squares, and candidates kept when the system
    is consistent, the remaining rows feasible, and the subset multipliers
    non-negative.  Intended for tiny problems; refuses more than
    ``max_ineq`` inequality rows.
    """
    n_ineq = qp.ineq_matrix.shape[0]
    if n_ineq > max_ineq:
        raise ValueError(f"{n_ineq} inequality rows exceed cap {max_ineq}")
    n, me = qp.size, qp.eq_matrix.shape[0]
    H, C_eq, C_ineq = (m.toarray() for m in
                       (qp.hessian, qp.eq_matrix, qp.ineq_matrix))
    best = best_obj = None
    for size in range(n_ineq + 1):
        for subset in itertools.combinations(range(n_ineq), size):
            A = np.vstack([C_eq, C_ineq[list(subset)]]) if subset else C_eq
            b = np.concatenate([qp.eq_rhs, qp.ineq_rhs[list(subset)]]) \
                if subset else qp.eq_rhs
            ma = A.shape[0]
            KKT = np.zeros((n + ma, n + ma))
            KKT[:n, :n] = H
            KKT[:n, n:] = A.T
            KKT[n:, :n] = A
            rhs = np.concatenate([np.zeros(n), b])
            sol, *_ = np.linalg.lstsq(KKT, rhs, rcond=None)
            scale = 1.0 + np.abs(rhs).max(initial=0.0)
            if np.abs(KKT @ sol - rhs).max(initial=0.0) > 1e-8 * scale:
                continue
            z, duals = sol[:n], sol[n:]
            others = [r for r in range(n_ineq) if r not in subset]
            if others and (C_ineq[others] @ z
                           - qp.ineq_rhs[others]).max() > 1e-9:
                continue
            nu = duals[me:]
            if nu.size and nu.min() < -1e-9:
                continue
            obj = 0.5 * float(z @ (H @ z))
            if best is None or obj < best_obj - 1e-12:
                best_obj = obj
                best = DenseSolution(z=z, eq_duals=duals[:me], ineq_duals=nu,
                                     active=subset, iterations=0)
    if best is None:
        raise InfeasibleProblem("no active set yields a feasible KKT point")
    return best


def stack_vstack(qps) -> StackedQp:
    """The stacked QP as the oracle built it before ``stack_global`` folded
    the coupling rows in: the agents' equality rows and the coupling rows
    assembled apart, then joined by ``sp.vstack``."""
    sizes = [qp.size for qp in qps]
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    eq_sizes = [qp.n_eq for qp in qps]
    ineq_sizes = [qp.n_ineq for qp in qps]
    eq_offsets = np.concatenate(([0], np.cumsum(eq_sizes)[:-1]))
    ineq_offsets = np.concatenate(([0], np.cumsum(ineq_sizes)[:-1]))
    nz = sum(sizes)
    blocks = list(zip(qps, offsets, eq_offsets, ineq_offsets))
    eq = _sparse((sum(eq_sizes), nz), [
        _block(eo, off, qp.eq_matrix) for qp, off, eo, _ in blocks])
    eq_rhs = np.concatenate([qp.eq_rhs for qp in qps])
    cpl = _sparse((qps[0].n_coupling, nz), [
        (qp.coupled.rows, off + qp.coupled.cols, qp.coupled.signs)
        for qp, off, _, _ in blocks])
    if cpl.shape[0]:
        eq = sp.vstack([eq, cpl], format="csr")
        eq_rhs = np.concatenate([eq_rhs, np.zeros(cpl.shape[0])])
    return StackedQp(
        hessian=_sparse((nz, nz), [_block(off, off, qp.hessian)
                                   for qp, off, _, _ in blocks]),
        eq_matrix=eq, eq_rhs=eq_rhs,
        ineq_matrix=_sparse((sum(ineq_sizes), nz), [
            (io + np.arange(qp.n_ineq), off + qp.bounds.cols, qp.bounds.signs)
            for qp, off, _, io in blocks]),
        ineq_rhs=np.concatenate([qp.ineq_rhs for qp in qps]))

