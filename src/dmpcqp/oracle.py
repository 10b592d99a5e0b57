"""Centralized reference solver.

This module provides single-process ground truth for the distributed
machinery: a primal active-set QP solver on the stacked problem, whose
equality-only saddle-point matrix is assembled sparse and factored once with
``scipy.sparse.linalg.splu`` (active bound rows enter as a border), and a
centralized receding-horizon rollout.  It deliberately shares no solver code
with the distributed path (no null-space condensing, no decomposed CG); only
problem construction and the closed-loop driver from
:mod:`dmpcqp.qp_builder` are reused.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError
from .model import NetworkModel
from .qp_builder import (Segments, StackedQp, build_network_qps,
                         closed_loop, rollout_feasible_point, stack_global)

_RATIO_TOL = 1e-12
#: Smallest accepted ratio ``min|diag U| / max|diag U|`` of the saddle-point
#: matrix's LU factor; well-posed chains give about 3e-3, a duplicated
#: dynamics row about 5e-18.
_PIVOT_RTOL = 1e-12
_DEGENERATE_STEP = 1e-12
#: Negligible step (relative to ``1 + |z|_inf``), accepted negative
#: multiplier, and the iteration cap ``_ITERS_PER_ROW n_ineq + _BASE_ITERS``.
_STEP_TOL = 1e-11
_DUAL_TOL = 1e-10
_ITERS_PER_ROW = 3
_BASE_ITERS = 30


@dataclass(frozen=True)
class DenseSolution:
    z: np.ndarray
    eq_duals: np.ndarray
    ineq_duals: np.ndarray
    active: tuple[int, ...]
    iterations: int


def prepare_kkt(qp: StackedQp) -> spla.SuperLU:
    """Sparse LU factor (``splu``) of the equality-only saddle-point matrix.

    Active bound rows are appended as a low-rank border, so one
    factorization serves every working set of the same problem structure.
    A singular matrix, exactly or up to a pivot ratio of ``_PIVOT_RTOL``,
    raises :class:`SolverError`.
    """
    K = sp.block_array([[qp.hessian, qp.eq_matrix.T],
                        [qp.eq_matrix, None]], format="csc")
    try:
        lu = spla.splu(K)
    except RuntimeError as exc:
        raise SolverError(f"singular saddle-point matrix: {exc}") from exc
    pivots = np.abs(lu.U.diagonal())
    if pivots.min() <= _PIVOT_RTOL * pivots.max():
        raise SolverError(
            "numerically singular saddle-point matrix: pivot ratio "
            f"{pivots.min() / pivots.max():.1e}")
    return lu


def _ratio_test(cp: np.ndarray, slack: np.ndarray,
                active: Sequence[int]) -> tuple[float, int | None]:
    """Step length in ``[0, 1]`` along a direction with row products ``cp``,
    and the blocking row (``None`` for a full step).

    Rows in ``active`` and rows with ``cp <= _RATIO_TOL`` are skipped; the
    lowest row attaining the smallest ratio below 1 blocks.
    """
    eligible = ~(cp <= _RATIO_TOL)
    eligible[list(active)] = False
    rows = np.flatnonzero(eligible)
    ratios = slack[rows] / cp[rows]
    ratios = np.where(ratios > 0.0, ratios, 0.0)
    if rows.size == 0 or ratios.min() >= 1.0:
        return 1.0, None
    k = int(np.argmin(ratios))
    return float(ratios[k]), int(rows[k])


def solve_dense_qp(qp: StackedQp, z0: np.ndarray, *,
                   prepared: spla.SuperLU,
                   warm_active: Sequence[int] = ()) -> DenseSolution:
    """Primal active-set method on the stacked QP.

    Starts from ``z0``, which must satisfy every constraint and hold the
    ``warm_active`` rows with equality; a start that violates a row beyond
    rounding raises :class:`SolverError`.  Each inner equality-constrained
    step is solved through the bordered saddle-point system ``prepared``
    factors (see :func:`prepare_kkt`); small equality drift in the start
    point is corrected by the first step.

    Returns
    -------
    DenseSolution
        Minimizer with working-set multipliers (equality duals over all
        rows, inequality duals aligned with ``active``).
    """
    n_ineq = qp.ineq_matrix.shape[0]
    max_iter = _ITERS_PER_ROW * n_ineq + _BASE_ITERS
    z = np.asarray(z0, dtype=float).copy()
    active = list(warm_active)
    if qp.eq_matrix.shape[0] and \
            np.abs(qp.eq_matrix @ z - qp.eq_rhs).max() > 1e-7:
        raise SolverError("start point violates equality rows")
    if n_ineq and (qp.ineq_matrix @ z - qp.ineq_rhs).max() > 1e-8:
        raise SolverError("start point violates inequality rows")

    n = qp.size
    for it in range(1, max_iter + 1):
        rhs = np.concatenate([-(qp.hessian @ z),
                              qp.eq_rhs - qp.eq_matrix @ z])
        base = prepared.solve(rhs)
        if active:
            E = qp.ineq_matrix[active]
            F = np.zeros((prepared.shape[0], len(active)))
            F[:n] = E.T.toarray()
            X = prepared.solve(F)
            S = E @ X[:n]
            target = qp.ineq_rhs[active] - E @ z
            try:
                nu = np.linalg.solve(S, E @ base[:n] - target)
            except np.linalg.LinAlgError as exc:
                raise SolverError(
                    f"dependent working set {tuple(active)}") from exc
            y = base - X @ nu
        else:
            nu = np.zeros(0)
            y = base
        p, mu = y[:n], y[n:]

        if np.abs(p).max(initial=0.0) <= _STEP_TOL * (1.0 + np.abs(z).max(initial=0.0)):
            if nu.size == 0 or nu.min() >= -_DUAL_TOL:
                return DenseSolution(z=z, eq_duals=mu, ineq_duals=nu,
                                     active=tuple(active), iterations=it)
            active.pop(int(np.argmin(nu)))
            continue

        alpha, blocking = _ratio_test(qp.ineq_matrix @ p,
                                      qp.ineq_rhs - qp.ineq_matrix @ z,
                                      active)
        if alpha >= _DEGENERATE_STEP:
            z = z + alpha * p
        if blocking is not None:
            active.append(blocking)
    raise SolverError(f"active-set oracle hit the {max_iter}-iteration cap")


@dataclass(frozen=True)
class Rollout:
    """Closed-loop trajectories from a receding-horizon run.

    ``states[t][i]`` is agent ``i``'s state at time ``t`` (``steps + 1``
    entries), ``inputs[t][i]`` its applied input (``steps`` entries) and
    ``iterations[t]`` the oracle's iterations at sample ``t``.
    """

    states: list[list[np.ndarray]]
    inputs: list[list[np.ndarray]]
    iterations: tuple[int, ...]

    def state_of(self, t: int, i: int) -> np.ndarray:
        return self.states[t][i]


def _warm_inputs(qps, active):
    """Per-agent input trajectories that hold the given stacked bound rows
    tight."""
    active = np.asarray(active, dtype=int)
    inputs = []
    for qp, seg in zip(qps, Segments(qp.n_ineq for qp in qps)):
        lay, bounds = qp.layout, qp.bounds
        rows = active[(seg.start <= active) & (active < seg.stop)] - seg.start
        u = np.zeros((lay.horizon, lay.n_inputs))
        u.flat[bounds.cols[rows] - lay.u_offset] = \
            bounds.signs[rows] * qp.ineq_rhs[rows]
        inputs.append(u)
    return inputs


def centralized_mpc_rollout(net: NetworkModel, x0s: Sequence[np.ndarray],
                            horizon: int, steps: int) -> Rollout:
    """Receding-horizon control with the centralized oracle as the QP solver.

    The QPs are stacked and their saddle-point matrix factored once.  On
    each sample of :func:`~dmpcqp.qp_builder.closed_loop` the stacked QP
    takes the equality right-hand sides of the moved agent QPs, and a
    feasible start is built by simulating the network under inputs that
    keep the previous sample's active bounds tight.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    qps = build_network_qps(net, horizon, x0s)
    stacked = stack_global(qps)
    prepared = prepare_kkt(stacked)
    coupling_rhs = np.zeros(qps[0].n_coupling)
    blocks = qps[0].coupling.blocks

    def step(qps, states, active, t):
        active = active or ()
        sample_qp = replace(stacked, eq_rhs=np.concatenate(
            [qp.eq_rhs for qp in qps] + [coupling_rhs]))
        z0 = np.concatenate(rollout_feasible_point(
            net, horizon, states, _warm_inputs(qps, active)))
        sol = solve_dense_qp(sample_qp, z0, prepared=prepared,
                             warm_active=active)
        return blocks.split(sol.z), sol.active, sol.iterations

    states, inputs, iterations = closed_loop(net, qps, x0s, steps, step)
    return Rollout(states=states, inputs=inputs, iterations=tuple(iterations))
