"""Consensus ADMM baseline for the partially separable QP.

Each iteration solves one augmented QP per agent (the agent's objective plus
a penalty tying its coupling image to the current averaged trajectories),
averages owned states with the copies held by out-neighbors, rebuilds the
averaged decision vectors, and takes a dual ascent step on the coupling
multipliers.  Two neighbor exchanges per iteration move copied trajectories
to their owners and averaged trajectories back to the copiers, totalling
``2 n_c`` local floats; convergence flags add one coordinator round.

The local QPs are solved by the single-agent specialization of the
active-set machinery (no coupling rows, hence no multiplier system): the
ratio test and most-violated-bound pick of :mod:`~dmpcqp.asm`, and the
condensed working set of :mod:`~dmpcqp.condense`, whose back-substitution
gives the working-set minimizer and whose dual recovery gives the
working-set multipliers.  Condensed working sets are cached per active set
since consecutive ADMM iterations revisit the same sets.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .asm import (DEGENERATE_STEP, VIOLATION_TOL, compute_step_length,
                  most_violated_bound)
from .condense import (CondensedAgent, backsubstitute, condense,
                       recover_duals, working_constraints)
from .errors import LocalQpError
from .fabric import CommLedger, Fabric

#: Named tolerance presets ``(eps_primal, eps_dual)``.
ADMM_PRESETS = {
    "admm1": (1e-6, 1e-3),
    "admm2": (1e-4, 1e-2),
}


@dataclass
class AdmmConfig:
    """Penalty weight, stopping tolerances, and iteration cap."""

    rho: float = 1.0
    eps_primal: float = 1e-6
    eps_dual: float = 1e-3
    max_iter: int = 20000

    def __post_init__(self):
        if self.rho <= 0.0:
            raise ValueError("penalty weight rho must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")

    @classmethod
    def preset(cls, name: str, rho: float = 1.0,
               max_iter: int = 20000) -> "AdmmConfig":
        eps_primal, eps_dual = ADMM_PRESETS[name]
        return cls(rho=rho, eps_primal=eps_primal, eps_dual=eps_dual,
                   max_iter=max_iter)


@dataclass
class AdmmStats:
    iterations: int = 0
    local_asm_iterations: int = 0
    ledger: CommLedger | None = None


@dataclass(frozen=True)
class AdmmResult:
    z: list[np.ndarray]
    z_avg: list[np.ndarray]
    cpl_duals: list[np.ndarray]
    iterations: int
    converged: bool
    stats: AdmmStats


class LocalQpSolver:
    """Warm-started active-set solver for one agent's augmented QP.

    Minimizes ``z' H z + g' z`` subject to the agent's equality rows and
    input box, where ``H = 2 H_agent + rho * Cc' Cc`` stays fixed while the
    linear term tracks the ADMM iterates.  Condensed working sets are cached
    per active set.
    """

    def __init__(self, qp, rho: float, *, eps_step: float = 1e-10,
                 eps_dual: float = 1e-10, max_iter: int = 500):
        Cc = qp.cpl_local
        self.qp = qp
        self.rho = float(rho)
        hess = 2.0 * qp.hessian
        if Cc.shape[0]:
            hess = hess + self.rho * (Cc.T @ Cc)
        self.local = dataclasses.replace(
            qp, hessian=hess, cpl_local=np.zeros((0, qp.size)),
            coupled_rows=np.zeros(0, dtype=int))
        self.eps_step = eps_step
        self.eps_dual = eps_dual
        self.max_iter = max_iter
        self._cache: dict[tuple[int, ...], CondensedAgent] = {}

    def _factors(self, active: tuple[int, ...]) -> CondensedAgent:
        hit = self._cache.get(active)
        if hit is not None:
            return hit
        if len(self._cache) > 4096:
            self._cache.clear()
        work = working_constraints(self.local, active, homogeneous=False)
        ca = condense(self.local, work)
        self._cache[active] = ca
        return ca

    def solve(self, g_lin: np.ndarray,
              warm_active: Sequence[int] = ()) -> tuple[np.ndarray, tuple, int]:
        """Return ``(z, active, iterations)`` for linear term ``g_lin``."""
        local = self.local
        active = list(dict.fromkeys(int(a) for a in warm_active))
        iterations = 0
        for _ in range(self.max_iter):
            iterations += 1
            z = backsubstitute(self._factors(tuple(active)), (), g_lin)
            row = most_violated_bound(local, z, active, VIOLATION_TOL)
            if row is None:
                break
            active.append(row)
        else:
            raise LocalQpError(f"agent {local.index}: feasibility phase "
                               f"exceeded {self.max_iter} rounds")

        for _ in range(self.max_iter):
            iterations += 1
            ca = self._factors(tuple(active))
            dz = backsubstitute(ca, (), g_lin) - z
            if np.abs(dz).max(initial=0.0) < self.eps_step * (
                    1.0 + np.abs(z).max(initial=0.0)):
                grad = local.hessian @ z + g_lin
                nu = recover_duals(local, ca, grad, ()).ineq_duals
                if nu.size == 0 or nu.min() >= -self.eps_dual:
                    return z, tuple(active), iterations
                active.pop(int(np.argmin(nu)))
                continue
            alpha, blocking = compute_step_length(z, dz, local, active)
            if alpha >= DEGENERATE_STEP:
                z = z + alpha * dz
            if blocking is not None:
                active.append(blocking)
        raise LocalQpError(f"agent {local.index}: active-set phase "
                           f"exceeded {self.max_iter} iterations")


def local_linear_term(qp, z_avg: np.ndarray, lam_local: np.ndarray,
                      rho: float) -> np.ndarray:
    """Linear term ``Cc' lam - rho Cc' Cc z_avg`` of the augmented QP."""
    Cc = qp.cpl_local
    if Cc.shape[0] == 0:
        return np.zeros(qp.size)
    return Cc.T @ (np.asarray(lam_local, dtype=float)
                   - rho * (Cc @ np.asarray(z_avg, dtype=float)))


def admm_average(qps, zs, fabric: Fabric, *, phase: str = "admm"):
    """Average owned trajectories with their copies and redistribute.

    Out-neighbors send their copied trajectories to the owner, who averages
    its own prediction with the copies (each coupling row is shared by
    exactly two agents, so the owner weight equals the number of copies);
    the averaged trajectory is then sent back to every copier.  Returns the
    averaged decision vectors.
    """
    to_owner = {}
    for qp in qps:
        lay = qp.layout
        for j in lay.in_neighbors:
            to_owner[(qp.index, j)] = zs[qp.index][lay.v_block_slice(j)]
    delivered = fabric.neighbor_exchange(to_owner, phase=phase)

    averaged = []
    for qp in qps:
        lay = qp.layout
        i = qp.index
        outs = [src for (src, dst) in delivered if dst == i]
        own = zs[i][:lay.horizon * lay.n_states]
        if outs:
            total = len(outs) * own.copy()
            for src in sorted(outs):
                total += delivered[(src, i)]
            averaged.append(total / (2.0 * len(outs)))
        else:
            averaged.append(own.copy())

    to_copier = {}
    for qp in qps:
        lay = qp.layout
        for j in lay.in_neighbors:
            to_copier[(j, qp.index)] = averaged[j]
    delivered_avg = fabric.neighbor_exchange(to_copier, phase=phase)

    z_avg = []
    for qp in qps:
        lay = qp.layout
        i = qp.index
        zb = zs[i].copy()
        zb[:lay.horizon * lay.n_states] = averaged[i]
        for j in lay.in_neighbors:
            zb[lay.v_block_slice(j)] = delivered_avg[(j, i)]
        z_avg.append(zb)
    return z_avg


def admm_dual_update(qp, z: np.ndarray, z_avg: np.ndarray,
                     lam_local: np.ndarray, rho: float) -> np.ndarray:
    """Dual ascent step on the agent's compressed coupling multipliers."""
    if qp.cpl_local.shape[0] == 0:
        return lam_local
    return lam_local + rho * (qp.cpl_local @ (z - z_avg))


def admm_converged(qp, z, z_avg, z_prev, lam_local, rho, eps_primal,
                   eps_dual) -> bool:
    """Relative primal/dual stopping test for one agent.

    The primal residual compares the coupling images of ``z`` and ``z_avg``;
    the dual residual bounds the multiplier movement.  On the first
    iteration (``z_prev = None``) the dual test fails unless the agent has
    no coupling rows.
    """
    Cc = qp.cpl_local
    if Cc.shape[0] == 0:
        return True
    img_z = Cc @ z
    img_avg = Cc @ z_avg
    primal = float(np.abs(img_z - img_avg).max())
    scale_p = min(max(np.abs(img_z).max(), np.abs(img_avg).max()), 1.0)
    if primal > eps_primal * scale_p:
        return False
    if z_prev is None:
        return False
    dual = float(np.abs(rho * (Cc @ (z - z_prev))).max())
    scale_d = min(float(np.abs(lam_local).max(initial=0.0)), 1.0)
    return dual <= eps_dual * scale_d


def shift_averaged(qps, z_avg: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Warm start for the next sample: shift trajectories one step.

    States move forward by one step with the terminal state filling the last
    stage; the vacated terminal state and final input are zero-padded.
    Copies shift the same way with a zero-padded final stage, which keeps
    every interior coupling row consistent; the final-stage rows are off by
    the owner's shifted-in terminal state, which the warm-started iteration
    absorbs.
    """
    shifted = []
    for qp, zb in zip(qps, z_avg):
        lay = qp.layout
        N, n, m = lay.horizon, lay.n_states, lay.n_inputs
        out = np.zeros_like(zb)
        for k in range(N - 1):
            out[lay.x_slice(k)] = zb[lay.x_slice(k + 1)]
        out[lay.x_slice(N - 1)] = zb[lay.x_slice(N)]
        for k in range(N - 1):
            out[lay.u_slice(k)] = zb[lay.u_slice(k + 1)]
        for j in lay.in_neighbors:
            for k in range(N - 1):
                out[lay.v_slice(j, k)] = zb[lay.v_slice(j, k + 1)]
        shifted.append(out)
    return shifted


def admm_solve(qps, fabric: Fabric | None = None,
               cfg: AdmmConfig | None = None,
               z_avg0: Sequence[np.ndarray] | None = None) -> AdmmResult:
    """Run consensus ADMM until both stopping criteria hold for all agents.

    Parameters
    ----------
    qps : sequence of AgentQP
    fabric : Fabric, optional
    cfg : AdmmConfig, optional
    z_avg0 : sequence of arrays, optional
        Averaged decision vectors to warm start from (cold start is zero).
        Multipliers always start at zero.

    Returns
    -------
    AdmmResult
        Final iterates, averaged iterates, compressed multipliers, and the
        iteration count.
    """
    cfg = cfg or AdmmConfig()
    fabric = fabric if fabric is not None else Fabric(len(qps))
    sizes: dict[tuple[int, int], set] = {}
    for qp in qps:
        lay = qp.layout
        for j, nj in zip(lay.in_neighbors, lay.neighbor_dims):
            # copied trajectory to the owner, averaged trajectory back; on a
            # bidirectional edge the same channel also carries the reverse
            # role, so sizes accumulate instead of overwriting
            sizes.setdefault((qp.index, j), set()).add(lay.horizon * nj)
            sizes.setdefault((j, qp.index), set()).add(lay.horizon * nj)
    fabric.register_overlaps(sizes)
    start = fabric.ledger.snapshot()
    stats = AdmmStats()
    solvers = [LocalQpSolver(qp, cfg.rho) for qp in qps]
    if z_avg0 is None:
        z_avg = [np.zeros(qp.size) for qp in qps]
    else:
        z_avg = [np.asarray(zb, dtype=float).copy() for zb in z_avg0]
    lams = [np.zeros(qp.coupled_rows.size) for qp in qps]
    warm: list[tuple[int, ...]] = [() for _ in qps]
    zs_prev = None
    zs = None
    converged = False
    for _ in range(cfg.max_iter):
        stats.iterations += 1
        zs = []
        for qp, solver, zb, lam, wa in zip(qps, solvers, z_avg, lams, warm):
            g = local_linear_term(qp, zb, lam, cfg.rho)
            z, act, its = solver.solve(g, wa)
            stats.local_asm_iterations += its
            warm[qp.index] = act
            zs.append(z)
        z_avg = admm_average(qps, zs, fabric)
        lams = [admm_dual_update(qp, z, zb, lam, cfg.rho)
                for qp, z, zb, lam in zip(qps, zs, z_avg, lams)]
        flags = [admm_converged(qp, z, zb, None if zs_prev is None
                                else zs_prev[qp.index], lam, cfg.rho,
                                cfg.eps_primal, cfg.eps_dual)
                 for qp, z, zb, lam in zip(qps, zs, z_avg, lams)]
        zs_prev = zs
        if fabric.global_flags(flags, phase="admm"):
            converged = True
            break
    stats.ledger = fabric.ledger.delta(start)
    return AdmmResult(z=zs, z_avg=z_avg, cpl_duals=lams,
                      iterations=stats.iterations, converged=converged,
                      stats=stats)
