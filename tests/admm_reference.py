"""The per-agent consensus ADMM iteration, kept as the reference.

This is the iteration :mod:`dmpcqp.admm` replaced: per-agent lists of
averaged decision vectors, multipliers and previous iterates, with the
linear term, dual step and stopping test formed agent by agent and the
averaged entries split back into full-length vectors on every iteration.
Tests require the flat solver to give the same iterates bit for bit, the
same iteration counts and the same ledger.  The functions' comments and
docstrings are unchanged; only the result drops the compressed multipliers,
which :class:`~dmpcqp.admm.AdmmResult` no longer carries, and the
statistics record is the one it used, with its own iteration count.

The flat solver's inner loop was then made cheaper without changing a
result; the code it replaced is kept here verbatim and the reference
iteration uses it: :class:`ReplacedLocalQpSolver` (whose ``solve`` forms
the bound multipliers of an empty working set too, and picks the violated
bound through :func:`asm_reference.replaced_most_violated_bound`, and
de-duplicates the warm rows the package now takes as given),
:func:`segment_max` (one code path for empty and filled segments) and
:func:`flat_admm_converged` (which forms the signed coupling images).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from dmpcqp.admm import (LOCAL_DUAL_TOL, LOCAL_MAX_ITER, LOCAL_STEP_TOL,
                         AdmmConfig, AdmmResult, LocalQpSolver)
from dmpcqp.asm import DEGENERATE_STEP, VIOLATION_TOL, compute_step_length
from dmpcqp.errors import LocalQpError
from dmpcqp.fabric import CommLedger, Fabric

from asm_reference import replaced_most_violated_bound as most_violated_bound


class ReplacedLocalQpSolver(LocalQpSolver):
    """The package's local solver with the ``solve`` it replaced."""

    def solve(self, g_lin: np.ndarray,
              warm_active: Sequence[int] = ()) -> tuple[np.ndarray, tuple, int]:
        """Return ``(z, active, iterations)`` for linear term ``g_lin``.

        Bounds are activated, most violated first, until the working-set
        minimizer is feasible; that point goes straight to the dual check.
        """
        local = self.local
        active = list(dict.fromkeys(int(a) for a in warm_active))
        z = None
        for iterations in range(1, LOCAL_MAX_ITER + 1):
            factor, offset = self.working_set(tuple(active))
            target = offset + factor.gain @ g_lin
            if z is None:
                row = most_violated_bound(local, target, active,
                                          VIOLATION_TOL)
                if row is not None:
                    active.append(row)
                    continue
                z = target
            else:
                dz = target - z
                if np.abs(dz).max(initial=0.0) >= LOCAL_STEP_TOL * (
                        1.0 + np.abs(z).max(initial=0.0)):
                    alpha, blocking = compute_step_length(z, dz, local,
                                                          active)
                    if alpha >= DEGENERATE_STEP:
                        z = z + alpha * dz
                    if blocking is not None:
                        active.append(blocking)
                    continue
            nu = factor.duals @ (local.hessian @ z + g_lin)
            if nu.size == 0 or nu.min() >= -LOCAL_DUAL_TOL:
                return z, tuple(active), iterations
            active.pop(int(np.argmin(nu)))
        raise LocalQpError(f"agent {local.index}: local active-set solve "
                           f"exceeded {LOCAL_MAX_ITER} iterations")


def segment_max(values: np.ndarray, segments: Sequence[slice]) -> np.ndarray:
    """The maximum of ``values`` over each segment of its last axis, ``0``
    for an empty one; the segments run end to end, as on the flat layout of
    a :class:`CouplingIndex`."""
    filled = [i for i, seg in enumerate(segments) if seg.stop > seg.start]
    out = np.zeros((len(segments),) + values.shape[:-1])
    # reduceat gives an empty segment the next one's first entry, so only
    # the segments with entries take part
    if filled:
        out[filled] = np.maximum.reduceat(
            values, [segments[i].start for i in filled], axis=-1).T
    return out.T


def flat_admm_converged(plan, z, z_bar, z_prev, lam, rho, eps_primal,
                        eps_dual) -> list[bool]:
    """Relative primal/dual stopping test, per agent, on the flat layout.

    The primal residual compares the coupling images of ``z`` and ``z_bar``;
    the dual residual bounds the multiplier movement.  On the first
    iteration (``z_prev = None``) the dual test fails unless the agent has
    no coupling rows.
    """
    if z_prev is None:
        return [seg.stop == seg.start for seg in plan.segments]
    img_z = plan.signs * z
    img_avg = plan.signs * z_bar
    primal, top_z, top_avg, dual, top_lam = segment_max(np.abs(np.stack([
        img_z - img_avg, img_z, img_avg, rho * (plan.signs * (z - z_prev)),
        lam])), plan.segments)
    scale_p = np.minimum(np.maximum(top_z, top_avg), 1.0)
    scale_d = np.minimum(top_lam, 1.0)
    return ((primal <= eps_primal * scale_p)
            & (dual <= eps_dual * scale_d)).tolist()


@dataclass
class AdmmStats:
    iterations: int = 0
    local_asm_iterations: int = 0
    ledger: CommLedger | None = None


def local_linear_term(qp, z_avg: np.ndarray, lam_local: np.ndarray,
                      rho: float) -> np.ndarray:
    """Linear term ``Cc' lam - rho Cc' Cc z_avg`` of the augmented QP."""
    coupled = qp.coupled
    return coupled.scatter(np.asarray(lam_local, dtype=float)
                           - rho * coupled.gather(np.asarray(z_avg,
                                                             dtype=float)))


def admm_average(qps, zs, fabric: Fabric):
    """Average owned trajectories with their copies and redistribute.

    Out-neighbors send their copied trajectories to the owner, who averages
    its own prediction with the copies (each coupling row is shared by
    exactly two agents, so the owner weight equals the number of copies),
    adding them in ascending copier order; the averaged trajectory is then
    sent back to every copier.  Both exchanges are charged to the ``admm``
    phase.  Returns the averaged decision vectors.
    """
    plan = qps[0].coupling
    owned, slots, n_copies = plan.owned, plan.slots, plan.n_copies
    # the copies' entries, row by row with the owned ones
    copied = plan.partner[owned]
    # every agent's entry of each of its coupling rows, on the flat layout
    entries = np.concatenate([z[a.cols] for z, a in zip(zs, plan.agents)])
    copies = fabric.neighbor_exchange(entries, copied, phase="admm")
    total = np.empty(n_copies.size)
    total[slots] = entries[owned]
    total *= n_copies
    # owned entries run in ascending copier order per owner, and add.at
    # adds in index order
    np.add.at(total, slots, copies)
    entries[owned] = (total / (2.0 * n_copies))[slots]
    entries[copied] = fabric.neighbor_exchange(entries, owned, phase="admm")

    z_avg = []
    for z, a, seg in zip(zs, plan.agents, plan.segments):
        zb = z.copy()
        zb[a.cols] = entries[seg]
        z_avg.append(zb)
    return z_avg


def admm_dual_update(qp, z: np.ndarray, z_avg: np.ndarray,
                     lam_local: np.ndarray, rho: float) -> np.ndarray:
    """Dual ascent step on the agent's compressed coupling multipliers."""
    return lam_local + rho * qp.coupled.gather(z - z_avg)


def admm_converged(qp, z, z_avg, z_prev, lam_local, rho, eps_primal,
                   eps_dual) -> bool:
    """Relative primal/dual stopping test for one agent.

    The primal residual compares the coupling images of ``z`` and ``z_avg``;
    the dual residual bounds the multiplier movement.  On the first
    iteration (``z_prev = None``) the dual test fails unless the agent has
    no coupling rows.
    """
    coupled = qp.coupled
    if coupled.rows.size == 0:
        return True
    img_z = coupled.gather(z)
    img_avg = coupled.gather(z_avg)
    primal = float(np.abs(img_z - img_avg).max())
    scale_p = min(max(np.abs(img_z).max(), np.abs(img_avg).max()), 1.0)
    if primal > eps_primal * scale_p:
        return False
    if z_prev is None:
        return False
    dual = float(np.abs(rho * coupled.gather(z - z_prev)).max())
    scale_d = min(float(np.abs(lam_local).max(initial=0.0)), 1.0)
    return dual <= eps_dual * scale_d


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
    start = fabric.ledger.snapshot()
    stats = AdmmStats()
    solvers = [ReplacedLocalQpSolver(qp, cfg.rho) for qp in qps]
    if z_avg0 is None:
        z_avg = [np.zeros(qp.size) for qp in qps]
    else:
        z_avg = [np.asarray(zb, dtype=float).copy() for zb in z_avg0]
    lams = [np.zeros(qp.coupled.rows.size) for qp in qps]
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
    return AdmmResult(z=zs, z_avg=z_avg, iterations=stats.iterations,
                      converged=converged, stats=stats)
