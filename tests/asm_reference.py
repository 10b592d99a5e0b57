"""The active-set loops :func:`dmpcqp.asm.asm_solve` replaced, kept as
references.

:func:`asm_solve` is the two-phase solver the package's one loop replaced:
:func:`initialize_feasible` runs the feasibility rounds and returns an
:class:`AsmState` that :func:`asm_solve` then steps from, each phase with
its own condense, DCG and back-substitution calls.  On its first round
``_condense_all(repair=True)`` drops a warm row that makes the working set
rank deficient, and ``initialize_feasible`` drops a repeated warm row; the
package rejects both.  The four are kept verbatim, except that
:func:`asm_solve` checks each step for descent of the package's
Lagrangian at the round's multipliers, as the package does, where it
checked the objective alone: a step may raise the objective by ``lam'``
times the coupling rows' DCG residual while its Lagrangian falls.

:func:`step_variable_asm_solve` is the loop before that: every outer
iteration condenses each agent's step system, with a zero working-set
right-hand side and the linear term ``H z``, so that back-substitution
gives the step itself, and the bound multipliers are read off through the
states' response ``W = C_x^{-1} C_eq``.  The start, the ratio test and
the checks are the package's; only the step systems and the dual recovery
are the old ones, rebuilt here from the package's cached working-set
factors.  The loop's comments and statements are otherwise unchanged.

:func:`replaced_most_violated_bound` is the pick the package replaced by
one that skips the masking assignment for an empty working set; it is kept
verbatim under a new name.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from dmpcqp.asm import (DEGENERATE_STEP, DUAL_TOL, OBJECTIVE_TOL,
                        VIOLATION_TOL, AsmConfig, AsmResult, AsmStats,
                        compute_step_length, most_violated_bound,
                        network_lagrangian, network_objective,
                        verify_iterate)
from dmpcqp.condense import (backsubstitute, condense, recover_duals,
                             working_constraints)
from dmpcqp.dcg import dcg_solve
from dmpcqp.errors import (AsmIterationLimit, FeasibilityViolation,
                           InfeasibleStart, RankDeficientWorkingSet)
from dmpcqp.fabric import Fabric


@dataclass
class AsmState:
    """Solver state between phases: iterates, working sets, multiplier seed."""

    z: list[np.ndarray]
    active: list[list[int]]
    lambdas: list[np.ndarray]
    stats: AsmStats


def _condense_all(qps, active, repair=False):
    """Condense every agent, optionally dropping dependent warm-start rows."""
    cas = []
    for qp, act in zip(qps, active):
        while True:
            work = working_constraints(qp, act)
            try:
                cas.append(condense(qp, work))
                break
            except RankDeficientWorkingSet as exc:
                if not repair or exc.active_position is None:
                    raise
                del act[exc.active_position]
    return cas


def initialize_feasible(qps, warm_active, fabric: Fabric,
                        cfg: AsmConfig | None = None,
                        stats: AsmStats | None = None) -> AsmState:
    """Produce a primal feasible iterate whose working set is consistent.

    Starting from the warm-started working set (of two warm rows on the
    same input, the later is dropped), the working-set system is solved
    with a cold multiplier.  Agents then activate their most violated
    bound and re-solve until every bound holds; the violation flags ride
    one coordinator round per pass, charged to the ``init`` phase.
    """
    cfg = cfg or AsmConfig()
    stats = stats if stats is not None else AsmStats()
    M = len(qps)
    active = [list(dict.fromkeys(int(r) for r in rows))
              for rows in (warm_active or [[] for _ in range(M)])]
    repair = True
    for _ in range(sum(qp.n_ineq for qp in qps) + 2):
        cas = _condense_all(qps, active, repair)
        repair = False
        sol = dcg_solve(cas, qps[0].coupling.partner, None, cfg.eps_dcg,
                        fabric)
        stats.dcg_feasible_guess += sol.iterations
        stats.init_rounds += 1
        zs = [backsubstitute(ca, lam) for ca, lam in zip(cas, sol.lambdas)]
        worst = [most_violated_bound(qp, z, act, VIOLATION_TOL)
                 for qp, z, act in zip(qps, zs, active)]
        clean = fabric.global_flags([w is None for w in worst], phase="init")
        if clean:
            return AsmState(z=zs, active=active, lambdas=list(sol.lambdas),
                            stats=stats)
        for act, row in zip(active, worst):
            if row is not None:
                act.append(row)
    raise InfeasibleStart(stats.init_rounds)


def asm_solve(qps, warm_active=None, cfg: AsmConfig | None = None,
              fabric: Fabric | None = None) -> AsmResult:
    """Distributed active-set solve of the partially separable QP.

    Parameters
    ----------
    qps : sequence of AgentQP
        One QP per agent, sharing a coupling index.
    warm_active : sequence of row lists, optional
        Working set to warm start from (e.g. the previous sample's).
    cfg : AsmConfig, optional
    fabric : Fabric, optional
        Communication fabric; a fresh metered fabric is created when
        omitted.

    Returns
    -------
    AsmResult
        Minimizing iterates, final working sets, coupling multipliers and
        solver statistics.
    """
    cfg = cfg or AsmConfig()
    fabric = fabric if fabric is not None else Fabric(len(qps))
    start = fabric.ledger.snapshot()
    stats = AsmStats()
    state = initialize_feasible(qps, warm_active, fabric, cfg, stats)
    zs, active, lam_seed = state.z, state.active, state.lambdas
    verify_iterate(qps, zs)

    max_outer = cfg.max_outer
    if max_outer is None:
        max_outer = 10 * sum(qp.n_ineq for qp in qps)
    trace = []
    for _ in range(max_outer):
        stats.outer_iterations += 1
        cas = _condense_all(qps, active)
        sol = dcg_solve(cas, qps[0].coupling.partner, lam_seed,
                        cfg.eps_dcg, fabric)
        stats.dcg_active_set += sol.iterations
        lam_seed = list(sol.lambdas)
        dzs = [backsubstitute(ca, lam) - z
               for ca, lam, z in zip(cas, sol.lambdas, zs)]
        small = [float(np.abs(dz).max(initial=0.0)) < cfg.eps_step
                 for dz in dzs]
        if fabric.global_flags(small, phase="asm"):
            duals = [recover_duals(qp, ca, qp.hessian @ z, lam)
                     for qp, ca, z, lam in zip(qps, cas, zs, sol.lambdas)]
            worst, agent = fabric.global_reduce(
                [float(nu.min()) if nu.size else np.inf for nu in duals],
                op="min", phase="asm")
            if worst >= -DUAL_TOL:
                stats.ledger = fabric.ledger.delta(start)
                return AsmResult(z=zs, active=tuple(tuple(a) for a in active),
                                 cpl_duals=list(sol.lambdas), stats=stats)
            pos = int(np.argmin(duals[agent]))
            trace.append(("release", agent, active[agent][pos]))
            del active[agent][pos]
        else:
            steps = [compute_step_length(z, dz, qp, act)
                     for z, dz, qp, act in zip(zs, dzs, qps, active)]
            alpha, agent = fabric.global_reduce(
                [s[0] for s in steps], op="min", phase="asm")
            alpha = min(alpha, 1.0)
            before = network_lagrangian(qps, zs, sol.lambdas)
            if alpha >= DEGENERATE_STEP:
                zs = [z + alpha * dz for z, dz in zip(zs, dzs)]
            if alpha < 1.0:
                blocking = steps[agent][1]
                trace.append(("activate", agent, blocking))
                active[agent].append(blocking)
            else:
                trace.append(("step", -1, None))
            verify_iterate(qps, zs)
            after = network_lagrangian(qps, zs, sol.lambdas)
            if after > before + OBJECTIVE_TOL * (1.0 + abs(before)):
                raise FeasibilityViolation(
                    f"Lagrangian increased from {before:.12e} to "
                    f"{after:.12e}")
    raise AsmIterationLimit(stats.outer_iterations, trace[-20:])


def condense_step(qp, active, gradient):
    """The agent's step system: a homogeneous working set and the linear
    term ``gradient``, so the minimizer at zero multipliers is
    ``gain @ gradient``."""
    work = working_constraints(qp, active)
    ca = condense(qp, work)
    offset = ca.factor.rhs_gain @ np.zeros(work.n_rows)
    offset += ca.factor.gain @ gradient
    return dataclasses.replace(ca, offset=offset,
                               schur_rhs=qp.coupled.gather(offset))


def recover_step_duals(qp, active, gradient, lam_local):
    """Working-set multipliers ``(mu, nu)`` at a stationary point, through
    ``W``.

    Solves ``C_work' gamma = rhs`` with ``rhs = -(gradient + C_cpl' lam)``
    on its square part: the state rows give the equality multipliers
    (``mu = C_x^{-T} rhs_x``) and the pinned rows the bound multipliers
    (``nu = sign * (rhs - C_eq' mu)`` there, with ``C_eq' mu = W' rhs_x``).
    """
    pinned = qp.bounds.cols[list(active)]
    pin_signs = qp.bounds.signs[list(active)]
    rhs = -np.asarray(gradient, dtype=float) - qp.coupled.scatter(lam_local)
    cache = qp.factors
    rhs_x = rhs[:cache.state_inverse.shape[0]]
    mu = cache.state_inverse.T @ rhs_x
    left = rhs - cache.state_response.T @ rhs_x
    return mu, pin_signs * left[pinned]


def step_variable_asm_solve(qps, warm_active=None,
                            cfg: AsmConfig | None = None,
                            fabric: Fabric | None = None) -> AsmResult:
    """Distributed active-set solve with steps from step systems."""
    cfg = cfg or AsmConfig()
    fabric = fabric if fabric is not None else Fabric(len(qps))
    start = fabric.ledger.snapshot()
    stats = AsmStats()
    state = initialize_feasible(qps, warm_active, fabric, cfg, stats)
    zs, active, lam_seed = state.z, state.active, state.lambdas
    verify_iterate(qps, zs)
    objective = network_objective(qps, zs)

    max_outer = cfg.max_outer
    if max_outer is None:
        max_outer = 10 * sum(qp.n_ineq for qp in qps)
    trace = []
    for _ in range(max_outer):
        stats.outer_iterations += 1
        gradients = [qp.hessian @ z for qp, z in zip(qps, zs)]
        cas = [condense_step(qp, act, grad)
               for qp, act, grad in zip(qps, active, gradients)]
        sol = dcg_solve(cas, qps[0].coupling.partner, lam_seed,
                        cfg.eps_dcg, fabric)
        stats.dcg_active_set += sol.iterations
        lam_seed = list(sol.lambdas)
        dzs = [backsubstitute(ca, lam) for ca, lam in zip(cas, sol.lambdas)]
        small = [float(np.abs(dz).max(initial=0.0)) < cfg.eps_step
                 for dz in dzs]
        if fabric.global_flags(small, phase="asm"):
            recoveries = [recover_step_duals(qp, act, grad, lam)
                          for qp, act, grad, lam in
                          zip(qps, active, gradients, sol.lambdas)]
            mins = []
            for _, nu in recoveries:
                mins.append(float(nu.min()) if nu.size else np.inf)
            worst, agent = fabric.global_reduce(mins, op="min", phase="asm")
            if worst >= -DUAL_TOL:
                stats.ledger = fabric.ledger.delta(start)
                return AsmResult(
                    z=zs, active=tuple(tuple(a) for a in active),
                    cpl_duals=list(sol.lambdas), stats=stats)
            nu = recoveries[agent][1]
            pos = int(np.argmin(nu))
            trace.append(("release", agent, active[agent][pos]))
            del active[agent][pos]
        else:
            steps = [compute_step_length(z, dz, qp, act)
                     for z, dz, qp, act in zip(zs, dzs, qps, active)]
            alpha, agent = fabric.global_reduce(
                [s[0] for s in steps], op="min", phase="asm")
            alpha = min(alpha, 1.0)
            if alpha >= DEGENERATE_STEP:
                zs = [z + alpha * dz for z, dz in zip(zs, dzs)]
            if alpha < 1.0:
                blocking = steps[agent][1]
                trace.append(("activate", agent, blocking))
                active[agent].append(blocking)
            else:
                trace.append(("step", -1, None))
            verify_iterate(qps, zs)
            new_objective = network_objective(qps, zs)
            if new_objective > objective + OBJECTIVE_TOL * (
                    1.0 + abs(objective)):
                raise FeasibilityViolation(
                    f"objective increased from {objective:.12e} to "
                    f"{new_objective:.12e}")
            objective = new_objective
    raise AsmIterationLimit(stats.outer_iterations, trace[-20:])


def replaced_most_violated_bound(qp, z: np.ndarray, active: Sequence[int],
                                 tol: float) -> int | None:
    """Inactive bound row violated most at ``z``, or None if all hold to ``tol``.

    Ties pick the lowest row index.
    """
    viol = qp.bounds.gather(z) - qp.ineq_rhs
    viol[list(active)] = -np.inf
    if not viol.size:
        return None
    row = int(np.argmax(viol))
    return row if viol[row] > tol else None
