"""Distributed primal active-set method over a message fabric.

The solver keeps one working set per agent.  Every outer iteration condenses
the agents' working-set systems onto their null spaces, solves the
coupling-multiplier system with the decentralized conjugate gradient, and
back-substitutes per-agent working-set minimizers; the step is the
minimizer minus the iterate.  When all steps are negligible the bound
multipliers are recovered locally and either certify optimality or name the
constraint to release; otherwise the largest feasible step is taken and the
blocking bound activated.

Communication per outer iteration is one flag round plus one scalar min
reduction (the step length or the smallest multiplier); all remaining
traffic belongs to the inner CG.  Before them, the same loop runs a
feasibility phase from the warm-started working set with a cold CG,
activating each agent's most violated bound until none remain.  The round
whose violation flags come back clean is the first outer iteration: its
working-set minimizers are the first feasible iterate, so its step is zero
and it goes straight to the multiplier check, with no second solve of the
same working set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .condense import backsubstitute, condense, recover_duals, working_constraints
from .dcg import dcg_solve
from .errors import AsmIterationLimit, FeasibilityViolation, InfeasibleStart
from .fabric import CommLedger, Fabric

#: Rows whose constraint value grows by at most this along a step never block.
RATIO_TOL = 1e-12
#: Steps shorter than this are not taken; the blocking bound is still activated.
DEGENERATE_STEP = 1e-12
#: Bound violation the ratio test rejects, the feasibility phases repair and
#: :func:`verify_iterate` tolerates.
VIOLATION_TOL = 1e-9
#: Tolerance below zero accepted for working-set bound multipliers.
DUAL_TOL = 1e-8
#: Equality-row residual :func:`verify_iterate` tolerates.
EQUALITY_TOL = 1e-8
#: Assembled coupling-row residual :func:`verify_iterate` tolerates.
COUPLING_TOL = 1e-7
#: Relative Lagrangian increase tolerated across one step.
OBJECTIVE_TOL = 1e-10


@dataclass
class AsmConfig:
    """Tolerances and cap of the distributed active-set solver.

    ``eps_step`` declares a per-agent step negligible (max norm) and
    ``eps_dcg`` is the inner CG residual tolerance.  ``max_outer`` caps the
    outer iterations, at least one; it defaults to ten per bound row of the
    network.  The other tolerances are the module constants above.
    """

    eps_step: float = 1e-6
    eps_dcg: float = 1e-8
    max_outer: int | None = None

    def __post_init__(self):
        for name in ("eps_step", "eps_dcg"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(
                    f"{name} must be finite and positive, got {value}")
        if self.max_outer is not None and not (
                isinstance(self.max_outer, (int, np.integer))
                and not isinstance(self.max_outer, bool)
                and self.max_outer >= 1):
            raise ValueError(
                f"max_outer must be an integer of at least 1, got "
                f"{self.max_outer!r}")


@dataclass
class AsmStats:
    """Iteration counters and the communication consumed by one solve.

    Every round makes one DCG solve, so a solve makes ``init_rounds +
    outer_iterations`` of them.

    - ``outer_iterations``: active-set iterations, the round whose
      feasibility flags come back clean counted as the first.
    - ``init_rounds``: feasibility rounds that activated a violated bound.
    - ``dcg_feasible_guess``: DCG iterations of the cold-started solves, up
      to and including the clean round's.
    - ``dcg_active_set``: DCG iterations of the solves seeded with the
      previous round's multipliers, after the clean round.
    - ``ledger``: the communication charged during the solve, by phase.
    """

    outer_iterations: int = 0
    init_rounds: int = 0
    dcg_feasible_guess: int = 0
    dcg_active_set: int = 0
    ledger: CommLedger | None = None

    @property
    def dcg_total(self) -> int:
        return self.dcg_feasible_guess + self.dcg_active_set


@dataclass(frozen=True)
class AsmResult:
    z: list[np.ndarray]
    active: tuple[tuple[int, ...], ...]
    cpl_duals: list[np.ndarray]
    stats: AsmStats


def compute_step_length(z: np.ndarray, dz: np.ndarray, qp,
                        active: Sequence[int]) -> tuple[float, int | None]:
    """Largest fraction of ``dz`` keeping every inactive bound feasible.

    Returns ``(alpha, blocking_row)`` with ``blocking_row = None`` for a full
    step.  Active rows and rows the step does not approach are skipped; ties
    pick the lowest row index.  A remaining bound already violated beyond
    :data:`VIOLATION_TOL` marks the iterate infeasible and raises.
    """
    cdz = qp.bounds.gather(dz)
    slack = qp.ineq_rhs - qp.bounds.gather(z)
    eligible = cdz > RATIO_TOL
    eligible[list(active)] = False
    rows = np.flatnonzero(eligible)
    violated = rows[slack[rows] < -VIOLATION_TOL]
    if violated.size:
        row = int(violated[0])
        raise FeasibilityViolation(
            f"agent {qp.index}: bound row {row} violated by "
            f"{-slack[row]:.3e} before stepping")
    if not rows.size:
        return 1.0, None
    ratios = np.maximum(slack[rows] / cdz[rows], 0.0)
    pos = int(np.argmin(ratios))
    if ratios[pos] < 1.0:
        return float(ratios[pos]), int(rows[pos])
    return 1.0, None


def most_violated_bound(qp, z: np.ndarray, active: Sequence[int],
                        tol: float) -> int | None:
    """Inactive bound row violated most at ``z``, or None if all hold to ``tol``.

    Ties pick the lowest row index.
    """
    viol = qp.bounds.gather(z) - qp.ineq_rhs
    if active:
        viol[list(active)] = -np.inf
    if not viol.size:
        return None
    row = int(viol.argmax())
    return row if viol[row] > tol else None


def verify_iterate(qps, zs) -> None:
    """Assert primal feasibility of a distributed iterate.

    Checks equality rows, bound rows, and the assembled coupling rows
    against :data:`EQUALITY_TOL`, :data:`VIOLATION_TOL` and
    :data:`COUPLING_TOL`; raises :class:`FeasibilityViolation` naming the
    worst offender; a NaN fails every check.
    """
    for qp, z in zip(qps, zs):
        eq = float(np.abs(qp.eq_matrix @ z - qp.eq_rhs).max(initial=0.0))
        if not eq <= EQUALITY_TOL:
            raise FeasibilityViolation(
                f"agent {qp.index}: equality residual {eq:.3e}")
        if qp.ineq_rhs.size:
            vi = float((qp.bounds.gather(z) - qp.ineq_rhs).max())
            if not vi <= VIOLATION_TOL:
                raise FeasibilityViolation(
                    f"agent {qp.index}: bound violation {vi:.3e}")
    # each row's two entries on the coupling plan's flat layout
    plan = qps[0].coupling
    image = plan.signs * np.concatenate(zs)[plan.columns]
    cpl = float(np.abs(image + image[plan.partner]).max(initial=0.0))
    if not cpl <= COUPLING_TOL:
        raise FeasibilityViolation(f"coupling residual {cpl:.3e}")


def network_objective(qps, zs) -> float:
    """Summed quadratic objective ``0.5 sum_i z_i' H_i z_i``."""
    return 0.5 * float(sum(z @ (qp.hessian @ z) for qp, z in zip(qps, zs)))


def network_lagrangian(qps, zs, lambdas) -> float:
    """:func:`network_objective` plus ``sum_i lam_i' Cc_i z_i``, with each
    agent's multipliers ``lambdas[i]`` on its coupling rows."""
    return network_objective(qps, zs) + float(sum(
        lam @ qp.coupled.gather(z) for qp, z, lam in zip(qps, zs, lambdas)))


def shift_active(qp, rows: Sequence[int]) -> list[int]:
    """Advance one agent's active bound rows by one time step.

    A receding-horizon plan marches forward each sample, so a bound that was
    active at step ``k`` of the old plan is expected at step ``k - 1`` of the
    new one, the row ``qp.bounds.shifted`` names; step-0 rows fall off the
    front and the fresh terminal step starts unpinned.
    """
    shifted = qp.bounds.shifted
    return [int(shifted[row]) for row in rows if shifted[row] >= 0]


def asm_solve(qps, warm_active=None, cfg: AsmConfig | None = None,
              fabric: Fabric | None = None) -> AsmResult:
    """Distributed active-set solve of the partially separable QP.

    One loop of rounds runs the feasibility phase, with a cold CG and its
    violation flags charged to ``init``, until the flags come back clean.
    That round is the first active-set iteration, and the later ones seed
    the CG with the last multipliers.

    Parameters
    ----------
    qps : sequence of AgentQP
        One QP per agent, sharing a coupling index.
    warm_active : sequence of row lists, optional
        Working set to warm start from (e.g. the previous sample's, shifted
        by :func:`shift_active`).  Each agent's rows must be distinct and
        independent: a repeated row raises ``ValueError`` and two rows on
        one input raise ``RankDeficientWorkingSet``.
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
    n_ineq = sum(qp.n_ineq for qp in qps)
    max_outer = 10 * n_ineq if cfg.max_outer is None else cfg.max_outer
    active = [[int(r) for r in rows]
              for rows in (warm_active or [[] for _ in qps])]
    # the iterate is None until the feasibility phase's flags come back clean
    zs = lam_seed = None
    trace = []
    while True:
        if zs is None:
            if stats.init_rounds == n_ineq + 2:
                raise InfeasibleStart(stats.init_rounds)
        elif stats.outer_iterations == max_outer:
            raise AsmIterationLimit(stats.outer_iterations, trace[-20:])
        cas = [condense(qp, working_constraints(qp, act))
               for qp, act in zip(qps, active)]
        sol = dcg_solve(cas, qps[0].coupling.partner, lam_seed, cfg.eps_dcg,
                        fabric)
        targets = [backsubstitute(ca, lam)
                   for ca, lam in zip(cas, sol.lambdas)]
        if zs is None:
            stats.dcg_feasible_guess += sol.iterations
            worst = [most_violated_bound(qp, z, act, VIOLATION_TOL)
                     for qp, z, act in zip(qps, targets, active)]
            if not fabric.global_flags([w is None for w in worst],
                                       phase="init"):
                stats.init_rounds += 1
                for act, row in zip(active, worst):
                    if row is not None:
                        act.append(row)
                continue
            # the clean round's minimizers are the first feasible iterate,
            # and the round goes on as the first active-set iteration, whose
            # step to its own targets is zero
            zs = targets
            verify_iterate(qps, zs)
        else:
            stats.dcg_active_set += sol.iterations
        stats.outer_iterations += 1
        lam_seed = list(sol.lambdas)
        dzs = [target - z for target, z in zip(targets, zs)]
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
            # the targets minimize the Lagrangian at these multipliers on
            # the iterate's working set; the objective alone can rise by
            # lam' times the coupling rows' DCG residual
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
