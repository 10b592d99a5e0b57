"""Consensus ADMM baseline for the partially separable QP.

Each iteration solves one augmented QP per agent (the agent's objective plus
a penalty tying its coupling image to the current averaged trajectories),
averages owned states with the copies held by out-neighbors, and takes a
dual ascent step on the coupling multipliers.  Two neighbor exchanges per
iteration move copied trajectories to their owners and averaged
trajectories back to the copiers, totalling ``2 n_c`` local floats;
convergence flags add one coordinator round.

The local QPs are solved by the single-agent specialization of the
active-set machinery (no coupling rows, hence no multiplier system): the
ratio test and most-violated-bound pick of :mod:`~dmpcqp.asm`, and the
working-set factors of :mod:`~dmpcqp.condense`.  With the active set
fixed, the local minimizer and its bound multipliers are affine in the
linear term, so each active set is condensed once, on a miss in the
augmented QP's factor cache; consecutive ADMM iterations revisit the same
sets, and a revisit costs a few matrix-vector products.  The augmented QPs
and their factors are kept for the whole closed loop.  As in
:mod:`~dmpcqp.dcg`, all agents' coupling values and multipliers are kept on
the flat layout of the network's coupling plan
(:class:`~dmpcqp.qp_builder.CouplingIndex`), their iterates on its blocks.

Most local solves start from an empty working set and end there after one
iteration, so that first iteration is taken for all such agents at once
(:class:`FirstRoundScreen`): each agent forms its equality-only minimizer
into its block of the stacked iterate by its own gemv, and one stacked
bound check gives every agent its largest violation.  An agent none of
whose bounds is violated is done; any other runs its local active-set
loop as before.  The stacked bound rows and their segments are made once
per solve, and the coupling plan's index data once per network, so every
iteration does the same arithmetic, in the same order, as one local solve
per agent.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .asm import (DEGENERATE_STEP, VIOLATION_TOL, compute_step_length,
                  most_violated_bound)
from .condense import (AgentCoupling, WorkingSetFactor, condense,
                       working_constraints)
from .errors import LocalQpError, require_integer, require_positive
from .fabric import CommLedger, Fabric
from .qp_builder import Segments

#: Named tolerance presets ``(eps_primal, eps_dual)``.
ADMM_PRESETS = {
    "admm1": (1e-6, 1e-3),
    "admm2": (1e-4, 1e-2),
}
#: A local step is negligible below this, relative to ``1 + |z|_inf``.
LOCAL_STEP_TOL = 1e-10
#: Tolerance below zero accepted for a local QP's bound multipliers.
LOCAL_DUAL_TOL = 1e-10
#: Iterations of one local active-set solve before :class:`LocalQpError`.
LOCAL_MAX_ITER = 500


@dataclass
class AdmmConfig:
    """Penalty weight, stopping tolerances, and iteration cap."""

    rho: float = 1.0
    eps_primal: float = 1e-6
    eps_dual: float = 1e-3
    max_iter: int = 20000

    def __post_init__(self):
        for name in ("rho", "eps_primal", "eps_dual"):
            require_positive(name, getattr(self, name))
        require_integer("max_iter", self.max_iter, 1)

    @classmethod
    def preset(cls, name: str, rho: float = 1.0) -> "AdmmConfig":
        eps_primal, eps_dual = ADMM_PRESETS[name]
        return cls(rho=rho, eps_primal=eps_primal, eps_dual=eps_dual)


@dataclass
class AdmmStats:
    local_asm_iterations: int = 0
    ledger: CommLedger | None = None


@dataclass(frozen=True)
class AdmmResult:
    z: list[np.ndarray]
    z_avg: list[np.ndarray]
    iterations: int
    converged: bool
    stats: AdmmStats


class LocalQpSolver:
    """Warm-started active-set solver for one agent's augmented QP.

    Minimizes ``z' H z + g' z`` subject to the agent's equality rows and
    input box, where ``H = 2 H_agent + rho * Cc' Cc`` stays fixed while the
    linear term tracks the ADMM iterates.  ``local`` is that QP, with no
    coupling rows of its own and ``qp``'s equality right-hand side.  It is
    built once per penalty weight and kept in ``qp.factors.augmented``, so
    its factor cache, where each visited active set is condensed once,
    lasts the closed loop, as the agent's own cache does.
    """

    def __init__(self, qp, rho: float):
        augmented = qp.factors.augmented.get(rho)
        if augmented is None:
            hess = 2.0 * qp.hessian
            # Cc' Cc is diagonal: the number of coupling rows reading each
            # entry
            hess[np.diag_indices(qp.size)] += float(rho) * np.bincount(
                qp.coupled.cols, minlength=qp.size)
            no_rows = np.zeros(0, dtype=int)
            augmented = qp.factors.augmented[rho] = dataclasses.replace(
                qp, hessian=hess, coupled=AgentCoupling(
                    rows=no_rows, cols=no_rows, signs=np.zeros(0),
                    size=qp.size))
        self.local = dataclasses.replace(augmented, eq_rhs=qp.eq_rhs)
        self._last: tuple | None = None

    def working_set(self, active: tuple[int, ...]
                    ) -> tuple[WorkingSetFactor, np.ndarray]:
        """The factor of ``active`` and its minimizer at zero linear term.

        The set is condensed on a miss in ``local.factors``.  The pair of
        the last set asked for is kept, because ADMM warm-starts every solve
        from the set the previous one ended on.
        """
        if self._last is None or self._last[0] != active:
            work = working_constraints(self.local, active)
            factor = self.local.factors.get(active)
            if factor is None:
                factor = condense(self.local, work).factor
            self._last = (active, factor, factor.stationary_point(work.rhs))
        return self._last[1:]

    def solve(self, g_lin: np.ndarray, warm_active: Sequence[int] = (),
              screened: tuple[np.ndarray, float] | None = None
              ) -> tuple[np.ndarray, tuple, int]:
        """Return ``(z, active, iterations)`` for linear term ``g_lin``.

        Bounds are activated, most violated first, until the working-set
        minimizer is feasible; that point goes straight to the dual check.
        ``warm_active`` is taken as given, as the set a previous solve
        returned: distinct, independent rows.  With an empty
        ``warm_active``, ``screened`` may give the first iteration's
        minimizer and its largest bound violation, as
        :class:`FirstRoundScreen` forms them; when no bound exceeds
        :data:`~dmpcqp.asm.VIOLATION_TOL` that minimizer is returned at
        once, and otherwise (a NaN too) the solve runs as without it.
        """
        if screened is not None and screened[1] <= VIOLATION_TOL:
            return screened[0], (), 1
        local = self.local
        active = list(warm_active)
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
            if not active:
                # no bound rows, so no multiplier to certify
                return z, (), iterations
            nu = factor.duals @ (local.hessian @ z + g_lin)
            if nu.min() >= -LOCAL_DUAL_TOL:
                return z, tuple(active), iterations
            active.pop(int(np.argmin(nu)))
        raise LocalQpError(f"agent {local.index}: local active-set solve "
                           f"exceeded {LOCAL_MAX_ITER} iterations")


class FirstRoundScreen:
    """The first local iteration of every agent with an empty warm set,
    on the agents' stacked iterate.

    Each such agent writes its equality-only minimizer ``offset + gain @
    g`` into its block by its own gemv, as :meth:`LocalQpSolver.solve`
    forms it; one gather and subtract over all agents' bound rows, and
    the maximum over each agent's ``rows``, then give each agent the
    largest violation of its bounds there (``0`` without bound rows, NaN
    if a row's value is NaN).  The stacked bound rows are made once, here.
    """

    def __init__(self, solvers: Sequence[LocalQpSolver],
                 blocks: Sequence[slice]):
        self.solvers, self.blocks = solvers, blocks
        local = [s.local for s in solvers]
        self.cols = np.concatenate([b.start + qp.bounds.cols
                                    for qp, b in zip(local, blocks)])
        self.signs = np.concatenate([qp.bounds.signs for qp in local])
        self.rhs = np.concatenate([qp.ineq_rhs for qp in local])
        self.rows = Segments(qp.n_ineq for qp in local)

    def __call__(self, g: np.ndarray, z: np.ndarray,
                 cold: Sequence[int]) -> list[float]:
        """Write the first minimizer of each agent in ``cold`` into its
        block of ``z`` and return every agent's largest bound violation at
        ``z``."""
        for i in cold:
            factor, offset = self.solvers[i].working_set(())
            block = self.blocks[i]
            # ndarray.dot makes the BLAS call of ``@`` with less dispatch,
            # and adding the offset second changes no bit
            out = z[block]
            factor.gain.dot(g[block], out)
            out += offset
        viol = self.signs * z[self.cols]
        viol -= self.rhs
        return self.rows.max(viol).tolist()


def local_linear_term(plan, z_bar: np.ndarray, lam: np.ndarray,
                      rho: float) -> np.ndarray:
    """The augmented QPs' linear terms ``Cc' lam - rho Cc' Cc z_avg``,
    stacked, from the averaged values ``z_bar`` on the plan's flat layout;
    each agent's summed in row order, as ``AgentCoupling.scatter`` does."""
    # an empty bincount is an integer array whatever the weights
    return np.bincount(plan.columns, plan.signs * (lam - rho * (
        plan.signs * z_bar)), minlength=plan.blocks.ends[-1]).astype(
            float, copy=False)


def admm_average(plan, z: np.ndarray, fabric: Fabric) -> np.ndarray:
    """Average owned trajectories with their copies and redistribute.

    Out-neighbors send their copied trajectories to the owner, who averages
    its own prediction with the copies (each coupling row is shared by
    exactly two agents, so the owner weight equals the number of copies),
    adding them in ascending copier order; the averaged trajectory is then
    sent back to every copier.  Both exchanges are charged to the ``admm``
    phase.  ``z`` and the returned averages are on the plan's flat layout.
    """
    owned, copied = plan.owned, plan.copied
    slots, n_copies = plan.slots, plan.n_copies
    copies = fabric.neighbor_exchange(z, copied, phase="admm")
    total = np.empty(n_copies.size)
    total[slots] = z[owned]
    total *= n_copies
    # owned entries run in ascending copier order per owner, and add.at
    # adds in index order
    np.add.at(total, slots, copies)
    z_bar = np.empty_like(z)
    z_bar[owned] = (total / (2.0 * n_copies))[slots]
    z_bar[copied] = fabric.neighbor_exchange(z_bar, owned, phase="admm")
    return z_bar


def admm_dual_update(plan, z: np.ndarray, z_bar: np.ndarray,
                     lam: np.ndarray, rho: float) -> np.ndarray:
    """Dual ascent step on the multipliers, one per flat entry."""
    return lam + rho * (plan.signs * (z - z_bar))


def admm_converged(plan, z, z_bar, z_prev, lam, rho, eps_primal,
                   eps_dual) -> list[bool]:
    """Relative primal/dual stopping test, per agent, on the flat layout.

    The primal residual compares the coupling images of ``z`` and ``z_bar``;
    the dual residual bounds the multiplier movement, for the positive
    penalty weight ``rho``.  On the first iteration (``z_prev = None``) the
    dual test fails unless the agent has no coupling rows.
    """
    if z_prev is None:
        return [seg.stop == seg.start for seg in plan.segments]
    # the coupling images are the entries times signs of +-1, which changes
    # no magnitude, and rounding is monotone, so the largest rho |dz| is
    # rho times the largest |dz|
    values = np.abs(np.array([z - z_bar, z, z_bar, z - z_prev, lam]))
    primal, top_z, top_avg, step, top_lam = plan.segments.max(values)
    scale_p = np.minimum(np.maximum(top_z, top_avg), 1.0)
    scale_d = np.minimum(top_lam, 1.0)
    return ((primal <= eps_primal * scale_p)
            & (rho * step <= eps_dual * scale_d)).tolist()


def shift_averaged(qps, z_avg: Sequence[np.ndarray]) -> np.ndarray:
    """Warm start for the next sample: the averaged coupling values one
    step later, on the coupling plan's flat layout.

    Each entry takes its column one stage later (the plan's ``shift_src``):
    owned states move forward with the terminal state filling the last
    stage, and copies move the same way with a zero final stage.  That
    keeps every interior coupling row consistent; the final-stage rows are
    off by the owner's shifted-in terminal state, which the warm-started
    iteration absorbs.
    """
    src = qps[0].coupling.shift_src
    return np.where(src >= 0, np.concatenate(z_avg)[src], 0.0)


def admm_solve(qps, fabric: Fabric | None = None,
               cfg: AdmmConfig | None = None,
               z_avg0: np.ndarray | None = None) -> AdmmResult:
    """Run consensus ADMM until both stopping criteria hold for all agents.

    Parameters
    ----------
    qps : sequence of AgentQP
    fabric : Fabric, optional
    cfg : AdmmConfig, optional
    z_avg0 : array, optional
        Averaged coupling values on the coupling plan's flat layout to warm
        start from, as :func:`shift_averaged` gives them (cold start is
        zero).  Multipliers always start at zero.

    Returns
    -------
    AdmmResult
        Final iterates, averaged iterates, and the iteration count.
    """
    cfg = cfg or AdmmConfig()
    fabric = fabric if fabric is not None else Fabric(len(qps))
    start = fabric.ledger.snapshot()
    stats = AdmmStats()
    plan = qps[0].coupling
    solvers = [LocalQpSolver(qp, cfg.rho) for qp in qps]
    # all agents' iterates stacked; each local solve writes its block
    screen = FirstRoundScreen(solvers, plan.blocks)
    z = np.zeros(plan.blocks.ends[-1])
    z_bar = (np.zeros(plan.columns.size) if z_avg0 is None
             else np.asarray(z_avg0, dtype=float))
    lam = np.zeros(plan.columns.size)
    warm: list[tuple[int, ...]] = [() for _ in qps]
    z_prev = None
    for iterations in range(1, cfg.max_iter + 1):
        g = local_linear_term(plan, z_bar, lam, cfg.rho)
        worst = screen(g, z, [i for i, w in enumerate(warm) if not w])
        for i, (solver, block) in enumerate(zip(solvers, plan.blocks)):
            screened = None if warm[i] else (z[block], worst[i])
            z[block], warm[i], its = solver.solve(g[block], warm[i],
                                                  screened)
            stats.local_asm_iterations += its
        entries = z[plan.columns]
        z_bar = admm_average(plan, entries, fabric)
        lam = admm_dual_update(plan, entries, z_bar, lam, cfg.rho)
        flags = admm_converged(plan, entries, z_bar, z_prev, lam, cfg.rho,
                               cfg.eps_primal, cfg.eps_dual)
        z_prev = entries
        converged = fabric.global_flags(flags, phase="admm")
        if converged:
            break
    stats.ledger = fabric.ledger.delta(start)
    z_avg = z.copy()
    z_avg[plan.columns] = z_bar
    return AdmmResult(z=plan.blocks.split(z), z_avg=plan.blocks.split(z_avg),
                      iterations=iterations, converged=converged,
                      stats=stats)
