"""Per-agent elimination of working-set constraints.

A working set is the initial-condition and dynamics rows ``[C_x C_w]`` plus
activated bound rows, each a signed unit row pinning one coordinate of the
inputs and copies ``w``.  ``C_x`` (the states) is unit lower triangular, so
the states are an affine function of ``w`` and the working-set null space
has the fixed basis ``Z = [-C_x^{-1} C_w[:, free]; I[:, free]]``, with
``free`` the coordinates of ``w`` no active row pins.  The constrained
stationary point of

    min 0.5 z' H z   s.t.  C_work z = d,  coupling rows shared

is split into a particular point (pinned coordinates at their bounds, states
from the dynamics) and a reduced unknown on ``Z``.  Eliminating the reduced
unknown yields each agent's contribution to the coupling-multiplier system,
which does not depend on the basis: a local Schur matrix and right-hand
side, compressed to the coupling rows the agent actually touches.  The
bound multipliers of the working set are linear in the objective gradient.

Everything above except ``d`` and the multipliers depends only on the QP's
matrices and the active rows.  That structural part is a
:class:`WorkingSetFactor`: linear maps from ``d`` to the stationary point
and from the gradient to the bound multipliers, the coupling gain and the
Schur matrix.  Each QP carries a
:class:`FactorCache` keyed by the active rows, so a working set is factored
once and every later :func:`condense` of it costs a few matrix-vector
products; the cache survives :func:`~dmpcqp.qp_builder.update_initial_state`,
which changes only ``d``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import IndefiniteReducedHessian, RankDeficientWorkingSet

#: Cholesky pivots of the reduced Hessian below this threshold fail the solve.
PIVOT_TOL = 1e-12
#: Working-set factors one :class:`FactorCache` keeps; the least recently
#: used goes first.
MAX_FACTORS = 32


@dataclass(frozen=True)
class AgentCoupling:
    """One agent's coupling rows ``Cc`` as signed selections.

    Global row ``rows[k]`` (ascending) reads ``signs[k] * z[cols[k]]``,
    ``+1`` on an owned state and ``-1`` on its copy.  A scatter sums in row
    order: the dense ``Cc' lam`` exactly while at most two rows read a
    variable (as on a chain).
    """

    rows: np.ndarray
    cols: np.ndarray
    signs: np.ndarray
    size: int

    def gather(self, z: np.ndarray) -> np.ndarray:
        """``Cc z``: the agent's entry of each of its coupling rows."""
        return self.signs * z[self.cols]

    def scatter(self, lam: np.ndarray) -> np.ndarray:
        """``Cc' lam``: row multipliers summed onto the agent's variables."""
        # an empty bincount is an integer array whatever the weights
        return np.bincount(self.cols, self.signs * lam,
                           minlength=self.size).astype(float, copy=False)


@dataclass(frozen=True)
class AgentBounds:
    """One agent's input box as signed unit rows.

    Row ``r`` reads ``signs[r] * z[cols[r]] <= ineq_rhs[r]`` and
    ``shifted[r]`` is the same bound one stage earlier, ``-1`` at stage 0.
    """

    cols: np.ndarray
    signs: np.ndarray
    shifted: np.ndarray

    def gather(self, z: np.ndarray) -> np.ndarray:
        """Every bound row's value at ``z``."""
        return self.signs * z[self.cols]


@dataclass(frozen=True)
class WorkingConstraints:
    """A working set: the equality rows, then the ``active`` bound rows of
    the QP's :class:`AgentBounds`, with their right-hand side."""

    rhs: np.ndarray
    n_eq: int
    active: tuple[int, ...]

    @property
    def n_rows(self) -> int:
        return self.n_eq + len(self.active)


def working_constraints(qp, active: Sequence[int]) -> WorkingConstraints:
    """Assemble the working set of ``qp`` for the given active rows, with
    the equality and activated bound values as its right-hand side."""
    active = tuple(int(a) for a in active)
    n_eq, n_ineq = qp.eq_rhs.size, qp.ineq_rhs.size
    if active and not (0 <= min(active) and max(active) < n_ineq):
        bad = next(a for a in active if not 0 <= a < n_ineq)
        raise ValueError(f"active row {bad} out of range")
    if len(set(active)) != len(active):
        raise ValueError("active rows repeated")
    rhs = np.concatenate([qp.eq_rhs, qp.ineq_rhs[list(active)]]) \
        if active else qp.eq_rhs.copy()
    return WorkingConstraints(rhs=rhs, n_eq=n_eq, active=active)


@dataclass(frozen=True)
class WorkingSetFactor:
    """Structural part of condensing one working set.

    With ``K = -Z (Z' H Z)^{-1} Z'`` (``gain``) and ``P`` the map from the
    working-set right-hand side ``d`` to the particular point, the
    working-set minimizer of ``0.5 z' H z + g' z`` is
    ``rhs_gain @ d + gain @ g`` with ``rhs_gain = P + K H P``.
    ``schur`` is the agent's Schur matrix ``Cc Z (Z' H Z)^{-1} Z' Cc'``,
    i.e. ``-Cc K Cc'``.  At a point with objective gradient ``r``
    (coupling term included) the bound multipliers are ``duals @ r``.
    """

    gain: np.ndarray
    rhs_gain: np.ndarray
    schur: np.ndarray
    duals: np.ndarray

    def stationary_point(self, rhs: np.ndarray) -> np.ndarray:
        """Working-set minimizer for right-hand side ``rhs`` at zero linear
        term."""
        return self.rhs_gain @ rhs


class FactorCache:
    """The :class:`WorkingSetFactor` of each working set of one QP structure.

    Keyed by the active-row tuple and bound to the structural arrays
    (``hessian``, ``eq_matrix``) and plans (``bounds``, ``coupled``) of the
    QP it was made for; :class:`~dmpcqp.qp_builder.AgentQP` starts a fresh
    cache for a QP that does not share them.  Beyond :data:`MAX_FACTORS`
    entries the least recently used is dropped.  It also holds the two
    per-structure maps every factor reads, ``C_x^{-1}`` and the states'
    response ``W = C_x^{-1} C_eq`` to the inputs and copies, and
    ``augmented``: ADMM's augmented QP of this structure per penalty
    weight, which has a cache of its own.
    """

    def __init__(self, qp):
        self._structure = (qp.hessian, qp.eq_matrix, qp.bounds, qp.coupled)
        self._n_states = qp.layout.u_offset
        self._factors: dict[tuple[int, ...], WorkingSetFactor] = {}
        self.augmented: dict[float, object] = {}

    def bound_to(self, qp) -> bool:
        """Whether ``qp`` has the structural arrays this cache was made for."""
        return all(a is b for a, b in zip(self._structure, (
            qp.hessian, qp.eq_matrix, qp.bounds, qp.coupled)))

    def __len__(self) -> int:
        return len(self._factors)

    def get(self, active: tuple[int, ...]) -> WorkingSetFactor | None:
        """The factor of ``active``, moved to the most recently used end."""
        factor = self._factors.pop(active, None)
        if factor is not None:
            self._factors[active] = factor
        return factor

    def put(self, active: tuple[int, ...], factor: WorkingSetFactor) -> None:
        if len(self._factors) >= MAX_FACTORS:
            del self._factors[next(iter(self._factors))]
        self._factors[active] = factor

    def _solve_states(self, rhs: np.ndarray) -> np.ndarray:
        eq_matrix, nx = self._structure[1], self._n_states
        return scipy.linalg.solve_triangular(
            eq_matrix[:, :nx], rhs, lower=True, unit_diagonal=True)

    @cached_property
    def state_inverse(self) -> np.ndarray:
        return self._solve_states(np.eye(self._n_states))

    @cached_property
    def state_response(self) -> np.ndarray:
        return self._solve_states(self._structure[1])


def _factorize(qp, work: WorkingConstraints) -> WorkingSetFactor:
    """Factor the working set ``work`` of ``qp`` (a cache miss)."""
    H = qp.hessian
    nz = H.shape[0]
    n_eq, nx = work.n_eq, qp.layout.u_offset
    active = list(work.active)
    k = len(active)
    pinned = qp.bounds.cols[active]
    pin_signs = qp.bounds.signs[active]
    cols = pinned.tolist()
    for pos, col in enumerate(cols):
        if col in cols[:pos]:
            raise RankDeficientWorkingSet(qp.index, n_eq + pos, pos)
    W = qp.factors.state_response
    free = np.setdiff1d(np.arange(nx, nz), pinned)
    n_red = free.size
    Z = np.zeros((nz, n_red))
    Z[:nx] = -W[:, free]
    Z[free, np.arange(n_red)] = 1.0

    gain = np.zeros((nz, nz))
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
        gain = -Z @ scipy.linalg.cho_solve(reduced_chol, Z.T)

    # particular point: pinned coordinates at their bounds, states from the
    # dynamics, i.e. p[:nx] = C_x^{-1} d_eq - W[:, pinned] (sign * d_bound)
    particular = np.zeros((nz, n_eq + k))
    particular[:nx, :n_eq] = qp.factors.state_inverse
    particular[:nx, n_eq:] = -W[:, pinned] * pin_signs
    particular[pinned, n_eq + np.arange(k)] = pin_signs
    rhs_gain = particular + gain @ (H @ particular)

    # -Cc K Cc' entry by entry: every coupling row selects one column
    cols, signs = qp.coupled.cols, qp.coupled.signs
    schur = -gain[np.ix_(cols, cols)] * np.outer(signs, signs)
    # nu = sign * (W' r_x - r)[pinned] for the objective gradient r
    duals = np.zeros((k, nz))
    duals[:, :nx] = W[:, pinned].T
    duals[np.arange(k), pinned] = -1.0
    duals *= pin_signs[:, None]
    return WorkingSetFactor(gain=gain, rhs_gain=rhs_gain,
                            schur=0.5 * (schur + schur.T), duals=duals)


@dataclass(frozen=True)
class CondensedAgent:
    """One agent's condensed working-set system.

    ``schur`` and ``schur_rhs`` are the agent's contribution to the coupling
    multiplier system, compressed to ``rows`` (the global coupling rows with
    a nonzero entry for this agent).  ``offset`` is the working-set
    minimizer at zero multipliers; ``factor`` and the agent's coupling rows
    ``coupled`` turn multipliers into the minimizer, and ``factor`` maps
    the objective gradient to the bound multipliers.
    """

    coupled: AgentCoupling
    factor: WorkingSetFactor
    offset: np.ndarray
    schur_rhs: np.ndarray

    @property
    def rows(self) -> np.ndarray:
        return self.coupled.rows

    @property
    def schur(self) -> np.ndarray:
        return self.factor.schur


def condense(qp, work: WorkingConstraints) -> CondensedAgent:
    """Reduce one agent's working-set system onto its null space.

    Requires the structure :func:`~dmpcqp.qp_builder.build_agent_qp`
    gives: the equality rows' first ``layout.u_offset`` columns form a
    square unit lower triangular block, and every row of ``qp.bounds`` is a
    signed unit row on a later column.  Two active rows pinning the same column
    raise :class:`RankDeficientWorkingSet` naming the later one.  The
    working set's factor comes from ``qp.factors`` and is made and stored
    there on a miss; a set that raises is not stored.

    Parameters
    ----------
    qp : AgentQP (or any object with ``hessian``, ``bounds``, ``coupled``,
        ``index``, ``layout`` and ``factors`` attributes)
    work : WorkingConstraints
        Working set of ``qp``'s rows with its right-hand side ``d``.

    Returns
    -------
    CondensedAgent
        The working-set factor plus the agent's compressed Schur matrix
        and right-hand side for the coupling multiplier system.
    """
    factor = qp.factors.get(work.active)
    if factor is None:
        factor = _factorize(qp, work)
        qp.factors.put(work.active, factor)
    offset = factor.stationary_point(work.rhs)
    return CondensedAgent(coupled=qp.coupled, factor=factor, offset=offset,
                          schur_rhs=qp.coupled.gather(offset))


def backsubstitute(ca: CondensedAgent, lam_local: np.ndarray) -> np.ndarray:
    """The agent's working-set minimizer at the coupling multipliers
    ``lam_local``, compressed to ``ca.rows``."""
    lam_local = np.asarray(lam_local, dtype=float).reshape(ca.rows.size)
    return ca.offset + ca.factor.gain @ ca.coupled.scatter(lam_local)


def recover_duals(qp, ca: CondensedAgent, gradient: np.ndarray,
                  lam_local: np.ndarray) -> np.ndarray:
    """Bound multipliers of ``ca``'s active rows at a stationary point:
    ``ca.factor.duals @ r`` with the objective gradient
    ``r = gradient + Cc' lam``."""
    lam_local = np.asarray(lam_local, dtype=float).reshape(qp.coupled.rows.size)
    r = np.asarray(gradient, dtype=float) + qp.coupled.scatter(lam_local)
    return ca.factor.duals @ r
