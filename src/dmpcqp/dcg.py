"""Decentralized conjugate gradient for the coupling-multiplier system.

The aggregated system ``(sum_i S_i) lam = sum_i s_i`` over the coupling rows
is solved without ever assembling it: each agent keeps only the entries of
the multiplier, residual, and search direction on its own coupling rows
(every row is shared by exactly two agents).  Scalar curvature and residual
norms are formed from local contributions, the residual's weighted by one
half as every row is held twice, and combined by the coordinator;
matrix-vector products are completed by exchanging shared entries with
neighbors, at the ``partner`` index of the network's coupling plan.

An iteration takes three fabric rounds: the curvature sum, the neighbor
exchange of the Schur products, and one flag round that carries each
agent's convergence flag on the updated residual together with its share
of that residual's weight ``eta``, which the next iteration steps with.
Per iteration the fabric charges ``4 M`` global floats, ``2 M`` global
booleans, and ``2 n_c`` local floats.  The bootstrap before the first
iteration, the initial residual's exchange and one flag round carrying
the first ``eta``, is charged to the ``init`` phase, so a solve of ``k``
iterations takes ``2 + 3 k`` rounds.

The simulation stores all agents' local vectors end to end, agent ``i``'s
entries in its segment, so a neighbor exchange is one gather.  Every
product and dot product an agent forms is still one call on its own
segment, in the same order as a solver with one state per agent, so the
multipliers match such a solver bit for bit.  A solve makes its flat
buffers and each agent's views of them once, in :class:`DcgState`, on the
agents' :class:`~dmpcqp.qp_builder.Segments`, and every round updates
the buffers in place.

The solver takes one condensed agent per agent
(:class:`~dmpcqp.condense.CondensedAgent`) and reads only its ``rows``
(the coupling rows it holds, ascending), ``schur`` and ``schur_rhs`` (its
contribution to the aggregated system on those rows).  Where the agents
share rows is passed beside them: the ``partner`` index of the network's
:class:`~dmpcqp.qp_builder.CouplingIndex` (built once per network), or
:func:`~dmpcqp.qp_builder.build_partner` of their rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .condense import CondensedAgent
from .errors import (CurvatureBreakdown, DcgIterationLimit, InconsistentWarmStart,
                     require_positive)
from .fabric import Fabric
from .qp_builder import Segments


@dataclass
class DcgState:
    """All agents' CG vectors, agent ``i``'s entries in ``segments[i]``.

    The buffers are the solve's own and are updated in place: ``scratch``
    holds each round's temporaries (half the residual, the multiplier step,
    the residual's magnitudes) and ``product`` the agents' Schur products.
    ``views[i]`` are agent ``i``'s segments of ``residual``, ``scratch``,
    ``direction`` and ``product``, made once, here.  ``eta`` is the
    residual's weight and ``converged`` the answer of the last flag round.
    """

    schurs: list[np.ndarray]
    segments: Segments
    lam: np.ndarray
    residual: np.ndarray
    direction: np.ndarray
    eta: float = 0.0
    converged: bool = False
    iteration: int = 0

    def __post_init__(self):
        self.scratch = np.empty_like(self.residual)
        self.product = np.empty_like(self.residual)
        self.views = [tuple(v[seg] for v in (self.residual, self.scratch,
                                             self.direction, self.product))
                      for seg in self.segments]

    def flag_round(self, eps: float, fabric: Fabric,
                   phase: str) -> tuple[bool, float]:
        """One coordinator round on the residual: each agent's ``||r_i||_inf
        < eps`` (``0 < eps`` for no rows) and its share of ``eta``.

        Returns the aggregated flag and ``eta``.
        """
        top = self.segments.max(np.abs(self.residual, out=self.scratch))
        flags = (top < eps).tolist()
        # every row is shared by exactly two agents, so each local share of
        # the residual norm carries weight one half; ndarray.dot makes the
        # BLAS call of ``@`` with less dispatch
        np.multiply(self.residual, 0.5, out=self.scratch)
        return fabric.global_flags(
            flags, phase=phase,
            values=[r.dot(half) for r, half, _, _ in self.views])

    def lambdas(self) -> list[np.ndarray]:
        """Each agent's multiplier, a copy the next round leaves alone."""
        return [self.lam[seg].copy() for seg in self.segments]


@dataclass(frozen=True)
class DcgResult:
    lambdas: list[np.ndarray]
    iterations: int


def dcg_init(pieces: Sequence[CondensedAgent], partner: np.ndarray,
             lambda0: Sequence[np.ndarray] | None, eps: float,
             fabric: Fabric) -> DcgState:
    """Bootstrap the CG state for a warm-started multiplier.

    ``partner`` is the pieces' shared rows (see the module docstring).
    Validates that the warm start agrees exactly on shared rows, then forms
    the initial residual ``r0 = s - S lam0`` with one neighbor exchange and
    ends with one flag round, which records whether ``r0`` already meets
    ``eps`` and its ``eta``; both rounds are charged to the ``init`` phase.
    """
    require_positive("eps", eps)
    segments = Segments(p.rows.size for p in pieces)
    if segments.ends[-1] != partner.size:
        raise ValueError(f"{segments.ends[-1]} coupling entries for a "
                         f"partner index of {partner.size}")
    if lambda0 is None:
        lam = np.zeros(partner.size)
    else:
        lam = np.concatenate([np.asarray(l, dtype=float).reshape(p.rows.size)
                              for l, p in zip(lambda0, pieces)])
        if not np.array_equal(lam, lam[partner]):
            entry = int(np.flatnonzero(lam != lam[partner])[0])
            a, b = (int(np.searchsorted(segments.ends, e, side="right"))
                    for e in (entry, partner[entry]))
            raise InconsistentWarmStart(
                f"multiplier warm start differs between agents {a} and {b}")
    local = np.concatenate([p.schur_rhs - p.schur @ lam[seg]
                            for p, seg in zip(pieces, segments)])
    residual = local + fabric.neighbor_exchange(local, partner, phase="init")
    state = DcgState(schurs=[p.schur for p in pieces], segments=segments,
                     lam=lam, residual=residual, direction=residual.copy())
    state.converged, state.eta = state.flag_round(eps, fabric, "init")
    return state


def dcg_iterate(state: DcgState, partner: np.ndarray, fabric: Fabric,
                eps: float) -> bool:
    """One synchronous CG round; returns the aggregated convergence flag.

    The round steps with the ``eta`` the previous flag round brought: it
    reduces the curvature ``sigma``, takes the multiplier and residual
    steps, and ends with the flag round on the updated residual, whose
    ``eta`` fixes the next direction, all charged to the ``dcg`` phase.
    """
    s = state
    for schur, (_, _, d, p) in zip(s.schurs, s.views):
        schur.dot(d, p)
    sigma = fabric.global_reduce([d.dot(p) for _, _, d, p in s.views],
                                 op="sum", phase="dcg")
    if sigma <= 0.0:
        # Zero or negative curvature is fatal unless the residual is already
        # negligible; in that case finish the round with a zero step so the
        # per-iteration communication pattern stays intact.
        residual_inf = float(np.abs(s.residual).max(initial=0.0))
        if residual_inf > eps:
            raise CurvatureBreakdown(sigma, residual_inf)
        step = 0.0
        forced = True
    else:
        step = s.eta / sigma
        forced = False

    total = fabric.neighbor_exchange(s.product, partner, phase="dcg")
    total += s.product
    s.lam += np.multiply(s.direction, step, out=s.scratch)
    total *= step
    s.residual -= total
    s.iteration += 1
    converged, eta = s.flag_round(eps, fabric, "dcg")
    s.direction *= eta / s.eta if s.eta > 0.0 else 0.0
    s.direction += s.residual
    s.eta = eta
    s.converged = converged or forced
    return s.converged


def dcg_solve(pieces: Sequence[CondensedAgent], partner: np.ndarray,
              lambda0: Sequence[np.ndarray] | None,
              eps: float, fabric: Fabric) -> DcgResult:
    """Drive the decentralized CG to ``max_i ||r_i||_inf < eps``.

    ``partner`` is the pieces' shared rows (see the module docstring).  The
    bootstrap (initial residual exchange and the flag round carrying the
    pre-loop convergence flags and the first ``eta``) is charged to the
    ``init`` phase so per-iteration accounting identities stay exact.
    Raises :class:`DcgIterationLimit` carrying the last iterate after
    ``3 n_c + 60`` iterations (``n_c`` coupling rows).
    """
    state = dcg_init(pieces, partner, lambda0, eps, fabric)
    cap = 3 * (partner.size // 2) + 60
    while not state.converged:
        if state.iteration == cap:
            raise DcgIterationLimit(
                lambdas=state.lambdas(),
                residual_inf=float(np.abs(state.residual).max(initial=0.0)),
                iterations=state.iteration)
        dcg_iterate(state, partner, fabric, eps)
    return DcgResult(lambdas=state.lambdas(), iterations=state.iteration)
