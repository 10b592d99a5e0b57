"""Decentralized conjugate gradient for the coupling-multiplier system.

The aggregated system ``(sum_i S_i) lam = sum_i s_i`` over the coupling rows
is solved without ever assembling it: each agent keeps only the entries of
the multiplier, residual, and search direction on its own coupling rows
(every row is shared by exactly two agents).  Scalar curvature and residual
norms are formed from local contributions, the residual's weighted by one
half as every row is held twice, and combined through two coordinator sums
per iteration; matrix-vector products are completed by exchanging shared
entries with neighbors, at the ``overlaps`` of the network's coupling plan.
Per iteration the fabric charges ``4 M`` global floats, ``2 M`` global
booleans, and ``2 n_c`` local floats; the residual bootstrap before the
first iteration is charged to the ``init`` phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CurvatureBreakdown, DcgIterationLimit, InconsistentWarmStart
from .fabric import Fabric


@dataclass(frozen=True)
class SchurPiece:
    """One agent's compressed contribution to the aggregated system.

    The solver reads only these three attributes, so a
    :class:`~dmpcqp.condense.CondensedAgent` is accepted in its place.
    Where pieces share rows is passed beside them: the ``overlaps`` of the
    network's :class:`~dmpcqp.qp_builder.CouplingIndex` (built once per
    network), or :func:`~dmpcqp.qp_builder.build_overlaps` of their rows.
    """

    rows: np.ndarray
    schur: np.ndarray
    schur_rhs: np.ndarray


@dataclass
class DcgLocalState:
    """Per-agent conjugate-gradient state, compressed to the agent's rows."""

    schur: np.ndarray
    lam: np.ndarray
    residual: np.ndarray
    direction: np.ndarray
    eta: float = 0.0
    iteration: int = 0

    def residual_norm(self) -> float:
        return float(np.abs(self.residual).max(initial=0.0))


@dataclass(frozen=True)
class DcgResult:
    lambdas: list[np.ndarray]
    iterations: int


def _exchange_shared(vectors, overlaps, fabric: Fabric, phase: str):
    """Send shared entries of per-agent vectors and sum them at receivers.

    Returns per-agent ``sum_j I_ij vectors_j`` including the own term.  Each
    entry of a receiver comes from exactly one sender, so every sum has two
    terms and does not depend on the order the shares arrive in.
    """
    payloads = {(src, dst): vectors[src][src_idx]
                for (src, dst), (src_idx, _) in overlaps.items()}
    delivered = fabric.neighbor_exchange(payloads, phase=phase)
    sums = [vec.copy() for vec in vectors]
    for (src, dst), (_, dst_idx) in overlaps.items():
        sums[dst][dst_idx] += delivered[(src, dst)]
    return sums


def dcg_init(pieces: Sequence[SchurPiece], overlaps,
             lambda0: Sequence[np.ndarray] | None,
             fabric: Fabric) -> list[DcgLocalState]:
    """Bootstrap the per-agent CG states for a warm-started multiplier.

    ``overlaps`` are the pieces' shared rows (see :class:`SchurPiece`).
    Validates that the warm start agrees exactly on shared rows, then forms
    the initial residual ``r0 = s - S lam0`` with one neighbor exchange,
    charged to the ``init`` phase.
    """
    if lambda0 is None:
        lams = [np.zeros(p.rows.size) for p in pieces]
    else:
        lams = [np.asarray(l, dtype=float).reshape(p.rows.size).copy()
                for l, p in zip(lambda0, pieces)]
        for (a, b), (ia, ib) in overlaps.items():
            if a < b and not np.array_equal(lams[a][ia], lams[b][ib]):
                raise InconsistentWarmStart(
                    f"multiplier warm start differs between agents {a} and {b}")
    fabric.register_overlaps({pair: idx[0].size
                              for pair, idx in overlaps.items()})
    locals_ = [p.schur_rhs - p.schur @ lam for p, lam in zip(pieces, lams)]
    residuals = _exchange_shared(locals_, overlaps, fabric, "init")
    return [DcgLocalState(schur=p.schur, lam=lam, residual=res,
                          direction=res.copy())
            for p, lam, res in zip(pieces, lams, residuals)]


def dcg_iterate(states: Sequence[DcgLocalState], overlaps, fabric: Fabric,
                eps: float) -> bool:
    """One synchronous CG round; returns the aggregated convergence flag.

    The round reduces the residual weight ``eta`` (which also fixes the
    direction update of the previous round), then the curvature ``sigma``,
    takes the multiplier and residual steps, and finally exchanges
    convergence flags on the updated residual, all charged to the ``dcg``
    phase.
    """
    # every row is shared by exactly two agents, so each local share of the
    # residual norm carries weight one half
    etas = [float(s.residual @ (0.5 * s.residual)) for s in states]
    eta = fabric.global_reduce(etas, op="sum", phase="dcg")
    for s in states:
        if s.iteration == 0:
            s.direction = s.residual.copy()
        else:
            beta = eta / s.eta if s.eta > 0.0 else 0.0
            s.direction = s.residual + beta * s.direction
        s.eta = eta

    products = [s.schur @ s.direction for s in states]
    sigmas = [float(s.direction @ t) for s, t in zip(states, products)]
    sigma = fabric.global_reduce(sigmas, op="sum", phase="dcg")
    if sigma <= 0.0:
        # Zero or negative curvature is fatal unless the residual is already
        # negligible; in that case finish the round with a zero step so the
        # per-iteration communication pattern stays intact.
        residual_inf = max(s.residual_norm() for s in states)
        if residual_inf > eps:
            raise CurvatureBreakdown(sigma, residual_inf)
        step = 0.0
        forced = True
    else:
        step = eta / sigma
        forced = False

    summed = _exchange_shared(products, overlaps, fabric, "dcg")
    flags = []
    for s, total in zip(states, summed):
        s.lam = s.lam + step * s.direction
        s.residual = s.residual - step * total
        s.iteration += 1
        flags.append(s.residual_norm() < eps)
    return fabric.global_flags(flags, phase="dcg") or forced


def dcg_solve(pieces: Sequence[SchurPiece], overlaps,
              lambda0: Sequence[np.ndarray] | None,
              eps: float, fabric: Fabric) -> DcgResult:
    """Drive the decentralized CG to ``max_i ||r_i||_inf < eps``.

    ``overlaps`` are the pieces' shared rows (see :class:`SchurPiece`).  The
    bootstrap (initial residual exchange and the pre-loop convergence
    flags) is charged to the ``init`` phase so per-iteration accounting
    identities stay exact.  Raises :class:`DcgIterationLimit` carrying the
    best iterate after ``3 n_c + 60`` iterations (``n_c`` coupling rows).
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    states = dcg_init(pieces, overlaps, lambda0, fabric)
    n_c = sum(p.rows.size for p in pieces) // 2
    flags = [s.residual_norm() < eps for s in states]
    if fabric.global_flags(flags, phase="init"):
        return DcgResult(lambdas=[s.lam for s in states], iterations=0)
    for _ in range(3 * n_c + 60):
        if dcg_iterate(states, overlaps, fabric, eps):
            return DcgResult(lambdas=[s.lam for s in states],
                             iterations=states[0].iteration)
    raise DcgIterationLimit(
        lambdas=[s.lam for s in states],
        residual_inf=max(s.residual_norm() for s in states),
        iterations=states[0].iteration)
