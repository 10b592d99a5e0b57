"""The per-agent decentralized conjugate gradient, kept as the reference.

This is the solver :mod:`dmpcqp.dcg` replaced: one state object per agent
and per-pair payload dicts, with the shared positions found by the pairwise
search :func:`build_overlaps`.  The fabric's dict exchange it used is kept
here as :func:`neighbor_exchange`.  Tests require the flat solver to give
the same multipliers bit for bit, the same iteration counts and the same
ledger.  The solver's comments and docstrings are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from dmpcqp.dcg import DcgResult
from dmpcqp.errors import (CurvatureBreakdown, DcgIterationLimit,
                           InconsistentWarmStart)
from dmpcqp.fabric import Fabric


def build_overlaps(rows: Sequence[np.ndarray]) -> dict:
    """Positions ``{(a, b): (ia, ib)}``, ``rows[a][ia] == rows[b][ib]``, of
    the coupling rows (sorted and distinct per agent) each directed pair of
    agents shares.  Raises ``ValueError`` naming each row not held by
    exactly two agents."""
    counts = np.bincount(np.concatenate(rows))
    bad = np.flatnonzero((counts != 0) & (counts != 2))
    if bad.size:
        raise ValueError("coupling rows not shared by exactly two agents: "
                         f"{dict(zip(bad.tolist(), counts[bad].tolist()))}")
    overlaps = {}
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            shared, ia, ib = np.intersect1d(
                rows[a], rows[b], assume_unique=True, return_indices=True)
            if shared.size:
                overlaps[(a, b)], overlaps[(b, a)] = (ia, ib), (ib, ia)
    return overlaps


def neighbor_exchange(fabric: Fabric, payloads, phase="dcg"):
    """The fabric's dict exchange: deliver vectors between neighbor pairs,
    charging their total length as local floats in one round.

    ``payloads`` maps directed pairs ``(src, dst)`` to 1-D arrays."""
    total = 0
    for (src, dst), vec in payloads.items():
        if not (0 <= src < fabric.n_agents and 0 <= dst < fabric.n_agents):
            raise ValueError(f"neighbor_exchange: bad pair {(src, dst)}")
        total += np.asarray(vec).size
    fabric.ledger.charge(phase, local_floats=total)
    fabric.round_index += 1
    return dict(payloads)


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


def _exchange_shared(vectors, overlaps, fabric: Fabric, phase: str):
    """Send shared entries of per-agent vectors and sum them at receivers.

    Returns per-agent ``sum_j I_ij vectors_j`` including the own term.  Each
    entry of a receiver comes from exactly one sender, so every sum has two
    terms and does not depend on the order the shares arrive in.
    """
    payloads = {(src, dst): vectors[src][src_idx]
                for (src, dst), (src_idx, _) in overlaps.items()}
    delivered = neighbor_exchange(fabric, payloads, phase=phase)
    sums = [vec.copy() for vec in vectors]
    for (src, dst), (_, dst_idx) in overlaps.items():
        sums[dst][dst_idx] += delivered[(src, dst)]
    return sums


def dcg_init(pieces, overlaps,
             lambda0: Sequence[np.ndarray] | None,
             fabric: Fabric) -> list[DcgLocalState]:
    """Bootstrap the per-agent CG states for a warm-started multiplier.

    ``overlaps`` are the pieces' shared rows (see :func:`build_overlaps`).
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


def dcg_solve(pieces, overlaps,
              lambda0: Sequence[np.ndarray] | None,
              eps: float, fabric: Fabric) -> DcgResult:
    """Drive the decentralized CG to ``max_i ||r_i||_inf < eps``.

    ``overlaps`` are the pieces' shared rows (see :func:`build_overlaps`).  The
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
