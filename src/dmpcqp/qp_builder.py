"""Per-agent QP assembly for finite-horizon optimal control over a network.

Each agent optimizes over its own predicted states, inputs, and local copies
of the in-neighbor state trajectories.  The per-agent decision vector is laid
out as

    z_i = [x_i^0 .. x_i^{N-1} | x_i^N | u_i^0 .. u_i^{N-1} | v_i]

where ``v_i`` stacks one copied trajectory per in-neighbor, ordered by
ascending neighbor index and, inside each copy, by time step.  Consensus
between owned states and their copies is expressed through a shared set of
coupling rows ``sum_i C_i z_i = 0`` with +1 on the owner's state entry and
-1 on the copier's entry.  Rows are ordered edge-major: for each copier in
ascending index, for each of its in-neighbors in ascending index, then by
time step, then by state component.

Stage costs are spread across copies: the state weight of agent ``j``
appears scaled by ``1 / (|out(j)| + 1)`` in agent ``j``'s own block and in
every copy held by an out-neighbor, so the summed objective over consistent
trajectories equals the sum of the nominal per-agent costs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .condense import FactorCache
from .model import NetworkModel


@dataclass(frozen=True)
class VariableLayout:
    """Index arithmetic for one agent's decision vector."""

    horizon: int
    n_states: int
    n_inputs: int
    in_neighbors: tuple[int, ...]
    neighbor_dims: tuple[int, ...]

    @property
    def copy_width(self) -> int:
        """Total copied state dimension per time step."""
        return sum(self.neighbor_dims)

    @property
    def size(self) -> int:
        N, n, m = self.horizon, self.n_states, self.n_inputs
        return (N + 1) * n + N * (m + self.copy_width)

    @property
    def u_offset(self) -> int:
        return (self.horizon + 1) * self.n_states

    @property
    def v_offset(self) -> int:
        return self.u_offset + self.horizon * self.n_inputs

    def x_slice(self, k: int) -> slice:
        """States at step k; ``k == horizon`` addresses the terminal state."""
        if not 0 <= k <= self.horizon:
            raise IndexError(f"step {k} outside horizon {self.horizon}")
        return slice(k * self.n_states, (k + 1) * self.n_states)

    def u_slice(self, k: int) -> slice:
        if not 0 <= k < self.horizon:
            raise IndexError(f"step {k} outside horizon {self.horizon}")
        base = self.u_offset + k * self.n_inputs
        return slice(base, base + self.n_inputs)

    def v_block_slice(self, j: int) -> slice:
        """Full copied trajectory of in-neighbor j."""
        pos = self.in_neighbors.index(j)
        start = self.v_offset + self.horizon * sum(self.neighbor_dims[:pos])
        return slice(start, start + self.horizon * self.neighbor_dims[pos])

    def v_slice(self, j: int, k: int) -> slice:
        if not 0 <= k < self.horizon:
            raise IndexError(f"step {k} outside horizon {self.horizon}")
        pos = self.in_neighbors.index(j)
        nj = self.neighbor_dims[pos]
        start = self.v_block_slice(j).start + k * nj
        return slice(start, start + nj)


@dataclass(frozen=True)
class CouplingEdge:
    owner: int
    copier: int
    offset: int
    n_states: int


@dataclass(frozen=True)
class CouplingIndex:
    """Global row numbering of the consensus constraints."""

    horizon: int
    n_coupling: int
    edges: tuple[CouplingEdge, ...]
    rows_by_agent: tuple[np.ndarray, ...]

    def rows_of(self, i: int) -> np.ndarray:
        """Sorted global coupling rows touching agent i."""
        return self.rows_by_agent[i]


def build_coupling_index(net: NetworkModel, horizon: int) -> CouplingIndex:
    edges = []
    offset = 0
    touched = [[] for _ in range(net.n_agents)]
    for copier in range(net.n_agents):
        for owner in net.in_neighbors(copier):
            n_owner = net.agents[owner].n
            edges.append(CouplingEdge(owner, copier, offset, n_owner))
            rows = range(offset, offset + horizon * n_owner)
            touched[owner].extend(rows)
            touched[copier].extend(rows)
            offset += horizon * n_owner
    rows_by_agent = tuple(np.array(sorted(r), dtype=int) for r in touched)
    return CouplingIndex(horizon=horizon, n_coupling=offset,
                         edges=tuple(edges), rows_by_agent=rows_by_agent)


@dataclass(frozen=True)
class AgentQP:
    """One agent's share of the partially separable QP.

    Inequalities are one-sided rows ``ineq_matrix @ z <= ineq_rhs`` holding
    the input box (all upper bounds first, then all lower bounds, each block
    ordered by time step then input component).  ``cpl_matrix`` has one row
    per global coupling row; ``cpl_local`` is its dense restriction to the
    rows in ``coupled_rows``.

    ``factors`` caches the working-set factors of :mod:`~dmpcqp.condense`.
    It is kept only while it is bound to this QP's ``hessian``,
    ``eq_matrix``, ``ineq_matrix`` and ``cpl_local``: a
    ``dataclasses.replace`` that keeps them (such as
    :func:`update_initial_state`) shares the cache, and one that changes
    any of them starts a fresh one.
    """

    index: int
    layout: VariableLayout
    hessian: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    ineq_matrix: np.ndarray
    ineq_rhs: np.ndarray
    cpl_matrix: sp.csr_matrix
    cpl_local: np.ndarray
    coupled_rows: np.ndarray
    factors: FactorCache | None = field(default=None, compare=False,
                                        repr=False)

    def __post_init__(self):
        if self.factors is None or not self.factors.bound_to(self):
            object.__setattr__(self, "factors", FactorCache(self))

    @property
    def size(self) -> int:
        return self.layout.size

    @property
    def n_eq(self) -> int:
        return self.eq_matrix.shape[0]

    @property
    def n_ineq(self) -> int:
        return self.ineq_matrix.shape[0]

    @property
    def n_coupling(self) -> int:
        return self.cpl_matrix.shape[0]


def _layout_for(net: NetworkModel, i: int, horizon: int) -> VariableLayout:
    agent = net.agents[i]
    in_n = net.in_neighbors(i)
    return VariableLayout(
        horizon=horizon,
        n_states=agent.n,
        n_inputs=agent.m,
        in_neighbors=in_n,
        neighbor_dims=tuple(net.agents[j].n for j in in_n),
    )


def build_agent_qp(net: NetworkModel, i: int, horizon: int, x0: np.ndarray,
                   coupling: CouplingIndex | None = None) -> AgentQP:
    """Assemble agent ``i``'s Hessian, constraints and coupling rows.

    Parameters
    ----------
    net : NetworkModel
    i : int
        Agent index.
    horizon : int
        Prediction horizon (number of input moves).
    x0 : (n_i,) array
        Measured state entering the initial-condition rows.
    coupling : CouplingIndex, optional
        Precomputed global coupling index; rebuilt when omitted.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    agent = net.agents[i]
    layout = _layout_for(net, i, horizon)
    x0 = np.asarray(x0, dtype=float).reshape(agent.n)
    if coupling is None:
        coupling = build_coupling_index(net, horizon)
    N, n, m = horizon, agent.n, agent.m
    nz = layout.size

    H = np.zeros((nz, nz))
    w_own = 1.0 / (len(net.out_neighbors(i)) + 1)
    for k in range(N):
        H[layout.x_slice(k), layout.x_slice(k)] = w_own * agent.Q
    H[layout.x_slice(N), layout.x_slice(N)] = agent.P
    for k in range(N):
        H[layout.u_slice(k), layout.u_slice(k)] = agent.R
    for j in layout.in_neighbors:
        w = 1.0 / (len(net.out_neighbors(j)) + 1)
        for k in range(N):
            H[layout.v_slice(j, k), layout.v_slice(j, k)] = w * net.agents[j].Q

    n_eq = n + N * n
    C_eq = np.zeros((n_eq, nz))
    b_eq = np.zeros(n_eq)
    C_eq[:n, layout.x_slice(0)] = np.eye(n)
    b_eq[:n] = x0
    for k in range(N):
        rows = slice(n + k * n, n + (k + 1) * n)
        C_eq[rows, layout.x_slice(k + 1)] = np.eye(n)
        C_eq[rows, layout.x_slice(k)] = -agent.A_self
        C_eq[rows, layout.u_slice(k)] = -agent.B
        for j in layout.in_neighbors:
            C_eq[rows, layout.v_slice(j, k)] = -agent.A_in[j]

    C_ineq = np.zeros((2 * N * m, nz))
    b_ineq = np.zeros(2 * N * m)
    for k in range(N):
        for c in range(m):
            row = k * m + c
            col = layout.u_slice(k).start + c
            C_ineq[row, col] = 1.0
            b_ineq[row] = agent.u_hi[c]
            C_ineq[N * m + row, col] = -1.0
            b_ineq[N * m + row] = -agent.u_lo[c]

    rows, cols, vals = [], [], []
    for edge in coupling.edges:
        if edge.owner == i:
            for k in range(N):
                base = edge.offset + k * edge.n_states
                xs = layout.x_slice(k).start
                for c in range(edge.n_states):
                    rows.append(base + c)
                    cols.append(xs + c)
                    vals.append(1.0)
        if edge.copier == i:
            for k in range(N):
                base = edge.offset + k * edge.n_states
                vs = layout.v_slice(edge.owner, k).start
                for c in range(edge.n_states):
                    rows.append(base + c)
                    cols.append(vs + c)
                    vals.append(-1.0)
    cpl = sp.csr_matrix((vals, (rows, cols)),
                        shape=(coupling.n_coupling, nz))
    coupled_rows = coupling.rows_of(i)
    cpl_local = cpl[coupled_rows].toarray() if coupled_rows.size else \
        np.zeros((0, nz))

    return AgentQP(
        index=i, layout=layout, hessian=H,
        eq_matrix=C_eq, eq_rhs=b_eq,
        ineq_matrix=C_ineq, ineq_rhs=b_ineq,
        cpl_matrix=cpl, cpl_local=cpl_local, coupled_rows=coupled_rows,
    )


def build_network_qps(net: NetworkModel, horizon: int,
                      x0s: Sequence[np.ndarray]) -> list[AgentQP]:
    """Build all agent QPs against one shared coupling index."""
    if len(x0s) != net.n_agents:
        raise ValueError("one initial state per agent required")
    coupling = build_coupling_index(net, horizon)
    return [build_agent_qp(net, i, horizon, x0s[i], coupling)
            for i in range(net.n_agents)]


def update_initial_state(qp: AgentQP, x0: np.ndarray) -> AgentQP:
    """Return a copy of ``qp`` with new initial-condition rows.

    The copy shares ``qp``'s working-set factors, which do not depend on
    the initial state.
    """
    x0 = np.asarray(x0, dtype=float).reshape(qp.layout.n_states)
    b = qp.eq_rhs.copy()
    b[:qp.layout.n_states] = x0
    return dataclasses.replace(qp, eq_rhs=b)


@dataclass(frozen=True)
class StackedQp:
    """All agents' blocks stacked into one flat QP (coupling kept separate)."""

    hessian: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    ineq_matrix: np.ndarray
    ineq_rhs: np.ndarray
    cpl_matrix: np.ndarray
    offsets: tuple[int, ...]
    eq_offsets: tuple[int, ...]
    ineq_offsets: tuple[int, ...]
    sizes: tuple[int, ...]

    def split(self, z: np.ndarray) -> list[np.ndarray]:
        return [z[o:o + s] for o, s in zip(self.offsets, self.sizes)]

    def join(self, parts: Sequence[np.ndarray]) -> np.ndarray:
        return np.concatenate([np.asarray(p, dtype=float) for p in parts])


def stack_global(qps: Sequence[AgentQP]) -> StackedQp:
    """Stack per-agent QPs into global matrices (agent-major ordering)."""
    n_c = {qp.n_coupling for qp in qps}
    if len(n_c) != 1:
        raise ValueError("agents disagree on the number of coupling rows")
    sizes = tuple(qp.size for qp in qps)
    offsets = tuple(int(o) for o in np.concatenate(([0], np.cumsum(sizes)[:-1])))
    eq_sizes = [qp.n_eq for qp in qps]
    ineq_sizes = [qp.n_ineq for qp in qps]
    eq_offsets = tuple(int(o) for o in
                       np.concatenate(([0], np.cumsum(eq_sizes)[:-1])))
    ineq_offsets = tuple(int(o) for o in
                         np.concatenate(([0], np.cumsum(ineq_sizes)[:-1])))
    nz = sum(sizes)
    H = np.zeros((nz, nz))
    C_eq = np.zeros((sum(eq_sizes), nz))
    C_ineq = np.zeros((sum(ineq_sizes), nz))
    for qp, off, eo, io in zip(qps, offsets, eq_offsets, ineq_offsets):
        H[off:off + qp.size, off:off + qp.size] = qp.hessian
        C_eq[eo:eo + qp.n_eq, off:off + qp.size] = qp.eq_matrix
        C_ineq[io:io + qp.n_ineq, off:off + qp.size] = qp.ineq_matrix
    cpl = sp.hstack([qp.cpl_matrix for qp in qps]).toarray()
    return StackedQp(
        hessian=H,
        eq_matrix=C_eq,
        eq_rhs=np.concatenate([qp.eq_rhs for qp in qps]),
        ineq_matrix=C_ineq,
        ineq_rhs=np.concatenate([qp.ineq_rhs for qp in qps]),
        cpl_matrix=cpl,
        offsets=offsets,
        eq_offsets=eq_offsets,
        ineq_offsets=ineq_offsets,
        sizes=sizes,
    )


def rollout_feasible_point(net: NetworkModel, horizon: int,
                           x0s: Sequence[np.ndarray],
                           inputs: Sequence[np.ndarray] | None = None
                           ) -> list[np.ndarray]:
    """Feasible decision vectors from simulating the coupled dynamics.

    Simulates all agents jointly for ``horizon`` steps under the given input
    trajectories (zero when omitted, which always respects the input box)
    and fills each agent's copies with the true neighbor trajectories, so
    every equality, bound, and coupling row is satisfied.

    Parameters
    ----------
    inputs : sequence of (horizon, m_i) arrays, optional

    Returns
    -------
    list of per-agent decision vectors.
    """
    M = net.n_agents
    if inputs is None:
        inputs = [np.zeros((horizon, net.agents[i].m)) for i in range(M)]
    xs = [np.asarray(x0s[i], dtype=float).reshape(net.agents[i].n)
          for i in range(M)]
    traj = [[x.copy()] for x in xs]
    for k in range(horizon):
        nxt = []
        for agent in net.agents:
            u = np.asarray(inputs[agent.index][k], dtype=float)
            xp = agent.A_self @ traj[agent.index][k] + agent.B @ u
            for j, block in sorted(agent.A_in.items()):
                xp = xp + block @ traj[j][k]
            nxt.append(xp)
        for i in range(M):
            traj[i].append(nxt[i])
    zs = []
    for i in range(M):
        layout = _layout_for(net, i, horizon)
        z = np.zeros(layout.size)
        for k in range(horizon + 1):
            z[layout.x_slice(k)] = traj[i][k]
        for k in range(horizon):
            z[layout.u_slice(k)] = inputs[i][k]
        for j in layout.in_neighbors:
            for k in range(horizon):
                z[layout.v_slice(j, k)] = traj[j][k]
        zs.append(z)
    return zs
