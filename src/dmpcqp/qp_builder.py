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
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .condense import AgentBounds, AgentCoupling, FactorCache
from .model import NetworkModel, PlantState, plant_step


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


def build_partner(rows: Sequence[np.ndarray]) -> np.ndarray:
    """The partner index of the concatenated coupling rows (sorted and
    distinct per agent): entry ``e`` and ``partner[e]`` hold the same row in
    two different agents.  Raises ``ValueError`` naming each row not held by
    exactly two agents."""
    flat = np.concatenate(rows)
    counts = np.bincount(flat)
    bad = np.flatnonzero((counts != 0) & (counts != 2))
    if bad.size:
        raise ValueError("coupling rows not shared by exactly two agents: "
                         f"{dict(zip(bad.tolist(), counts[bad].tolist()))}")
    # the two holders of a row are adjacent in row order
    order = np.argsort(flat, kind="stable")
    partner = np.empty_like(order)
    partner[order[0::2]], partner[order[1::2]] = order[1::2], order[0::2]
    return partner


class Segments(tuple):
    """End-to-end segments of an agent-major flat layout, one per agent,
    from the agents' sizes: the tuple of their slices, in agent order, and
    ``ends``, their stops, so ``ends[-1]`` is the layout's length."""

    def __new__(cls, sizes: Iterable[int]):
        offsets = np.cumsum([0, *sizes])
        ends = tuple(offsets[1:].tolist())
        self = super().__new__(cls, map(slice, (0,) + ends[:-1], ends))
        self.ends = ends
        # max skips empty segments: reduceat gives them the next one's entry
        self._held = np.flatnonzero(np.diff(offsets))
        self._starts = offsets[self._held]
        return self

    def max(self, values: np.ndarray) -> np.ndarray:
        """Each segment's maximum over ``values``' last axis, 0 if empty."""
        if self._held.size == len(self):
            return np.maximum.reduceat(values, self._starts, axis=-1)
        out = np.zeros((len(self),) + values.shape[:-1])
        out[self._held] = np.maximum.reduceat(values, self._starts, axis=-1).T
        return out.T

    def split(self, x: np.ndarray) -> list[np.ndarray]:
        """``x``, on this layout, as one view per segment."""
        return np.split(x, self.ends[:-1])


@dataclass(frozen=True)
class CouplingIndex:
    """The network's coupling plan, built and checked once per network.

    ``agents[i]`` locates agent ``i``'s share of the ``n_coupling`` rows.
    The plan's flat layout concatenates every agent's entries of its rows,
    agent ``i``'s in ``segments[i]`` (both layouts here are
    :class:`Segments`), and ``partner`` (see :func:`build_partner`) maps
    each entry to the same row at its other holder; entry ``e`` reads
    ``signs[e]`` times column ``columns[e]`` of the agents' stacked
    decision vectors, agent ``i``'s in ``blocks[i]``.  For
    ADMM, ``owned`` are the owners' entries (ascending), ``copied[k]`` the
    other entry of ``owned[k]``'s row, ``slots[k]`` numbers the owned state
    that ``owned[k]`` reads, ``n_copies`` counts each slot's copiers, and
    ``shift_src[e]`` is the stacked column entry ``e`` reads one stage
    later (the owner's last stage reads its terminal state, and a copier's
    last stage, with no later stage, is ``-1``).
    """

    n_coupling: int
    agents: tuple[AgentCoupling, ...]
    segments: Segments
    partner: np.ndarray
    columns: np.ndarray
    blocks: Segments
    signs: np.ndarray
    owned: np.ndarray
    copied: np.ndarray
    slots: np.ndarray
    n_copies: np.ndarray
    shift_src: np.ndarray


def build_coupling_index(net: NetworkModel, horizon: int) -> CouplingIndex:
    """The :class:`CouplingIndex` of ``net``; an edge's row ``k n + c``
    ties the owner's state ``x^k_c`` to the copier's copy of it."""
    layouts = [_layout_for(net, i, horizon) for i in range(net.n_agents)]
    # per row: its (owner, copier), the column each of them reads, its
    # stage width and whether it is in the last stage
    holders, cols, widths, last = [], [], [], []
    for copier, lay in enumerate(layouts):
        for owner, n_owner in zip(lay.in_neighbors, lay.neighbor_dims):
            width = horizon * n_owner
            holders += [(owner, copier)] * width
            start = lay.v_block_slice(owner).start
            cols += [(k, start + k) for k in range(width)]
            widths += [n_owner] * width
            last += [k >= width - n_owner for k in range(width)]
    holders = np.array(holders, dtype=int).reshape(-1, 2)
    cols = np.array(cols, dtype=int).reshape(-1, 2)
    agents = []
    for i, lay in enumerate(layouts):
        # ascending rows; side 0 is the owner's entry (+1), 1 the copy (-1)
        rows, side = np.nonzero(holders == i)
        agents.append(AgentCoupling(rows=rows, cols=cols[rows, side],
                                    signs=1.0 - 2.0 * side, size=lay.size))
    signs = np.concatenate([a.signs for a in agents])
    owned = np.flatnonzero(signs > 0)
    blocks = Segments(lay.size for lay in layouts)
    columns = np.concatenate([block.start + a.cols for block, a in
                              zip(blocks, agents)])
    _, slots, n_copies = np.unique(columns[owned], return_inverse=True,
                                   return_counts=True)
    rows = np.concatenate([a.rows for a in agents])
    # one stage later is one stage width on: the owner's last stage reads
    # its terminal state, and a copy has no stage after its last
    copier_last = (signs < 0) & np.array(last, dtype=bool)[rows]
    partner = build_partner([a.rows for a in agents])
    return CouplingIndex(
        n_coupling=len(holders), agents=tuple(agents),
        segments=Segments(a.rows.size for a in agents),
        partner=partner, columns=columns, blocks=blocks,
        signs=signs, owned=owned, copied=partner[owned], slots=slots,
        n_copies=n_copies,
        shift_src=np.where(copier_last, -1,
                           columns + np.array(widths, dtype=int)[rows]))


@dataclass(frozen=True)
class AgentQP:
    """One agent's share of the partially separable QP.

    Inequalities are the input box ``bounds``, one signed unit row per bound
    with right-hand side ``ineq_rhs`` (all upper bounds first, then all
    lower bounds, each block ordered by time step then input component).
    ``coupling`` is the network's shared plan and ``coupled`` this agent's
    rows in it (none in ADMM's augmented QP).  No dense copy of either
    kind of row is kept.

    ``factors`` caches the working-set factors of :mod:`~dmpcqp.condense`.
    It is kept only while it is bound to this QP's ``hessian``,
    ``eq_matrix``, ``bounds`` and ``coupled``: a
    ``dataclasses.replace`` that keeps them (such as
    :func:`update_initial_state`) shares the cache, and one that changes
    any of them starts a fresh one.
    """

    index: int
    layout: VariableLayout
    hessian: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    bounds: AgentBounds
    ineq_rhs: np.ndarray
    coupling: CouplingIndex = field(repr=False)
    coupled: AgentCoupling
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
        return self.ineq_rhs.size

    @property
    def n_coupling(self) -> int:
        return self.coupling.n_coupling


def _initial_state(x0, n_states: int, index: int) -> np.ndarray:
    """``x0`` as agent ``index``'s ``(n_states,)`` float state; a NaN or
    infinite entry raises ``ValueError`` naming the agent."""
    x0 = np.asarray(x0, dtype=float).reshape(n_states)
    if not np.isfinite(x0).all():
        raise ValueError(f"agent {index}: initial state must be finite, "
                         f"got {x0}")
    return x0


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
        Measured state entering the initial-condition rows; a NaN or
        infinite entry raises ``ValueError``.
    coupling : CouplingIndex, optional
        The network's coupling plan; built when omitted.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    agent = net.agents[i]
    layout = _layout_for(net, i, horizon)
    x0 = _initial_state(x0, agent.n, i)
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

    # row k m + c of either side bounds input c at stage k
    rows = np.arange(2 * N * m)
    bounds = AgentBounds(
        cols=layout.u_offset + rows % (N * m),
        signs=np.repeat([1.0, -1.0], N * m),
        shifted=np.where(rows % (N * m) >= m, rows - m, -1))
    b_ineq = np.concatenate([np.tile(agent.u_hi, N), -np.tile(agent.u_lo, N)])

    return AgentQP(
        index=i, layout=layout, hessian=H,
        eq_matrix=C_eq, eq_rhs=b_eq, bounds=bounds, ineq_rhs=b_ineq,
        coupling=coupling, coupled=coupling.agents[i],
    )


def build_network_qps(net: NetworkModel, horizon: int,
                      x0s: Sequence[np.ndarray]) -> list[AgentQP]:
    """Build all agent QPs against one shared coupling plan."""
    if len(x0s) != net.n_agents:
        raise ValueError("one initial state per agent required")
    coupling = build_coupling_index(net, horizon)
    return [build_agent_qp(net, i, horizon, x0s[i], coupling)
            for i in range(net.n_agents)]


def update_initial_state(qp: AgentQP, x0: np.ndarray) -> AgentQP:
    """Return a copy of ``qp`` with new initial-condition rows.

    The copy shares ``qp``'s working-set factors, which do not depend on
    the initial state.  A NaN or infinite entry of ``x0`` raises
    ``ValueError`` naming the agent.
    """
    x0 = _initial_state(x0, qp.layout.n_states, qp.index)
    b = qp.eq_rhs.copy()
    b[:qp.layout.n_states] = x0
    return dataclasses.replace(qp, eq_rhs=b)


def closed_loop(net: NetworkModel, qps: Sequence[AgentQP],
                x0s: Sequence[np.ndarray], steps: int, step):
    """Receding-horizon control of the plant from ``x0s``.

    Each sample calls ``step(qps, states, warm, t) -> (zs, warm, sample)``
    with the measured per-agent states and the previous sample's ``warm``
    (``None`` at the first), applies every agent's first input move of
    ``zs`` with :func:`~dmpcqp.model.plant_step` and moves the QPs to the
    new state.  Returns ``(states, inputs, samples)``: per time step the
    per-agent states (``steps + 1`` entries) and inputs, and each sample's
    ``sample``.
    """
    state = PlantState(states=tuple(x0s))
    states = [list(state.states)]
    inputs = []
    samples = []
    warm = None
    for t in range(steps):
        zs, warm, sample = step(qps, state.states, warm, t)
        u = [z[qp.layout.u_slice(0)] for z, qp in zip(zs, qps)]
        state = plant_step(net, state, u)
        states.append(list(state.states))
        inputs.append(u)
        samples.append(sample)
        qps = [update_initial_state(qp, x)
               for qp, x in zip(qps, state.states)]
    return states, inputs, samples


@dataclass(frozen=True)
class StackedQp:
    """All agents' blocks stacked into one flat QP: minimize ``0.5 z' H z``
    subject to ``eq_matrix z = eq_rhs`` and ``ineq_matrix z <= ineq_rhs``.

    The equality rows are the agents' rows, agent-major, followed by the
    coupling rows with a zero right-hand side.  The matrices are
    ``scipy.sparse`` CSR arrays."""

    hessian: sp.csr_array
    eq_matrix: sp.csr_array
    eq_rhs: np.ndarray
    ineq_matrix: sp.csr_array
    ineq_rhs: np.ndarray

    @property
    def size(self) -> int:
        return self.hessian.shape[0]


def _sparse(shape, entries) -> sp.csr_array:
    """CSR array from ``(rows, cols, values)`` triplets."""
    rows, cols, vals = (np.concatenate(part) for part in zip(*entries))
    return sp.csr_array((vals, (rows, cols)), shape=shape)


def _block(row0, col0, block):
    """Triplets of a dense block's nonzeros placed at ``(row0, col0)``."""
    rows, cols = np.nonzero(block)
    return rows + row0, cols + col0, block[rows, cols]


def stack_global(qps: Sequence[AgentQP]) -> StackedQp:
    """Stack per-agent QPs into global sparse matrices (agent-major
    ordering), the bound and coupling rows from their plans."""
    n_c = {qp.n_coupling for qp in qps}
    if len(n_c) != 1:
        raise ValueError("agents disagree on the number of coupling rows")
    cols = qps[0].coupling.blocks
    eq_rows = Segments(qp.n_eq for qp in qps)
    ineq_rows = Segments(qp.n_ineq for qp in qps)
    nz, n_eq, n_c = cols.ends[-1], eq_rows.ends[-1], qps[0].n_coupling
    blocks = [(qp, off.start, eo.start, io.start)
              for qp, off, eo, io in zip(qps, cols, eq_rows, ineq_rows)]
    return StackedQp(
        hessian=_sparse((nz, nz), [_block(off, off, qp.hessian)
                                   for qp, off, _, _ in blocks]),
        eq_matrix=_sparse((n_eq + n_c, nz), [
            _block(eo, off, qp.eq_matrix) for qp, off, eo, _ in blocks] + [
            (n_eq + qp.coupled.rows, off + qp.coupled.cols, qp.coupled.signs)
            for qp, off, _, _ in blocks]),
        eq_rhs=np.concatenate([qp.eq_rhs for qp in qps] + [np.zeros(n_c)]),
        ineq_matrix=_sparse((ineq_rows.ends[-1], nz), [
            (io + np.arange(qp.n_ineq), off + qp.bounds.cols, qp.bounds.signs)
            for qp, off, _, io in blocks]),
        ineq_rhs=np.concatenate([qp.ineq_rhs for qp in qps]),
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
    state = PlantState(tuple(x0s))
    traj = [state.states]
    for k in range(horizon):
        state = plant_step(net, state, [u[k] for u in inputs])
        traj.append(state.states)
    # per agent its states x^0 .. x^N as one (horizon + 1, n_i) block
    states = [np.array([x[i] for x in traj]) for i in range(M)]
    zs = []
    for i in range(M):
        layout = _layout_for(net, i, horizon)
        z = np.zeros(layout.size)
        z[:layout.u_offset] = states[i].ravel()
        z[layout.u_offset:layout.v_offset] = np.ravel(inputs[i])
        for j in layout.in_neighbors:
            z[layout.v_block_slice(j)] = states[j][:horizon].ravel()
        zs.append(z)
    return zs
