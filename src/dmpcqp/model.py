"""Networks of coupled discrete-time linear systems.

Each agent owns a linear system whose state update depends on its own state,
its own input, and the states of its in-neighbors:

    x_i+ = A_self x_i + B u_i + sum_j A_in[j] x_j .

The coupling structure is encoded by the keys of ``A_in``; out-neighbor sets
are derived as the transpose of that relation.  ``build_chain_of_masses``
constructs the spring-damper benchmark used throughout the tests and the
command line experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import require_integer, require_positive


def _as_matrix(value, rows, cols, name):
    arr = np.asarray(value, dtype=float)
    if arr.shape != (rows, cols):
        raise ValueError(f"{name} must have shape {(rows, cols)}, got {arr.shape}")
    return arr


def _check_symmetric(mat, name):
    if not np.allclose(mat, mat.T, atol=1e-12, rtol=0.0):
        raise ValueError(f"{name} must be symmetric")


@dataclass(frozen=True)
class AgentModel:
    """Dynamics and cost data for one agent; every entry must be finite.

    Parameters
    ----------
    index : int
        Zero-based agent index; must match the position in the network.
    A_self : (n, n) array
        State transition block for the agent's own state.
    B : (n, m) array
        Input matrix.
    A_in : mapping int -> (n, n_j) array
        Coupling blocks keyed by in-neighbor index.
    u_lo, u_hi : (m,) arrays
        Componentwise input bounds with ``u_lo < 0 < u_hi``.
    Q, R : arrays
        Stage cost weights; symmetric positive definite.
    P : (n, n) array
        Terminal cost weight; symmetric positive semidefinite.
    """

    index: int
    A_self: np.ndarray
    B: np.ndarray
    A_in: Mapping[int, np.ndarray]
    u_lo: np.ndarray
    u_hi: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        who = f"agent {self.index}"
        A = np.asarray(self.A_self, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"{who}: A_self must be square")
        n = A.shape[0]
        B = np.asarray(self.B, dtype=float)
        if B.ndim != 2 or B.shape[0] != n or B.shape[1] == 0:
            raise ValueError(f"{who}: B must have n rows and at least one "
                             "column")
        m = B.shape[1]
        A_in = {j: np.asarray(blk, dtype=float)
                for j, blk in dict(self.A_in).items()}
        lo, hi = (np.asarray(v, dtype=float) for v in (self.u_lo, self.u_hi))
        for name, arr in (("u_lo", lo), ("u_hi", hi)):
            if arr.size != m:
                raise ValueError(f"{who}: {name} must have one entry per "
                                 f"input ({m}), got {arr.size}")
        lo, hi = lo.reshape(m), hi.reshape(m)
        Q = _as_matrix(self.Q, n, n, f"{who}: Q")
        R = _as_matrix(self.R, m, m, f"{who}: R")
        P = _as_matrix(self.P, n, n, f"{who}: P")
        for name, arr in (("A_self", A), ("B", B), *(
                (f"A_in[{j}]", blk) for j, blk in A_in.items()),
                ("u_lo", lo), ("u_hi", hi), ("Q", Q), ("R", R), ("P", P)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{who}: {name} must be finite")
        object.__setattr__(self, "A_self", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "A_in", A_in)
        if not (np.all(lo < 0.0) and np.all(hi > 0.0)):
            raise ValueError(f"{who}: input bounds must satisfy u_lo < 0 < "
                             "u_hi")
        object.__setattr__(self, "u_lo", lo)
        object.__setattr__(self, "u_hi", hi)
        for name, mat in (("Q", Q), ("R", R), ("P", P)):
            _check_symmetric(mat, f"{who}: {name}")
        if np.min(np.linalg.eigvalsh(Q)) <= 0.0:
            raise ValueError(f"{who}: Q must be positive definite")
        if np.min(np.linalg.eigvalsh(R)) <= 0.0:
            raise ValueError(f"{who}: R must be positive definite")
        if np.min(np.linalg.eigvalsh(P)) < -1e-12:
            raise ValueError(f"{who}: P must be positive semidefinite")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "P", P)

    @property
    def n(self) -> int:
        return self.A_self.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


class NetworkModel:
    """Immutable collection of agents with a consistent coupling topology."""

    def __init__(self, agents: Sequence[AgentModel]):
        agents = tuple(agents)
        if not agents:
            raise ValueError("network needs at least one agent")
        for pos, agent in enumerate(agents):
            if agent.index != pos:
                raise ValueError(
                    f"agent at position {pos} carries index {agent.index}"
                )
        self.agents = agents
        outgoing = {i: [] for i in range(len(agents))}
        for agent in agents:
            for j, block in agent.A_in.items():
                if not 0 <= j < len(agents):
                    raise ValueError(f"agent {agent.index}: unknown neighbor {j}")
                if j == agent.index:
                    raise ValueError(f"agent {agent.index}: self-coupling")
                _as_matrix(block, agent.n, agents[j].n,
                           f"A_in[{j}] of agent {agent.index}")
                outgoing[j].append(agent.index)
        self._out = {i: tuple(sorted(v)) for i, v in outgoing.items()}
        self._in = {a.index: tuple(sorted(a.A_in)) for a in agents}

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    def in_neighbors(self, i: int) -> tuple[int, ...]:
        """Agents whose state enters agent i's dynamics."""
        return self._in[i]

    def out_neighbors(self, i: int) -> tuple[int, ...]:
        """Agents whose dynamics depend on agent i's state."""
        return self._out[i]


@dataclass(frozen=True)
class PlantState:
    """Snapshot of all agent states at one sampling instant."""

    states: tuple[np.ndarray, ...]

    def __post_init__(self):
        states = (np.asarray(x, dtype=float) for x in self.states)
        # ravel would only wrap a contiguous 1-D array in a new view of it
        object.__setattr__(self, "states", tuple(
            x if x.ndim == 1 and x.flags.c_contiguous else x.ravel()
            for x in states))


def plant_step(net: NetworkModel, state: PlantState, inputs: Sequence[np.ndarray]) -> PlantState:
    """Advance every agent one sampling interval.

    Parameters
    ----------
    net : NetworkModel
    state : PlantState
        Current states; dimensions must match the network.
    inputs : sequence of (m_i,) arrays

    Returns
    -------
    PlantState
        States one sampling interval later.
    """
    if len(state.states) != net.n_agents or len(inputs) != net.n_agents:
        raise ValueError("state/input count does not match the network")
    nxt = []
    for agent in net.agents:
        x = state.states[agent.index]
        if x.shape != (agent.n,):
            raise ValueError(f"agent {agent.index}: state has shape {x.shape}")
        u = np.asarray(inputs[agent.index], dtype=float).reshape(agent.m)
        xp = agent.A_self @ x + agent.B @ u
        for j, block in sorted(agent.A_in.items()):
            xp = xp + block @ state.states[j]
        nxt.append(xp)
    return PlantState(states=tuple(nxt))


def build_chain_of_masses(
    n_masses: int,
    mass: float = 1.0,
    stiffness: float = 3.0,
    damping: float = 3.0,
    dt: float = 0.2,
    u_max: float = 1.0,
    q_diag: Sequence[float] = (10.0, 10.0),
    r_weight: float = 1.0,
    p_weight: float = 0.0,
) -> NetworkModel:
    """Chain of point masses coupled to their neighbors by spring-dampers.

    Mass ``i`` has state (position, velocity) and a force input.  Springs and
    dampers connect adjacent masses only; the chain ends are unattached.  The
    continuous dynamics are discretized with a forward Euler step of length
    ``dt``, giving for an interior mass

        A_self = [[1, dt], [-2 k dt / m, 1 - 2 d dt / m]],
        A_in   = [[0, 0], [k dt / m, d dt / m]],
        B      = [[0], [dt / m]].

    Parameters
    ----------
    n_masses : int
        Number of masses (at least 2).
    mass, stiffness, damping, dt, u_max : float
        Physical and discretization parameters.
    q_diag : length-2 sequence
        Diagonal of the stage state weight.
    r_weight : float
        Input weight.
    p_weight : float
        Diagonal terminal weight (0 disables the terminal penalty).
    """
    n_masses = require_integer("n_masses", n_masses, 2)
    for name, value in (("dt", dt), ("mass", mass), ("u_max", u_max)):
        require_positive(name, value)
    q_diag = tuple(float(q) for q in q_diag)
    if len(q_diag) != 2:
        raise ValueError("q_diag must have length 2")
    coupling = dt * np.array([[0.0, 0.0], [stiffness / mass, damping / mass]])
    agents = []
    for i in range(n_masses):
        neigh = [j for j in (i - 1, i + 1) if 0 <= j < n_masses]
        deg = len(neigh)
        A_self = np.array([
            [1.0, dt],
            [-deg * stiffness * dt / mass, 1.0 - deg * damping * dt / mass],
        ])
        agents.append(AgentModel(
            index=i,
            A_self=A_self,
            B=np.array([[0.0], [dt / mass]]),
            A_in={j: coupling.copy() for j in neigh},
            u_lo=np.array([-u_max]),
            u_hi=np.array([u_max]),
            Q=np.diag(q_diag),
            R=np.array([[float(r_weight)]]),
            P=float(p_weight) * np.eye(2),
        ))
    return NetworkModel(agents)
