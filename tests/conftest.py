"""Shared builders for randomized solver tests."""

import os
from collections import namedtuple

# One BLAS thread, set before numpy loads: floating-point results then do
# not depend on the core count, and the suite runs faster.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from dmpcqp import AgentModel, NetworkModel, build_chain_of_masses

from admm_reference import segment_max  # noqa: E402


def norm_inf(x):
    x = np.asarray(x)
    if x.size == 0:
        return 0.0
    return float(np.abs(x).max())


def assert_same_max(segments, values):
    """``segments.max(values)`` equals the reference ``segment_max`` in
    dtype, shape and bytes."""
    got = segments.max(values)
    want = segment_max(values, segments)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def spd_matrix(rng, n, scale=1.0):
    F = rng.normal(size=(n, n))
    return scale * (F @ F.T + n * np.eye(n))


def stable_matrix(rng, n, radius=0.9):
    A = rng.normal(size=(n, n))
    r = np.abs(np.linalg.eigvals(A)).max()
    return A * (radius / max(r, 1e-9))


def random_network(rng, n_agents=3, max_state=2, max_input=2,
                   edge_prob=0.6, coupling_scale=0.25, terminal_cost=True,
                   edges=None):
    """Random coupled network with mildly stable dynamics.

    ``edges`` are ``(copier, owner)`` pairs, each agent ``copier`` reading
    the state of ``owner``; when omitted they are drawn with ``edge_prob``,
    and always contain at least one coupling edge so the Schur system is
    non-trivial; decoupled corner cases get dedicated tests.
    """
    drawn = edges
    while True:
        dims = [int(rng.integers(1, max_state + 1)) for _ in range(n_agents)]
        if drawn is not None:
            break
        edges = [(i, j) for i in range(n_agents) for j in range(n_agents)
                 if i != j and rng.random() < edge_prob]
        if edges:
            break
    agents = []
    for i in range(n_agents):
        n = dims[i]
        m = int(rng.integers(1, max_input + 1))
        A_in = {j: coupling_scale * rng.normal(size=(n, dims[j]))
                for (dst, j) in edges if dst == i}
        if terminal_cost and rng.random() < 0.5:
            P = spd_matrix(rng, n, 0.1)
        else:
            P = np.zeros((n, n))
        agents.append(AgentModel(
            index=i,
            A_self=stable_matrix(rng, n, rng.uniform(0.5, 1.1)),
            B=rng.normal(size=(n, m)),
            A_in=A_in,
            u_lo=-rng.uniform(0.5, 2.0, size=m),
            u_hi=rng.uniform(0.5, 2.0, size=m),
            Q=spd_matrix(rng, n),
            R=spd_matrix(rng, m, 0.5),
            P=P,
        ))
    return NetworkModel(agents)


def network_with_isolated_agent(rng, n_agents):
    """A random network whose last agent has no coupling rows and whose
    others share at least one bidirectional edge."""
    linked = n_agents - 1
    edges = {(0, 1), (1, 0)}
    edges |= {(i, j) for i in range(linked) for j in range(linked)
              if i != j and rng.random() < rng.uniform(0.2, 0.8)}
    return random_network(rng, n_agents=n_agents, max_state=2, max_input=2,
                          edges=sorted(edges))


def dense_coupling(qp):
    """The agent's coupling rows as the dense +-1 matrix ``Cc``.

    The reference for the coupling plan's gathers and scatters, which
    replaced the products with this matrix.
    """
    coupled = qp.coupled
    matrix = np.zeros((coupled.rows.size, qp.size))
    matrix[np.arange(coupled.rows.size), coupled.cols] = coupled.signs
    return matrix


#: One block of coupling rows: ``copier`` copies ``owner``'s ``n_states``
#: states at every stage, in the rows from ``offset`` on.
CouplingEdge = namedtuple("CouplingEdge", "owner copier offset n_states")


def coupling_edges(net, horizon):
    """The network's coupling edges in the documented row order: for each
    copier in ascending index, for each of its in-neighbors in ascending
    index, a block of ``horizon * n_owner`` rows (stage-major)."""
    edges, offset = [], 0
    for copier in range(net.n_agents):
        for owner in net.in_neighbors(copier):
            n_states = net.agents[owner].n
            edges.append(CouplingEdge(owner, copier, offset, n_states))
            offset += horizon * n_states
    return edges


def dense_bounds(qp):
    """The agent's bound rows as the dense matrix ``C_ineq``, one signed
    unit row per bound, as the bound plan's gathers read them."""
    bounds = qp.bounds
    matrix = np.zeros((bounds.cols.size, qp.size))
    matrix[np.arange(bounds.cols.size), bounds.cols] = bounds.signs
    return matrix


def working_matrix(qp, work):
    """The working set's rows stacked densely: equalities, then the active
    bound rows."""
    return np.vstack([qp.eq_matrix, dense_bounds(qp)[list(work.active)]])


def tiny_network(rng):
    """Two single-input agents, at most 8 bound rows at horizon 2."""
    return random_network(rng, n_agents=2, max_state=2, max_input=1,
                          edge_prob=0.9)


def random_x0(rng, net, scale=1.0):
    return [scale * rng.normal(size=a.n) for a in net.agents]


@pytest.fixture(scope="session")
def chain10():
    return build_chain_of_masses(10)


@pytest.fixture(scope="session")
def chain3():
    return build_chain_of_masses(3)
