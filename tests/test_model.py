import re

import numpy as np
import pytest

from dmpcqp import (AgentModel, NetworkModel, PlantState, build_chain_of_masses,
                    plant_step)

from conftest import random_network, random_x0


def test_chain_interior_blocks(chain10):
    a5 = chain10.agents[5]
    np.testing.assert_allclose(a5.A_self, [[1.0, 0.2], [-1.2, -0.2]])
    np.testing.assert_allclose(a5.B, [[0.0], [0.2]])
    np.testing.assert_allclose(a5.A_in[4], [[0.0, 0.0], [0.6, 0.6]])
    np.testing.assert_allclose(a5.A_in[6], [[0.0, 0.0], [0.6, 0.6]])
    np.testing.assert_allclose(a5.Q, np.diag([10.0, 10.0]))
    np.testing.assert_allclose(a5.R, [[1.0]])
    np.testing.assert_allclose(a5.P, np.zeros((2, 2)))


def test_chain_end_blocks(chain10):
    for end in (0, 9):
        a = chain10.agents[end]
        np.testing.assert_allclose(a.A_self, [[1.0, 0.2], [-0.6, 0.4]])
        assert len(a.A_in) == 1
    assert chain10.in_neighbors(0) == (1,)
    assert chain10.in_neighbors(9) == (8,)
    assert chain10.in_neighbors(4) == (3, 5)


def test_chain_topology_is_symmetric(chain10):
    for i in range(chain10.n_agents):
        assert chain10.in_neighbors(i) == chain10.out_neighbors(i)


def test_chain_parameters_scale():
    net = build_chain_of_masses(4, mass=2.0, stiffness=1.0, damping=0.5,
                                dt=0.1, u_max=3.0)
    a = net.agents[1]
    # interior: two neighbors pull with k/m and d/m each
    np.testing.assert_allclose(a.A_self, [[1.0, 0.1], [-0.1, 0.95]])
    np.testing.assert_allclose(a.B, [[0.0], [0.05]])
    np.testing.assert_allclose(a.A_in[0], [[0.0, 0.0], [0.05, 0.025]])
    np.testing.assert_allclose(a.u_hi, [3.0])
    np.testing.assert_allclose(a.u_lo, [-3.0])


def test_agent_validation_rejects_bad_data():
    eye = np.eye(2)
    ok = dict(index=0, A_self=eye, B=np.ones((2, 1)), A_in={},
              u_lo=[-1.0], u_hi=[1.0], Q=eye, R=np.eye(1), P=np.zeros((2, 2)))
    AgentModel(**ok)

    with pytest.raises(ValueError):
        AgentModel(**{**ok, "A_self": np.ones((2, 3))})
    with pytest.raises(ValueError):
        AgentModel(**{**ok, "u_lo": [0.5]})
    with pytest.raises(ValueError):
        AgentModel(**{**ok, "u_hi": [-0.5]})
    with pytest.raises(ValueError):
        AgentModel(**{**ok, "Q": np.diag([1.0, 0.0])})
    with pytest.raises(ValueError):
        AgentModel(**{**ok, "Q": np.array([[1.0, 0.3], [0.0, 1.0]])})
    with pytest.raises(ValueError):
        AgentModel(**{**ok, "P": -eye})
    # a non-finite entry is named, before any sign or symmetry check
    ok["A_in"] = {1: eye}
    for name in ("A_self", "B", "A_in", "u_lo", "u_hi", "Q", "R", "P"):
        for bad in (np.nan, np.inf):
            if name == "A_in":
                value, label = {1: np.full((2, 2), bad)}, "A_in[1]"
            else:
                value, label = np.array(ok[name], dtype=float), name
                value[(0,) * value.ndim] = bad
            message = re.escape(f"agent 0: {label} must be finite")
            with pytest.raises(ValueError, match=message):
                AgentModel(**{**ok, name: value})


def test_agent_without_inputs_is_rejected_by_name():
    """An agent whose ``B`` has no columns is rejected by a named check,
    not by numpy's reduction over the empty ``R``."""
    with pytest.raises(ValueError, match=re.escape(
            "agent 3: B must have n rows and at least one column")):
        AgentModel(index=3, A_self=np.eye(1), B=np.zeros((1, 0)), A_in={},
                   u_lo=np.zeros(0), u_hi=np.zeros(0), Q=np.eye(1),
                   R=np.zeros((0, 0)), P=np.eye(1))


def test_network_validation():
    eye = np.eye(1)
    def agent(idx, a_in):
        return AgentModel(index=idx, A_self=eye * 0.5, B=eye, A_in=a_in,
                          u_lo=[-1.0], u_hi=[1.0], Q=eye, R=eye,
                          P=np.zeros((1, 1)))

    with pytest.raises(ValueError):
        NetworkModel([agent(1, {})])            # index mismatch
    with pytest.raises(ValueError):
        NetworkModel([agent(0, {5: eye})])      # unknown neighbor
    with pytest.raises(ValueError):
        NetworkModel([agent(0, {0: eye})])      # self-coupling
    with pytest.raises(ValueError):
        NetworkModel([])


def test_out_neighbors_transpose_in_neighbors():
    rng = np.random.default_rng(3)
    for _ in range(10):
        net = random_network(rng, n_agents=4)
        for i in range(net.n_agents):
            for j in net.in_neighbors(i):
                assert i in net.out_neighbors(j)
            for j in net.out_neighbors(i):
                assert i in net.in_neighbors(j)


def test_plant_step_matches_block_matrix():
    rng = np.random.default_rng(11)
    net = random_network(rng, n_agents=3)
    x0 = random_x0(rng, net)
    u = [rng.normal(size=a.m) for a in net.agents]
    nxt = plant_step(net, PlantState(states=tuple(x0)), u)

    dims = [a.n for a in net.agents]
    offs = np.concatenate([[0], np.cumsum(dims)])
    A = np.zeros((offs[-1], offs[-1]))
    for a in net.agents:
        i = a.index
        A[offs[i]:offs[i + 1], offs[i]:offs[i + 1]] = a.A_self
        for j, blk in a.A_in.items():
            A[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = blk
    xs = np.concatenate(x0)
    expect = A @ xs + np.concatenate([a.B @ u[a.index] for a in net.agents])
    np.testing.assert_allclose(np.concatenate(nxt.states), expect, atol=1e-13)


def test_plant_state_keeps_flat_float_states():
    """A 1-D float state is stored as given; other states are flattened to
    float, aliasing their input only where ``ravel`` gives a view."""
    flat = np.array([1.0, 2.0])
    column = np.array([[3.0], [4.0]])
    strided = np.arange(6.0)[::2]
    state = PlantState(states=(flat, column, [5, 6], strided))
    assert state.states[0] is flat
    assert state.states[1].shape == (2,)
    assert np.shares_memory(state.states[1], column)
    assert state.states[2].dtype == np.float64
    assert state.states[2].tolist() == [5.0, 6.0]
    assert state.states[3].tolist() == [0.0, 2.0, 4.0]
    assert not np.shares_memory(state.states[3], strided)


def test_plant_step_zero_fixed_point(chain3):
    state = PlantState(states=tuple(np.zeros(2) for _ in range(3)))
    nxt = plant_step(net=chain3, state=state, inputs=[np.zeros(1)] * 3)
    for x in nxt.states:
        np.testing.assert_array_equal(x, np.zeros(2))
