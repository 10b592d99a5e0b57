import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dmpcqp import (PlantState, build_chain_of_masses, build_network_qps,
                    plant_step)
import dmpcqp.oracle
from dmpcqp.errors import SolverError
from dmpcqp.oracle import (_ratio_test, centralized_mpc_rollout, prepare_kkt,
                           solve_dense_qp)
from dmpcqp.qp_builder import StackedQp, rollout_feasible_point, stack_global

from conftest import norm_inf, random_network, random_x0, tiny_network
from oracle_reference import (InfeasibleProblem, cold_solve,
                              enumerate_active_sets, kkt_residual, objective,
                              phase1, ratio_test_loop, solve_dense,
                              stack_dense, stack_vstack)


def _dense_problem(seed, **kwargs):
    rng = np.random.default_rng(seed)
    net = random_network(rng, **kwargs)
    x0s = random_x0(rng, net)
    qps = build_network_qps(net, 3, x0s)
    return rng, stack_global(qps)


def test_solution_kkt_residual():
    """The solution's KKT residual is small, and the same on the sparse
    stacked QP and on its dense assembly."""
    for seed in (300, 301, 302):
        rng = np.random.default_rng(seed)
        net = random_network(rng)
        qps = build_network_qps(net, 3, random_x0(rng, net))
        dense = stack_global(qps)
        sol = cold_solve(dense)
        residual = kkt_residual(dense, sol.z, sol.eq_duals, sol.ineq_duals,
                                sol.active)
        assert residual < 1e-8
        recomputed = kkt_residual(stack_dense(qps), sol.z, sol.eq_duals,
                                  sol.ineq_duals, sol.active)
        assert abs(recomputed - residual) <= 1e-12
        assert norm_inf(dense.eq_matrix @ sol.z - dense.eq_rhs) < 1e-9
        assert (dense.ineq_matrix @ sol.z - dense.ineq_rhs).max() < 1e-9


def test_kkt_residual_flags_bad_points():
    rng, dense = _dense_problem(303)
    sol = cold_solve(dense)
    off = sol.z + 0.1
    assert kkt_residual(dense, off, sol.eq_duals, sol.ineq_duals,
                        sol.active) > 1e-3
    # dropping the multipliers leaves the stationarity gap
    assert kkt_residual(dense, sol.z, np.zeros_like(sol.eq_duals),
                        np.zeros_like(sol.ineq_duals), sol.active) > 1e-3


def test_enumeration_matches_active_set_solver():
    for seed in (310, 311, 312, 313):
        rng = np.random.default_rng(seed)
        net = tiny_network(rng)
        qps = build_network_qps(net, 2, random_x0(rng, net))
        dense = stack_global(qps)
        assert dense.ineq_matrix.shape[0] <= 10
        brute = enumerate_active_sets(dense)
        sol = cold_solve(dense)
        assert norm_inf(brute.z - sol.z) < 1e-6
        assert abs(objective(dense, brute.z) - objective(dense, sol.z)) < 1e-8
        assert kkt_residual(dense, brute.z, brute.eq_duals, brute.ineq_duals,
                            brute.active) < 1e-7


def test_enumeration_refuses_large_problems():
    rng = np.random.default_rng(314)
    qp = StackedQp(hessian=sp.csr_array(np.eye(2)),
                   eq_matrix=sp.csr_array((0, 2)), eq_rhs=np.zeros(0),
                   ineq_matrix=sp.csr_array(rng.normal(size=(21, 2))),
                   ineq_rhs=np.ones(21))
    with pytest.raises(ValueError, match="exceed"):
        enumerate_active_sets(qp)


def test_phase1_detects_infeasibility():
    qp = StackedQp(hessian=sp.csr_array(np.eye(1)),
                   eq_matrix=sp.csr_array((0, 1)), eq_rhs=np.zeros(0),
                   ineq_matrix=sp.csr_array(np.array([[1.0], [-1.0]])),
                   ineq_rhs=np.array([-1.0, -1.0]))   # x <= -1 and x >= 1
    with pytest.raises(InfeasibleProblem):
        cold_solve(qp)


def test_warm_start_at_solution_is_a_fixed_point():
    rng, dense = _dense_problem(320)
    sol = cold_solve(dense)
    again = solve_dense_qp(dense, sol.z, prepared=prepare_kkt(dense),
                           warm_active=sol.active)
    assert again.iterations == 1
    np.testing.assert_array_equal(again.z, sol.z)
    assert again.active == sol.active


def test_start_point_must_be_feasible():
    rng, dense = _dense_problem(321)
    prepared = prepare_kkt(dense)
    sol = cold_solve(dense)
    bad = sol.z + 1.0
    with pytest.raises(SolverError, match="equality"):
        solve_dense_qp(dense, bad, prepared=prepared)
    # satisfy equalities but overshoot a bound
    grow = sol.z.copy()
    if dense.ineq_matrix.shape[0]:
        slack = dense.ineq_rhs - dense.ineq_matrix @ grow
        null = np.linalg.svd(dense.eq_matrix.toarray())[2][-1]
        # push far along an equality-nullspace direction that hits a bound
        push = dense.ineq_matrix @ null
        row = int(np.argmax(np.abs(push)))
        if abs(push[row]) > 1e-9:
            step = 2.0 * (slack[row] + 1.0) / push[row]
            with pytest.raises(SolverError, match="inequality"):
                solve_dense_qp(dense, grow + step * null,
                               prepared=prepared)


def test_prepared_factorization_is_reusable():
    rng, dense = _dense_problem(322)
    prepared = prepare_kkt(dense)
    z0 = phase1(dense)
    a = solve_dense_qp(dense, z0, prepared=prepared)
    b = solve_dense_qp(dense, z0, prepared=prepared)
    np.testing.assert_array_equal(a.z, b.z)


def test_rollout_zero_state_stays_at_rest():
    net = build_chain_of_masses(3)
    roll = centralized_mpc_rollout(net, [np.zeros(2)] * 3, horizon=5, steps=4)
    assert norm_inf(roll.states) < 1e-9
    assert norm_inf(roll.inputs) < 1e-9
    assert len(roll.iterations) == 4


def test_rollout_regulates_to_origin():
    net = build_chain_of_masses(3)
    x0s = [np.array([0.6, 0.0]), np.array([-0.4, 0.2]), np.array([0.5, -0.1])]
    roll = centralized_mpc_rollout(net, x0s, horizon=8, steps=30)
    assert norm_inf(roll.states[-1]) < 1e-2 * norm_inf(roll.states[0])
    assert (np.abs(roll.inputs) <= 1.0 + 1e-9).all()


def test_rollout_saturates_inputs_for_large_states():
    net = build_chain_of_masses(3)
    x0s = [np.array([3.0, 0.0]), np.array([-3.0, 0.0]), np.array([3.0, 0.0])]
    roll = centralized_mpc_rollout(net, x0s, horizon=8, steps=1)
    assert np.abs(roll.inputs[0]).max() == pytest.approx(1.0, abs=1e-9)


def test_rollout_rejects_a_non_finite_initial_state(chain3):
    """The reference rejects a NaN initial state, naming the agent, before
    its first solve, instead of reporting a dependent working set."""
    x0s = [np.full(2, 0.1), np.array([0.1, np.nan]), np.full(2, 0.1)]
    with pytest.raises(ValueError, match="agent 1: initial state"):
        centralized_mpc_rollout(chain3, x0s, horizon=6, steps=2)


@pytest.mark.parametrize("steps", [True, 2.5, 0])
def test_rollout_steps_must_be_an_integer_of_at_least_one(chain3, steps):
    x0s = [np.full(2, 0.1)] * 3
    with pytest.raises(ValueError,
                       match="steps must be an integer of at least 1"):
        centralized_mpc_rollout(chain3, x0s, horizon=6, steps=steps)


def test_rollout_accessors():
    net = build_chain_of_masses(3)
    x0s = [np.array([0.3, 0.0])] * 3
    roll = centralized_mpc_rollout(net, x0s, horizon=5, steps=2)
    np.testing.assert_array_equal(roll.state_of(0, 1), x0s[1])
    assert roll.state_of(2, 1) is roll.states[2][1]
    assert [len(x) for x in roll.states] == [3, 3, 3]
    assert [[u.shape for u in us] for us in roll.inputs] == [[(1,)] * 3] * 2


def test_reference_steps_the_shared_plant(chain3):
    """The reference applies its inputs with ``plant_step``, bit for bit."""
    x0s = [np.array([0.6, 0.0]), np.array([-0.4, 0.2]), np.array([0.5, -0.1])]
    roll = centralized_mpc_rollout(chain3, x0s, horizon=8, steps=10)
    for t in range(10):
        nxt = plant_step(chain3, PlantState(tuple(roll.states[t])),
                         roll.inputs[t])
        for i in range(3):
            assert roll.states[t + 1][i].tobytes() == nxt.states[i].tobytes()


def _same_up_to_zero_sign(sparse, dense):
    """Entry for entry and byte for byte, reading a ``-0.0`` of the dense
    array as the ``0.0`` a sparse array stores for it."""
    got = sparse.toarray()
    return got.shape == dense.shape and \
        got.tobytes() == (dense + 0.0).tobytes()


def _close(a, b, rtol=1e-9):
    return norm_inf(a - b) <= rtol * max(1.0, norm_inf(b))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_agents=st.integers(2, 4),
       horizon=st.integers(1, 4), coupled=st.booleans())
def test_sparse_stacking_matches_dense_assembly(seed, n_agents, horizon,
                                                coupled):
    """``stack_global`` holds the matrices the dense assembly it replaced
    built (the equality rows are the agents' rows followed by the coupling
    rows), and its CSR arrays are, byte for byte, those of the
    ``sp.vstack`` fold it replaced; ``coupled`` false draws networks with
    no coupling rows."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_agents=n_agents,
                         edges=None if coupled else [])
    qps = build_network_qps(net, horizon, random_x0(rng, net))
    stacked = stack_global(qps)
    ref = stack_dense(qps)
    assert (ref.cpl_matrix.shape[0] > 0) == coupled
    for name, want in (("hessian", ref.hessian),
                       ("eq_matrix", ref.eq_matrix),
                       ("ineq_matrix", ref.ineq_matrix)):
        got = getattr(stacked, name)
        assert isinstance(got, sp.csr_array), name
        assert _same_up_to_zero_sign(got, want), name
    assert stacked.eq_rhs.tobytes() == ref.eq_rhs.tobytes()
    assert stacked.ineq_rhs.tobytes() == ref.ineq_rhs.tobytes()
    folded = stack_vstack(qps)
    for name in ("hessian", "eq_matrix", "ineq_matrix"):
        got, want = getattr(stacked, name), getattr(folded, name)
        assert got.shape == want.shape, name
        for part in ("indptr", "indices", "data"):
            assert getattr(got, part).dtype == getattr(want, part).dtype
            assert getattr(got, part).tobytes() == \
                getattr(want, part).tobytes(), (name, part)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_agents=st.integers(2, 4),
       horizon=st.integers(1, 4), coupled=st.booleans())
def test_rollout_matches_rollout_on_vstack_fold(seed, n_agents, horizon,
                                                coupled):
    """The rollout on ``stack_global``'s folded rows gives the states,
    inputs and iterations, bit for bit, of the same rollout on the
    ``sp.vstack`` fold it replaced."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_agents=n_agents,
                         edges=None if coupled else [])
    x0s = random_x0(rng, net, scale=2.0)
    got = centralized_mpc_rollout(net, x0s, horizon, steps=3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dmpcqp.oracle, "stack_global", stack_vstack)
        want = centralized_mpc_rollout(net, x0s, horizon, steps=3)
    assert got.iterations == want.iterations
    for name in ("states", "inputs"):
        assert [[x.tobytes() for x in row] for row in getattr(got, name)] == \
            [[x.tobytes() for x in row] for row in getattr(want, name)], name


def _ratio_arrays():
    # few distinct values, so ties and rows on the tolerance are common; a
    # NaN row is taken as the loop took it (``cp <= tol`` is false)
    value = st.sampled_from([-1.0, -1e-13, 0.0, 1e-13, 1e-12, 0.25, 0.5,
                             1.0, 2.0, 4.0, float("nan")])
    return st.integers(0, 12).flatmap(lambda size: st.tuples(
        st.lists(value, min_size=size, max_size=size),
        st.lists(value, min_size=size, max_size=size),
        st.lists(st.integers(0, max(size - 1, 0)), max_size=size,
                 unique=True) if size else st.just([])))


@settings(max_examples=400, deadline=None)
@given(_ratio_arrays())
def test_vectorized_ratio_test_matches_row_loop(case):
    cp, slack, active = (np.array(case[0]), np.array(case[1]), case[2])
    got = _ratio_test(cp, slack, active)
    want = ratio_test_loop(cp, slack, active)
    assert got[1] == want[1]
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_agents=st.integers(2, 4),
       horizon=st.integers(1, 4), warm=st.booleans())
def test_sparse_oracle_matches_dense_path(seed, n_agents, horizon, warm):
    """The ``splu`` oracle ends where the ``lu_factor`` one ends: the same
    active set after the same number of iterations, ``z`` and the
    multipliers within 1e-9 relative; and a ratio test on the network's
    rows picks the same row and step as the row loop."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_agents=n_agents)
    x0s = random_x0(rng, net, scale=2.0)
    qps = build_network_qps(net, horizon, x0s)
    ref = stack_dense(qps)
    dense = stack_global(qps)
    z0 = np.concatenate(rollout_feasible_point(net, horizon, x0s)) \
        if warm else None
    sol = solve_dense_qp(dense, z0, prepared=prepare_kkt(dense)) \
        if warm else cold_solve(dense)
    z, mu, nu, active, iterations = solve_dense(ref, z0)
    assert sol.active == active
    assert sol.iterations == iterations
    assert _close(sol.z, z)
    assert _close(sol.eq_duals, mu)
    assert _close(sol.ineq_duals, nu)
    # one ratio test on the network's rows, from the start point
    start = z0 if warm else sol.z
    p = rng.normal(size=start.size)
    rows = list(rng.permutation(ref.ineq_rhs.size)[:rng.integers(3)])
    assert _ratio_test(dense.ineq_matrix @ p,
                       dense.ineq_rhs - dense.ineq_matrix @ start, rows) == \
        ratio_test_loop(ref.ineq_matrix @ p,
                        ref.ineq_rhs - ref.ineq_matrix @ start, rows)


def test_singular_saddle_point_matrix_is_a_solver_error(chain3):
    """A duplicated equality row makes the saddle-point matrix exactly
    singular; ``splu``'s ``RuntimeError`` becomes a ``SolverError``."""
    qps = build_network_qps(chain3, 4, [np.ones(2)] * 3)
    dense = stack_global(qps)
    twice = dataclasses.replace(
        dense, eq_matrix=sp.vstack([dense.eq_matrix, dense.eq_matrix[[0]]]),
        eq_rhs=np.append(dense.eq_rhs, dense.eq_rhs[0]))
    with pytest.raises(SolverError, match="singular saddle-point matrix"):
        prepare_kkt(twice)
    with pytest.raises(SolverError, match="singular saddle-point matrix"):
        cold_solve(twice)


@pytest.mark.parametrize("horizon", [4, 12])
def test_numerically_singular_saddle_point_matrix_is_a_solver_error(
        chain3, horizon):
    """A duplicated dynamics row leaves ``splu`` a pivot near 1e-17 instead
    of an exact zero; the pivot ratio check turns it into a
    ``SolverError``."""
    qps = build_network_qps(chain3, horizon, [np.ones(2)] * 3)
    dense = stack_global(qps)
    twice = dataclasses.replace(
        dense, eq_matrix=sp.vstack([dense.eq_matrix, dense.eq_matrix[[5]]]),
        eq_rhs=np.append(dense.eq_rhs, dense.eq_rhs[5]))
    with pytest.raises(SolverError,
                       match="numerically singular saddle-point matrix"):
        prepare_kkt(twice)
