import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import dmpcqp.asm as asm_module
import dmpcqp.cli as cli_module
import dmpcqp.qp_builder as qp_builder_module
from dmpcqp import (VariableLayout, build_agent_qp, build_coupling_index,
                    build_network_qps, build_partner, rollout_feasible_point,
                    stack_global, update_initial_state)
from dmpcqp.asm import shift_active
from dmpcqp.cli import ExperimentConfig, _closed_loop_distributed
from dmpcqp.oracle import _warm_inputs
from dmpcqp.qp_builder import Segments

from conftest import (assert_same_max, coupling_edges, dense_bounds,
                      dense_coupling, norm_inf, random_network, random_x0)
from oracle_reference import cold_solve, rollout_feasible_point_loop


def _baseline_qps(chain10):
    x0s = [np.full(2, 0.1 * (i + 1)) for i in range(10)]
    return build_network_qps(chain10, 12, x0s)


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(0, 4), min_size=1, max_size=6),
       rows=st.sampled_from([None, 1, 5]), seed=st.integers(0, 2**32 - 1),
       nans=st.sampled_from([0.0, 0.2, 1.0]))
def test_segments_match_the_reference_maxima_and_split(sizes, rows, seed,
                                                       nans):
    """A :class:`Segments` of any sizes, empty ones and all empty among
    them, lays out the slices and ends of the sizes' running sum, takes
    each segment's maximum over the last axis of 1-D and 2-D values (NaN
    entries too) as the reference ``segment_max`` does, and splits as
    ``np.split`` at the ends."""
    segments = Segments(sizes)
    ends = np.cumsum(sizes).tolist()
    assert segments.ends == tuple(ends)
    assert list(segments) == [slice(a, b) for a, b in
                              zip([0] + ends[:-1], ends)]
    assert [segments[i] for i in range(len(sizes))] == list(segments)
    rng = np.random.default_rng(seed)
    shape = (ends[-1],) if rows is None else (rows, ends[-1])
    values = rng.normal(size=shape)
    values[rng.random(shape) < nans] = np.nan
    assert_same_max(segments, values)
    flat = values if rows is None else values[0]
    got = segments.split(flat)
    want = np.split(flat, ends[:-1])
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert all(np.shares_memory(a, flat) for a in got if a.size)


def test_baseline_dimensions(chain10):
    qps = _baseline_qps(chain10)
    assert sum(qp.size for qp in qps) == 812
    assert sum(qp.n_eq for qp in qps) == 260
    assert sum(qp.n_ineq for qp in qps) == 240
    assert qps[0].n_coupling == 432
    # interior agents copy two 2-state neighbors, the ends just one
    assert qps[0].size == 62
    assert qps[5].size == 86


@given(horizon=st.integers(1, 6), n=st.integers(1, 3), m=st.integers(1, 3),
       dims=st.lists(st.integers(1, 3), min_size=0, max_size=3))
@settings(max_examples=60, deadline=None)
def test_layout_slices_partition_vector(horizon, n, m, dims):
    lay = VariableLayout(horizon=horizon, n_states=n, n_inputs=m,
                         in_neighbors=tuple(range(len(dims))),
                         neighbor_dims=tuple(dims))
    covered = np.zeros(lay.size, dtype=int)
    for k in range(horizon + 1):
        covered[lay.x_slice(k)] += 1
    for k in range(horizon):
        covered[lay.u_slice(k)] += 1
    for j in range(len(dims)):
        covered[lay.v_block_slice(j)] += 1
    assert covered.tolist() == [1] * lay.size


def test_layout_rejects_out_of_range():
    lay = VariableLayout(horizon=3, n_states=2, n_inputs=1,
                         in_neighbors=(), neighbor_dims=())
    with pytest.raises(IndexError):
        lay.x_slice(4)
    with pytest.raises(IndexError):
        lay.u_slice(3)


def test_coupling_rows_belong_to_exactly_two_agents():
    rng = np.random.default_rng(5)
    for _ in range(8):
        net = random_network(rng, n_agents=4)
        idx = build_coupling_index(net, horizon=3)
        hits = np.zeros(idx.n_coupling, dtype=int)
        for i in range(net.n_agents):
            hits[idx.agents[i].rows] += 1
        assert np.all(hits == 2)
        total = sum(3 * net.agents[j].n
                    for i in range(net.n_agents) for j in net.in_neighbors(i))
        assert idx.n_coupling == total


def _reference_cpl_matrix(net, coupling, layout, i):
    """Agent ``i``'s coupling matrix from the per-edge loops that built it
    before the coupling plan held its columns, kept as the reference."""
    N = layout.horizon
    rows, cols, vals = [], [], []
    for edge in coupling_edges(net, N):
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
    return sp.csr_matrix((vals, (rows, cols)),
                         shape=(coupling.n_coupling, layout.size))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_agents=st.integers(2, 5),
       horizon=st.integers(1, 4))
def test_coupling_plan_selects_what_the_edge_loops_built(seed, n_agents,
                                                         horizon):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_agents=n_agents, max_state=3,
                         edge_prob=rng.uniform(0.2, 1.0))
    qps = build_network_qps(net, horizon, random_x0(rng, net))
    for qp in qps:
        assert qp.coupling is qps[0].coupling
        assert qp.coupled is qp.coupling.agents[qp.index]
        ref = _reference_cpl_matrix(net, qp.coupling, qp.layout, qp.index)
        full = np.zeros((qp.n_coupling, qp.size))
        full[qp.coupled.rows] = dense_coupling(qp)
        assert np.array_equal(full, ref.toarray())
        dense = ref.toarray()[qp.coupled.rows]
        z = rng.normal(size=qp.size)
        lam = rng.normal(size=qp.coupled.rows.size)
        assert np.array_equal(qp.coupled.gather(z), dense @ z)
        # ``Cc' lam`` summed in row order, as the scatter promises: a BLAS
        # product may order a variable's three or more terms otherwise and
        # differ in the last bits where they cancel
        row_order = np.zeros(qp.size)
        for row, mult in zip(dense, lam):
            row_order += row * mult
        assert np.array_equal(qp.coupled.scatter(lam), row_order)
        gram = dense.T @ dense
        assert np.array_equal(gram, np.diag(np.diag(gram)))


def _reference_bound_rows(agent, layout):
    """``C_ineq`` and ``b_ineq`` from the loop that built them before the
    bound plan, kept as the reference."""
    N, m = layout.horizon, layout.n_inputs
    C_ineq = np.zeros((2 * N * m, layout.size))
    b_ineq = np.zeros(2 * N * m)
    for k in range(N):
        for c in range(m):
            row = k * m + c
            col = layout.u_slice(k).start + c
            C_ineq[row, col] = 1.0
            b_ineq[row] = agent.u_hi[c]
            C_ineq[N * m + row, col] = -1.0
            b_ineq[N * m + row] = -agent.u_lo[c]
    return C_ineq, b_ineq


def _reference_shift_active(qp, rows):
    """The ``% (N m)`` arithmetic ``shift_active`` used, kept verbatim."""
    m = qp.layout.n_inputs
    half = qp.layout.horizon * m
    shifted = []
    for row in rows:
        if (int(row) % half) >= m:
            shifted.append(int(row) - m)
    return shifted


def _reference_warm_inputs(net, horizon, active, ineq_offsets):
    """The oracle's ``divmod`` decode of stacked bound rows, kept verbatim."""
    inputs = [np.zeros((horizon, a.m)) for a in net.agents]
    for row in active:
        agent = int(np.searchsorted(ineq_offsets, row, side="right")) - 1
        local = row - ineq_offsets[agent]
        a = net.agents[agent]
        block = horizon * a.m
        upper = local < block
        k, c = divmod(local if upper else local - block, a.m)
        inputs[agent][k, c] = a.u_hi[c] if upper else a.u_lo[c]
    return inputs


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_agents=st.integers(2, 3),
       horizon=st.integers(1, 4))
def test_bound_plan_reads_what_the_dense_rows_encoded(seed, n_agents,
                                                      horizon):
    """The bound plan, ``shift_active``, the oracle's warm inputs and the
    stacked dense rows agree exactly with the dense-row code they replaced."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_agents=n_agents, max_input=2)
    qps = build_network_qps(net, horizon, random_x0(rng, net))
    stacked = stack_global(qps)
    ref_ineq, ref_cpl = [], []
    for qp, agent in zip(qps, net.agents):
        C_ineq, b_ineq = _reference_bound_rows(agent, qp.layout)
        assert np.array_equal(dense_bounds(qp), C_ineq)
        assert np.array_equal(qp.ineq_rhs, b_ineq)
        ref_ineq.append(C_ineq)
        ref_cpl.append(_reference_cpl_matrix(net, qp.coupling, qp.layout,
                                             qp.index))
        rows = rng.permutation(qp.n_ineq)[:rng.integers(qp.n_ineq + 1)]
        for sample in (rows, range(qp.n_ineq)):
            assert shift_active(qp, sample) == \
                _reference_shift_active(qp, sample)
    assert np.array_equal(stacked.ineq_matrix.toarray(),
                          scipy.linalg.block_diag(*ref_ineq))
    n_eq = sum(qp.n_eq for qp in qps)
    assert np.array_equal(stacked.eq_matrix[n_eq:].toarray(),
                          sp.hstack(ref_cpl).toarray())
    # an oracle working set: at most one side of each input, in any order
    ineq_offsets = np.cumsum([0] + [qp.n_ineq for qp in qps])[:-1]
    active = []
    for qp, off in zip(qps, ineq_offsets):
        half = qp.n_ineq // 2
        for pos in np.flatnonzero(rng.random(half) < 0.5):
            active.append(int(off + pos + half * rng.integers(2)))
    active = [active[i] for i in rng.permutation(len(active))]
    for got, want in zip(_warm_inputs(qps, active),
                         _reference_warm_inputs(net, horizon, active,
                                                ineq_offsets)):
        assert got.shape == want.shape and np.array_equal(got, want)


def test_coupling_rows_must_be_shared_by_exactly_two_agents():
    rows = [np.array([0, 1]), np.array([0, 1, 2]), np.array([2])]
    np.testing.assert_array_equal(build_partner(rows), [2, 3, 0, 1, 5, 4])
    # row 2 held by one agent only
    with pytest.raises(ValueError, match=r"exactly two agents: \{2: 1\}"):
        build_partner(rows[:2])
    # row 1 held by three agents
    with pytest.raises(ValueError, match=r"exactly two agents: \{1: 3\}"):
        build_partner(rows[:2] + [np.array([1, 2])])


def test_coupling_plan_is_built_once_per_closed_loop(monkeypatch, chain3):
    """The plan, and with it the sharing check, is made when the QPs are
    built, not per DCG solve or per warm-start shift."""
    calls = {"plan": 0, "partner": 0, "dcg_solve": 0, "shift_averaged": 0}

    def counting(module, name, key):
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    counting(qp_builder_module, "build_coupling_index", "plan")
    counting(qp_builder_module, "build_partner", "partner")
    counting(asm_module, "dcg_solve", "dcg_solve")
    counting(cli_module, "shift_averaged", "shift_averaged")
    x0s = [np.array([2.0, -1.0]), np.array([-1.5, 0.5]), np.array([1.0, 1.0])]
    cfg = ExperimentConfig(n_masses=3, horizon=6, steps=6, solver="asm-dcg")
    for solver, repeated in (("asm-dcg", "dcg_solve"),
                             ("admm2", "shift_averaged")):
        calls.update(dict.fromkeys(calls, 0))
        _closed_loop_distributed(
            chain3, dataclasses.replace(cfg, solver=solver, rho=5.0),
            build_network_qps(chain3, cfg.horizon, x0s), x0s)
        assert calls["plan"] == calls["partner"] == 1
        assert calls[repeated] >= cfg.steps


def test_coupling_edges_ordered_by_copier_then_owner(chain10):
    idx = build_coupling_index(chain10, horizon=2)
    edges = coupling_edges(chain10, 2)
    keys = [(e.copier, e.owner) for e in edges]
    assert keys == sorted(keys)
    offs = [e.offset for e in edges]
    assert offs == sorted(offs)
    # the plan holds each edge's rows, its owner with +1, its copier with -1
    for e in edges:
        rows = np.arange(e.offset, e.offset + 2 * e.n_states)
        for agent, sign in ((e.owner, 1.0), (e.copier, -1.0)):
            held = np.isin(idx.agents[agent].rows, rows)
            assert idx.agents[agent].rows[held].tolist() == rows.tolist()
            assert (idx.agents[agent].signs[held] == sign).all()
    assert offs[-1] + 2 * edges[-1].n_states == idx.n_coupling


def test_equality_rows_pin_initial_state_then_dynamics(chain3):
    x0 = [np.array([0.3, -0.2])] * 3
    qp = build_agent_qp(chain3, 1, 4, x0[1])
    n = 2
    np.testing.assert_allclose(qp.eq_matrix[:n, qp.layout.x_slice(0)], np.eye(n))
    np.testing.assert_allclose(qp.eq_rhs[:n], x0[1])
    # remaining rows encode x_{k+1} - A x_k - B u_k - sum_j A_in v_jk = 0
    assert qp.n_eq == (4 + 1) * n
    z = rollout_feasible_point(chain3, 4, x0)[1]
    np.testing.assert_allclose(qp.eq_matrix @ z, qp.eq_rhs, atol=1e-12)


def test_zero_initial_state_zeroes_rhs_head(chain3):
    qp = build_agent_qp(chain3, 0, 3, np.zeros(2))
    np.testing.assert_array_equal(qp.eq_rhs[:2], np.zeros(2))


def test_bound_rows_upper_then_lower(chain3):
    qp = build_agent_qp(chain3, 0, 3, np.zeros(2))
    N = 3
    assert qp.n_ineq == 2 * N
    z = np.zeros(qp.size)
    z[qp.layout.u_slice(1)] = 0.7
    vals = dense_bounds(qp) @ z
    np.testing.assert_allclose(vals[:N], [0.0, 0.7, 0.0])
    np.testing.assert_allclose(vals[N:], [0.0, -0.7, 0.0])
    np.testing.assert_allclose(qp.ineq_rhs, np.ones(2 * N))


def test_rollout_feasible_point_satisfies_everything():
    rng = np.random.default_rng(17)
    for _ in range(6):
        net = random_network(rng, n_agents=3)
        x0s = random_x0(rng, net)
        qps = build_network_qps(net, 4, x0s)
        zs = rollout_feasible_point(net, 4, x0s)
        total = np.zeros(qps[0].n_coupling)
        for qp, z in zip(qps, zs):
            assert norm_inf(qp.eq_matrix @ z - qp.eq_rhs) < 1e-10
            assert np.all(dense_bounds(qp) @ z - qp.ineq_rhs <= 1e-12)
            total[qp.coupled.rows] += dense_coupling(qp) @ z
        assert norm_inf(total) < 1e-10


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_agents=st.integers(2, 4),
       horizon=st.integers(1, 5), with_inputs=st.booleans())
def test_rollout_feasible_point_blocks_match_slice_loop(
        seed, n_agents, horizon, with_inputs):
    """The per-block copies give exactly what the per-stage slice loop
    copied."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_agents=n_agents, max_state=3, max_input=2)
    x0s = random_x0(rng, net)
    inputs = [rng.uniform(-1, 1, size=(horizon, a.m)) for a in net.agents] \
        if with_inputs else None
    got = rollout_feasible_point(net, horizon, x0s, inputs)
    want = rollout_feasible_point_loop(net, horizon, x0s, inputs)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_rollout_with_inputs_reproduces_plant():
    rng = np.random.default_rng(23)
    net = random_network(rng, n_agents=3)
    x0s = random_x0(rng, net)
    us = [0.3 * rng.uniform(-1, 1, size=(4, a.m)) for a in net.agents]
    zs = rollout_feasible_point(net, 4, x0s, inputs=us)
    for a, z in zip(net.agents, zs):
        lay = build_agent_qp(net, a.index, 4, x0s[a.index]).layout
        for k in range(4):
            np.testing.assert_allclose(z[lay.u_slice(k)], us[a.index][k])


def test_update_initial_state_idempotent_and_fresh(chain3):
    rng = np.random.default_rng(2)
    x0s = random_x0(rng, chain3)
    qps = build_network_qps(chain3, 5, x0s)
    y0s = random_x0(rng, chain3)
    moved = [update_initial_state(qp, y) for qp, y in zip(qps, y0s)]
    again = [update_initial_state(qp, y) for qp, y in zip(moved, y0s)]
    for a, b in zip(moved, again):
        np.testing.assert_array_equal(a.eq_rhs, b.eq_rhs)

    fresh = build_network_qps(chain3, 5, y0s)
    sol_moved = cold_solve(stack_global(moved))
    sol_fresh = cold_solve(stack_global(fresh))
    assert norm_inf(sol_moved.z - sol_fresh.z) < 1e-9


def test_stacked_blocks_match_agents(chain3):
    x0s = [np.array([0.1, 0.2])] * 3
    qps = build_network_qps(chain3, 3, x0s)
    stacked = stack_global(qps)
    o = np.cumsum([0] + [qp.size for qp in qps])
    for qp in qps:
        i = qp.index
        blk = stacked.hessian[o[i]:o[i] + qp.size, o[i]:o[i] + qp.size]
        np.testing.assert_array_equal(blk.toarray(), qp.hessian)
    # coupling columns line up with per-agent restrictions
    rng = np.random.default_rng(1)
    zs = [rng.normal(size=qp.size) for qp in qps]
    n_eq = sum(qp.n_eq for qp in qps)
    assembled = stacked.eq_matrix[n_eq:] @ np.concatenate(zs)
    total = np.zeros(qps[0].n_coupling)
    for qp, z in zip(qps, zs):
        total[qp.coupled.rows] += dense_coupling(qp) @ z
    np.testing.assert_allclose(assembled, total, atol=1e-12)


def test_cost_spreading_preserves_network_objective():
    rng = np.random.default_rng(29)
    net = random_network(rng, n_agents=3)
    x0s = random_x0(rng, net)
    qps = build_network_qps(net, 3, x0s)
    zs = rollout_feasible_point(net, 3, x0s,
                                inputs=[0.2 * rng.uniform(-1, 1, size=(3, a.m))
                                        for a in net.agents])
    spread = 0.5 * sum(z @ qp.hessian @ z for qp, z in zip(qps, zs))
    direct = 0.0
    for a, z in zip(net.agents, zs):
        lay = qps[a.index].layout
        for k in range(3):
            xk = z[lay.x_slice(k)]
            uk = z[lay.u_slice(k)]
            direct += xk @ a.Q @ xk + uk @ a.R @ uk
        xN = z[lay.x_slice(3)]
        direct += xN @ a.P @ xN
    assert abs(spread - 0.5 * direct) < 1e-10 * (1.0 + abs(direct))
