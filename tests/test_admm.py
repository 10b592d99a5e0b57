import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmpcqp import (AdmmConfig, AgentModel, Fabric, NetworkModel,
                    admm_average, admm_converged, admm_dual_update,
                    admm_solve, asm_solve, build_chain_of_masses,
                    build_network_qps, shift_averaged, update_initial_state,
                    working_constraints)
from dmpcqp.admm import (ADMM_PRESETS, FirstRoundScreen, LocalQpSolver,
                         local_linear_term)
from dmpcqp.asm import VIOLATION_TOL, most_violated_bound
from dmpcqp.cli import (ExperimentConfig, _closed_loop_distributed,
                        sample_initial_states)
from dmpcqp.condense import AgentBounds
from dmpcqp.errors import LocalQpError
from dmpcqp.fabric import verify_comm_identities
from dmpcqp.model import PlantState, plant_step
from dmpcqp.qp_builder import rollout_feasible_point

import admm_reference as ref_admm
import asm_reference as ref_asm
import condense_reference as ref_kernel
from dcg_reference import neighbor_exchange

from conftest import (assert_same_max, coupling_edges, dense_bounds,
                      dense_coupling, network_with_isolated_agent, norm_inf,
                      random_network, random_x0, spd_matrix, stable_matrix)


def _problem(seed, n_agents=3, horizon=3):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_agents=n_agents)
    x0s = random_x0(rng, net)
    return rng, net, x0s, build_network_qps(net, horizon, x0s)


def _flat_average(qps, zs, fabric):
    """Flat :func:`admm_average` of per-agent iterates, written back into
    full-length per-agent vectors as the per-agent averaging returned
    them."""
    plan = qps[0].coupling
    z = np.concatenate(zs)
    z[plan.columns] = admm_average(plan, z[plan.columns], fabric)
    return np.split(z, np.cumsum([qp.size for qp in qps])[:-1])


def _directed_pair(rng, extra_isolated=False):
    """Agent 1 copies agent 0; optional third agent with no coupling."""
    def _agent(i, n, m, a_in):
        return AgentModel(
            index=i, A_self=stable_matrix(rng, n, 0.8),
            B=rng.normal(size=(n, m)), A_in=a_in,
            u_lo=-np.ones(m), u_hi=np.ones(m),
            Q=spd_matrix(rng, n), R=spd_matrix(rng, m, 0.5),
            P=np.zeros((n, n)))
    agents = [_agent(0, 2, 1, {}),
              _agent(1, 2, 1, {0: 0.3 * rng.normal(size=(2, 2))})]
    if extra_isolated:
        agents.append(_agent(2, 2, 1, {}))
    return NetworkModel(agents)


def test_presets():
    assert ADMM_PRESETS["admm1"] == (1e-6, 1e-3)
    assert ADMM_PRESETS["admm2"] == (1e-4, 1e-2)
    cfg = AdmmConfig.preset("admm2", rho=3.0)
    assert cfg.eps_primal == 1e-4 and cfg.eps_dual == 1e-2 and cfg.rho == 3.0
    assert AdmmConfig().rho == 1.0


def test_averaging_consensus_fixed_point():
    # every copy already equals the owner's trajectory, so averaging is a no-op
    rng, net, x0s, qps = _problem(201)
    zs = rollout_feasible_point(net, 3, x0s)
    z_avg = _flat_average(qps, zs, Fabric(len(qps)))
    for z, zb in zip(zs, z_avg):
        np.testing.assert_allclose(zb, z, atol=1e-12)


def test_averaged_point_satisfies_coupling_exactly():
    rng, net, x0s, qps = _problem(203)
    zs = [rng.normal(size=qp.size) for qp in qps]
    z_avg = _flat_average(qps, zs, Fabric(len(qps)))
    total = np.zeros(qps[0].n_coupling)
    for qp, zb in zip(qps, z_avg):
        total[qp.coupled.rows] += dense_coupling(qp) @ zb
    assert norm_inf(total) == 0.0


def test_negated_copy_averages_to_zero():
    rng = np.random.default_rng(207)
    net = _directed_pair(rng)
    horizon = 3
    qps = build_network_qps(net, horizon, random_x0(rng, net))
    n0 = net.agents[0].n
    zs = [rng.normal(size=qp.size) for qp in qps]
    lay1 = qps[1].layout
    zs[1][lay1.v_block_slice(0)] = -zs[0][:horizon * n0]
    z_avg = _flat_average(qps, zs, Fabric(2))
    # owner 0 has exactly one copier, so its averaged trajectory vanishes
    np.testing.assert_array_equal(z_avg[0][:horizon * n0],
                                  np.zeros(horizon * n0))
    np.testing.assert_array_equal(z_avg[1][lay1.v_block_slice(0)],
                                  np.zeros(horizon * n0))
    # everything else passes through untouched
    lay0 = qps[0].layout
    np.testing.assert_array_equal(z_avg[0][lay0.x_slice(horizon)],
                                  zs[0][lay0.x_slice(horizon)])
    np.testing.assert_array_equal(z_avg[0][lay0.u_offset:],
                                  zs[0][lay0.u_offset:])
    np.testing.assert_array_equal(z_avg[1][:horizon * net.agents[1].n],
                                  zs[1][:horizon * net.agents[1].n])


def test_dual_update_trivia():
    rng, net, x0s, qps = _problem(211)
    qp = next(q for q in qps if dense_coupling(q).shape[0])
    lam = rng.normal(size=dense_coupling(qp).shape[0])
    z = rng.normal(size=qp.size)
    np.testing.assert_array_equal(
        ref_admm.admm_dual_update(qp, z, z, lam, 2.0), lam)
    moved = ref_admm.admm_dual_update(qp, z, np.zeros_like(z), lam, 2.0)
    np.testing.assert_allclose(moved, lam + 2.0 * (dense_coupling(qp) @ z),
                               atol=1e-12)


def test_local_solver_satisfies_kkt():
    rng, net, x0s, qps = _problem(213)
    rho = 1.7
    for qp in qps:
        z_avg = rng.normal(size=qp.size)
        lam = rng.normal(size=dense_coupling(qp).shape[0])
        solver = LocalQpSolver(qp, rho)
        g = ref_admm.local_linear_term(qp, z_avg, lam, rho)
        z, act, _ = solver.solve(g)
        hess = 2.0 * qp.hessian
        if dense_coupling(qp).shape[0]:
            hess = hess + rho * dense_coupling(qp).T @ dense_coupling(qp)
        grad = hess @ z + g
        # independent optimality certificate: stationarity over the working
        # rows via least squares, non-negative bound multipliers, feasibility
        W = np.vstack([qp.eq_matrix, dense_bounds(qp)[list(act)]])
        mult = np.linalg.lstsq(W.T, -grad, rcond=None)[0]
        assert norm_inf(W.T @ mult + grad) < 1e-7
        nu = mult[qp.eq_matrix.shape[0]:]
        assert nu.size == 0 or nu.min() > -1e-8
        assert norm_inf(qp.eq_matrix @ z - qp.eq_rhs) < 1e-8
        assert (dense_bounds(qp) @ z - qp.ineq_rhs).max() < 1e-9
        if act:
            tight = dense_bounds(qp)[list(act)] @ z - qp.ineq_rhs[list(act)]
            assert norm_inf(tight) < 1e-8


def test_local_solver_warm_start_and_cache():
    rng, net, x0s, qps = _problem(221)
    qp = qps[0]
    solver = LocalQpSolver(qp, 1.0)
    g = ref_admm.local_linear_term(
        qp, rng.normal(size=qp.size),
        rng.normal(size=dense_coupling(qp).shape[0]), 1.0)
    z1, act1, _ = solver.solve(g)
    cached = len(solver.local.factors)
    z2, act2, its2 = solver.solve(g, act1)
    np.testing.assert_array_equal(z1, z2)
    assert act1 == act2
    assert its2 == 1                      # the feasible warm start's dual check
    assert len(solver.local.factors) == cached   # no new factorizations
    # the next sample's solver keeps the augmented QP and its factors,
    # kept per penalty weight, and takes the new initial state
    moved = update_initial_state(qp, rng.normal(size=qp.layout.n_states))
    again = LocalQpSolver(moved, 1.0)
    assert again.local.hessian is solver.local.hessian
    assert again.local.factors is solver.local.factors
    assert again.local.eq_rhs is moved.eq_rhs
    assert LocalQpSolver(moved, 2.0).local.factors is not solver.local.factors


def _enumerated_min(H, g, A, b, C, d):
    """Brute-force reference for min 0.5 z'Hz + g'z s.t. Az=b, Cz<=d.

    Tries every bound subset as equalities through a least-squares KKT
    solve; keeps consistent, feasible, sign-correct candidates.
    """
    n = H.shape[0]
    best = None
    for size in range(C.shape[0] + 1):
        for subset in itertools.combinations(range(C.shape[0]), size):
            W = np.vstack([A, C[list(subset)]]) if subset else A
            rhs = np.concatenate([b, d[list(subset)]]) if subset else b
            KKT = np.block([[H, W.T], [W, np.zeros((W.shape[0],) * 2)]])
            full = np.concatenate([-g, rhs])
            sol, *_ = np.linalg.lstsq(KKT, full, rcond=None)
            if np.abs(KKT @ sol - full).max() > 1e-8 * (1 + np.abs(full).max()):
                continue
            z = sol[:n]
            others = [r for r in range(C.shape[0]) if r not in subset]
            if others and (C[others] @ z - d[others]).max() > 1e-9:
                continue
            nu = sol[n + A.shape[0]:]
            if nu.size and nu.min() < -1e-9:
                continue
            obj = 0.5 * float(z @ (H @ z)) + float(g @ z)
            if best is None or obj < best[0] - 1e-12:
                best = (obj, z)
    assert best is not None
    return best[1]


def test_one_iteration_matches_enumerated_reference():
    # one full iteration (local solves, averaging, dual step) against a
    # brute-force local minimizer and the averaging formula written out
    rng = np.random.default_rng(239)
    net = _directed_pair(rng)
    horizon = 2
    qps = build_network_qps(net, horizon, random_x0(rng, net))
    rho = 2.0
    z_avg = [rng.normal(size=qp.size) for qp in qps]
    lams = [rng.normal(size=dense_coupling(qp).shape[0]) for qp in qps]

    zs = []
    for qp, zb, lam in zip(qps, z_avg, lams):
        z, _, _ = LocalQpSolver(qp, rho).solve(
            ref_admm.local_linear_term(qp, zb, lam, rho))
        H = 2.0 * qp.hessian
        if dense_coupling(qp).shape[0]:
            H = H + rho * dense_coupling(qp).T @ dense_coupling(qp)
        ref = _enumerated_min(H, ref_admm.local_linear_term(qp, zb, lam, rho),
                              qp.eq_matrix, qp.eq_rhs,
                              dense_bounds(qp), qp.ineq_rhs)
        assert norm_inf(z - ref) < 1e-7
        zs.append(z)

    z_avg_next = _flat_average(qps, zs, Fabric(2))
    # owner 0 has the single copier 1: arithmetic mean of prediction and copy
    n0 = net.agents[0].n
    lay1 = qps[1].layout
    xbar = 0.5 * (zs[0][:horizon * n0] + zs[1][lay1.v_block_slice(0)])
    np.testing.assert_allclose(z_avg_next[0][:horizon * n0], xbar,
                               atol=1e-12)
    np.testing.assert_allclose(z_avg_next[1][lay1.v_block_slice(0)], xbar,
                               atol=1e-12)

    for qp, z, zb, lam in zip(qps, zs, z_avg_next, lams):
        updated = ref_admm.admm_dual_update(qp, z, zb, lam, rho)
        expected = lam + rho * (dense_coupling(qp) @ (z - zb)) \
            if dense_coupling(qp).shape[0] else lam
        np.testing.assert_allclose(updated, expected, atol=1e-12)


def test_large_penalty_projects_coupling_image():
    # with lam = 0 and a huge penalty the local solve reproduces the
    # averaged point's coupling image whenever that image is attainable
    rng, net, x0s, qps = _problem(237)
    z_avg = rollout_feasible_point(net, 3, x0s)
    for qp in qps:
        if dense_coupling(qp).shape[0] == 0:
            continue
        g = ref_admm.local_linear_term(qp, z_avg[qp.index],
                                       np.zeros(dense_coupling(qp).shape[0]),
                                       1e6)
        z, _, _ = LocalQpSolver(qp, 1e6).solve(g)
        img = dense_coupling(qp) @ z - dense_coupling(qp) @ z_avg[qp.index]
        assert norm_inf(img) < 1e-3


def test_rho_must_be_positive():
    with pytest.raises(ValueError, match="rho"):
        AdmmConfig(rho=0.0)
    with pytest.raises(ValueError, match="rho"):
        AdmmConfig.preset("admm1", rho=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            AdmmConfig.preset("admm2", rho=bad)


@pytest.mark.parametrize("name", ["eps_primal", "eps_dual"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_tolerances_must_be_finite_and_positive(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        AdmmConfig(**{name: bad})


@pytest.mark.parametrize("bad", [2.5, 0, -1, "3", None, True, False])
def test_iteration_cap_must_be_an_integer_of_at_least_one(bad):
    with pytest.raises(ValueError, match="max_iter must be an integer"):
        AdmmConfig(max_iter=bad)


def test_iteration_cap_accepts_numpy_integers():
    assert AdmmConfig(max_iter=np.int64(3)).max_iter == 3


def test_decoupled_agent_ignores_penalty():
    rng = np.random.default_rng(231)
    net = _directed_pair(rng, extra_isolated=True)
    qps = build_network_qps(net, 3, random_x0(rng, net))
    qp = qps[2]
    assert dense_coupling(qp).shape[0] == 0
    lam = np.zeros(0)
    z_small, _, _ = LocalQpSolver(qp, 0.5).solve(
        ref_admm.local_linear_term(qp, rng.normal(size=qp.size), lam, 0.5))
    z_large, _, _ = LocalQpSolver(qp, 50.0).solve(
        ref_admm.local_linear_term(qp, rng.normal(size=qp.size), lam, 50.0))
    np.testing.assert_allclose(z_small, z_large, atol=1e-10)
    assert ref_admm.admm_converged(qp, z_small, z_small, None, lam, 0.5,
                                   1e-6, 1e-3)
    # the flat test flags the agent on the first iteration as well
    plan = qp.coupling
    entries = rng.normal(size=plan.columns.size)
    assert admm_converged(plan, entries, entries, None,
                          np.zeros(entries.size), 0.5, 1e-6, 1e-3)[2]


def test_converged_edge_cases():
    rng, net, x0s, qps = _problem(233)
    qp = next(q for q in qps if dense_coupling(q).shape[0])
    z = rng.normal(size=qp.size)
    lam = rng.normal(size=dense_coupling(qp).shape[0])
    converged = ref_admm.admm_converged
    # first iteration: primal consensus alone is not enough
    assert not converged(qp, z, z, None, lam, 2.0, 1e-6, 1e-3)
    # consensus and a stationary iterate pass both tests
    assert converged(qp, z, z, z, lam, 2.0, 1e-6, 1e-3)
    # large multiplier movement fails the dual test
    far = z + 10.0 * rng.normal(size=qp.size)
    assert not converged(qp, z, z, far, lam, 2.0, 1e-6, 1e-3)
    # primal residual check uses the coupling image
    off = z + rng.normal(size=qp.size)
    assert not converged(qp, z, off, z, lam, 2.0, 1e-6, 1e-3)


def test_solve_matches_active_set_reference():
    rng, net, x0s, qps = _problem(217)
    res = admm_solve(qps, cfg=AdmmConfig.preset("admm1", rho=2.0))
    assert res.converged
    ref = asm_solve(qps)
    dev = norm_inf(np.concatenate(res.z) - np.concatenate(ref.z))
    assert dev < 1e-3
    total = np.zeros(qps[0].n_coupling)
    for qp, zb in zip(qps, res.z_avg):
        total[qp.coupled.rows] += dense_coupling(qp) @ zb
    assert norm_inf(total) == 0.0


def test_solve_comm_identities():
    rng, net, x0s, qps = _problem(219)
    res = admm_solve(qps, cfg=AdmmConfig.preset("admm2", rho=2.0))
    led = res.stats.ledger
    verify_comm_identities(led, len(qps), qps[0].n_coupling,
                           admm_iterations=res.iterations)
    admm = led.phase("admm")
    assert admm.global_floats == 0
    assert admm.global_booleans == 2 * len(qps) * res.iterations
    assert admm.local_floats == 2 * qps[0].n_coupling * res.iterations


def test_loose_tolerances_stop_earlier():
    rng, net, x0s, qps = _problem(223)
    r1 = admm_solve(qps, cfg=AdmmConfig.preset("admm1", rho=2.0))
    r2 = admm_solve(qps, cfg=AdmmConfig.preset("admm2", rho=2.0))
    assert r2.iterations < r1.iterations
    ref = asm_solve(qps)
    d1 = norm_inf(np.concatenate(r1.z) - np.concatenate(ref.z))
    d2 = norm_inf(np.concatenate(r2.z) - np.concatenate(ref.z))
    assert d1 <= d2 + 1e-9


def test_iteration_cap_reports_unconverged():
    rng, net, x0s, qps = _problem(225)
    res = admm_solve(qps, cfg=AdmmConfig(rho=2.0, max_iter=3))
    assert not res.converged
    assert res.iterations == 3


def test_non_finite_initial_state_is_rejected_before_a_solve(chain3):
    """ADMM's closed loop rejects a NaN initial state where it moves the
    QPs to it, naming the agent, instead of iterating to its cap."""
    qps = build_network_qps(chain3, 6, [np.zeros(2)] * 3)
    x0s = [np.full(2, 0.1), np.array([np.nan, 0.1]), np.full(2, 0.1)]
    cfg = ExperimentConfig(n_masses=3, horizon=6, steps=2, solver="admm2",
                           rho=5.0)
    with pytest.raises(ValueError, match="agent 1: initial state"):
        _closed_loop_distributed(chain3, cfg, qps, x0s)


def test_shift_averaged():
    rng, net, x0s, qps = _problem(229)
    inputs = [0.1 * rng.uniform(-1.0, 1.0, size=(3, a.m)) for a in net.agents]
    zs = rollout_feasible_point(net, 3, x0s, inputs=inputs)
    shifted = shift_averaged(qps, zs)
    plan = qps[0].coupling
    N = qps[0].layout.horizon
    assert shifted.shape == plan.columns.shape
    # each entry and its partner hold one row: interior coupling rows stay
    # exactly consistent, and the final stage is off by the owner's
    # shifted-in terminal state
    image = plan.signs * shifted
    total = np.empty(plan.n_coupling)
    total[np.concatenate([a.rows for a in plan.agents])] = \
        image + image[plan.partner]
    for edge in coupling_edges(net, N):
        rows = np.arange(edge.offset, edge.offset + N * edge.n_states)
        interior, last = rows[:-edge.n_states], rows[-edge.n_states:]
        assert norm_inf(total[interior]) == 0.0
        lay_o = qps[edge.owner].layout
        np.testing.assert_array_equal(total[last],
                                      zs[edge.owner][lay_o.x_slice(N)])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_masses=st.integers(2, 5),
       horizon=st.integers(1, 12), agent=st.integers(0, 4),
       rho=st.sampled_from([0.5, 5.0, 1e6]), n_active=st.integers(0, 12))
@example(seed=0, n_masses=3, horizon=12, agent=1, rho=1e6, n_active=5)
def test_affine_map_matches_condensed_kernel(seed, n_masses, horizon, agent,
                                             rho, n_active):
    """The solver's cached factor reproduces the per-call kernel's
    back-substitution and dual recovery on the working set it was built
    from (86 columns for an interior mass at horizon 12)."""
    rng = np.random.default_rng(seed)
    net = build_chain_of_masses(n_masses)
    qp = build_network_qps(net, horizon, random_x0(rng, net))[
        agent % n_masses]
    solver = LocalQpSolver(qp, rho)
    half = qp.n_ineq // 2
    picks = rng.choice(half, size=min(n_active, half), replace=False)
    active = tuple(int(p) + half * int(rng.integers(2)) for p in picks)
    g = rng.normal(scale=10.0, size=qp.size)

    factor, offset = solver.working_set(active)
    z = offset + factor.gain @ g
    local = solver.local
    ca = ref_kernel.condense(local, working_constraints(local, active))
    ref = ref_kernel.backsubstitute(ca, (), g)
    assert norm_inf(z - ref) <= 1e-9 * max(norm_inf(ref), 1.0)

    grad = local.hessian @ z + g
    nu = factor.duals @ grad
    nu_ref = ref_kernel.recover_duals(local, ca, grad, ()).ineq_duals
    assert nu.shape == (len(active),)
    assert norm_inf(nu - nu_ref) <= 1e-9 * max(norm_inf(nu_ref),
                                               norm_inf(grad), 1.0)


def _dense_admm_products(qp, rho, z, z_avg, z_prev, lam, eps):
    """The augmented Hessian, linear term, dual update and convergence flag
    from the dense coupling rows, as ADMM formed them before the coupling
    plan's selections (kept verbatim)."""
    Cc = dense_coupling(qp)
    hess = 2.0 * qp.hessian
    if Cc.shape[0]:
        hess = hess + rho * (Cc.T @ Cc)
    if Cc.shape[0] == 0:
        return hess, np.zeros(qp.size), lam, True
    linear = Cc.T @ (lam - rho * (Cc @ z_avg))
    moved = lam + rho * (Cc @ (z - z_avg))
    img_z = Cc @ z
    img_avg = Cc @ z_avg
    primal = float(np.abs(img_z - img_avg).max())
    scale_p = min(max(np.abs(img_z).max(), np.abs(img_avg).max()), 1.0)
    if primal > eps[0] * scale_p or z_prev is None:
        return hess, linear, moved, False
    dual = float(np.abs(rho * (Cc @ (z - z_prev))).max())
    scale_d = min(float(np.abs(lam).max(initial=0.0)), 1.0)
    return hess, linear, moved, dual <= eps[1] * scale_d


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_agents=st.integers(2, 3),
       horizon=st.integers(1, 4), rho=st.sampled_from([0.5, 5.0, 1e6]),
       gap=st.sampled_from([0.0, 1e-9, 1e-6, 1.0]),
       eps=st.sampled_from(list(ADMM_PRESETS.values())))
def test_coupling_selections_match_dense_admm_products(seed, n_agents,
                                                       horizon, rho, gap,
                                                       eps):
    """ADMM's coupling terms on the plan's flat layout equal each agent's
    dense products byte for byte, up to the sign of zero (at most three
    agents, so a column sums at most two multipliers), and each agent's
    flag equals the dense test's, an agent without coupling rows included;
    ``gap`` moves the averaged and previous iterates so both flags take
    both values."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_agents=n_agents)
    qps = build_network_qps(net, horizon, random_x0(rng, net))
    plan = qps[0].coupling
    ends = np.cumsum([0] + [qp.size for qp in qps])

    def same_bytes(a, b):
        return a.dtype == b.dtype and a.shape == b.shape and \
            (a + 0.0).tobytes() == (b + 0.0).tobytes()

    def entries(zs):
        return np.concatenate(zs)[plan.columns]

    zs = [rng.normal(size=qp.size) for qp in qps]
    z_avgs = [z + gap * rng.normal(size=z.size) for z in zs]
    lam = rng.normal(size=plan.columns.size)
    for z_prevs in (None, zs, [z + gap * rng.normal(size=z.size)
                               for z in zs]):
        flags = admm_converged(plan, entries(zs), entries(z_avgs),
                               None if z_prevs is None else entries(z_prevs),
                               lam, rho, *eps)
        for qp, seg in zip(qps, plan.segments):
            z_prev = None if z_prevs is None else z_prevs[qp.index]
            *_, flag = _dense_admm_products(qp, rho, zs[qp.index],
                                            z_avgs[qp.index], z_prev,
                                            lam[seg], eps)
            assert flags[qp.index] == flag
    linear = local_linear_term(plan, entries(z_avgs), lam, rho)
    moved = admm_dual_update(plan, entries(zs), entries(z_avgs), lam, rho)
    for qp, seg in zip(qps, plan.segments):
        hess, linear_ref, moved_ref, _ = _dense_admm_products(
            qp, rho, zs[qp.index], z_avgs[qp.index], None, lam[seg], eps)
        assert same_bytes(LocalQpSolver(qp, rho).local.hessian, hess)
        assert same_bytes(linear[ends[qp.index]:ends[qp.index + 1]],
                          linear_ref)
        assert same_bytes(moved[seg], moved_ref)


def test_local_solver_result_does_not_depend_on_cache_state():
    # inputs saturate on a heavily displaced chain, so the solves visit
    # several active sets; a solver whose cache other linear terms filled
    # returns exactly what a fresh one returns
    rng = np.random.default_rng(241)
    net = build_chain_of_masses(4)
    qps = build_network_qps(net, 6, random_x0(rng, net, scale=8.0))
    rho = 5.0
    for qp in qps:
        def linear_term():
            return ref_admm.local_linear_term(
                qp, rng.normal(scale=8.0, size=qp.size),
                rng.normal(size=dense_coupling(qp).shape[0]), rho)
        used = LocalQpSolver(qp, rho)
        warm = ()
        for _ in range(4):
            _, warm, _ = used.solve(linear_term(), warm)
        assert len(used.local.factors) > 1
        g = linear_term()
        # the augmented QP, and so its cache, is kept on qp's factor cache
        fresh = LocalQpSolver(dataclasses.replace(qp, factors=None), rho)
        assert len(fresh.local.factors) == 0
        z_fresh, act_fresh, its_fresh = fresh.solve(g, warm)
        z_used, act_used, its_used = used.solve(g, warm)
        assert z_fresh.tobytes() == z_used.tobytes()
        assert (act_fresh, its_fresh) == (act_used, its_used)


def _reference_average(qps, zs, fabric, phase="admm"):
    """The per-call slicing loops averaging used before the precomputed
    index, kept verbatim as the bit-for-bit reference."""
    to_owner = {}
    for qp in qps:
        lay = qp.layout
        for j in lay.in_neighbors:
            to_owner[(qp.index, j)] = zs[qp.index][lay.v_block_slice(j)]
    delivered = neighbor_exchange(fabric, to_owner, phase=phase)

    averaged = []
    for qp in qps:
        lay = qp.layout
        i = qp.index
        outs = [src for (src, dst) in delivered if dst == i]
        own = zs[i][:lay.horizon * lay.n_states]
        if outs:
            total = len(outs) * own.copy()
            for src in sorted(outs):
                total += delivered[(src, i)]
            averaged.append(total / (2.0 * len(outs)))
        else:
            averaged.append(own.copy())

    to_copier = {}
    for qp in qps:
        lay = qp.layout
        for j in lay.in_neighbors:
            to_copier[(j, qp.index)] = averaged[j]
    delivered_avg = neighbor_exchange(fabric, to_copier, phase=phase)

    z_avg = []
    for qp in qps:
        lay = qp.layout
        i = qp.index
        zb = zs[i].copy()
        zb[:lay.horizon * lay.n_states] = averaged[i]
        for j in lay.in_neighbors:
            zb[lay.v_block_slice(j)] = delivered_avg[(j, i)]
        z_avg.append(zb)
    return z_avg


def _reference_shift(qps, z_avg):
    """The per-step slicing loops of the warm-start shift, kept verbatim."""
    shifted = []
    for qp, zb in zip(qps, z_avg):
        lay = qp.layout
        N = lay.horizon
        out = np.zeros_like(zb)
        for k in range(N - 1):
            out[lay.x_slice(k)] = zb[lay.x_slice(k + 1)]
        out[lay.x_slice(N - 1)] = zb[lay.x_slice(N)]
        for k in range(N - 1):
            out[lay.u_slice(k)] = zb[lay.u_slice(k + 1)]
        for j in lay.in_neighbors:
            for k in range(N - 1):
                out[lay.v_slice(j, k)] = zb[lay.v_slice(j, k + 1)]
        shifted.append(out)
    return shifted


def _reference_consensus_index(qps):
    """The per-solve averaging index ADMM built before the coupling plan
    held it, kept verbatim as the reference: ``(n_own, blocks,
    copiers)``."""
    n_own, blocks = [], []
    copiers = [[] for _ in qps]
    for qp in qps:
        lay = qp.layout
        n_own.append(lay.horizon * lay.n_states)
        own_blocks = tuple((j, lay.v_block_slice(j))
                           for j in lay.in_neighbors)
        blocks.append(own_blocks)
        for j, _ in own_blocks:
            copiers[j].append(qp.index)
    return (tuple(n_own), tuple(blocks),
            tuple(tuple(sorted(c)) for c in copiers))


def _dict_average(qps, zs, fabric):
    """The averaging over per-pair payload dicts that the index-based
    exchange replaced, kept verbatim as the reference, with its plan
    fields from :func:`_reference_consensus_index`."""
    n_own, blocks, copiers = _reference_consensus_index(qps)
    delivered = neighbor_exchange(
        fabric, {(i, j): zs[i][blk] for i, own_blocks in enumerate(blocks)
                 for j, blk in own_blocks}, phase="admm")

    averaged = []
    for i, srcs in enumerate(copiers):
        own = zs[i][:n_own[i]]
        if srcs:
            total = len(srcs) * own
            for src in srcs:
                total += delivered[(src, i)]
            averaged.append(total / (2.0 * len(srcs)))
        else:
            averaged.append(own.copy())

    delivered_avg = neighbor_exchange(
        fabric, {(j, i): averaged[j] for i, own_blocks in enumerate(blocks)
                 for j, _ in own_blocks}, phase="admm")

    z_avg = []
    for i, own_blocks in enumerate(blocks):
        zb = zs[i].copy()
        zb[:n_own[i]] = averaged[i]
        for j, blk in own_blocks:
            zb[blk] = delivered_avg[(j, i)]
        z_avg.append(zb)
    return z_avg


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_agents=st.integers(2, 5),
       horizon=st.integers(1, 5))
def test_indexed_averaging_and_shift_match_reference_loops(seed, n_agents,
                                                           horizon):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_agents=n_agents, max_state=3,
                         max_input=2, edge_prob=rng.uniform(0.2, 1.0))
    qps = build_network_qps(net, horizon, random_x0(rng, net))
    plan = qps[0].coupling
    zs = [rng.normal(size=qp.size) for qp in qps]
    fab = Fabric(len(qps))
    got = _flat_average(qps, zs, fab)
    for reference in (_reference_average, _dict_average):
        fab_ref = Fabric(len(qps))
        ref = reference(qps, zs, fab_ref)
        assert [z.tobytes() for z in got] == [z.tobytes() for z in ref]
        assert fab.ledger.as_dict() == fab_ref.ledger.as_dict()
        assert fab.round_index == fab_ref.round_index

    ref_shift = np.concatenate(_reference_shift(qps, ref))[plan.columns]
    assert shift_averaged(qps, ref).tobytes() == ref_shift.tobytes()


def _solve_outcome(solve, qps, cfg, z_avg0):
    fab = Fabric(len(qps))
    try:
        res = solve(qps, fab, cfg, z_avg0)
    except LocalQpError as err:
        return str(err), fab.ledger.as_dict(), fab.round_index
    return ([z.tobytes() for z in res.z], [z.tobytes() for z in res.z_avg],
            res.iterations, res.converged, res.stats.local_asm_iterations,
            fab.ledger.as_dict(), fab.round_index)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_agents=st.integers(2, 4),
       horizon=st.integers(1, 4), isolated=st.booleans(),
       rho=st.sampled_from([1.0, 5.0]),
       preset=st.sampled_from(sorted(ADMM_PRESETS)))
def test_flat_solve_matches_reference_bit_for_bit(seed, n_agents, horizon,
                                                  isolated, rho, preset):
    """The flat iteration gives the per-agent reference's iterates, counts,
    ledger and rounds, cold, warm-started from the shifted average, and
    stopped by the iteration cap; ``isolated`` draws explicit edges that
    leave the last agent with no coupling rows."""
    rng = np.random.default_rng(seed)
    if isolated:
        net = network_with_isolated_agent(rng, n_agents + 1)
    else:
        net = random_network(rng, n_agents=n_agents)
    qps = build_network_qps(net, horizon, random_x0(rng, net))
    assert not isolated or qps[-1].coupled.rows.size == 0
    cfg = AdmmConfig.preset(preset, rho=rho)
    cold = _solve_outcome(admm_solve, qps, cfg, None)
    assert cold == _solve_outcome(ref_admm.admm_solve, qps, cfg, None)
    z_avg = ref_admm.admm_solve(qps, None, cfg).z_avg
    assert _solve_outcome(admm_solve, qps, cfg,
                          shift_averaged(qps, z_avg)) == \
        _solve_outcome(ref_admm.admm_solve, qps, cfg,
                       _reference_shift(qps, z_avg))
    capped = AdmmConfig(rho=rho, max_iter=3)
    got = _solve_outcome(admm_solve, qps, capped, None)
    assert got == _solve_outcome(ref_admm.admm_solve, qps, capped, None)
    assert got[2:4] == (3, False)


def _tightened(net, scale):
    """``net`` with every input box scaled by ``scale``."""
    return NetworkModel([dataclasses.replace(a, u_lo=scale * a.u_lo,
                                             u_hi=scale * a.u_hi)
                         for a in net.agents])


def _inner_loop_matches_replaced_code(qps, cfg, n_iter):
    """Run ``n_iter`` flat ADMM iterations and check, at each one, the
    local solves, violated-bound picks, segment maxima and stopping flags
    against the code they replaced, bit for bit.  Returns how many local
    solves ended with bound rows and how many released a warm row."""
    plan = qps[0].coupling
    solvers = [LocalQpSolver(qp, cfg.rho) for qp in qps]
    replaced = [ref_admm.ReplacedLocalQpSolver(qp, cfg.rho) for qp in qps]
    ends = np.cumsum([0] + [qp.size for qp in qps]).tolist()
    blocks = [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]
    z = np.zeros(ends[-1])
    z_bar = np.zeros(plan.columns.size)
    lam = np.zeros(plan.columns.size)
    warm = [() for _ in qps]
    z_prev = None
    with_bounds = releases = 0
    for _ in range(n_iter):
        g = local_linear_term(plan, z_bar, lam, cfg.rho)
        for i, (solver, block) in enumerate(zip(solvers, blocks)):
            got = solver.solve(g[block], warm[i])
            want = replaced[i].solve(g[block], warm[i])
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1:] == want[1:]
            with_bounds += bool(got[1])
            releases += bool(set(warm[i]) - set(got[1]))
            # a point that violates the bounds the solve pinned
            far = 3.0 * got[0]
            for active in ((), got[1]):
                assert most_violated_bound(solver.local, far, active,
                                           VIOLATION_TOL) == \
                    ref_asm.replaced_most_violated_bound(
                        solver.local, far, active, VIOLATION_TOL)
            z[block], warm[i] = got[0], got[1]
        entries = z[plan.columns]
        z_bar = admm_average(plan, entries, Fabric(len(qps)))
        lam = admm_dual_update(plan, entries, z_bar, lam, cfg.rho)
        for values in (np.abs(entries - z_bar),
                       np.abs(np.stack([entries, z_bar, lam]))):
            assert_same_max(plan.segments, values)
        # the configured tolerances, and a grid that puts some agents'
        # residuals next to a threshold
        for eps in [(cfg.eps_primal, cfg.eps_dual),
                    *itertools.product(10.0 ** np.arange(-9, 1), repeat=2)]:
            args = (plan, entries, z_bar, z_prev, lam, cfg.rho, *eps)
            assert admm_converged(*args) == \
                ref_admm.flat_admm_converged(*args)
        z_prev = entries
    return with_bounds, releases


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_agents=st.integers(2, 4),
       horizon=st.integers(1, 4), isolated=st.booleans(),
       u_scale=st.sampled_from([1.0, 0.1, 0.02]),
       x_scale=st.sampled_from([1.0, 0.01]),
       rho=st.sampled_from([1.0, 5.0]),
       preset=st.sampled_from(sorted(ADMM_PRESETS)))
def test_inner_loop_matches_replaced_code_bit_for_bit(
        seed, n_agents, horizon, isolated, u_scale, x_scale, rho, preset):
    """The local solve, violated-bound pick, segment maximum and stopping
    test give the replaced code's iterates, working sets, iteration counts
    and flags; a small ``u_scale`` tightens every input box so working
    sets hold bound rows and release them, ``isolated`` leaves the last
    agent with no coupling rows (an empty segment), and a small
    ``x_scale`` keeps the coupling values below the stopping test's unit
    cap on its scales."""
    rng = np.random.default_rng(seed)
    if isolated:
        net = network_with_isolated_agent(rng, n_agents + 1)
    else:
        net = random_network(rng, n_agents=n_agents)
    net = _tightened(net, u_scale)
    qps = build_network_qps(net, horizon, random_x0(rng, net, x_scale))
    assert not isolated or qps[-1].coupled.rows.size == 0
    _inner_loop_matches_replaced_code(qps, AdmmConfig.preset(preset, rho),
                                      25)


def test_tight_boxes_pin_and_release_bounds_in_the_inner_loop():
    """The tightened draws of the property test above reach working sets
    with bound rows, and solves that release a warm row."""
    rng = np.random.default_rng(3)
    net = _tightened(random_network(rng, n_agents=3), 0.1)
    qps = build_network_qps(net, 3, random_x0(rng, net))
    with_bounds, releases = _inner_loop_matches_replaced_code(
        qps, AdmmConfig.preset("admm2", rho=5.0), 30)
    assert with_bounds > 0
    assert releases > 0


def _closed_loop_outcomes(solve, shift, net, x0s, horizon, cfg, samples):
    """``_solve_outcome`` of each of ``samples`` closed-loop samples: cold,
    then warm-started from ``shift`` of the last averaged iterate, with the
    QPs moved to the plant state the first input moves reach."""
    qps = build_network_qps(net, horizon, x0s)
    state = PlantState(states=tuple(x0s))
    outcomes, warm = [], None
    for _ in range(samples):
        outcomes.append(_solve_outcome(solve, qps, cfg, warm))
        res = solve(qps, Fabric(len(qps)), cfg, warm)
        warm = shift(qps, res.z_avg)
        state = plant_step(net, state, [z[qp.layout.u_slice(0)]
                                        for z, qp in zip(res.z, qps)])
        qps = [update_initial_state(qp, x)
               for qp, x in zip(qps, state.states)]
    return outcomes


@pytest.mark.parametrize("n_masses, u_max, seed, cleared", [
    (10, 1.0, 2024, (0.5, 1.0)), (5, 0.3, 7, (0.0, 0.25))])
def test_flat_solve_matches_reference_at_benchmark_size(
        monkeypatch, n_masses, u_max, seed, cleared):
    """The benchmark's ADMM system (horizon 12, ``admm2`` at rho 5) from
    the first init its seed draws: a cold solve and three warm-started
    closed-loop samples give the per-agent reference's iterates, counts,
    ledger and rounds.  The first-round screen finishes most local solves
    of the 10-mass chain; on the 5-mass chain with ``u_max`` 0.3 the input
    bounds bind and it leaves most to the local loop."""
    net = build_chain_of_masses(n_masses, u_max=u_max)
    x0s = sample_initial_states(net, np.random.default_rng(seed),
                                y0_range=1.0, v0_range=0.5)
    cfg = AdmmConfig.preset("admm2", rho=5.0)
    solves = []
    real_solve = LocalQpSolver.solve

    def solve(self, g_lin, warm_active=(), screened=None):
        out = real_solve(self, g_lin, warm_active, screened)
        solves.append(screened is not None and out[0] is screened[0])
        return out

    monkeypatch.setattr(LocalQpSolver, "solve", solve)
    got = _closed_loop_outcomes(admm_solve, shift_averaged, net, x0s, 12,
                                cfg, 4)
    assert cleared[0] < np.mean(solves) < cleared[1]
    want = _closed_loop_outcomes(ref_admm.admm_solve, _reference_shift, net,
                                 x0s, 12, cfg, 4)
    assert got == want


def _screened_and_plain_solves(qps, g):
    """Every agent's local solve of its block of ``g`` from an empty warm
    set, given :class:`FirstRoundScreen`'s first round and without it, by
    fresh solvers, and the screen's largest violations."""
    rho = 5.0
    ends = np.cumsum([0] + [qp.size for qp in qps]).tolist()
    blocks = [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]
    solvers = [LocalQpSolver(qp, rho) for qp in qps]
    z = np.full(ends[-1], np.nan)
    worst = FirstRoundScreen(solvers, blocks)(g, z, range(len(qps)))
    screened = [s.solve(g[b], (), (z[b], w))
                for s, b, w in zip(solvers, blocks, worst)]
    plain = [LocalQpSolver(dataclasses.replace(qp, factors=None), rho).solve(
        g[b], ()) for qp, b in zip(qps, blocks)]
    return screened, plain, worst


def _same_solves(got, want):
    assert [z.tobytes() for z, _, _ in got] == \
        [z.tobytes() for z, _, _ in want]
    assert [r[1:] for r in got] == [r[1:] for r in want]


def test_screen_passes_nan_and_boundary_violations_to_the_local_loop():
    """An agent whose first-round minimizer is NaN gets a NaN violation
    and the result of the unscreened solve; one whose largest violation is
    exactly the tolerance is done after one iteration, as unscreened, and
    one just beyond it activates that bound in the local loop."""
    net = build_chain_of_masses(3)
    qps = build_network_qps(net, 4, [np.zeros(a.n) for a in net.agents])
    g = np.zeros(sum(qp.size for qp in qps))
    g[qps[0].size + 1] = np.nan
    got, want, worst = _screened_and_plain_solves(qps, g)
    assert np.isnan(worst[1]) and not np.isnan(worst[0] + worst[2])
    assert np.isnan(got[1][0]).all()
    _same_solves(got, want)

    # from a zero state at a zero linear term every minimizer is zero, so
    # a bound row's violation is minus its right-hand side
    g = np.zeros_like(g)
    for excess in (VIOLATION_TOL, np.nextafter(VIOLATION_TOL, 1.0)):
        rhs = qps[2].ineq_rhs.copy()
        rhs[3] = -excess
        moved = qps[:2] + [dataclasses.replace(qps[2], ineq_rhs=rhs,
                                               factors=None)]
        got, want, worst = _screened_and_plain_solves(moved, g)
        assert worst[2] == excess
        _same_solves(got, want)
        assert got[2][1:] == (((), 1) if excess == VIOLATION_TOL
                              else ((3,), 2))


def test_screen_skips_agents_without_bound_rows():
    """An agent with no bound rows, made by emptying its bound plan (an
    ``AgentModel`` without inputs is rejected): the screen reports a zero
    violation for it and every agent's solve matches the unscreened
    one."""
    rng = np.random.default_rng(11)
    net = build_chain_of_masses(3)
    qps = build_network_qps(net, 4, random_x0(rng, net, scale=4.0))
    none = np.zeros(0, dtype=int)
    for empty in ([1], [0, 2], [0, 1, 2]):
        cut = [dataclasses.replace(qp, bounds=AgentBounds(
            cols=none, signs=np.zeros(0), shifted=none),
            ineq_rhs=np.zeros(0), factors=None) if qp.index in empty else qp
            for qp in qps]
        g = rng.normal(scale=20.0, size=sum(qp.size for qp in qps))
        got, want, worst = _screened_and_plain_solves(cut, g)
        assert [worst[i] for i in empty] == [0.0] * len(empty)
        _same_solves(got, want)
        assert any(r[1] for r in got) == (len(empty) < 3)
