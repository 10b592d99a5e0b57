import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dmpcqp import (backsubstitute, build_network_qps, condense, recover_duals,
                    working_constraints)
from dmpcqp.errors import RankDeficientWorkingSet

from conftest import norm_inf, random_network, random_x0


def _kkt_step(qp, work, lam_global, gradient):
    """Dense stationary point of the working-set EQP, for checking.

    Solves min 0.5 z'Hz + (g + C_cpl' lam)'z  s.t.  C_work z = d  directly
    via the bordered system.
    """
    n = qp.size
    C = work.matrix
    k = C.shape[0]
    K = np.zeros((n + k, n + k))
    K[:n, :n] = qp.hessian
    K[:n, n:] = C.T
    K[n:, :n] = C
    g = gradient + qp.cpl_local.T @ lam_global
    rhs = np.concatenate([-g, work.rhs])
    sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
    return sol[:n]


def _some_active(rng, qp, count=2):
    """Random independent bound rows: one side per input-step pair."""
    half = qp.n_ineq // 2
    if half == 0:
        return []
    picks = rng.choice(half, size=min(count, half), replace=False)
    return sorted(int(p) + (half if rng.random() < 0.5 else 0)
                  for p in picks)


def test_null_and_range_bases_are_orthonormal():
    rng = np.random.default_rng(31)
    net = random_network(rng, n_agents=3)
    qps = build_network_qps(net, 3, random_x0(rng, net))
    for qp in qps:
        work = working_constraints(qp, _some_active(rng, qp), homogeneous=True)
        ca = condense(qp, work)
        Z, Y = ca.null_basis, ca.range_basis
        np.testing.assert_allclose(Z.T @ Z, np.eye(Z.shape[1]), atol=1e-12)
        np.testing.assert_allclose(Y.T @ Y, np.eye(Y.shape[1]), atol=1e-12)
        assert norm_inf(work.matrix @ Z) < 1e-12
        assert Z.shape[1] + Y.shape[1] == qp.size


def test_particular_solution_satisfies_working_rows():
    rng = np.random.default_rng(37)
    net = random_network(rng, n_agents=2)
    qps = build_network_qps(net, 3, random_x0(rng, net))
    for qp in qps:
        act = _some_active(rng, qp)
        work = working_constraints(qp, act, homogeneous=False)
        ca = condense(qp, work)
        assert norm_inf(work.matrix @ ca.particular - work.rhs) < 1e-10
        hom = working_constraints(qp, act, homogeneous=True)
        cah = condense(qp, hom)
        assert norm_inf(cah.particular) < 1e-12


def test_backsubstitute_matches_dense_kkt():
    rng = np.random.default_rng(41)
    for _ in range(5):
        net = random_network(rng, n_agents=2)
        qps = build_network_qps(net, 3, random_x0(rng, net))
        n_c = qps[0].n_coupling
        lam = rng.normal(size=n_c)
        for qp in qps:
            grad = rng.normal(size=qp.size)
            work = working_constraints(qp, _some_active(rng, qp),
                                       homogeneous=False)
            ca = condense(qp, work, grad)
            z = backsubstitute(ca, lam[ca.rows])
            z_ref = _kkt_step(qp, work, lam, grad)
            assert norm_inf(z - z_ref) < 1e-8


def test_schur_contribution_matches_coupling_image():
    """The assembled complement maps lam to -sum_i C_i (z_i(lam) - z_i(0))."""
    rng = np.random.default_rng(43)
    net = random_network(rng, n_agents=3)
    qps = build_network_qps(net, 2, random_x0(rng, net))
    n_c = qps[0].n_coupling
    S = np.zeros((n_c, n_c))
    cas = []
    for qp in qps:
        work = working_constraints(qp, [], homogeneous=False)
        ca = condense(qp, work, np.zeros(qp.size))
        S[np.ix_(ca.rows, ca.rows)] += ca.schur
        cas.append(ca)
    lam = rng.normal(size=n_c)
    image = np.zeros(n_c)
    for qp, ca in zip(qps, cas):
        z1 = backsubstitute(ca, lam[ca.rows])
        z0 = backsubstitute(ca, np.zeros(ca.rows.size))
        image += qp.cpl_matrix @ (z1 - z0)
    np.testing.assert_allclose(-(S @ lam), image, atol=1e-8)


def test_duplicate_active_row_is_rejected():
    rng = np.random.default_rng(47)
    net = random_network(rng, n_agents=2)
    qp = build_network_qps(net, 3, random_x0(rng, net))[0]
    with pytest.raises(ValueError):
        working_constraints(qp, [1, 1], homogeneous=True)


def test_dependent_working_rows_raise_with_position():
    rng = np.random.default_rng(53)
    net = random_network(rng, n_agents=2, max_input=1)
    qp = build_network_qps(net, 3, random_x0(rng, net))[0]
    # upper and lower bound of the same input are linearly dependent rows
    N = qp.layout.horizon
    work = working_constraints(qp, [0, N], homogeneous=True)
    with pytest.raises(RankDeficientWorkingSet) as exc:
        condense(qp, work)
    assert exc.value.agent == qp.index
    assert exc.value.active_position is not None


def test_recovered_duals_reproduce_planted_multipliers():
    """Recovery is exact when stationarity holds, i.e. at converged steps."""
    rng = np.random.default_rng(59)
    for _ in range(4):
        net = random_network(rng, n_agents=2)
        qps = build_network_qps(net, 3, random_x0(rng, net))
        n_c = qps[0].n_coupling
        lam = rng.normal(size=n_c)
        for qp in qps:
            act = _some_active(rng, qp)
            work = working_constraints(qp, act, homogeneous=True)
            nu_true = rng.normal(size=work.n_rows)
            # plant a gradient that makes nu_true the exact multiplier
            grad = -(qp.cpl_local.T @ lam[qp.coupled_rows]
                     + work.matrix.T @ nu_true)
            ca = condense(qp, work, grad)
            rec = recover_duals(qp, ca, grad, lam[qp.coupled_rows])
            assert rec.residual < 1e-8
            nu = np.concatenate([rec.eq_duals, rec.ineq_duals])
            assert norm_inf(nu - nu_true) < 1e-7
            assert rec.eq_duals.size == work.n_eq
            assert rec.ineq_duals.size == len(act)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(1, 4),
       n_active=st.integers(0, 4), homogeneous=st.booleans())
def test_recovered_duals_match_least_squares(seed, horizon, n_active,
                                              homogeneous):
    """The R1 solve is the least-squares multiplier of the working rows,
    also away from stationarity, where the residual is not small."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_agents=2)
    qps = build_network_qps(net, horizon, random_x0(rng, net))
    lam = rng.normal(size=qps[0].n_coupling)
    for qp in qps:
        work = working_constraints(qp, _some_active(rng, qp, n_active),
                                   homogeneous=homogeneous)
        grad = rng.normal(size=qp.size)
        ca = condense(qp, work, grad)
        rec = recover_duals(qp, ca, grad, lam[qp.coupled_rows])
        rhs = -(grad + qp.cpl_local.T @ lam[qp.coupled_rows])
        ref = np.linalg.lstsq(work.matrix.T, rhs, rcond=None)[0]
        gamma = np.concatenate([rec.eq_duals, rec.ineq_duals])
        assert gamma.shape == ref.shape
        assert norm_inf(gamma - ref) <= 1e-9 * (1.0 + norm_inf(ref))
        ref_residual = norm_inf(work.matrix.T @ ref - rhs)
        assert abs(rec.residual - ref_residual) <= 1e-9 * (1.0 + norm_inf(rhs))
