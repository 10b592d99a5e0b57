import dataclasses
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import condense_reference as ref_kernel
import dmpcqp.condense as condense_module
from dmpcqp import (backsubstitute, build_chain_of_masses, build_network_qps,
                    recover_duals, update_initial_state, working_constraints)
from dmpcqp.admm import LocalQpSolver
from dmpcqp.condense import condense
from dmpcqp.errors import IndefiniteReducedHessian, RankDeficientWorkingSet

from conftest import (dense_bounds, dense_coupling, norm_inf, random_network,
                      random_x0, working_matrix)


def _kkt_step(qp, work, lam_global):
    """Dense stationary point of the working-set EQP, for checking.

    Solves min 0.5 z'Hz + (C_cpl' lam)'z  s.t.  C_work z = d  directly
    via the bordered system.
    """
    n = qp.size
    C = working_matrix(qp, work)
    k = C.shape[0]
    K = np.zeros((n + k, n + k))
    K[:n, :n] = qp.hessian
    K[:n, n:] = C.T
    K[n:, :n] = C
    g = dense_coupling(qp).T @ lam_global
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


def test_null_basis_spans_working_set_null_space():
    rng = np.random.default_rng(31)
    net = random_network(rng, n_agents=3)
    qps = build_network_qps(net, 3, random_x0(rng, net))
    for qp in qps:
        work = working_constraints(qp, _some_active(rng, qp))
        ca = condense(qp, work)
        # the factor keeps Z only as the range of its gain -Z (Z'HZ)^{-1} Z'
        K = ca.factor.gain
        assert norm_inf(working_matrix(qp, work) @ K) < \
            1e-12 * max(norm_inf(K), 1.0)
        assert np.linalg.matrix_rank(K) == qp.size - work.n_rows


def test_particular_solution_satisfies_working_rows():
    rng = np.random.default_rng(37)
    net = random_network(rng, n_agents=2)
    qps = build_network_qps(net, 3, random_x0(rng, net))
    for qp in qps:
        act = _some_active(rng, qp)
        work = working_constraints(qp, act)
        ca = condense(qp, work)
        assert norm_inf(working_matrix(qp, work) @ ca.offset - work.rhs) \
            < 1e-10


def test_backsubstitute_matches_dense_kkt():
    rng = np.random.default_rng(41)
    for _ in range(5):
        net = random_network(rng, n_agents=2)
        qps = build_network_qps(net, 3, random_x0(rng, net))
        n_c = qps[0].n_coupling
        lam = rng.normal(size=n_c)
        for qp in qps:
            work = working_constraints(qp, _some_active(rng, qp))
            ca = condense(qp, work)
            z = backsubstitute(ca, lam[ca.rows])
            z_ref = _kkt_step(qp, work, lam)
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
        ca = condense(qp, working_constraints(qp, []))
        S[np.ix_(ca.rows, ca.rows)] += ca.schur
        cas.append(ca)
    lam = rng.normal(size=n_c)
    image = np.zeros(n_c)
    for qp, ca in zip(qps, cas):
        z1 = backsubstitute(ca, lam[ca.rows])
        z0 = backsubstitute(ca, np.zeros(ca.rows.size))
        image[qp.coupled.rows] += dense_coupling(qp) @ (z1 - z0)
    np.testing.assert_allclose(-(S @ lam), image, atol=1e-8)


def test_duplicate_active_row_is_rejected():
    rng = np.random.default_rng(47)
    net = random_network(rng, n_agents=2)
    qp = build_network_qps(net, 3, random_x0(rng, net))[0]
    with pytest.raises(ValueError):
        working_constraints(qp, [1, 1])


def test_working_set_rows_are_checked_and_never_stacked():
    rng = np.random.default_rng(49)
    net = random_network(rng, n_agents=2)
    qp = build_network_qps(net, 3, random_x0(rng, net))[0]
    for rows, bad in (([0, qp.n_ineq], qp.n_ineq), ([1, -1, 99], -1)):
        with pytest.raises(ValueError, match=f"active row {bad} out of range"):
            working_constraints(qp, rows)
    with pytest.raises(ValueError, match="active rows repeated"):
        working_constraints(qp, [2, 0, 2])
    act = _some_active(rng, qp)
    rows = dense_bounds(qp)[act]
    nx = qp.layout.u_offset
    for _ in range(2):  # a miss, then a hit
        work = working_constraints(qp, act)
        ca = condense(qp, work)
        assert work.n_rows == qp.n_eq + len(act)
        # no rows ride on the working set: a miss reads the bound plan
        assert set(vars(work)) == {"rhs", "n_eq", "active"}
        # off the states, each bound multiplier reads minus its row's
        # entry: the column and sign the stacked rows encoded before
        np.testing.assert_array_equal(ca.factor.duals[:, nx:], -rows[:, nx:])


def test_dependent_working_rows_raise_with_position():
    rng = np.random.default_rng(53)
    net = random_network(rng, n_agents=2, max_input=1)
    qp = build_network_qps(net, 3, random_x0(rng, net))[0]
    # upper and lower bound of the same input are linearly dependent rows
    N = qp.layout.horizon
    work = working_constraints(qp, [0, N])
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
            work = working_constraints(qp, act)
            nu_true = rng.normal(size=work.n_rows)
            # plant a gradient that makes nu_true the exact multiplier
            grad = -(dense_coupling(qp).T @ lam[qp.coupled.rows]
                     + working_matrix(qp, work).T @ nu_true)
            ca = condense(qp, work)
            mu, nu_bound = ref_kernel.working_set_duals(
                qp, ca, grad, lam[qp.coupled.rows])
            nu = np.concatenate([mu, nu_bound])
            assert norm_inf(nu - nu_true) < 1e-7
            assert mu.size == work.n_eq
            assert nu_bound.size == len(act)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(1, 4),
       n_active=st.integers(0, 4))
def test_recovered_duals_match_least_squares(seed, horizon, n_active):
    """The returned multipliers solve the stationarity rows of the states
    and of the pinned coordinates, so only the free input rows carry a
    residual, and where the right-hand side lies in the range of the
    working rows they are the least-squares (there: exact) ones."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_agents=2)
    qps = build_network_qps(net, horizon, random_x0(rng, net))
    lam = rng.normal(size=qps[0].n_coupling)
    for qp in qps:
        act = _some_active(rng, qp, n_active)
        work = working_constraints(qp, act)
        ca = condense(qp, work)
        lam_local = lam[qp.coupled.rows]
        grad = rng.normal(size=qp.size)
        gamma = np.concatenate(
            ref_kernel.working_set_duals(qp, ca, grad, lam_local))
        rhs = -(grad + dense_coupling(qp).T @ lam_local)
        assert gamma.shape == (work.n_rows,)
        left = working_matrix(qp, work).T @ gamma - rhs
        tol = 1e-9 * (1.0 + norm_inf(rhs))
        assert norm_inf(left[:qp.layout.u_offset]) <= tol
        assert norm_inf(left[qp.bounds.cols[act]]) <= tol

        planted = rng.normal(size=work.n_rows)
        grad = -(dense_coupling(qp).T @ lam_local
                 + working_matrix(qp, work).T @ planted)
        gamma = np.concatenate(
            ref_kernel.working_set_duals(qp, ca, grad, lam_local))
        rhs = -(grad + dense_coupling(qp).T @ lam_local)
        ref = np.linalg.lstsq(working_matrix(qp, work).T, rhs,
                              rcond=None)[0]
        assert norm_inf(gamma - ref) <= 1e-9 * (1.0 + norm_inf(ref))
        left = working_matrix(qp, work).T @ gamma - rhs
        assert norm_inf(left) <= 1e-9 * (1.0 + norm_inf(rhs))


#: Relative threshold on QR diagonals of the reference for dependent rows.
RANK_TOL = 1e-10


def _qr_condense(qp, work):
    """Condensing on orthonormal QR bases, as before the dynamics basis.

    Kept as the reference the dynamics basis is checked against: ``Y``/``Z``
    and ``R1`` (``C_work' = Y R1``) from a complete QR after a pivoted QR
    has named the first dependent row.
    """
    matrix, n_eq, agent = working_matrix(qp, work), work.n_eq, qp.index
    n_rows, n_cols = matrix.shape
    if n_rows > n_cols:
        raise RankDeficientWorkingSet(agent, n_cols, max(0, n_cols - n_eq))
    _, R_piv, piv = scipy.linalg.qr(matrix.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R_piv))
    rank = int(np.sum(diag > RANK_TOL * max(diag[0], 1.0)))
    if rank < n_rows:
        row = sorted(int(p) for p in piv[rank:])[0]
        raise RankDeficientWorkingSet(agent, row,
                                      row - n_eq if row >= n_eq else None)
    Q, R = np.linalg.qr(matrix.T, mode="complete")
    Y, Z, R1 = Q[:, :n_rows], Q[:, n_rows:], R[:n_rows, :n_rows]
    H, Cc = qp.hessian, dense_coupling(qp)
    particular = Y @ scipy.linalg.solve_triangular(R1.T, work.rhs, lower=True)
    chol = scipy.linalg.cho_factor(Z.T @ H @ Z)
    cpl_reduced = Cc @ Z
    reduced_grad = Z.T @ (H @ particular)
    schur = cpl_reduced @ scipy.linalg.cho_solve(chol, cpl_reduced.T)

    def backsubstitute(lam_local, extra):
        rhs = -reduced_grad - cpl_reduced.T @ lam_local - Z.T @ extra
        return Z @ scipy.linalg.cho_solve(chol, rhs) + particular

    def recover_duals(grad, lam_local):
        rhs = -(grad + Cc.T @ lam_local)
        gamma = scipy.linalg.solve_triangular(R1, Y.T @ rhs)
        return gamma, norm_inf(Y @ (Y.T @ rhs) - rhs)

    schur_rhs = Cc @ particular - cpl_reduced @ scipy.linalg.cho_solve(
        chol, reduced_grad)
    return 0.5 * (schur + schur.T), schur_rhs, backsubstitute, recover_duals


def _outcome(fn, *args):
    try:
        return fn(*args)
    except RankDeficientWorkingSet as exc:
        return exc


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(1, 4),
       n_active=st.integers(0, 4), twin=st.booleans())
def test_dynamics_basis_matches_qr_condensing(seed, horizon, n_active, twin):
    """Schur pieces, back-substituted steps and multipliers at stationarity
    agree with the QR reference; a working set holding both sides of one
    input fails in both, and the dynamics basis names the later side."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_agents=2)
    qps = build_network_qps(net, horizon, random_x0(rng, net))
    lam = rng.normal(size=qps[0].n_coupling)
    for qp in qps:
        act = _some_active(rng, qp, n_active)
        pair = ()
        if twin and act:
            half = qp.n_ineq // 2
            k = int(rng.integers(len(act)))
            pos = int(rng.integers(len(act) + 1))
            act.insert(pos, (act[k] + half) % (2 * half))
            pair = tuple(sorted((pos, k + (pos <= k))))
        work = working_constraints(qp, act)
        lam_local = lam[qp.coupled.rows]
        ref = _outcome(_qr_condense, qp, work)
        ca = _outcome(condense, qp, work)
        if pair:
            assert isinstance(ca, RankDeficientWorkingSet)
            assert isinstance(ref, RankDeficientWorkingSet)
            assert (ca.agent, ca.working_row, ca.active_position) == (
                qp.index, work.n_eq + pair[1], pair[1])
            # the pivoted QR names either side, as its column swaps fall;
            # with more rows than columns it names row n_cols instead
            assert ref.agent == qp.index
            if work.n_rows <= qp.size:
                assert ref.active_position in pair
            continue
        schur, schur_rhs, ref_backsubstitute, ref_recover = ref

        def close(a, b):
            return norm_inf(a - b) <= 1e-9 * (1.0 + norm_inf(b))

        assert close(ca.schur, schur) and close(ca.schur_rhs, schur_rhs)
        z = backsubstitute(ca, lam_local)
        assert close(z, ref_backsubstitute(lam_local, np.zeros(qp.size)))
        # a linear term moves the minimizer by the gain, as ADMM reads it
        extra = rng.normal(size=qp.size)
        z_ref = ref_backsubstitute(lam_local, extra)
        assert close(z + ca.factor.gain @ extra, z_ref)
        stationary = qp.hessian @ z_ref + extra
        gamma = np.concatenate(
            ref_kernel.working_set_duals(qp, ca, stationary, lam_local))
        gamma_ref, residual_ref = ref_recover(stationary, lam_local)
        assert close(gamma, gamma_ref)
        assert residual_ref <= 1e-9 * (1.0 + norm_inf(stationary))


def _raised(fn, *args):
    try:
        fn(*args)
    except (RankDeficientWorkingSet, IndefiniteReducedHessian) as exc:
        return exc
    return None


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(1, 4),
       n_active=st.integers(0, 4),
       fault=st.sampled_from([None, "twin", "indefinite"]))
def test_cached_factor_matches_per_call_kernel(seed, horizon, n_active,
                                               fault):
    """Condensing through the factor cache gives the per-call kernel's
    Schur piece, steps and multipliers, on the miss and on the hit after a
    new initial state; a failing working set raises the kernel's error on
    every call and is never cached."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_agents=2)
    qps = build_network_qps(net, horizon, random_x0(rng, net))
    lam = rng.normal(size=qps[0].n_coupling)

    def close(a, b):
        return norm_inf(a - b) <= 1e-9 * (1.0 + norm_inf(b))

    for qp in qps:
        act = _some_active(rng, qp, n_active)
        if fault == "twin" and act:
            half = qp.n_ineq // 2
            act.insert(int(rng.integers(len(act) + 1)),
                       (act[0] + half) % (2 * half))
        if fault == "indefinite":
            qp = dataclasses.replace(qp, hessian=-qp.hessian)
        lam_local = lam[qp.coupled.rows]
        moved = update_initial_state(qp, rng.normal(size=qp.layout.n_states))
        for q in (qp, moved):  # a miss, then a hit on the carried cache
            work = working_constraints(q, act)
            expected = _raised(ref_kernel.condense, q, work)
            if expected is not None:
                for _ in range(2):
                    got = _raised(condense, q, work)
                    assert type(got) is type(expected)
                    assert got.agent == expected.agent == q.index
                    if isinstance(expected, RankDeficientWorkingSet):
                        assert (got.working_row, got.active_position) == (
                            expected.working_row, expected.active_position)
                assert len(q.factors) == 0
                continue
            ca = condense(q, work)
            assert len(q.factors) == 1
            ref = ref_kernel.condense(q, work)
            assert close(ca.schur, ref.schur)
            assert close(ca.schur_rhs, ref.schur_rhs)
            z = backsubstitute(ca, lam_local)
            assert close(z, ref_kernel.backsubstitute(ref, lam_local))
            lin = rng.normal(size=q.size)
            assert close(z + ca.factor.gain @ lin,
                         ref_kernel.backsubstitute(ref, lam_local, lin))
            r = rng.normal(size=q.size)
            mu, nu = ref_kernel.working_set_duals(q, ca, r, lam_local)
            want = ref_kernel.recover_duals(q, ref, r, lam_local)
            assert close(mu, want.eq_duals)
            assert close(nu, want.ineq_duals)


def _dense_schur(qp, factor):
    """The Schur matrix from the dense coupling rows, as condensing formed
    it before the coupling plan's selections."""
    Cc = dense_coupling(qp)
    schur = -Cc @ factor.gain @ Cc.T
    return 0.5 * (schur + schur.T)


def _dense_backsubstitute(qp, ca, lam_local):
    """:func:`backsubstitute` with the dense ``Cc' lam``."""
    return ca.offset + ca.factor.gain @ (dense_coupling(qp).T @ lam_local)


def _dense_recover_duals(qp, ca, gradient, lam_local):
    """The equality and bound multipliers with the dense ``Cc' lam``."""
    r = np.asarray(gradient, dtype=float)
    if lam_local.size:
        r = r + dense_coupling(qp).T @ lam_local
    inverse = qp.factors.state_inverse
    return -(inverse.T @ r[:inverse.shape[0]]), ca.factor.duals @ r


def _same_bytes(a, b):
    """Byte equality up to the sign of zero (adding +0.0 maps -0.0 to
    +0.0 and keeps every other value): a dense product sums exact zeros in
    BLAS order, a selection keeps the selected zero's sign."""
    return a.dtype == b.dtype and a.shape == b.shape and \
        (a + 0.0).tobytes() == (b + 0.0).tobytes()


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_agents=st.integers(2, 3),
       horizon=st.integers(1, 4), n_active=st.integers(0, 4))
def test_coupling_selections_match_dense_products(seed, n_agents, horizon,
                                                  n_active):
    """The plan's gathers and scatters give the dense coupling products
    byte for byte, up to the sign of zero: a row selects one entry and,
    with at most two copies of a state (at most three agents), a column
    sums at most two multipliers, in either order exactly."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_agents=n_agents)
    qps = build_network_qps(net, horizon, random_x0(rng, net))
    lam = rng.normal(size=qps[0].n_coupling)
    for qp in qps:
        work = working_constraints(qp, _some_active(rng, qp, n_active))
        ca = condense(qp, work)
        lam_local = lam[qp.coupled.rows]
        assert _same_bytes(ca.schur, _dense_schur(qp, ca.factor))
        assert _same_bytes(ca.schur_rhs, dense_coupling(qp) @ ca.offset)
        assert _same_bytes(backsubstitute(ca, lam_local),
                           _dense_backsubstitute(qp, ca, lam_local))
        grad = rng.normal(size=qp.size)
        mu, nu = _dense_recover_duals(qp, ca, grad, lam_local)
        assert _same_bytes(
            ref_kernel.working_set_duals(qp, ca, grad, lam_local)[0], mu)
        assert _same_bytes(recover_duals(qp, ca, grad, lam_local), nu)


def test_factor_cache_follows_the_qp_structure():
    rng = np.random.default_rng(61)
    net = random_network(rng, n_agents=2)
    qp = build_network_qps(net, 3, random_x0(rng, net))[0]
    act = _some_active(rng, qp)
    first = condense(qp, working_constraints(qp, act))
    moved = update_initial_state(qp, rng.normal(size=qp.layout.n_states))
    again = condense(moved, working_constraints(moved, act))
    assert moved.factors is qp.factors
    assert again.factor is first.factor and len(qp.factors) == 1
    # a new Hessian or new coupling rows (the ADMM local QP has both)
    for changed in (dataclasses.replace(qp, hessian=2.0 * qp.hessian),
                    dataclasses.replace(qp, coupled=dataclasses.replace(qp.coupled)),
                    LocalQpSolver(qp, 5.0).local):
        assert changed.factors is not qp.factors
        assert len(changed.factors) == 0
        ca = condense(changed, working_constraints(changed, act))
        assert ca.factor is not first.factor
    assert len(qp.factors) == 1


def test_factor_cache_is_freed_with_its_qps():
    rng = np.random.default_rng(67)
    net = build_chain_of_masses(3)
    caches = []
    for _ in range(20):
        qps = build_network_qps(net, 4, random_x0(rng, net))
        for qp in qps:
            condense(qp, working_constraints(qp, ()))
        caches += [weakref.ref(qp.factors) for qp in qps]
    live = [c() for c in caches if c() is not None]
    assert sum(len(c) for c in live) == len(qps)


def test_factor_cache_drops_its_oldest_entry_beyond_the_bound(monkeypatch):
    monkeypatch.setattr(condense_module, "MAX_FACTORS", 2)
    rng = np.random.default_rng(71)
    net = build_chain_of_masses(3)
    qp = build_network_qps(net, 4, random_x0(rng, net))[1]
    sets = [(0,), (1,), (2,)]
    made = [condense(qp, working_constraints(qp, a)).factor
            for a in sets[:2]]
    # a hit makes its set the most recently used, so the other one goes
    assert qp.factors.get(sets[0]) is made[0]
    made.append(condense(qp, working_constraints(qp, sets[2])).factor)
    assert len(qp.factors) == 2
    assert qp.factors.get(sets[1]) is None
    assert qp.factors.get(sets[0]) is made[0]
    assert qp.factors.get(sets[2]) is made[2]
