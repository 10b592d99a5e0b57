import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmpcqp import (Fabric, build_network_qps, build_overlaps,
                    working_constraints)
from dmpcqp.condense import condense
from dmpcqp.dcg import SchurPiece, dcg_init, dcg_iterate, dcg_solve
from dmpcqp.errors import (CommAccountingError, CurvatureBreakdown,
                           InconsistentWarmStart)
from dmpcqp.fabric import verify_comm_identities

from conftest import norm_inf, random_network, random_x0


def random_pieces(rng, n_agents=3, n_rows=8, definite=True):
    """Synthetic Schur pieces: each global row shared by exactly two agents."""
    rows = [[] for _ in range(n_agents)]
    for r in range(n_rows):
        a, b = rng.choice(n_agents, size=2, replace=False)
        rows[a].append(r)
        rows[b].append(r)
    pieces = []
    for i in range(n_agents):
        ri = np.array(sorted(rows[i]), dtype=int)
        k = ri.size
        F = rng.normal(size=(k, k))
        Si = F.T @ F + (0.3 * np.eye(k) if definite else -2.0 * np.eye(k))
        pieces.append(SchurPiece(rows=ri, schur=Si,
                                 schur_rhs=rng.normal(size=k)))
    return pieces


def overlaps_of(pieces):
    return build_overlaps([p.rows for p in pieces])


def assemble(pieces, n_rows):
    S = np.zeros((n_rows, n_rows))
    s = np.zeros(n_rows)
    for p in pieces:
        S[np.ix_(p.rows, p.rows)] += p.schur
        s[p.rows] += p.schur_rhs
    return S, s


def centralized_cg(pieces, n_rows, eps, max_iter):
    """Fletcher-Reeves CG on the assembled system, one global iterate list.

    Operates on full-length vectors; scalar reductions and the
    matrix-vector product accumulate per agent in ascending index, the
    documented deterministic order, so the distributed run must reproduce
    these iterates to rounding.  Shared rows carry weight 1/2 in the
    residual norm, cancelling their double coverage.
    """
    s = np.zeros(n_rows)
    for p in pieces:
        s[p.rows] += p.schur_rhs
    lam = np.zeros(n_rows)
    r = s.copy()
    d = r.copy()
    eta_prev = None
    out = []
    for k in range(max_iter):
        eta = 0.0
        for p in pieces:
            loc = r[p.rows]
            eta += float(loc @ (0.5 * loc))
        d = r.copy() if k == 0 else r + (eta / eta_prev) * d
        eta_prev = eta
        Sd = np.zeros(n_rows)
        sigma = 0.0
        for p in pieces:
            loc = d[p.rows]
            prod = p.schur @ loc
            sigma += float(loc @ prod)
            Sd[p.rows] += prod
        step = eta / sigma
        lam = lam + step * d
        r = r - step * Sd
        out.append(lam.copy())
        if norm_inf(r) < eps:
            break
    return out


def gather(pieces, lambdas, n_rows):
    """Expand per-agent compressed multipliers to the global vector."""
    lam = np.full(n_rows, np.nan)
    for p, loc in zip(pieces, lambdas):
        for r, v in zip(p.rows, loc):
            if not np.isnan(lam[r]):
                assert lam[r] == v  # both copies bitwise identical
            lam[r] = v
    assert not np.isnan(lam).any()
    return lam


def test_matches_centralized_cg_per_iteration():
    rng = np.random.default_rng(61)
    for trial in range(5):
        n_rows = 8 + 2 * trial
        pieces = random_pieces(rng, n_rows=n_rows)
        reference = centralized_cg(pieces, n_rows, eps=1e-9,
                                   max_iter=3 * n_rows + 60)

        fab = Fabric(len(pieces))
        overlaps = overlaps_of(pieces)
        states = dcg_init(pieces, overlaps, None, fab)
        for it, lam_ref in enumerate(reference):
            done = dcg_iterate(states, overlaps, fab, eps=1e-9)
            lam = gather(pieces, [st.lam for st in states], n_rows)
            scale = max(1.0, norm_inf(lam_ref))
            assert norm_inf(lam - lam_ref) <= 1e-12 * scale
            if done:
                break
        assert done and it == len(reference) - 1


def test_finite_convergence_and_true_solution():
    rng = np.random.default_rng(67)
    for _ in range(10):
        n_rows = int(rng.integers(4, 14))
        pieces = random_pieces(rng, n_rows=n_rows)
        S, s = assemble(pieces, n_rows)
        fab = Fabric(len(pieces))
        res = dcg_solve(pieces, overlaps_of(pieces), None, 1e-10, fab)
        assert res.iterations <= n_rows + 5
        lam = gather(pieces, res.lambdas, n_rows)
        assert norm_inf(S @ lam - s) < 1e-8


def test_solve_charges_exact_ledger():
    rng = np.random.default_rng(71)
    pieces = random_pieces(rng, n_agents=3, n_rows=9)
    fab = Fabric(3)
    res = dcg_solve(pieces, overlaps_of(pieces), None, 1e-10, fab)
    M, n_c, k = 3, 9, res.iterations
    verify_comm_identities(fab.ledger.delta(type(fab.ledger)()), M, n_c,
                           dcg_iterations=k)
    dcg = fab.ledger.phase("dcg")
    assert dcg.global_floats == 4 * M * k
    assert dcg.global_booleans == 2 * M * k
    assert dcg.local_floats == 2 * n_c * k
    init = fab.ledger.phase("init")
    assert init.local_floats == 2 * n_c          # residual bootstrap
    assert init.global_booleans == 2 * M         # pre-loop flags


def test_warm_start_at_solution_is_free():
    rng = np.random.default_rng(73)
    pieces = random_pieces(rng, n_rows=7)
    S, s = assemble(pieces, 7)
    lam_star = np.linalg.solve(S, s)
    fab = Fabric(len(pieces))
    res = dcg_solve(pieces, overlaps_of(pieces),
                    [lam_star[p.rows] for p in pieces], 1e-7, fab)
    assert res.iterations == 0
    assert fab.ledger.phase("dcg").global_floats == 0


def test_inconsistent_warm_start_detected():
    rng = np.random.default_rng(79)
    pieces = random_pieces(rng, n_rows=6)
    lam0 = [rng.normal(size=p.rows.size) for p in pieces]  # disagrees on shares
    with pytest.raises(InconsistentWarmStart):
        dcg_solve(pieces, overlaps_of(pieces), lam0, 1e-8,
                  Fabric(len(pieces)))


def test_negative_curvature_raises():
    rng = np.random.default_rng(83)
    pieces = random_pieces(rng, n_rows=6, definite=False)
    with pytest.raises(CurvatureBreakdown):
        dcg_solve(pieces, overlaps_of(pieces), None, 1e-10,
                  Fabric(len(pieces)))


def test_overlaps_are_mutual():
    rng = np.random.default_rng(89)
    pieces = random_pieces(rng, n_rows=10)
    overlaps = overlaps_of(pieces)
    for (a, b), (ia, ib) in overlaps.items():
        np.testing.assert_array_equal(pieces[a].rows[ia], pieces[b].rows[ib])
        jb, ja = overlaps[(b, a)]
        np.testing.assert_array_equal(pieces[a].rows[ja], pieces[a].rows[ia])


def _reference_overlaps(pieces):
    """The pairwise search DCG ran on every solve before the coupling plan
    held its result, kept verbatim as the reference."""
    overlaps = {}
    for a in range(len(pieces)):
        for b in range(a + 1, len(pieces)):
            shared, ia, ib = np.intersect1d(
                pieces[a].rows, pieces[b].rows,
                assume_unique=True, return_indices=True)
            if shared.size:
                overlaps[(a, b)] = (ia, ib)
                overlaps[(b, a)] = (ib, ia)
    return overlaps


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_agents=st.integers(2, 6),
       n_rows=st.integers(1, 30), horizon=st.integers(1, 4))
def test_plan_overlaps_match_pairwise_search(seed, n_agents, n_rows,
                                             horizon):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_agents=n_agents,
                         edge_prob=rng.uniform(0.2, 1.0))
    qps = build_network_qps(net, horizon, random_x0(rng, net))
    network = [SchurPiece(qp.coupled.rows, None, None) for qp in qps]
    synthetic = random_pieces(rng, n_agents, n_rows)
    for pieces, overlaps in ((network, qps[0].coupling.overlaps),
                             (synthetic, overlaps_of(synthetic))):
        ref = _reference_overlaps(pieces)
        assert list(overlaps) == list(ref)
        for pair, (ia, ib) in ref.items():
            got_a, got_b = overlaps[pair]
            assert got_a.dtype == ia.dtype and np.array_equal(got_a, ia)
            assert got_b.dtype == ib.dtype and np.array_equal(got_b, ib)


def test_network_condensed_system_solves_coupling():
    """End-to-end: DCG on condensed agents reproduces the dense multiplier."""
    rng = np.random.default_rng(97)
    net = random_network(rng, n_agents=3)
    qps = build_network_qps(net, 3, random_x0(rng, net))
    n_c = qps[0].n_coupling
    cas = [condense(qp, working_constraints(qp, [], homogeneous=False))
           for qp in qps]
    fab = Fabric(len(qps))
    res = dcg_solve(cas, qps[0].coupling.overlaps, None, 1e-11, fab)
    S = np.zeros((n_c, n_c))
    s = np.zeros(n_c)
    for ca in cas:
        S[np.ix_(ca.rows, ca.rows)] += ca.schur
        s[ca.rows] += ca.schur_rhs
    lam = gather(cas, res.lambdas, n_c)
    assert norm_inf(lam - np.linalg.solve(S, s)) < 1e-8
