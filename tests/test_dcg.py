from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmpcqp import (Fabric, build_network_qps, build_partner,
                    working_constraints)
from dmpcqp.cli import sample_initial_states
from dmpcqp.condense import condense
from dmpcqp.dcg import dcg_init, dcg_iterate, dcg_solve
from dmpcqp.errors import (CommAccountingError, CurvatureBreakdown,
                           DcgIterationLimit, InconsistentWarmStart,
                           SolverError)
from dmpcqp.fabric import PhaseCounters, verify_comm_identities

import dcg_reference
from conftest import (network_with_isolated_agent, norm_inf, random_network,
                      random_x0)


#: The three fields the solver reads of a condensed agent.
SchurPiece = namedtuple("SchurPiece", "rows schur schur_rhs")


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


def partner_of(pieces):
    return build_partner([p.rows for p in pieces])


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
        partner = partner_of(pieces)
        state = dcg_init(pieces, partner, None, 1e-9, fab)
        for it, lam_ref in enumerate(reference):
            done = dcg_iterate(state, partner, fab, eps=1e-9)
            lam = gather(pieces, state.lambdas(), n_rows)
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
        res = dcg_solve(pieces, partner_of(pieces), None, 1e-10, fab)
        assert res.iterations <= n_rows + 5
        lam = gather(pieces, res.lambdas, n_rows)
        assert norm_inf(S @ lam - s) < 1e-8


def test_solve_charges_exact_ledger():
    rng = np.random.default_rng(71)
    pieces = random_pieces(rng, n_agents=3, n_rows=9)
    fab = Fabric(3)
    res = dcg_solve(pieces, partner_of(pieces), None, 1e-10, fab)
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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_tolerance_must_be_finite_and_positive(bad):
    rng = np.random.default_rng(71)
    pieces = random_pieces(rng, n_agents=3, n_rows=9)
    fab = Fabric(3)
    with pytest.raises(ValueError, match="eps must be finite"):
        dcg_solve(pieces, partner_of(pieces), None, bad, fab)
    # rejected before any exchange
    assert fab.round_index == 0


def test_warm_start_at_solution_is_free():
    rng = np.random.default_rng(73)
    pieces = random_pieces(rng, n_rows=7)
    S, s = assemble(pieces, 7)
    lam_star = np.linalg.solve(S, s)
    fab = Fabric(len(pieces))
    res = dcg_solve(pieces, partner_of(pieces),
                    [lam_star[p.rows] for p in pieces], 1e-7, fab)
    assert res.iterations == 0
    assert fab.ledger.phase("dcg").global_floats == 0


def test_cold_solve_takes_three_rounds_per_iteration(chain10):
    """On the 10-mass chain at horizon 12, the bootstrap takes two rounds,
    the residual exchange and one flag round carrying the first ``eta``,
    and every iteration three: the curvature, the product exchange and
    the flag round carrying the next ``eta``."""
    qps = build_network_qps(chain10, 12, sample_initial_states(
        chain10, np.random.default_rng(2024), y0_range=1.0, v0_range=0.5))
    pieces = [condense(qp, working_constraints(qp, [])) for qp in qps]
    M, n_c = len(qps), qps[0].n_coupling
    fab = Fabric(M)
    res = dcg_solve(pieces, qps[0].coupling.partner, None, 1e-8, fab)
    k = res.iterations
    assert k > 0
    assert fab.round_index == 2 + 3 * k
    assert fab.ledger.phase("init") == PhaseCounters(2 * M, 2 * M, 2 * n_c)
    assert fab.ledger.phase("dcg") == \
        PhaseCounters(4 * M * k, 2 * M * k, 2 * n_c * k)


def test_warm_start_at_solution_takes_only_the_bootstrap():
    """A warm start at the solution, as in
    :func:`test_warm_start_at_solution_is_free`, takes the bootstrap's two
    rounds and nothing more."""
    rng = np.random.default_rng(73)
    pieces = random_pieces(rng, n_rows=7)
    S, s = assemble(pieces, 7)
    lam_star = np.linalg.solve(S, s)
    M = len(pieces)
    fab = Fabric(M)
    res = dcg_solve(pieces, partner_of(pieces),
                    [lam_star[p.rows] for p in pieces], 1e-7, fab)
    assert res.iterations == 0
    assert fab.round_index == 2
    assert fab.ledger.phase("init") == PhaseCounters(2 * M, 2 * M, 2 * 7)
    assert fab.ledger.total() == fab.ledger.phase("init")


def test_inconsistent_warm_start_detected():
    rng = np.random.default_rng(79)
    pieces = random_pieces(rng, n_rows=6)
    lam0 = [rng.normal(size=p.rows.size) for p in pieces]  # disagrees on shares
    with pytest.raises(InconsistentWarmStart):
        dcg_solve(pieces, partner_of(pieces), lam0, 1e-8,
                  Fabric(len(pieces)))


def test_negative_curvature_raises():
    rng = np.random.default_rng(83)
    pieces = random_pieces(rng, n_rows=6, definite=False)
    with pytest.raises(CurvatureBreakdown):
        dcg_solve(pieces, partner_of(pieces), None, 1e-10,
                  Fabric(len(pieces)))


def segments_of(pieces):
    bounds = np.cumsum([0] + [p.rows.size for p in pieces])
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def test_overlaps_are_mutual():
    """The partner index is an involution without a fixed point, and both
    ends of every pair hold the same row in different agents."""
    rng = np.random.default_rng(89)
    for n_agents in (2, 3, 5):
        pieces = random_pieces(rng, n_agents=n_agents, n_rows=10)
        partner = partner_of(pieces)
        flat = np.concatenate([p.rows for p in pieces])
        holder = np.repeat(np.arange(n_agents),
                           [p.rows.size for p in pieces])
        assert partner.shape == flat.shape
        np.testing.assert_array_equal(partner[partner],
                                      np.arange(flat.size))
        assert not np.any(partner == np.arange(flat.size))
        np.testing.assert_array_equal(flat[partner], flat)
        assert not np.any(holder[partner] == holder)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_agents=st.integers(2, 6),
       n_rows=st.integers(1, 30), horizon=st.integers(1, 4))
def test_plan_overlaps_match_pairwise_search(seed, n_agents, n_rows,
                                             horizon):
    """The plan's partner index pairs exactly the positions the pairwise
    search of the reference solver finds."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_agents=n_agents,
                         edge_prob=rng.uniform(0.2, 1.0))
    qps = build_network_qps(net, horizon, random_x0(rng, net))
    network = [SchurPiece(qp.coupled.rows, None, None) for qp in qps]
    synthetic = random_pieces(rng, n_agents, n_rows)
    for pieces, partner in ((network, qps[0].coupling.partner),
                            (synthetic, partner_of(synthetic))):
        segments = segments_of(pieces)
        if pieces is network:
            assert list(qps[0].coupling.segments) == segments
        paired = np.full(partner.size, -1)
        ref = dcg_reference.build_overlaps([p.rows for p in pieces])
        for (a, b), (ia, ib) in ref.items():
            paired[segments[a].start + ia] = segments[b].start + ib
        assert partner.dtype == paired.dtype
        np.testing.assert_array_equal(partner, paired)


def random_working_set(rng, qp):
    """Bound rows with at most one side of each input active."""
    half = qp.n_ineq // 2
    picked = np.flatnonzero(rng.random(half) < 0.4)
    return [int(r + half * rng.integers(2)) for r in picked]


def outcome(solve, *args):
    """``solve``'s multipliers, iterations and ledger, or its error."""
    fab = Fabric(len(args[0]))
    try:
        res = solve(*args, fab)
    except DcgIterationLimit as err:
        kept = ("limit", [l.tobytes() for l in err.lambdas],
                err.residual_inf, err.iterations)
    except SolverError as err:
        kept = (type(err).__name__, str(err))
    else:
        kept = ("done", [l.tobytes() for l in res.lambdas], res.iterations)
    return kept, fab.ledger.as_dict(), fab.round_index


def three_rounds(outcome, n_agents):
    """The reference's outcome as the solver whose flag rounds carry
    ``eta`` charges it, derived from the reference's own ledger.

    The multipliers, iterations or error are the reference's.  The first
    ``eta`` rides the bootstrap's flag round, ``2 * n_agents`` more
    ``init`` floats, and every later one the previous iteration's flag
    round, one round fewer per completed iteration (``2 * n_agents``
    ``dcg`` booleans each).  A curvature breakdown leaves its iteration
    after the ``sigma`` sum, which the reference reached after its ``eta``
    sum: one sum and one round fewer."""
    kept, ledger, rounds = outcome
    ledger = {phase: dict(counts) for phase, counts in ledger.items()}
    two_m = 2 * n_agents
    done = ledger["dcg"]["global_booleans"] // two_m
    broke = ledger["dcg"]["global_floats"] > 2 * two_m * done
    assert broke == (kept[0] == "CurvatureBreakdown")
    for phase in ("init", "total"):
        ledger[phase]["global_floats"] += two_m
    for phase in ("dcg", "total"):
        ledger[phase]["global_floats"] -= two_m * broke
    return kept, ledger, rounds - done - broke


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_agents=st.integers(3, 6),
       horizon=st.integers(1, 4), warm=st.booleans())
def test_flat_solver_matches_reference_bit_for_bit(seed, n_agents, horizon,
                                                   warm):
    rng = np.random.default_rng(seed)
    net = network_with_isolated_agent(rng, n_agents)
    qps = build_network_qps(net, horizon, random_x0(rng, net))
    assert qps[-1].coupled.rows.size == 0
    pieces = [condense(qp, working_constraints(
        qp, random_working_set(rng, qp))) for qp in qps]
    lam0 = None
    if warm:
        shared = rng.normal(size=qps[0].n_coupling)
        lam0 = [shared[p.rows] for p in pieces]
    plan = qps[0].coupling
    overlaps = dcg_reference.build_overlaps([p.rows for p in pieces])
    for eps in (1e-10, 1e-300):
        got = outcome(dcg_solve, pieces, plan.partner, lam0, eps)
        want = outcome(dcg_reference.dcg_solve, pieces, overlaps, lam0, eps)
        assert got == three_rounds(want, n_agents)


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("working", ["empty", "random"])
def test_flat_solver_matches_reference_at_benchmark_size(chain10, working,
                                                         warm):
    """The benchmark's own system, 10 masses at horizon 12: an interior
    agent holds 96 coupling rows, where BLAS takes its blocked kernels."""
    rng = np.random.default_rng(2024)
    qps = build_network_qps(chain10, 12, sample_initial_states(
        chain10, rng, y0_range=1.0, v0_range=0.5))
    pieces = [condense(qp, working_constraints(
        qp, random_working_set(rng, qp) if working == "random" else []))
        for qp in qps]
    assert max(p.rows.size for p in pieces) == 96
    lam0 = None
    if warm:
        shared = rng.normal(size=qps[0].n_coupling)
        lam0 = [shared[p.rows] for p in pieces]
    overlaps = dcg_reference.build_overlaps([p.rows for p in pieces])
    for eps in (1e-8, 1e-300):
        got = outcome(dcg_solve, pieces, qps[0].coupling.partner, lam0, eps)
        want = outcome(dcg_reference.dcg_solve, pieces, overlaps, lam0, eps)
        assert got == three_rounds(want, len(pieces))


def test_multipliers_own_their_data():
    """Multipliers handed out stay as they were while the solver goes on:
    the state's buffers are updated in place."""
    rng = np.random.default_rng(103)
    pieces = random_pieces(rng, n_agents=4, n_rows=12)
    partner = partner_of(pieces)
    fab = Fabric(4)
    state = dcg_init(pieces, partner, None, 1e-300, fab)
    dcg_iterate(state, partner, fab, eps=1e-300)
    kept = state.lambdas()
    before = [l.tobytes() for l in kept]
    dcg_iterate(state, partner, fab, eps=1e-300)
    assert [l.tobytes() for l in state.lambdas()] != before
    assert [l.tobytes() for l in kept] == before

    res = dcg_solve(pieces, partner, None, 1e-10, fab)
    with pytest.raises(DcgIterationLimit) as limit:
        dcg_solve(pieces, partner, None, 1e-300, fab)
    for lambdas in (res.lambdas, limit.value.lambdas):
        before = [l.tobytes() for l in lambdas]
        # warm-started from them, and run to the cap
        with pytest.raises(DcgIterationLimit) as again:
            dcg_solve(pieces, partner, lambdas, 1e-300, fab)
        assert [l.tobytes() for l in lambdas] == before
        assert not any(np.shares_memory(a, b)
                       for a in lambdas for b in again.value.lambdas)
        assert not any(np.shares_memory(lambdas[i], lambdas[j])
                       for i in range(4) for j in range(i))


def test_iteration_limit_carries_the_last_iterate():
    rng = np.random.default_rng(101)
    pieces = random_pieces(rng, n_agents=4, n_rows=12)
    overlaps = dcg_reference.build_overlaps([p.rows for p in pieces])
    # no residual reaches this, so both solvers run to the cap
    with pytest.raises(DcgIterationLimit) as got:
        dcg_solve(pieces, partner_of(pieces), None, 1e-300, Fabric(4))
    with pytest.raises(DcgIterationLimit) as want:
        dcg_reference.dcg_solve(pieces, overlaps, None, 1e-300, Fabric(4))
    assert got.value.iterations == want.value.iterations == 3 * 12 + 60
    assert got.value.residual_inf == want.value.residual_inf > 0.0
    assert [l.tobytes() for l in got.value.lambdas] == \
        [l.tobytes() for l in want.value.lambdas]


def test_network_condensed_system_solves_coupling():
    """End-to-end: DCG on condensed agents reproduces the dense multiplier."""
    rng = np.random.default_rng(97)
    net = random_network(rng, n_agents=3)
    qps = build_network_qps(net, 3, random_x0(rng, net))
    n_c = qps[0].n_coupling
    cas = [condense(qp, working_constraints(qp, [])) for qp in qps]
    fab = Fabric(len(qps))
    res = dcg_solve(cas, qps[0].coupling.partner, None, 1e-11, fab)
    S = np.zeros((n_c, n_c))
    s = np.zeros(n_c)
    for ca in cas:
        S[np.ix_(ca.rows, ca.rows)] += ca.schur
        s[ca.rows] += ca.schur_rhs
    lam = gather(cas, res.lambdas, n_c)
    assert norm_inf(lam - np.linalg.solve(S, s)) < 1e-8
