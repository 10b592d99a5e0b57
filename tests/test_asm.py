import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmpcqp import (AgentBounds, AsmConfig, Fabric, asm_solve,
                    build_chain_of_masses, build_network_qps,
                    compute_step_length, network_objective,
                    rollout_feasible_point, shift_active, verify_iterate,
                    working_constraints)
import dmpcqp.asm as asm_module
from dmpcqp.asm import DUAL_TOL, most_violated_bound
from dmpcqp.condense import condense
from dmpcqp.cli import (ExperimentConfig, _closed_loop_distributed,
                        build_network, sample_initial_states)
from dmpcqp.errors import (AsmIterationLimit, FeasibilityViolation,
                           RankDeficientWorkingSet, SolverError)
from dmpcqp.dcg import dcg_solve
from dmpcqp.fabric import PhaseCounters, verify_comm_identities
from dmpcqp.qp_builder import stack_global

import asm_reference
from condense_reference import working_set_duals
from conftest import (dense_bounds, network_with_isolated_agent, norm_inf,
                      random_network, random_x0)
from oracle_reference import cold_solve, kkt_residual, objective


def _network_problem(seed, n_agents=3, horizon=3, x0_scale=1.0):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_agents=n_agents)
    x0s = random_x0(rng, net, scale=x0_scale)
    return net, build_network_qps(net, horizon, x0s)


def _multipliers(qps, res):
    """Each agent's equality and bound multipliers ``(mu, nu)`` at the
    solution, the bound ones as ``asm_solve`` certified them."""
    return [working_set_duals(qp, condense(qp, working_constraints(qp, act)),
                              qp.hessian @ z, lam)
            for qp, act, z, lam in zip(qps, res.active, res.z,
                                       res.cpl_duals)]


def test_matches_dense_oracle():
    for seed in (101, 102, 103, 104):
        net, qps = _network_problem(seed)
        res = asm_solve(qps)
        dense = stack_global(qps)
        ref = cold_solve(dense)
        z = np.concatenate(res.z)
        assert norm_inf(z - ref.z) < 1e-6
        ref_objective = objective(dense, ref.z)
        assert abs(network_objective(qps, res.z) - ref_objective) < \
            1e-8 * (1 + abs(ref_objective))


@pytest.mark.parametrize("name", ["eps_step", "eps_dcg"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_tolerances_must_be_finite_and_positive(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        AsmConfig(**{name: bad})


@pytest.mark.parametrize("bad", [2.5, 0, -1, "3", True, False])
def test_outer_cap_must_be_an_integer_of_at_least_one(bad):
    with pytest.raises(ValueError, match="max_outer must be an integer"):
        AsmConfig(max_outer=bad)


def test_terminal_kkt_residual_small():
    net, qps = _network_problem(105)
    res = asm_solve(qps)
    dqp = stack_global(qps)
    z = np.concatenate(res.z)
    # stacked convention: per-agent equality rows first, coupling rows last
    lam = np.full(qps[0].n_coupling, np.nan)
    for qp, loc in zip(qps, res.cpl_duals):
        lam[qp.coupled.rows] = loc
    multipliers = _multipliers(qps, res)
    eq_duals = np.concatenate([mu for mu, _ in multipliers] + [lam])
    active, duals, off = [], [], 0
    for qp, act, (_, nu) in zip(qps, res.active, multipliers):
        active.extend(off + row for row in act)
        duals.extend(nu)
        off += qp.n_ineq
    assert kkt_residual(dqp, z, eq_duals, np.array(duals),
                        active=active) < 1e-5


def test_warm_start_is_fixed_point():
    net, qps = _network_problem(107)
    first = asm_solve(qps)
    again = asm_solve(qps, warm_active=[list(a) for a in first.active])
    assert again.stats.outer_iterations == 1
    assert again.stats.init_rounds == 0
    assert norm_inf(np.concatenate(again.z) - np.concatenate(first.z)) < 1e-9


def test_clean_feasibility_round_is_the_first_active_set_iteration(
        chain10, monkeypatch):
    """Re-solving a warm fixed point of the 10-mass chain takes one round:
    its flags come back clean, and the same round's minimizers pass the
    multiplier check, with one DCG solve and one bootstrap charged to
    ``init``."""
    rng = np.random.default_rng(2024)
    x0s = sample_initial_states(chain10, rng, 1.0, 0.5)
    qps = build_network_qps(chain10, 12, x0s)
    first = asm_solve(qps)
    calls = []

    def counted(*args):
        calls.append(args)
        return dcg_solve(*args)

    monkeypatch.setattr(asm_module, "dcg_solve", counted)
    again = asm_solve(qps, warm_active=[list(a) for a in first.active])
    M, n_c = len(qps), qps[0].n_coupling
    assert len(calls) == 1
    assert (again.stats.init_rounds, again.stats.outer_iterations) == (0, 1)
    assert again.stats.ledger.phase("init") == \
        PhaseCounters(0, 4 * M, 2 * n_c)
    verify_iterate(qps, again.z)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_initial_state_is_rejected_before_a_solve(chain3, bad):
    """A NaN or infinite initial state is rejected where it enters the QPs,
    naming the agent, both when they are built and when the closed loop
    moves them to it, so no DCG solve runs to its cap on it."""
    x0s = [np.full(2, 0.1), np.array([0.1, bad]), np.full(2, 0.1)]
    with pytest.raises(ValueError, match="agent 1: initial state"):
        build_network_qps(chain3, 6, x0s)
    qps = build_network_qps(chain3, 6, [np.zeros(2)] * 3)
    with pytest.raises(ValueError, match="agent 1: initial state"):
        _closed_loop_distributed(
            chain3, ExperimentConfig(n_masses=3, horizon=6, steps=2), qps,
            x0s)


def test_interior_optimum_needs_one_iteration():
    # far-from-bounds start keeps every input strictly inside its box
    net, qps = _network_problem(109, x0_scale=0.01)
    res = asm_solve(qps)
    assert res.stats.outer_iterations == 1
    assert all(len(a) == 0 for a in res.active)
    ref = cold_solve(stack_global(qps))
    assert norm_inf(np.concatenate(res.z) - ref.z) < 1e-8


def test_feasibility_and_descent_hold_throughout():
    # the solver itself asserts both on every iterate; rerun a batch of
    # random instances and double-check the final iterate
    for seed in range(120, 126):
        net, qps = _network_problem(seed, x0_scale=2.0)
        res = asm_solve(qps)
        verify_iterate(qps, res.z)
        duals = np.concatenate([nu for _, nu in _multipliers(qps, res)
                                if nu.size] or [np.zeros(1)])
        assert duals.min(initial=0.0) >= -DUAL_TOL


def test_solve_comm_identities_exact():
    net, qps = _network_problem(111, x0_scale=2.0)
    fab = Fabric(len(qps))
    res = asm_solve(qps, fabric=fab)
    verify_comm_identities(res.stats.ledger, len(qps), qps[0].n_coupling,
                           dcg_iterations=res.stats.dcg_total,
                           asm_iterations=res.stats.outer_iterations)
    asm = res.stats.ledger.phase("asm")
    M = len(qps)
    assert asm.global_floats == 2 * M * res.stats.outer_iterations
    assert asm.global_booleans == 2 * M * res.stats.outer_iterations


def test_step_length_full_when_direction_zero():
    net, qps = _network_problem(113)
    qp = qps[0]
    z = np.zeros(qp.size)
    alpha, blocking = compute_step_length(z, np.zeros(qp.size), qp, [])
    assert (alpha, blocking) == (1.0, None)


def test_step_length_hits_bound_exactly():
    net, qps = _network_problem(115)
    qp = qps[0]
    z = np.zeros(qp.size)
    dz = np.zeros(qp.size)
    dz[qp.layout.u_slice(0)] = 2.0            # drives u_0 to its upper bound
    alpha, blocking = compute_step_length(z, dz, qp, [])
    hi = qp.ineq_rhs[blocking]
    assert blocking is not None
    stepped = dense_bounds(qp)[blocking] @ (z + alpha * dz)
    assert abs(stepped - hi) < 1e-10
    assert 0.0 < alpha < 1.0


def test_step_length_ignores_active_rows():
    net, qps = _network_problem(117)
    qp = qps[0]
    z = np.zeros(qp.size)
    dz = np.zeros(qp.size)
    dz[qp.layout.u_slice(0)] = 10.0
    full = compute_step_length(z, dz, qp, [])
    masked = compute_step_length(z, dz, qp, [full[1]])
    assert masked[0] >= full[0]
    assert masked[1] != full[1]


def test_violated_iterate_raises():
    net, qps = _network_problem(119)
    qp = qps[0]
    z = np.zeros(qp.size)
    z[qp.layout.u_slice(0)] = 10.0 * qp.ineq_rhs.max()  # far outside the box
    dz = np.zeros(qp.size)
    dz[qp.layout.u_slice(0)] = 1.0  # pushes further into the violated bound
    with pytest.raises(FeasibilityViolation):
        compute_step_length(z, dz, qp, [])


def _loop_step_length(z, dz, qp, active):
    """Row-by-row ratio test the vectorized one replaced, kept as reference."""
    ineq_matrix = dense_bounds(qp)
    if ineq_matrix.shape[0] == 0:
        return 1.0, None
    cz = ineq_matrix @ z
    cdz = ineq_matrix @ dz
    slack = qp.ineq_rhs - cz
    active = set(int(a) for a in active)
    alpha, blocking = 1.0, None
    for row in range(ineq_matrix.shape[0]):
        if row in active or cdz[row] <= 1e-12:
            continue
        if slack[row] < -1e-9:
            raise FeasibilityViolation(
                f"agent {qp.index}: bound row {row} violated by "
                f"{-slack[row]:.3e} before stepping")
        ratio = max(0.0, slack[row] / cdz[row])
        if ratio < alpha:
            alpha, blocking = ratio, row
    return alpha, blocking


def _loop_most_violated(qp, z, active, tol):
    """Inline most-violated pick the shared helper replaced."""
    viol = dense_bounds(qp) @ z - qp.ineq_rhs
    viol[list(active)] = -np.inf
    row = int(np.argmax(viol)) if viol.size else 0
    return row if viol.size and viol[row] > tol else None


# few distinct values, and signed unit rows on at most three columns, so
# repeated columns, equal ratios, zero slacks, directions that leave a bound
# alone and violated rows all come up often
_coef = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
_slack = st.sampled_from([-1.0, 0.0, 0.5, 1.0])


@st.composite
def _ratio_case(draw):
    rows = draw(st.integers(0, 8))
    cols = draw(st.integers(1, 3))

    def vec(n, elements=_coef):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)))

    bounds = AgentBounds(cols=vec(rows, st.integers(0, cols - 1)).astype(int),
                         signs=vec(rows, st.sampled_from([-1.0, 1.0])),
                         shifted=np.full(rows, -1))
    z = vec(cols)
    qp = SimpleNamespace(index=0, size=cols, bounds=bounds,
                         ineq_rhs=bounds.gather(z) + vec(rows, _slack))
    active = draw(st.lists(st.integers(0, max(rows - 1, 0)), unique=True,
                           max_size=rows))
    return qp, z, 4.0 * vec(cols), active


@settings(max_examples=400, deadline=None)
@given(_ratio_case())
def test_step_length_matches_row_loop(case):
    qp, z, dz, active = case
    try:
        expected = _loop_step_length(z, dz, qp, active)
    except FeasibilityViolation as exc:
        with pytest.raises(FeasibilityViolation) as got:
            compute_step_length(z, dz, qp, active)
        assert str(got.value) == str(exc)
    else:
        assert compute_step_length(z, dz, qp, active) == expected
    assert most_violated_bound(qp, z, active, 1e-9) == \
        _loop_most_violated(qp, z, active, 1e-9)


def _loop_coupling_residual(qps, zs):
    """The row-by-row coupling residual that ``verify_iterate`` summed
    before the plan's flat layout, kept as the reference."""
    total = np.zeros(qps[0].n_coupling)
    for qp, z in zip(qps, zs):
        total[qp.coupled.rows] += qp.coupled.gather(z)
    return float(np.abs(total).max(initial=0.0))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_agents=st.integers(2, 5),
       horizon=st.integers(1, 4), isolated=st.booleans())
def test_coupling_check_matches_row_loop(seed, n_agents, horizon, isolated):
    """``verify_iterate``'s coupling residual is the reference's bit for
    bit: with the other checks off it passes at a tolerance equal to the
    reference and fails at the next float below."""
    rng = np.random.default_rng(seed)
    net = (network_with_isolated_agent(rng, n_agents + 1) if isolated
           else random_network(rng, n_agents=n_agents))
    qps = build_network_qps(net, horizon, random_x0(rng, net))
    zs = [rng.normal(size=qp.size) for qp in qps]
    ref = _loop_coupling_residual(qps, zs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(asm_module, "EQUALITY_TOL", np.inf)
        mp.setattr(asm_module, "VIOLATION_TOL", np.inf)
        mp.setattr(asm_module, "COUPLING_TOL", ref)
        verify_iterate(qps, zs)
        mp.setattr(asm_module, "COUPLING_TOL", np.nextafter(ref, -np.inf))
        with pytest.raises(FeasibilityViolation, match="coupling residual"):
            verify_iterate(qps, zs)


def test_nan_iterate_fails_each_check():
    """A NaN in one agent's iterate raises :class:`FeasibilityViolation`
    naming the check it reaches first: the equality rows hold every entry,
    and with them dropped a NaN input fails the bound check and a NaN copy
    the coupling check; an all-NaN iterate fails too."""
    net = build_chain_of_masses(3)
    x0s = [np.full(a.n, 0.1) for a in net.agents]
    qps = build_network_qps(net, 4, x0s)
    zs = rollout_feasible_point(net, 4, x0s)
    verify_iterate(qps, zs)
    # a QP whose equality rows are dropped
    free = [dataclasses.replace(qp, eq_matrix=np.zeros((0, qp.size)),
                                eq_rhs=np.zeros(0)) for qp in qps]
    lay = qps[1].layout
    for checked, entry, message in (
            (qps, lay.x_slice(2).start, "agent 1: equality residual nan"),
            (free, lay.u_offset, "agent 1: bound violation nan"),
            (free, lay.v_offset, "coupling residual nan")):
        bad = [z.copy() for z in zs]
        bad[1][entry] = np.nan
        verify_iterate(checked, zs)
        with pytest.raises(FeasibilityViolation, match=message):
            verify_iterate(checked, bad)
    with pytest.raises(FeasibilityViolation, match="agent 0: equality"):
        verify_iterate(qps, [np.full(qp.size, np.nan) for qp in qps])


def _warm_with_first_agent(qps, rows):
    warm = [[] for _ in qps]
    warm[0] = rows
    return warm


def test_dependent_warm_rows_are_rejected():
    """Both sides of one input cannot be active together: such a warm set
    is rejected before any round, not repaired."""
    net, qps = _network_problem(121)
    N, m = qps[0].layout.horizon, qps[0].layout.n_inputs
    fabric = Fabric(len(qps))
    with pytest.raises(RankDeficientWorkingSet) as exc:
        asm_solve(qps, _warm_with_first_agent(qps, [0, N * m]),
                  fabric=fabric)
    assert (exc.value.agent, exc.value.active_position) == (0, 1)
    assert fabric.round_index == 0


def test_repeated_warm_rows_are_rejected():
    net, qps = _network_problem(121)
    fabric = Fabric(len(qps))
    with pytest.raises(ValueError, match="active rows repeated"):
        asm_solve(qps, _warm_with_first_agent(qps, [1, 1]), fabric=fabric)
    assert fabric.round_index == 0


def test_shift_active_moves_rows_one_step():
    net, qps = _network_problem(123)
    qp = qps[0]
    N, m = qp.layout.horizon, qp.layout.n_inputs
    rows = [0, m, 2 * m, N * m, N * m + m]
    shifted = shift_active(qp, rows)
    # step-0 rows (upper row 0, lower row N*m) fall off; others move down
    assert shifted == [0, m, N * m]


def test_objective_never_increases_across_instances():
    for seed in (131, 137):
        net, qps = _network_problem(seed, x0_scale=3.0)
        res = asm_solve(qps)
        zs_feas = [np.zeros(qp.size) for qp in qps]
        # any feasible point must cost at least the reported optimum
        x0s = [qp.eq_rhs[:net.agents[qp.index].n] for qp in qps]
        zs_feas = rollout_feasible_point(net, qps[0].layout.horizon, x0s)
        assert network_objective(qps, zs_feas) >= \
            network_objective(qps, res.z) - 1e-9


def test_iteration_cap_carries_trace():
    net, qps = _network_problem(127)
    clean = asm_solve(qps)
    # pin a strictly slack bound: releasing it takes at least two iterations
    slack = qps[0].ineq_rhs - dense_bounds(qps[0]) @ clean.z[0]
    planted = int(np.argmax(slack))
    warm = [list(a) for a in clean.active]
    assert planted not in warm[0]
    warm[0].append(planted)
    with pytest.raises(AsmIterationLimit) as exc:
        asm_solve(qps, warm_active=warm, cfg=AsmConfig(max_outer=1))
    assert exc.value.iterations == 1


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_agents=st.integers(2, 4),
       horizon=st.integers(1, 5), x0_scale=st.sampled_from([0.5, 2.0, 4.0]))
def test_solve_matches_step_variable_reference(seed, n_agents, horizon,
                                               x0_scale):
    """Steps taken as the working-set minimizer minus the iterate end on
    the active sets, iterate and objective of the step-variable loop they
    replaced."""
    net, qps = _network_problem(seed, n_agents, horizon, x0_scale)
    res = asm_solve(qps)
    ref = asm_reference.step_variable_asm_solve(qps)
    assert res.active == ref.active
    assert norm_inf(np.concatenate(res.z) - np.concatenate(ref.z)) < 1e-6
    ref_objective = network_objective(qps, ref.z)
    assert abs(network_objective(qps, res.z) - ref_objective) <= \
        1e-8 * abs(ref_objective)


def _independent_rows(rng, qp):
    """Distinct bound rows of ``qp`` on distinct inputs, in random order."""
    rows, cols = [], set()
    for row in rng.permutation(qp.n_ineq)[:rng.integers(0, qp.n_ineq + 1)]:
        col = int(qp.bounds.cols[row])
        if col not in cols:
            rows.append(int(row))
            cols.add(col)
    return rows


def _solve_outcome(solve, qps, warm, cfg):
    """Everything a solve returns or raises, with the fabric's counts."""
    fabric = Fabric(len(qps))
    try:
        res = solve(qps, warm, cfg, fabric)
    except SolverError as exc:
        outcome = (type(exc), str(exc))
    else:
        outcome = ([z.tobytes() for z in res.z], res.active,
                   [lam.tobytes() for lam in res.cpl_duals],
                   dataclasses.replace(res.stats, ledger=None),
                   res.stats.ledger.as_dict())
    return outcome, fabric.ledger.as_dict(), fabric.round_index


def _without_resolve(outcome, n_agents, n_entries):
    """The two-phase solver's outcome less its re-solve of the clean
    feasibility round's working set: one init round, a DCG bootstrap of
    ``n_entries`` coupling entries with its ``2 * n_agents`` flags, and
    that bootstrap's two fabric rounds."""
    def less(ledger):
        out = {phase: dict(counts) for phase, counts in ledger.items()}
        for phase in ("init", "total"):
            out[phase]["global_booleans"] -= 2 * n_agents
            out[phase]["local_floats"] -= n_entries
        return out

    result, ledger, rounds = outcome
    if len(result) == 5:  # a returned solve, not a raised error
        *result, stats, delta = result
        stats = dataclasses.replace(stats, init_rounds=stats.init_rounds - 1)
        result = (*result, stats, less(delta))
    return result, less(ledger), rounds - 2


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_agents=st.integers(2, 4),
       horizon=st.integers(1, 5), x0_scale=st.sampled_from([0.5, 2.0, 4.0]),
       warm_kind=st.sampled_from(["cold", "rows", "shifted"]),
       max_outer=st.sampled_from([None, 1, 2, 3]))
def test_one_loop_matches_the_two_phase_solver_bit_for_bit(
        seed, n_agents, horizon, x0_scale, warm_kind, max_outer):
    """The one-loop solve returns, or raises, what the two-phase solver it
    replaced did, byte for byte, from a cold start, from distinct rows on
    distinct inputs and from the previous sample's shifted final working
    set.  Its counters, ledger and round count are the reference's less
    the reference's re-solve of the clean feasibility round's working set,
    which starts from that round's multipliers and takes no DCG iteration:
    the one loop takes that round as its first active-set iteration."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_agents=n_agents)
    x0s = random_x0(rng, net, scale=x0_scale)
    warm = None
    if warm_kind == "rows":
        qps = build_network_qps(net, horizon, x0s)
        warm = [_independent_rows(rng, qp) for qp in qps]
    elif warm_kind == "shifted":
        previous = build_network_qps(net, horizon,
                                     random_x0(rng, net, scale=x0_scale))
        warm = [shift_active(qp, a) for qp, a in
                zip(previous, asm_solve(previous).active)]
    cfg = AsmConfig(max_outer=max_outer)
    got = _solve_outcome(asm_solve, build_network_qps(net, horizon, x0s),
                         warm, cfg)
    # the DCG iterations of the reference's first warm-started solve, its
    # re-solve of the clean round's working set
    resolves = []

    def recorded(pieces, partner, lambda0, eps, fabric):
        sol = dcg_solve(pieces, partner, lambda0, eps, fabric)
        if lambda0 is not None and not resolves:
            resolves.append(sol.iterations)
        return sol

    qps = build_network_qps(net, horizon, x0s)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(asm_reference, "dcg_solve", recorded)
        want = _solve_outcome(asm_reference.asm_solve, qps, warm, cfg)
    assert resolves in ([], [0])
    if resolves:
        want = _without_resolve(want, len(qps), qps[0].coupling.partner.size)
    assert got == want


def test_accepted_iterates_keep_the_coupling_residual_of_one_dcg_solve(
        monkeypatch):
    """Every accepted iterate is a convex combination of working-set
    minimizers, each solved to the DCG tolerance, so its coupling residual
    does not grow with the steps of a solve, on a chain whose inputs
    saturate for many samples."""
    worst = []

    def recorded(qps, zs):
        plan = qps[0].coupling
        image = plan.signs * np.concatenate(zs)[plan.columns]
        worst.append(float(np.abs(image + image[plan.partner]).max()))
        verify_iterate(qps, zs)

    monkeypatch.setattr(asm_module, "verify_iterate", recorded)
    cfg = ExperimentConfig(n_masses=5, horizon=12, u_max=0.3)
    net = build_network(cfg)
    rng = np.random.default_rng(7)
    qps = build_network_qps(net, cfg.horizon,
                            [np.zeros(a.n) for a in net.agents])
    for _ in range(10):
        _closed_loop_distributed(net, cfg, qps, sample_initial_states(
            net, rng, cfg.y0_range, cfg.v0_range))
    assert len(worst) > 10 * cfg.steps
    assert max(worst) <= 1.5 * cfg.eps_dcg


def test_bound_binding_chain_passes_the_descent_check():
    """On a 20-mass chain whose inputs bind, one active-set step of init 1
    at sample 21 raises the objective by 7.2e-6, past ``OBJECTIVE_TOL``,
    because its iterates meet the coupling rows only to the DCG tolerance;
    the Lagrangian at that round's multipliers, which the step minimizes,
    falls, so the closed loop runs through that sample."""
    cfg = ExperimentConfig(n_masses=20, u_max=0.1, horizon=12, steps=22)
    net = build_network(cfg)
    rng = np.random.default_rng(7)
    x0s = [sample_initial_states(net, rng, cfg.y0_range, cfg.v0_range)
           for _ in range(2)][1]
    _, _, samples = _closed_loop_distributed(
        net, cfg, build_network_qps(net, cfg.horizon, x0s), x0s)
    assert len(samples) == 22
    assert samples[21]["asm_iterations"] > 1
