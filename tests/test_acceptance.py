"""End-to-end acceptance gate.

Every test below covers one release criterion and prints a single
``[criterion N] PASS/FAIL`` line with the measured numbers (run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they appear;
without ``-s`` pytest shows them for failing tests only).  The closed-loop
benchmark runs are shared between criteria through module-scoped fixtures,
so the whole gate stays well inside the stated runtime budgets.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from dmpcqp import (AsmConfig, Fabric, asm_solve, build_chain_of_masses,
                    build_network_qps, network_objective, working_constraints)
from dmpcqp.cli import ExperimentConfig, run_experiment
from dmpcqp.condense import condense
from dmpcqp.dcg import dcg_init, dcg_iterate, dcg_solve
from dmpcqp.fabric import verify_comm_identities
from dmpcqp.qp_builder import stack_global

from conftest import norm_inf, random_network, random_x0, tiny_network
from oracle_reference import cold_solve, enumerate_active_sets, objective
from test_dcg import assemble, centralized_cg, gather

BASELINE = dict(scenario="chain", n_masses=10, horizon=12, steps=25,
                n_inits=5, seed=2024)
ADMM_RHO = 5.0

CSV_FILES = ("iterations.csv", "communication.csv", "trajectories.csv",
             "deviation.csv", "summary.csv")


def _report(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}",
          flush=True)
    assert ok, f"criterion {num}: {detail}"


def _timed_run(out_dir, **overrides):
    cfg = ExperimentConfig(**BASELINE, out_dir=str(out_dir), **overrides)
    t0 = time.perf_counter()
    result = run_experiment(cfg)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def asm_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("asm")
    first = _timed_run(root / "a", solver="asm-dcg")
    second = _timed_run(root / "b", solver="asm-dcg")
    return root, first, second


@pytest.fixture(scope="module")
def admm1_run(tmp_path_factory):
    return _timed_run(tmp_path_factory.mktemp("admm1") / "r",
                      solver="admm1", rho=ADMM_RHO)


@pytest.fixture(scope="module")
def admm2_run(tmp_path_factory):
    return _timed_run(tmp_path_factory.mktemp("admm2") / "r",
                      solver="admm2", rho=ADMM_RHO)


def _max_deviation(result):
    return max(r.deviation for r in result.records if r.deviation is not None)


def test_criterion_1_dimension_reproduction():
    t0 = time.perf_counter()
    net = build_chain_of_masses(10, dt=0.2)
    qps = build_network_qps(net, 12, [np.zeros(2)] * 10)
    dims = (sum(qp.size for qp in qps), sum(qp.n_eq for qp in qps),
            sum(qp.n_ineq for qp in qps), qps[0].n_coupling)
    elapsed = time.perf_counter() - t0
    ok = dims == (812, 260, 240, 432) and elapsed < 1.0
    _report(1, ok, "baseline dimensions n_z=%d eq=%d ineq=%d coupling=%d "
            "(%.2fs)" % (*dims, elapsed))


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(9001)
    worst_z = worst_obj = 0.0
    t0 = time.perf_counter()
    for _ in range(200):
        m_agents = int(rng.integers(2, 5))
        horizon = int(rng.integers(2, 5))
        net = random_network(rng, n_agents=m_agents)
        qps = build_network_qps(net, horizon, random_x0(rng, net))
        res = asm_solve(qps)
        dense = stack_global(qps)
        ref = cold_solve(dense)
        worst_z = max(worst_z, norm_inf(np.concatenate(res.z) - ref.z))
        worst_obj = max(worst_obj, abs(network_objective(qps, res.z)
                                       - objective(dense, ref.z)))
    elapsed = time.perf_counter() - t0
    ok = worst_z < 1e-6 and worst_obj < 1e-8 and elapsed < 120.0
    _report(2, ok, f"200 networks vs dense oracle: max |z| dev {worst_z:.2e}"
            f" (tol 1e-06), max objective dev {worst_obj:.2e} (tol 1e-08)"
            f" ({elapsed:.1f}s)")


def test_criterion_3_brute_force_equivalence():
    rng = np.random.default_rng(9002)
    worst = 0.0
    count = 0
    t0 = time.perf_counter()
    while count < 50:
        net = tiny_network(rng)
        qps = build_network_qps(net, 2, random_x0(rng, net))
        if sum(qp.n_ineq for qp in qps) > 10:
            continue
        count += 1
        res = asm_solve(qps)
        ref = enumerate_active_sets(stack_global(qps))
        worst = max(worst, norm_inf(np.concatenate(res.z) - ref.z))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 60.0
    _report(3, ok, f"50 tiny instances vs enumeration: max |z| dev "
            f"{worst:.2e} (tol 1e-06) ({elapsed:.1f}s)")


def test_criterion_4_closed_loop_accuracy(asm_runs, admm1_run, admm2_run):
    _, (asm_res, t_asm), _ = asm_runs
    admm1_res, t_admm1 = admm1_run
    admm2_res, t_admm2 = admm2_run
    devs = (_max_deviation(asm_res), _max_deviation(admm1_res),
            _max_deviation(admm2_res))
    elapsed = t_asm + t_admm1 + t_admm2
    fails = (asm_res.failures, admm1_res.failures, admm2_res.failures)
    ok = (devs[0] <= 1e-6 and devs[1] <= 1e-4 and devs[2] <= 1e-3
          and fails == (0, 0, 0) and elapsed < 600.0)
    _report(4, ok, "closed-loop max state deviation from centralized MPC: "
            f"asm-dcg {devs[0]:.2e} (tol 1e-06), admm1 {devs[1]:.2e} "
            f"(tol 1e-04), admm2 {devs[2]:.2e} (tol 1e-03) over 5 inits x "
            f"25 samples ({elapsed:.1f}s)")


def test_criterion_5_communication_identities():
    rng = np.random.default_rng(9005)
    net = build_chain_of_masses(10, dt=0.2)
    x0s = [rng.uniform(-1, 1, size=2) for _ in range(10)]
    qps = build_network_qps(net, 12, x0s)
    fab = Fabric(10)
    res = asm_solve(qps, None, AsmConfig(), fab)
    M, n_c = 10, qps[0].n_coupling
    k_dcg = res.stats.dcg_total
    k_asm = res.stats.outer_iterations
    delta = res.stats.ledger
    verify_comm_identities(delta, M, n_c, dcg_iterations=k_dcg,
                           asm_iterations=k_asm)
    gf = delta.phase("dcg").global_floats + delta.phase("asm").global_floats
    gb = delta.phase("dcg").global_booleans + delta.phase("asm").global_booleans
    lf = delta.phase("dcg").local_floats
    ok = (gf == 4 * M * k_dcg + 2 * M * k_asm
          and gb == 2 * M * (k_dcg + k_asm)
          and lf == 2 * n_c * k_dcg)
    # the same identities are asserted for every sample of every closed-loop
    # run (the experiment loop calls verify_comm_identities each solve)
    _report(5, ok, f"ledger identities exact: {gf} global floats = "
            f"4M*{k_dcg}+2M*{k_asm}, {gb} global booleans = "
            f"2M*({k_dcg}+{k_asm}), {lf} local floats = 2n_c*{k_dcg} "
            f"(M={M}, n_c={n_c})")


def test_criterion_6_dcg_finite_convergence():
    rng = np.random.default_rng(9006)
    worst_dev = 0.0
    worst_res = 0.0
    worst_iters = 0
    t0 = time.perf_counter()
    for _ in range(100):
        net = random_network(rng, n_agents=int(rng.integers(2, 5)))
        horizon = int(rng.integers(2, 5))
        qps = build_network_qps(net, horizon, random_x0(rng, net))
        n_c = qps[0].n_coupling
        pieces = [condense(qp, working_constraints(qp, [])) for qp in qps]
        reference = centralized_cg(pieces, n_c, eps=1e-7, max_iter=n_c + 5)
        fab = Fabric(len(pieces))
        partner = qps[0].coupling.partner
        state = dcg_init(pieces, partner, None, fab)
        done = False
        for lam_ref in reference:
            done = dcg_iterate(state, partner, fab, eps=1e-7)
            lam = gather(pieces, state.lambdas(), n_c)
            scale = max(1.0, norm_inf(lam_ref))
            worst_dev = max(worst_dev, norm_inf(lam - lam_ref) / scale)
            if done:
                break
        S, s = assemble(pieces, n_c)
        lam = gather(pieces, state.lambdas(), n_c)
        worst_res = max(worst_res, norm_inf(s - S @ lam))
        worst_iters = max(worst_iters, len(reference))
        if not done:
            break
    elapsed = time.perf_counter() - t0
    ok = done and worst_res < 1e-7 and worst_dev <= 1e-12 and elapsed < 60.0
    _report(6, ok, "100 condensed systems: residual < 1e-07 within n_c+5 "
            f"(worst residual {worst_res:.2e}, worst iterations "
            f"{worst_iters}), per-iteration deviation from centralized CG "
            f"{worst_dev:.2e} (tol 1e-12) ({elapsed:.1f}s)")


def test_criterion_7_iteration_count_plausibility(asm_runs, admm1_run):
    root, (asm_res, t_asm), _ = asm_runs
    admm1_res, t_admm1 = admm1_run
    meta = json.loads((root / "a" / "meta.json").read_text())
    agg = asm_res.aggregates
    asm_mean = agg["asm_iterations"]["mean"]
    asm_max = agg["asm_iterations"]["max"]
    dcg_mean = agg["dcg_total"]["mean"]
    dcg_max = agg["dcg_total"]["max"]
    admm_mean = admm1_res.aggregates["admm_iterations"]["mean"]
    documented = json.loads(
        (admm1_run[0].out_dir / "meta.json").read_text())["config"]["rho"]
    elapsed = t_asm + t_admm1
    ok = (1.0 <= asm_mean <= 3.0 and asm_max <= 5
          and 10.0 <= dcg_mean <= 100.0 and dcg_max <= 300
          and 50.0 <= admm_mean <= 400.0
          and documented == ADMM_RHO and 0.5 <= documented <= 5.0
          and meta["config"]["solver"] == "asm-dcg"
          and elapsed < 900.0)
    _report(7, ok, "warm-started baseline iteration counts: active-set mean "
            f"{asm_mean:.2f} in [1,3] max {asm_max:.0f} <= 5, inner CG mean "
            f"{dcg_mean:.1f} in [10,100] max {dcg_max:.0f} <= 300, admm1 "
            f"mean {admm_mean:.1f} in [50,400] at rho={documented} "
            f"(in metadata) ({elapsed:.1f}s)")


def test_criterion_8_feasible_iterates_and_descent():
    # every asm_solve checks every iterate, so every acceptance solve above
    # was checked: each post-initialization iterate is verified against the
    # feasibility tolerances and the objective must not increase, otherwise
    # the solver raises.  Repeat a batch of solves here.
    cfg = AsmConfig()
    rng = np.random.default_rng(9008)
    solves = 0
    net = build_chain_of_masses(10, dt=0.2)
    for _ in range(3):
        x0s = [rng.uniform(-1, 1, size=2) for _ in range(10)]
        asm_solve(build_network_qps(net, 12, x0s), cfg=cfg)
        solves += 1
    for seed in range(5):
        rnet = random_network(np.random.default_rng(9100 + seed))
        qps = build_network_qps(rnet, 3, random_x0(rng, rnet))
        asm_solve(qps, cfg=cfg)
        solves += 1
    ok = solves == 8
    _report(8, ok, f"feasibility invariant (eq 1e-08, bounds 1e-09, "
            f"coupling 1e-07) and non-increasing objective held on every "
            f"iterate of {solves} checked solves")


def test_criterion_9_deterministic_artifacts(asm_runs):
    root, _, _ = asm_runs
    same = {name: (root / "a" / name).read_bytes() ==
            (root / "b" / name).read_bytes() for name in CSV_FILES}
    total = sum((root / "a" / name).stat().st_size for name in CSV_FILES)
    ok = all(same.values())
    bad = [name for name, good in same.items() if not good]
    _report(9, ok, "identical seeds give byte-identical CSV artifacts "
            f"({len(CSV_FILES)} files, {total} bytes)"
            + (f"; mismatch in {bad}" if bad else ""))
