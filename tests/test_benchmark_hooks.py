"""The benchmark's attach points resolve against the package.

``perfbench`` times per-layer spans by wrapping ``dmpcqp`` functions it
names in ``bench.ATTACH_POINTS``.  A renamed or removed function only drops
that span's metrics with a warning, and ``perfbench``'s own tests are not
part of this suite, so a rename is caught here, and so is a change to how
often the ``condense`` and ADMM spans are entered or to the signatures of
the calls the benchmark's closed loop makes.
"""

import dataclasses
import importlib
from pathlib import Path

import numpy as np

import dmpcqp.admm as admm_module
import dmpcqp.asm as asm_module
from dmpcqp import (WorkingConstraints, build_chain_of_masses,
                    build_network_qps)
from dmpcqp.admm import LocalQpSolver
from dmpcqp.cli import ExperimentConfig, _closed_loop_distributed

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_benchmark_attach_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench
    from tracer import Tracer

    tracer = Tracer()
    try:
        missing = tracer.attach(bench.ATTACH_POINTS)
    finally:
        tracer.detach()
    assert bench.ATTACH_POINTS
    assert missing == []


def test_condense_spans_keep_their_meaning(monkeypatch):
    """The benchmark reads ``condense.calls_per_sample`` and
    ``condense.working_rows_per_call`` off ``dmpcqp.asm.condense`` and
    ``admm.factor_miss_ratio`` off ``dmpcqp.admm.condense``: the active-set
    solver condenses every agent once per round with a
    ``WorkingConstraints`` whose ``n_rows`` counts the equality and active
    bound rows, and ADMM condenses once per factor-cache miss and never on
    a hit, over the closed loop.  Its traced mode also requires one
    ``dmpcqp.asm.dcg_solve`` call per round, initialization rounds and
    outer iterations together."""
    real = importlib.import_module("dmpcqp.condense").condense
    asm_calls, admm_calls, solvers, dcg_calls = [], [], [], []

    def asm_condense(qp, work, *args):
        asm_calls.append((qp.index, isinstance(work, WorkingConstraints)))
        assert work.n_rows == qp.n_eq + len(work.active)
        return real(qp, work, *args)

    def admm_condense(qp, work, *args):
        assert isinstance(work, WorkingConstraints)
        assert work.n_rows == qp.n_eq + len(work.active)
        assert qp.factors.get(work.active) is None
        admm_calls.append(work.active)
        return real(qp, work, *args)

    def counted_dcg_solve(*args):
        dcg_calls.append(len(asm_calls))
        return real_dcg_solve(*args)

    real_dcg_solve = asm_module.dcg_solve
    real_init = LocalQpSolver.__init__

    def solver_init(self, *args):
        real_init(self, *args)
        solvers.append(self)

    monkeypatch.setattr(asm_module, "condense", asm_condense)
    monkeypatch.setattr(admm_module, "condense", admm_condense)
    monkeypatch.setattr(asm_module, "dcg_solve", counted_dcg_solve)
    monkeypatch.setattr(LocalQpSolver, "__init__", solver_init)

    net = build_chain_of_masses(3)
    x0s = [np.array([2.0, -1.0]), np.array([-1.5, 0.5]), np.array([1.0, 1.0])]
    cfg = ExperimentConfig(n_masses=3, horizon=6, steps=6, solver="asm-dcg")
    qps = build_network_qps(net, cfg.horizon, x0s)
    _, _, samples = _closed_loop_distributed(net, cfg, qps, x0s)
    rounds = sum(s["init_rounds"] + s["asm_iterations"] for s in samples)
    assert asm_calls == [(i, True) for _ in range(rounds) for i in range(3)]
    # each round's solve follows that round's three condense calls
    assert dcg_calls == [3 * (k + 1) for k in range(rounds)]

    cfg = dataclasses.replace(cfg, solver="admm2", rho=5.0)
    _closed_loop_distributed(net, cfg, qps, x0s)
    assert len(asm_calls) == 3 * rounds
    assert len(dcg_calls) == rounds
    # the samples' solvers share each agent's augmented QP and its cache
    caches = {id(s.local.factors): s.local.factors for s in solvers}
    assert len(caches) == 3 < len(solvers)
    assert len(admm_calls) == sum(len(c) for c in caches.values()) > 0


def test_admm_spans_keep_their_meaning(monkeypatch):
    """The benchmark times ``admm.local_linear_term``,
    ``admm.admm_average``, ``admm.admm_dual_update`` and
    ``admm.admm_converged`` off the module attributes of ``dmpcqp.admm``,
    and ``admm.local_solve`` off ``LocalQpSolver.solve``: each of the four
    is entered once per ADMM iteration, in that order, and the local solve
    once per agent per iteration, before the averaging."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    spans = ("local_linear_term", "admm_average", "admm_dual_update",
             "admm_converged")
    for name in spans:
        monkeypatch.setattr(admm_module, name,
                            counted(name, getattr(admm_module, name)))
    monkeypatch.setattr(LocalQpSolver, "solve",
                        counted("solve", LocalQpSolver.solve))

    net = build_chain_of_masses(3)
    x0s = [np.array([2.0, -1.0]), np.array([-1.5, 0.5]), np.array([1.0, 1.0])]
    cfg = ExperimentConfig(n_masses=3, horizon=6, steps=6, solver="admm2",
                           rho=5.0)
    _, _, samples = _closed_loop_distributed(
        net, cfg, build_network_qps(net, cfg.horizon, x0s), x0s)
    iterations = sum(s["admm_iterations"] for s in samples)
    assert iterations > len(samples)
    one = [spans[0]] + ["solve"] * 3 + list(spans[1:])
    assert calls == one * iterations


def test_benchmark_loop_runs_against_the_package(monkeypatch):
    """One shortened init of every workload through the benchmark's untraced
    loop, which calls ``asm_solve``, ``admm_solve``, ``shift_averaged`` and
    the other loop functions the way ``perfbench/run.py`` does."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench

    for wl in bench.WORKLOADS.values():
        wl = dataclasses.replace(wl, n_masses=3, horizon=4, steps=2,
                                 n_inits=1)
        net = bench.build_network(wl)
        x0s = bench.draw_initial_states(net, wl, seed=2024)[0]
        run = bench.run_init(wl, net, 0, x0s, bench.loop_api())
        assert (run.failed, run.error) == (0, None), wl.name
        assert len(run.samples) == wl.steps
