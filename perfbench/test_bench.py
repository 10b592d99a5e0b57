"""Tests of the benchmark itself.

- The closed loop runs exactly what ``dmpcqp run`` runs (same initial
  states, counters, ledger counts and trajectories), so the experiment time
  measures the program path of the command line.
- Every count-valued metric repeats exactly, and tracing changes no count.
- A missing attach point drops only its own metrics, with a warning.
- Without the program's sources the benchmark fails without a result.
"""

import csv
import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import dmpcqp.fabric
from dmpcqp.cli import ExperimentConfig, run_experiment
from tracer import Tracer

HERE = Path(__file__).resolve().parent


def short(name, n_inits=2, steps=3):
    return dataclasses.replace(bench.WORKLOADS[name], n_inits=n_inits,
                               steps=steps)


def run_bench(wl, seed, tracer=None, points=bench.ATTACH_POINTS):
    """One untraced experiment, or a traced one if ``tracer`` is given."""
    net = bench.build_network(wl)
    inits = bench.draw_initial_states(net, wl, seed)
    if tracer is None:
        return bench.run_experiment(wl, net, inits, bench.loop_api()), []
    missing = tracer.attach(points)
    try:
        exp = bench.run_experiment(wl, net, inits, bench.loop_api(tracer),
                                   tracer)
    finally:
        tracer.detach()
    return exp, missing


@pytest.mark.parametrize("workload", ["chain10-warm", "chain10-admm"])
def test_loop_matches_dmpcqp_run(workload, tmp_path):
    wl = short(workload)
    exp, _ = run_bench(wl, 2024)
    result = run_experiment(ExperimentConfig(
        n_masses=wl.n_masses, u_max=wl.u_max, horizon=wl.horizon,
        steps=wl.steps, n_inits=wl.n_inits, seed=2024, solver=wl.solver,
        rho=wl.rho, y0_range=wl.y0_range, v0_range=wl.v0_range,
        out_dir=str(tmp_path)))
    assert exp.failed == 0 and result.failures == 0

    samples = exp.samples
    assert len(samples) == len(result.records) == wl.n_inits * wl.steps
    for rec, s in zip(result.records, samples):
        c = s.counters
        dcg = c["dcg_feasible_guess"] + c["dcg_active_set"] \
            if "dcg_feasible_guess" in c else None
        assert (rec.asm_iterations, rec.init_rounds, rec.dcg_total,
                rec.admm_iterations) == (
            c.get("asm_iterations"), c.get("init_rounds"), dcg,
            c.get("admm_iterations"))
        assert rec.comm == s.comm
        assert rec.deviation == s.deviation

    with open(tmp_path / "trajectories.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == wl.n_inits * (wl.steps + 1) * wl.n_masses
    for row in rows:
        run = exp.inits[int(row["init"])]
        t, i = int(row["time"]), int(row["agent"])
        x = run.states[t][i]
        assert (float(row["y"]), float(row["v"])) == (x[0], x[1])
        if t < wl.steps:
            assert float(row["u"]) == run.inputs[t][i][0]


def count_metrics(wl, seed):
    """Count-valued metrics of an untraced plus a traced pass."""
    plain, _ = run_bench(wl, seed)
    tracer = Tracer()
    traced, missing = run_bench(wl, seed, tracer)
    assert missing == []
    assert traced.signature() == plain.signature()
    assert bench.check_trace_counts(wl, traced, tracer, missing) == []
    metrics = {**bench.end_to_end([plain], 1.0, 1.0),
               **bench.layer_metrics(traced, tracer.summary(), missing, 0.0)}
    return {k: v for k, (v, unit) in metrics.items()
            if unit in ("count", "ratio")}


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_counts_repeat_and_tracing_changes_none(workload):
    wl = short(workload, n_inits=1, steps=3)
    first = count_metrics(wl, 11)
    assert first == count_metrics(wl, 11)
    assert first["local_floats_per_sample_p50"] > 0
    if workload == "chain5-tight":
        # the bounds bind: the active-set loop changes working sets
        assert first["asm.outer_iterations_per_sample"] > 1


def test_missing_attach_point_drops_only_its_metrics(capsys):
    original = vars(dmpcqp.fabric.Fabric)["global_reduce"]
    points = [(name, module, "no_such_function" if name ==
               "oracle.prepare_kkt" else path, extra)
              for name, module, path, extra in bench.ATTACH_POINTS]
    wl = short("chain10-warm", n_inits=1, steps=2)
    tracer = Tracer()
    exp, missing = run_bench(wl, 3, tracer, points)
    assert missing == ["oracle.prepare_kkt"]
    assert "no_such_function" in capsys.readouterr().err
    assert vars(dmpcqp.fabric.Fabric)["global_reduce"] is original
    metrics = bench.layer_metrics(exp, tracer.summary(), missing, 0.0)
    assert "oracle.prepare_ms_per_init" not in metrics
    assert metrics["oracle.solve_ms_per_sample"][0] > 0
    assert bench.check_trace_counts(wl, exp, tracer, missing) == []


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if (HERE.parent / "BENCHMARK.json").exists():
        shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "chain10-warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
