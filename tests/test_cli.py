import csv
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.sparse

import dmpcqp.cli
import dmpcqp.condense
import dmpcqp.oracle
from dmpcqp import (AgentModel, NetworkModel, PlantState,
                    build_chain_of_masses, plant_step)
from dmpcqp.cli import (ExperimentConfig, compare_runs, load_network, main,
                        run_experiment, sample_initial_states)
from dmpcqp.errors import SolverError
from dmpcqp.fabric import PHASES

from conftest import random_network


CSV_FILES = ("iterations.csv", "communication.csv", "trajectories.csv",
             "deviation.csv", "summary.csv")


def save_network(net: NetworkModel, path) -> None:
    """Write ``net`` in the JSON schema :func:`load_network` reads."""
    doc = {"agents": [{
        "A_self": agent.A_self.tolist(),
        "B": agent.B.tolist(),
        "A_in": {str(j): blk.tolist() for j, blk in sorted(agent.A_in.items())},
        "u_lo": agent.u_lo.tolist(),
        "u_hi": agent.u_hi.tolist(),
        "Q": agent.Q.tolist(),
        "R": agent.R.tolist(),
        "P": agent.P.tolist(),
    } for agent in net.agents]}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def _small_cfg(out_dir, **overrides):
    base = dict(scenario="chain", n_masses=3, horizon=5, steps=3, n_inits=2,
                seed=7, solver="asm-dcg", out_dir=str(out_dir))
    base.update(overrides)
    return ExperimentConfig(**base)


def test_rerun_is_byte_identical(tmp_path):
    run_experiment(_small_cfg(tmp_path / "a"))
    run_experiment(_small_cfg(tmp_path / "b"))
    for name in CSV_FILES:
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes(), name
    metas = []
    for d in ("a", "b"):
        meta = json.loads((tmp_path / d / "meta.json").read_text())
        meta["config"].pop("out_dir")
        metas.append(meta)
    assert metas[0] == metas[1]


def test_compare_identical_runs(tmp_path):
    run_experiment(_small_cfg(tmp_path / "a"))
    run_experiment(_small_cfg(tmp_path / "b"))
    cmp = compare_runs(tmp_path / "a", tmp_path / "b")
    assert cmp.max_trajectory_diff == 0.0
    assert cmp.metrics["asm_iterations"]["a"] == \
           cmp.metrics["asm_iterations"]["b"]


def test_compare_rejects_scenario_mismatch(tmp_path):
    run_experiment(_small_cfg(tmp_path / "a"))
    run_experiment(_small_cfg(tmp_path / "b", seed=8))
    with pytest.raises(ValueError, match="seed"):
        compare_runs(tmp_path / "a", tmp_path / "b")


def test_meta_contents(tmp_path):
    run_experiment(_small_cfg(tmp_path / "r"))
    meta = json.loads((tmp_path / "r" / "meta.json").read_text())
    # 3-mass chain at horizon 5: two end agents (27 vars) plus one interior
    # (37), six equality rows per stage and agent, ten bound rows per agent,
    # four directed edges carrying ten coupling rows each
    assert meta["dims"] == {"n_z": 91, "eq": 36, "ineq": 30, "coupling": 40}
    assert meta["prng"]["bit_generator"] == "PCG64"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert meta["numeric"] == {
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": {"name": blas["name"], "version": blas["version"],
                 "configuration": blas.get("openblas configuration")},
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1"}
    assert meta["numeric"]["blas"]["name"]
    assert meta["numeric"]["blas"]["version"]
    assert meta["config"]["solver"] == "asm-dcg"
    assert meta["failures"] == 0
    assert meta["aggregates"]["deviation"]["max"] < 1e-6


def test_single_step_run_has_empty_aggregates(tmp_path):
    res = run_experiment(_small_cfg(tmp_path / "r", steps=1))
    assert res.aggregates == {}
    with open(tmp_path / "r" / "summary.csv", newline="") as fh:
        assert list(csv.DictReader(fh)) == []


def test_centralized_solver_has_zero_deviation(tmp_path):
    """``run --solver centralized`` records the oracle's iterations per
    sample and a deviation of the reference from itself, exactly zero."""
    assert main(["run", "--masses", "3", "--horizon", "5", "--steps", "3",
                 "--inits", "2", "--seed", "7", "--solver", "centralized",
                 "--out", str(tmp_path / "r")]) == 0
    with open(tmp_path / "r" / "deviation.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert all(float(r["deviation"]) == 0.0 for r in rows)
    with open(tmp_path / "r" / "iterations.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(int(r["oracle_iterations"]) >= 1 and r["asm_iterations"] == ""
               for r in rows)


def test_admm_solver_runs(tmp_path):
    res = run_experiment(_small_cfg(tmp_path / "r", solver="admm2", rho=5.0,
                                    steps=2, n_inits=1))
    assert res.failures == 0
    assert res.records[0].admm_iterations > 0
    for rec in res.records:
        assert rec.deviation < 1e-3


def test_network_json_roundtrip(tmp_path):
    rng = np.random.default_rng(41)
    net = random_network(rng)
    path = tmp_path / "net.json"
    save_network(net, path)
    loaded = load_network(path)
    assert loaded.n_agents == net.n_agents
    for a, b in zip(net.agents, loaded.agents):
        np.testing.assert_array_equal(a.A_self, b.A_self)
        np.testing.assert_array_equal(a.B, b.B)
        assert sorted(a.A_in) == sorted(b.A_in)
        for j in a.A_in:
            np.testing.assert_array_equal(a.A_in[j], b.A_in[j])
        np.testing.assert_array_equal(a.Q, b.Q)
        np.testing.assert_array_equal(a.u_lo, b.u_lo)


def test_file_scenario(tmp_path):
    rng = np.random.default_rng(43)
    net = random_network(rng)
    path = tmp_path / "net.json"
    save_network(net, path)
    res = run_experiment(_small_cfg(
        tmp_path / "r", scenario="file", network_file=str(path),
        steps=2, n_inits=1))
    assert res.failures == 0
    for rec in res.records:
        assert rec.deviation < 1e-6


def test_config_validation():
    with pytest.raises(ValueError, match="network file"):
        ExperimentConfig(scenario="file").validate()
    with pytest.raises(ValueError, match="solver"):
        ExperimentConfig(solver="magic").validate()
    with pytest.raises(ValueError, match="positive"):
        ExperimentConfig(steps=0).validate()
    for name, bad in (("horizon", 2.5), ("steps", 2.0), ("n_masses", 3.0),
                      ("seed", 1.5), ("n_inits", True), ("horizon", "12"),
                      ("seed", False)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ExperimentConfig(**{name: bad}).validate()
    with pytest.raises(ValueError, match="seed must be non-negative"):
        ExperimentConfig(seed=-1).validate()
    ExperimentConfig(n_masses=np.int64(4), seed=np.int64(0)).validate()
    for name in ("rho", "eps_dcg", "eps_asm", "dt"):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                ExperimentConfig(**{name: bad}).validate()
    for name in ("y0_range", "v0_range"):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                ExperimentConfig(**{name: bad}).validate()
        ExperimentConfig(**{name: 0.0}).validate()
    for name in ("mass", "stiffness", "damping", "u_max", "r_weight",
                 "p_weight"):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                ExperimentConfig(**{name: bad}).validate()
    for bad in ((1.0, float("nan")), (float("inf"), 1.0)):
        with pytest.raises(ValueError, match="q_diag must be finite"):
            ExperimentConfig(q_diag=bad).validate()


def test_initial_state_sampling_ranges():
    rng = np.random.default_rng(47)
    net = random_network(rng, n_agents=4, max_state=2)
    draws = [sample_initial_states(net, rng, 2.0, 0.25) for _ in range(200)]
    for i, agent in enumerate(net.agents):
        first = np.array([d[i][0] for d in draws])
        assert np.abs(first).max() <= 2.0
        assert np.abs(first).max() > 0.25          # actually uses the range
        if agent.n > 1:
            second = np.array([d[i][1] for d in draws])
            assert np.abs(second).max() <= 0.25


def test_cli_run_and_compare_exit_codes(tmp_path, capsys):
    argv = ["run", "--masses", "3", "--horizon", "5", "--steps", "2",
            "--inits", "1", "--seed", "3", "--out", str(tmp_path / "a")]
    assert main(argv) == 0
    assert main(argv[:-1] + [str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "asm_iterations" in out
    assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert "max trajectory difference" in capsys.readouterr().out
    # configuration errors exit with 2
    assert main(["run", "--scenario", "file", "--out",
                 str(tmp_path / "c")]) == 2
    assert main(argv[:-1] + [str(tmp_path / "d"), "--rho", "nan"]) == 2
    assert not (tmp_path / "d").exists()
    capsys.readouterr()
    for flag, *bad in (("--y0-range", "nan"), ("--v0-range", "nan"),
                       ("--y0-range", "-1"), ("--dt", "nan"),
                       ("--stiffness", "nan"), ("--damping", "inf"),
                       ("--mass", "inf"), ("--u-max", "inf"),
                       ("--q-diag", "1", "nan"), ("--r-weight", "nan"),
                       ("--p-weight", "nan")):
        assert main(argv[:-1] + [str(tmp_path / "e"), flag, *bad]) == 2
        assert f"{flag[2:].replace('-', '_')} must be finite" in \
            capsys.readouterr().err
        assert not (tmp_path / "e").exists()
    assert main(["compare", str(tmp_path / "a"),
                 str(tmp_path / "missing")]) == 2


def test_every_run_flag_reaches_the_config(tmp_path):
    net_path = tmp_path / "net.json"
    save_network(build_chain_of_masses(3), net_path)
    values = dict(scenario="file", network_file=str(net_path), n_masses=4,
                  mass=1.5, stiffness=2.0, damping=2.5, dt=0.1, u_max=0.8,
                  q_diag=[5.0, 6.0], r_weight=0.5, p_weight=1.0, horizon=3,
                  steps=2, n_inits=1, seed=5, solver="admm2", rho=4.0,
                  eps_dcg=1e-9, eps_asm=1e-7, y0_range=0.7, v0_range=0.3,
                  out_dir=str(tmp_path / "run"))
    renamed = {"network_file": "--network", "n_masses": "--masses",
               "n_inits": "--inits", "out_dir": "--out"}
    defaults = dataclasses.asdict(ExperimentConfig())
    assert values.keys() == defaults.keys()
    argv = ["run"]
    for name, value in values.items():
        assert value != defaults[name], name
        argv.append(renamed.get(name, "--" + name.replace("_", "-")))
        argv += map(str, value if isinstance(value, list) else [value])
    assert main(argv) == 0
    meta = json.loads((tmp_path / "run" / "meta.json").read_text())
    assert meta["config"] == values
    # an omitted flag carries no value, so the dataclass default applies
    assert vars(dmpcqp.cli._build_parser().parse_args(["run"])) == {
        "command": "run"}


def test_compare_exit_code_flags_differing_runs(tmp_path, capsys):
    argv = ["run", "--masses", "3", "--horizon", "5", "--steps", "2",
            "--inits", "1", "--seed", "3"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--solver", "centralized",
                        "--out", str(tmp_path / "b")]) == 0
    assert not compare_runs(tmp_path / "a", tmp_path / "b").identical
    assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert main(["compare", str(tmp_path / "a"), str(tmp_path / "a")]) == 0


def test_compare_names_an_init_failed_in_one_run(tmp_path, monkeypatch,
                                                 capsys):
    """An init that failed in one run only is named with its status and
    makes the runs differ (exit 1); the trajectories are compared over the
    inits both runs completed."""
    run_experiment(_small_cfg(tmp_path / "a"))
    closed_loop = dmpcqp.cli._closed_loop_distributed
    calls = []

    def fail_second(*args):
        calls.append(None)
        if len(calls) == 2:
            raise SolverError("injected failure")
        return closed_loop(*args)

    monkeypatch.setattr(dmpcqp.cli, "_closed_loop_distributed", fail_second)
    assert run_experiment(_small_cfg(tmp_path / "b")).failures == 1
    status = {"a": None, "b": "error: injected failure"}
    for a, b in (("a", "b"), ("b", "a")):
        cmp = compare_runs(tmp_path / a, tmp_path / b)
        assert cmp.one_sided_failures == {"1": {"a": status[a],
                                                "b": status[b]}}
        assert cmp.max_trajectory_diff == 0.0
        assert not cmp.identical
        assert main(["compare", str(tmp_path / a), str(tmp_path / b)]) == 1
        assert f"init 1 failed only in {tmp_path / 'b'}: {status['b']}" in \
            capsys.readouterr().out
    assert main(["compare", str(tmp_path / "b"), str(tmp_path / "b")]) == 0


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("small") / "run"
    run_experiment(_small_cfg(out, n_masses=2, horizon=2, steps=2,
                              n_inits=1))
    return out


def _rewrite_rows(path, edit):
    with open(path, newline="") as fh:
        rows = edit(list(csv.reader(fh)))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.mark.parametrize("name, spoil, message", [
    ("meta.json", lambda p: p.write_text(json.dumps(
        {k: v for k, v in json.loads(p.read_text()).items()
         if k != "config"})), None),
    ("meta.json", lambda p: p.write_text("[1, 2]"), None),
    ("meta.json", lambda p: p.write_text("{"), None),
    ("trajectories.csv",
     lambda p: _rewrite_rows(p, lambda rows: [r[3:] for r in rows]), None),
    ("trajectories.csv",
     lambda p: _rewrite_rows(p, lambda rows: rows[:1] + [rows[1][:4]]
                             + rows[2:]), "do not align"),
    ("iterations.csv",
     lambda p: _rewrite_rows(p, lambda rows: [r[1:] for r in rows]), None),
], ids=["meta-without-config", "meta-list", "meta-not-json",
        "trajectories-without-keys", "trajectories-short-row",
        "iterations-without-keys"])
def test_compare_exits_2_on_a_malformed_run(tmp_path, capsys, small_run,
                                            name, spoil, message):
    """A broken run directory is an error, not a difference: ``compare``
    exits 2, and names the file when the file itself is malformed."""
    broken = tmp_path / "broken"
    shutil.copytree(small_run, broken)
    spoil(broken / name)
    message = message or str(broken / name)
    for pair in ((small_run, broken), (broken, small_run)):
        with pytest.raises(ValueError, match=re.escape(message)):
            compare_runs(*pair)
        assert main(["compare", *map(str, pair)]) == 2
        assert message in capsys.readouterr().err
    assert main(["compare", str(small_run), str(small_run)]) == 0


@pytest.mark.parametrize("solver", ["asm-dcg", "centralized"])
def test_artifacts_are_the_records(tmp_path, monkeypatch, solver):
    """Every row of ``iterations.csv``, ``deviation.csv`` and
    ``communication.csv`` is its sample's record, a missing counter or
    deviation read back as an empty field, and ``summary.csv`` is the
    aggregates."""
    rollout = dmpcqp.cli.centralized_mpc_rollout
    calls = []

    def fail_second(*args):
        calls.append(None)
        if len(calls) == 2:
            raise SolverError("planted oracle failure")
        return rollout(*args)

    monkeypatch.setattr(dmpcqp.cli, "centralized_mpc_rollout", fail_second)
    res = run_experiment(_small_cfg(tmp_path, solver=solver, horizon=4,
                                    n_inits=3))
    assert res.failures == 1 and len(res.records) == 7
    assert res.records[3].deviation is None

    def read(name):
        with open(tmp_path / name, newline="") as fh:
            reader = csv.DictReader(fh)
            return reader.fieldnames, list(reader)

    def cell(value):
        return "" if value is None else str(value)

    counters = ["asm_iterations", "init_rounds", "dcg_feasible_guess",
                "dcg_active_set", "dcg_total", "admm_iterations",
                "oracle_iterations"]
    header, rows = read("iterations.csv")
    assert header == ["init", "sample", "status"] + counters
    assert rows == [{k: cell(getattr(r, k)) for k in header}
                    for r in res.records]
    for r in res.records:
        if r.status != "ok":
            continue
        if solver == "asm-dcg":
            assert r.dcg_total == r.dcg_feasible_guess + r.dcg_active_set
            assert r.oracle_iterations is None
        else:
            assert r.oracle_iterations >= 1
            assert r.asm_iterations is r.dcg_total is None

    header, rows = read("deviation.csv")
    assert header == ["init", "sample", "deviation"]
    assert rows == [{k: cell(getattr(r, k)) for k in header}
                    for r in res.records]

    header, rows = read("communication.csv")
    assert header == ["init", "sample", "phase", "global_floats",
                      "global_booleans", "local_floats"]
    assert rows == [{"init": str(r.init), "sample": str(r.sample),
                     "phase": phase,
                     **{k: str(v) for k, v in r.comm[phase].items()}}
                    for r in res.records if r.comm for phase in PHASES]
    assert bool(rows) == (solver == "asm-dcg")

    header, rows = read("summary.csv")
    assert header == ["metric", "mean", "max"]
    assert [row["metric"] for row in rows] == \
        [m for m in dmpcqp.cli._METRICS if m in res.aggregates]
    assert rows == [{"metric": m, "mean": str(agg["mean"]),
                     "max": str(agg["max"])}
                    for m, agg in res.aggregates.items()]
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["aggregates"] == res.aggregates


@pytest.mark.parametrize("solver", ["asm-dcg", "admm2"])
def test_a_run_builds_its_qps_once(tmp_path, monkeypatch, solver):
    """``run_experiment`` builds the network's QPs once, whatever the
    number of inits, and every init's loop starts from them, so an init
    that visits only working sets an earlier init factored factors none
    and records what that init recorded."""
    x0s = [np.array([2.0, -1.0]), np.array([-1.5, 0.5]), np.array([1.0, 1.0])]
    events = []

    def counting(module, name):
        real = getattr(module, name)

        def wrapped(*args):
            events.append(name)
            return real(*args)
        monkeypatch.setattr(module, name, wrapped)

    counting(dmpcqp.cli, "build_network_qps")
    counting(dmpcqp.cli, "_closed_loop_distributed")
    counting(dmpcqp.condense, "_factorize")
    monkeypatch.setattr(dmpcqp.cli, "sample_initial_states",
                        lambda *args: [x.copy() for x in x0s])
    res = run_experiment(_small_cfg(tmp_path, solver=solver, rho=5.0,
                                    u_max=0.3))
    assert events.count("build_network_qps") == 1
    first = events.index("_closed_loop_distributed")
    second = events.index("_closed_loop_distributed", first + 1)
    assert "_factorize" in events[first:second]
    assert "_factorize" not in events[second:]
    assert res.failures == 0
    records = [[dataclasses.replace(r, init=0) for r in res.records
                if r.init == k] for k in (0, 1)]
    assert records[0] == records[1]


def test_malformed_network_file_exits_with_2(tmp_path, capsys):
    rng = np.random.default_rng(53)
    path = tmp_path / "net.json"
    save_network(random_network(rng), path)
    doc = json.loads(path.read_text())
    del doc["agents"][1]["P"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="agent 1 lacks key 'P'"):
        load_network(path)
    with pytest.raises(ValueError, match="cannot read"):
        load_network(tmp_path / "missing.json")
    files = [path, tmp_path / "missing.json"]
    doc["agents"][0]["A_in"] = [1.0]
    # a matrix, or an A_in block, given as an object
    self_object = json.loads(path.read_text())
    self_object["agents"][0]["A_self"] = {}
    block_object = json.loads(path.read_text())
    block_object["agents"][0]["A_in"] = {"1": {}}
    for i, bad in enumerate(({"agents": 5}, {"agents": [[1.0]]}, doc,
                             self_object, block_object)):
        files.append(tmp_path / f"bad{i}.json")
        files[-1].write_text(json.dumps(bad))
        with pytest.raises(ValueError, match="must be"):
            load_network(files[-1])
    for bad, label in zip(files[-2:], ("A_self", "A_in[1]")):
        with pytest.raises(ValueError, match=re.escape(
                f"network file {bad}: agent 0: {label} must be")):
            load_network(bad)
    # a NaN or infinite entry in any matrix or bound names it
    save_network(build_chain_of_masses(3), tmp_path / "chain.json")
    doc = json.loads((tmp_path / "chain.json").read_text())
    for key, bad in (("A_self", "nan"), ("B", "inf"), ("A_in", "nan"),
                     ("u_lo", "-inf"), ("u_hi", "inf"), ("Q", "nan"),
                     ("R", "inf"), ("P", "nan")):
        entry = json.loads(json.dumps(doc))
        block = entry["agents"][1][key]
        block = block["0"] if key == "A_in" else block
        (block[0] if isinstance(block[0], list) else block)[0] = float(bad)
        files.append(tmp_path / f"{key}.json")
        files[-1].write_text(json.dumps(entry))
        label = "A_in[0]" if key == "A_in" else key
        with pytest.raises(ValueError, match=re.escape(
                f"agent 1: {label} must be finite")):
            load_network(files[-1])
    for network in files:
        assert main(["run", "--scenario", "file", "--network", str(network),
                     "--out", str(tmp_path / "r")]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_network_file_with_a_bad_agent_exits_2_naming_it(tmp_path,
                                                        capsys):
    """A network file whose agent has no input, an ``A_in`` key that is no
    agent index, or a matrix given as a string or as ragged rows makes
    ``run`` exit 2 with a message naming the agent, and the file for all
    but the missing input."""
    save_network(build_chain_of_masses(3), tmp_path / "chain.json")
    doc = json.loads((tmp_path / "chain.json").read_text())
    no_input = json.loads(json.dumps(doc))
    agent = no_input["agents"][1]
    agent["B"] = [[] for _ in agent["B"]]
    agent["u_lo"], agent["u_hi"], agent["R"] = [], [], []
    bad_key = json.loads(json.dumps(doc))
    bad_key["agents"][2]["A_in"]["x"] = bad_key["agents"][2]["A_in"]["1"]
    text, ragged = json.loads(json.dumps(doc)), json.loads(json.dumps(doc))
    text["agents"][0]["A_self"] = "x"
    ragged["agents"][2]["Q"][1] = [1.0]
    for name, bad, message in (
            ("no_input", no_input,
             "agent 1: B must have n rows and at least one column"),
            ("bad_key", bad_key,
             "network file {}: agent 2: A_in key 'x' is no agent index"),
            ("text", text, "network file {}: agent 0: A_self must be an "
             "array of numbers"),
            ("ragged", ragged, "network file {}: agent 2: Q must be an array "
             "of numbers")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(bad))
        message = message.format(path)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_network(path)
        assert main(["run", "--scenario", "file", "--network", str(path),
                     "--out", str(tmp_path / "r")]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("solver", ["asm-dcg", "centralized"])
def test_failed_reference_rollout_fails_only_its_init(tmp_path, monkeypatch,
                                                      solver):
    rollout = dmpcqp.cli.centralized_mpc_rollout
    calls = []

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise SolverError("planted oracle failure")
        return rollout(*args, **kwargs)

    monkeypatch.setattr(dmpcqp.cli, "centralized_mpc_rollout", flaky)
    res = run_experiment(_small_cfg(tmp_path / "r", solver=solver, steps=2))
    assert res.failures == 1
    failed = [r for r in res.records if r.status != "ok"]
    assert [(r.init, r.sample) for r in failed] == [(1, -1)]
    assert failed[0].status == \
        "error: reference rollout: planted oracle failure"
    assert [r.sample for r in res.records if r.init == 0] == [0, 1]
    meta = json.loads((tmp_path / "r" / "meta.json").read_text())
    assert meta["failures"] == 1
    with open(tmp_path / "r" / "iterations.csv", newline="") as fh:
        assert [row["status"] for row in csv.DictReader(fh)] == \
            ["ok", "ok", failed[0].status]


def test_singular_reference_kkt_fails_only_its_init(tmp_path, monkeypatch):
    """A reference rollout whose saddle-point matrix is exactly singular (a
    duplicated equality row) fails its init with a ``SolverError``."""
    stack = dmpcqp.oracle.stack_global
    calls = []

    def duplicated_row(qps):
        stacked = stack(qps)
        calls.append(None)
        if len(calls) != 2:
            return stacked
        return dataclasses.replace(
            stacked,
            eq_matrix=scipy.sparse.vstack([stacked.eq_matrix,
                                           stacked.eq_matrix[[0]]]),
            eq_rhs=np.append(stacked.eq_rhs, stacked.eq_rhs[0]))

    monkeypatch.setattr(dmpcqp.oracle, "stack_global", duplicated_row)
    res = run_experiment(_small_cfg(tmp_path / "r", steps=2, n_inits=3))
    assert res.failures == 1
    failed = [r for r in res.records if r.status != "ok"]
    assert [(r.init, r.sample) for r in failed] == [(1, -1)]
    assert failed[0].status.startswith(
        "error: reference rollout: singular saddle-point matrix")
    for init in (0, 2):
        assert [r.sample for r in res.records if r.init == init] == [0, 1]


def test_linalg_error_fails_only_its_init(tmp_path, monkeypatch):
    solve = dmpcqp.cli.asm_solve
    calls = []

    def singular(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:          # init 1, sample 0
            raise np.linalg.LinAlgError("planted singular matrix")
        return solve(*args, **kwargs)

    monkeypatch.setattr(dmpcqp.cli, "asm_solve", singular)
    res = run_experiment(_small_cfg(tmp_path / "r", steps=2, n_inits=3))
    assert res.failures == 1
    failed = [r for r in res.records if r.status != "ok"]
    assert [(r.init, r.sample) for r in failed] == [(1, -1)]
    assert failed[0].status == "error: LinAlgError: planted singular matrix"
    for init in (0, 2):
        assert [r.sample for r in res.records if r.init == init] == [0, 1]
    meta = json.loads((tmp_path / "r" / "meta.json").read_text())
    assert meta["failures"] == 1
    with open(tmp_path / "r" / "trajectories.csv", newline="") as fh:
        inits = {row["init"] for row in csv.DictReader(fh)}
    assert inits == {"0", "2"}


def test_unstable_network_fails_each_init_with_a_status(tmp_path, capsys):
    """On an unstable network the simulated start of the reference rollout
    grows beyond what the equality check forgives in rounding: each init
    fails with that status, and the run exits 1 with its artifacts."""
    chain = build_chain_of_masses(3)
    unstable = NetworkModel([dataclasses.replace(
        agent, A_self=np.array([[2.0, 0.1], [0.0, 2.0]]))
        for agent in chain.agents])
    path = tmp_path / "unstable.json"
    save_network(unstable, path)
    out = tmp_path / "r"
    assert main(["run", "--scenario", "file", "--network", str(path),
                 "--horizon", "40", "--steps", "3", "--inits", "2",
                 "--out", str(out)]) == 1
    assert "2 initial conditions failed" in capsys.readouterr().err
    with open(out / "iterations.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["init"], row["sample"], row["status"]) for row in rows] == [
        (str(i), "-1",
         "error: reference rollout: start point violates equality rows")
        for i in range(2)]
    assert json.loads((out / "meta.json").read_text())["failures"] == 2


def test_output_path_that_is_a_file_exits_2_before_any_solve(
        tmp_path, monkeypatch, capsys):
    rollout = dmpcqp.cli.centralized_mpc_rollout
    calls = []

    def counted(*args):
        calls.append(None)
        return rollout(*args)

    monkeypatch.setattr(dmpcqp.cli, "centralized_mpc_rollout", counted)
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    assert main(["run", "--masses", "3", "--horizon", "5", "--steps", "2",
                 "--inits", "1", "--out", str(taken)]) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(taken) in err
    assert taken.read_text() == "not a directory"


def test_cli_pins_blas_threads_unless_set(tmp_path):
    src = str(Path(dmpcqp.cli.__file__).parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in dmpcqp.cli.THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    for extra, expected in (({}, "1"), ({"OMP_NUM_THREADS": "2"}, "2")):
        out = tmp_path / f"r{expected}"
        done = subprocess.run(
            [sys.executable, "-m", "dmpcqp.cli", "run", "--masses", "2",
             "--horizon", "2", "--steps", "1", "--inits", "1", "--out",
             str(out)], env={**env, **extra}, capture_output=True, text=True,
            timeout=120)
        assert done.returncode == 0, done.stderr
        numeric = json.loads((out / "meta.json").read_text())["numeric"]
        assert numeric["OPENBLAS_NUM_THREADS"] == "1"
        assert numeric["MKL_NUM_THREADS"] == "1"
        assert numeric["OMP_NUM_THREADS"] == expected


def test_module_entry_point_runs_without_runpy_warning():
    src = str(Path(dmpcqp.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "dmpcqp.cli",
         "--help"], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_trajectories_keep_every_state_and_input(tmp_path):
    """A 3-state, 2-input agent's rows replay the closed loop exactly."""
    rng = np.random.default_rng(61)
    big = AgentModel(
        index=0, A_self=0.3 * rng.normal(size=(3, 3)),
        B=rng.normal(size=(3, 2)), A_in={1: 0.2 * rng.normal(size=(3, 1))},
        u_lo=-np.ones(2), u_hi=np.ones(2), Q=np.eye(3), R=np.eye(2),
        P=np.zeros((3, 3)))
    small = AgentModel(
        index=1, A_self=np.array([[0.8]]), B=np.array([[1.0]]),
        A_in={0: 0.2 * rng.normal(size=(1, 3))}, u_lo=-np.ones(1),
        u_hi=np.ones(1), Q=np.eye(1), R=np.eye(1), P=np.zeros((1, 1)))
    net = NetworkModel([big, small])
    path = tmp_path / "net.json"
    save_network(net, path)
    run_experiment(_small_cfg(tmp_path / "r", scenario="file",
                              network_file=str(path), steps=3, n_inits=1))
    with open(tmp_path / "r" / "trajectories.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ["init", "time", "agent", "y", "v", "u",
                                     "x2", "u1"]
        rows = {(int(r["time"]), int(r["agent"])): r for r in reader}
    columns = {0: (["y", "v", "x2"], ["u", "u1"]), 1: (["y"], ["u"])}

    def read(t, i, which):
        return np.array([float(rows[t, i][c]) for c in columns[i][which]])

    for t in range(3):
        assert all(rows[t, 1][c] == "" for c in ("v", "x2", "u1"))
        state = PlantState(states=(read(t, 0, 0), read(t, 1, 0)))
        nxt = plant_step(net, state, [read(t, 0, 1), read(t, 1, 1)])
        for i in (0, 1):
            np.testing.assert_array_equal(nxt.states[i], read(t + 1, i, 0))

    # the chain keeps its two-state, one-input header
    run_experiment(_small_cfg(tmp_path / "chain", steps=1, n_inits=1))
    with open(tmp_path / "chain" / "trajectories.csv", newline="") as fh:
        assert fh.readline().strip() == "init,time,agent,y,v,u"

    # compare reads the extra columns
    other = tmp_path / "r2"
    run_experiment(_small_cfg(other, scenario="file",
                              network_file=str(path), steps=3, n_inits=1))
    text = (other / "trajectories.csv").read_text().splitlines()
    fields = text[1].split(",")
    fields[6] = repr(float(fields[6]) + 0.5)
    text[1] = ",".join(fields)
    (other / "trajectories.csv").write_text("\n".join(text) + "\n")
    assert compare_runs(tmp_path / "r", other).max_trajectory_diff == \
        pytest.approx(0.5)
