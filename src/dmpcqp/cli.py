"""Closed-loop experiments and the command line interface.

``run_experiment`` rolls a receding-horizon controller over a batch of
random initial conditions, solving every sample with the selected solver
(distributed active-set, one of two ADMM presets, or the centralized
oracle), and writes deterministic CSV artifacts plus a ``meta.json`` into
the output directory:

- ``iterations.csv``    per-sample iteration counters,
- ``communication.csv`` per-sample message counts, one row per phase,
- ``trajectories.csv``  closed-loop states and applied inputs: ``y``, ``v``
  and ``u`` hold ``x[0]``, ``x[1]`` and ``u[0]``, and columns ``x2, ...``
  and ``u1, ...`` are added only for networks with larger agents,
- ``deviation.csv``     per-sample state deviation from the centralized
  oracle run on the same initial condition,
- ``summary.csv``       mean/max aggregates over all samples except the
  first of each initial condition,
- ``meta.json``         configuration, problem dimensions, numeric
  environment (numpy and scipy versions, the name, version and build
  configuration of numpy's BLAS, BLAS thread variables), and aggregates.

Initial conditions are drawn independently per agent, uniformly from
``[-y0_range, y0_range]`` for the first state component and
``[-v0_range, v0_range]`` for the second, using NumPy's ``default_rng``
(PCG64) seeded from the configuration, so identical configurations
reproduce byte-identical CSV files.

Networks can be loaded from JSON: ``{"agents": [{"A_self": [[...]],
"B": [[...]], "A_in": {"<j>": [[...]]}, "u_lo": [...], "u_hi": [...],
"Q": [[...]], "R": [[...]], "P": [[...]]}, ...]}`` with agents listed in
index order.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np
import scipy

from . import THREAD_VARS
from .admm import AdmmConfig, admm_solve, shift_averaged
from .asm import AsmConfig, asm_solve, shift_active
from .errors import SolverError
from .fabric import PHASES, Fabric, verify_comm_identities
from .model import AgentModel, NetworkModel, build_chain_of_masses
from .oracle import centralized_mpc_rollout
from .qp_builder import build_network_qps, closed_loop, update_initial_state

SOLVERS = ("asm-dcg", "admm1", "admm2", "centralized")


@dataclass
class ExperimentConfig:
    """Scenario, solver, and output settings for one experiment."""

    scenario: str = "chain"
    network_file: str | None = None
    n_masses: int = 10
    mass: float = 1.0
    stiffness: float = 3.0
    damping: float = 3.0
    dt: float = 0.2
    u_max: float = 1.0
    q_diag: tuple[float, float] = (10.0, 10.0)
    r_weight: float = 1.0
    p_weight: float = 0.0
    horizon: int = 12
    steps: int = 25
    n_inits: int = 30
    seed: int = 0
    solver: str = "asm-dcg"
    rho: float = 1.0
    eps_dcg: float = 1e-8
    eps_asm: float = 1e-6
    y0_range: float = 1.0
    v0_range: float = 0.5
    out_dir: str = "results"

    def validate(self) -> None:
        if self.scenario not in ("chain", "file"):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.scenario == "file" and not self.network_file:
            raise ValueError("scenario 'file' requires a network file")
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        for name in ("n_masses", "horizon", "steps", "n_inits", "seed"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or \
                    isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.horizon < 1 or self.steps < 1 or self.n_inits < 1:
            raise ValueError("horizon, steps and inits must be positive")
        for name in ("rho", "eps_dcg", "eps_asm", "dt"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(
                    f"{name} must be finite and positive, got {value}")
        for name in ("y0_range", "v0_range"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0.0):
                raise ValueError(
                    f"{name} must be finite and non-negative, got {value}")
        # build_chain_of_masses checks the signs
        for name in ("mass", "stiffness", "damping", "u_max", "q_diag",
                     "r_weight", "p_weight"):
            value = getattr(self, name)
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got {value}")


_AGENT_KEYS = ("A_self", "B", "u_lo", "u_hi", "Q", "R", "P")


def load_network(path) -> NetworkModel:
    """Build a network from the JSON schema documented in this module.

    Raises :class:`ValueError` when the file cannot be read or parsed, when
    it does not follow the schema's nesting, or when an agent lacks a
    required key.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read network file {path}: {exc}") from exc
    entries = doc.get("agents") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise ValueError(f"network file {path}: 'agents' must be a list")
    agents = []
    for idx, entry in enumerate(entries):
        if not isinstance(entry, dict) or \
                not isinstance(entry.get("A_in", {}), dict):
            raise ValueError(f"network file {path}: agent {idx} and its "
                             f"'A_in' must be objects")
        missing = [key for key in _AGENT_KEYS if key not in entry]
        if missing:
            raise ValueError(f"network file {path}: agent {idx} lacks key "
                             f"{missing[0]!r}")
        where = f"network file {path}: agent {idx}"
        bad = [j for j in entry.get("A_in", {}) if not j.isdecimal()]
        if bad:
            raise ValueError(f"{where}: A_in key {bad[0]!r} is no agent index")
        agents.append(AgentModel(
            index=idx,
            A_in={int(j): _float_array(blk, f"{where}: A_in[{j}]")
                  for j, blk in entry.get("A_in", {}).items()},
            **{key: _float_array(entry[key], f"{where}: {key}")
               for key in _AGENT_KEYS}))
    return NetworkModel(agents)


def _float_array(value, where) -> np.ndarray:
    """``value`` as a float array; an entry that is no number (a JSON
    object or string, say) or a ragged nesting raises :class:`ValueError`
    naming ``where``."""
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where} must be an array of numbers") from exc


def build_network(cfg: ExperimentConfig) -> NetworkModel:
    if cfg.scenario == "chain":
        return build_chain_of_masses(
            cfg.n_masses, mass=cfg.mass, stiffness=cfg.stiffness,
            damping=cfg.damping, dt=cfg.dt, u_max=cfg.u_max,
            q_diag=cfg.q_diag, r_weight=cfg.r_weight, p_weight=cfg.p_weight)
    return load_network(cfg.network_file)


def sample_initial_states(net: NetworkModel, rng: np.random.Generator,
                          y0_range: float, v0_range: float) -> list[np.ndarray]:
    """Uniform initial states; second components use the velocity range."""
    states = []
    for agent in net.agents:
        x = np.empty(agent.n)
        for c in range(agent.n):
            r = v0_range if c == 1 else y0_range
            x[c] = rng.uniform(-r, r)
        states.append(x)
    return states


#: ``iterations.csv``'s per-sample counters, in column order.
_COUNTERS = ("asm_iterations", "init_rounds", "dcg_feasible_guess",
             "dcg_active_set", "dcg_total", "admm_iterations",
             "oracle_iterations")


@dataclass
class SampleRecord:
    """Everything recorded about one MPC sample; ``None`` marks a counter
    the solver does not have."""

    init: int
    sample: int
    status: str = "ok"
    asm_iterations: int | None = None
    init_rounds: int | None = None
    dcg_feasible_guess: int | None = None
    dcg_active_set: int | None = None
    dcg_total: int | None = None
    admm_iterations: int | None = None
    oracle_iterations: int | None = None
    comm: dict = field(default_factory=dict)
    deviation: float | None = None


@dataclass
class ExperimentResult:
    out_dir: Path
    records: list[SampleRecord]
    aggregates: dict
    failures: int


def _asm_step(cfg, fabric, qps, states, warm, t):
    """One sample of the distributed active-set solver.

    Returns the plan, the next warm start (the active rows shifted one step
    forward) and the sample's counters.
    """
    res = asm_solve(qps, warm, AsmConfig(eps_step=cfg.eps_asm,
                                         eps_dcg=cfg.eps_dcg), fabric)
    st = res.stats
    verify_comm_identities(
        st.ledger, len(qps), qps[0].n_coupling,
        dcg_iterations=st.dcg_total, asm_iterations=st.outer_iterations)
    warm = [shift_active(qp, a) for qp, a in zip(qps, res.active)]
    return res.z, warm, dict(
        asm_iterations=st.outer_iterations, init_rounds=st.init_rounds,
        dcg_feasible_guess=st.dcg_feasible_guess,
        dcg_active_set=st.dcg_active_set, dcg_total=st.dcg_total,
        comm=st.ledger.as_dict())


def _admm_step(cfg, fabric, qps, states, warm, t):
    """One sample of consensus ADMM, warm-started from the shifted average."""
    admm_cfg = AdmmConfig.preset(cfg.solver, rho=cfg.rho)
    res = admm_solve(qps, fabric, admm_cfg, warm)
    verify_comm_identities(res.stats.ledger, len(qps), qps[0].n_coupling,
                           admm_iterations=res.iterations)
    if not res.converged:
        raise SolverError(
            f"ADMM did not converge within {admm_cfg.max_iter} "
            f"iterations at sample {t}")
    return res.z, shift_averaged(qps, res.z_avg), dict(
        admm_iterations=res.iterations, comm=res.stats.ledger.as_dict())


def _closed_loop_distributed(net, cfg, qps, x0s):
    """Run one initial condition with the configured distributed solver.

    ``qps`` are the run's agent QPs at any initial state; they are moved to
    ``x0s`` as :func:`~dmpcqp.qp_builder.closed_loop` moves them every
    sample, so their working-set factors carry over from init to init.
    Each sample solves with the solver's step, which checks the ledger
    identities and returns the next warm start and the sample's counters.
    Returns :func:`~dmpcqp.qp_builder.closed_loop`'s
    ``(states, inputs, samples)``.
    """
    step = _asm_step if cfg.solver == "asm-dcg" else _admm_step
    qps = [update_initial_state(qp, x) for qp, x in zip(qps, x0s)]
    return closed_loop(net, qps, x0s, cfg.steps,
                       partial(step, cfg, Fabric(net.n_agents)))


def _blas_identity() -> dict:
    """Name, version and build configuration of numpy's BLAS (the
    configuration is OpenBLAS's; ``None`` for other libraries)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version"),
            "configuration": blas.get("openblas configuration")}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute the configured experiment and write its artifacts.

    Solver failures, including a failed reference rollout, and numerical
    failures (``LinAlgError``, recorded as ``error: LinAlgError: ...``) are
    recorded per initial condition; remaining initial conditions still run.
    The output directory is made before the first solve, so a path that
    cannot be one raises ``OSError`` at once.  Returns the collected
    records and aggregate statistics.
    """
    cfg.validate()
    net = build_network(cfg)
    rng = np.random.default_rng(cfg.seed)
    inits = [sample_initial_states(net, rng, cfg.y0_range, cfg.v0_range)
             for _ in range(cfg.n_inits)]
    # the QPs every init's distributed loop starts from
    qps = build_network_qps(net, cfg.horizon,
                            [np.zeros(a.n) for a in net.agents])
    dims = {
        "n_z": int(sum(qp.size for qp in qps)),
        "eq": int(sum(qp.n_eq for qp in qps)),
        "ineq": int(sum(qp.n_ineq for qp in qps)),
        "coupling": int(qps[0].n_coupling),
    }

    state_cols = ["y", "v"] + [f"x{c}" for c in
                               range(2, max(a.n for a in net.agents))]
    input_cols = ["u"] + [f"u{c}" for c in
                          range(1, max(a.m for a in net.agents))]

    # before the first solve, so an unusable output path costs no solve
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records: list[SampleRecord] = []
    trajectory_rows = []
    failures = 0
    for idx, x0s in enumerate(inits):
        stage = "reference rollout: "
        try:
            reference = centralized_mpc_rollout(net, x0s, cfg.horizon,
                                                cfg.steps)
            stage = ""
            if cfg.solver == "centralized":
                states, inputs = reference.states, reference.inputs
                samples = [dict(oracle_iterations=k)
                           for k in reference.iterations]
            else:
                states, inputs, samples = _closed_loop_distributed(
                    net, cfg, qps, x0s)
        except (SolverError, np.linalg.LinAlgError) as exc:
            kind = "" if isinstance(exc, SolverError) \
                else f"{type(exc).__name__}: "
            failures += 1
            records.append(SampleRecord(init=idx, sample=-1,
                                        status=f"error: {stage}{kind}{exc}"))
            continue
        for t, sample in enumerate(samples):
            dev = max(float(np.abs(states[t + 1][i]
                                   - reference.state_of(t + 1, i)).max())
                      for i in range(net.n_agents))
            records.append(SampleRecord(init=idx, sample=t, deviation=dev,
                                        **sample))
        for t in range(cfg.steps + 1):
            for i in range(net.n_agents):
                row = {"init": idx, "time": t, "agent": i}
                row.update(zip(state_cols, np.ravel(states[t][i]).tolist()))
                if t < cfg.steps:
                    row.update(zip(input_cols,
                                   np.ravel(inputs[t][i]).tolist()))
                trajectory_rows.append(row)

    aggregates = _aggregate(records)
    rows = [dataclasses.asdict(r) for r in records]
    _write_rows(out / "iterations.csv",
                ["init", "sample", "status", *_COUNTERS], rows)
    _write_rows(out / "communication.csv",
                ["init", "sample", "phase", "global_floats",
                 "global_booleans", "local_floats"],
                [{"init": r.init, "sample": r.sample, "phase": phase,
                  **r.comm[phase]} for r in records if r.comm
                 for phase in PHASES])
    _write_rows(out / "trajectories.csv",
                ["init", "time", "agent", "y", "v", "u"] + state_cols[2:]
                + input_cols[1:], trajectory_rows)
    _write_rows(out / "deviation.csv", ["init", "sample", "deviation"], rows)
    _write_rows(out / "summary.csv", ["metric", "mean", "max"],
                [{"metric": m, **agg} for m, agg in aggregates.items()])
    meta = {
        "config": dataclasses.asdict(cfg),
        "dims": dims,
        "prng": {"generator": "numpy.random.default_rng",
                 "bit_generator": "PCG64", "seed": cfg.seed},
        "numeric": {"numpy": np.__version__, "scipy": scipy.__version__,
                    "blas": _blas_identity(),
                    **{var: os.environ.get(var) for var in THREAD_VARS}},
        "aggregates": aggregates,
        "failures": failures,
    }
    with open(out / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
    return ExperimentResult(out_dir=out, records=records,
                            aggregates=aggregates, failures=failures)


_METRICS = ("asm_iterations", "dcg_feasible_guess", "dcg_active_set",
            "dcg_total", "admm_iterations", "oracle_iterations",
            "global_floats", "global_booleans", "local_floats", "deviation")


def _aggregate(records) -> dict:
    """Mean/max per metric over all samples except each init's first."""
    rows = [{**dataclasses.asdict(r), **r.comm.get("total", {})}
            for r in records if r.sample > 0 and r.status == "ok"]
    out = {}
    for metric in _METRICS:
        values = [row[metric] for row in rows if row.get(metric) is not None]
        if values:
            out[metric] = {"mean": float(np.mean(values)),
                           "max": float(np.max(values))}
    return out


def _write_rows(path, header, rows):
    """One CSV file: the ``header`` columns of each row dict, ``None`` and
    missing entries as empty fields."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


@dataclass(frozen=True)
class ComparisonResult:
    metrics: dict
    max_trajectory_diff: float
    #: ``{init: {"a": status, "b": status}}`` of each init that failed in
    #: one run only; the run it completed in has status ``None``.
    one_sided_failures: dict

    @property
    def identical(self) -> bool:
        """No init failed in one run only, and every aggregate and every
        trajectory entry agrees exactly."""
        return not self.one_sided_failures and \
            self.max_trajectory_diff == 0.0 and all(
                pair["a"] == pair["b"] for pair in self.metrics.values())


#: ``ExperimentConfig`` fields two compared runs may differ in.
_SOLVER_KEYS = ("solver", "rho", "eps_dcg", "eps_asm", "out_dir")


def compare_runs(run_a, run_b) -> ComparisonResult:
    """Side-by-side statistics of two experiment directories.

    Requires both runs to share the scenario definition and seed; solver
    settings may differ.  Returns per-metric aggregate pairs, the inits that
    failed in one run only (``iterations.csv``'s rows of sample ``-1``) and
    the largest trajectory difference over the inits both runs completed.
    A ``meta.json`` that is not JSON or lacks a ``config`` and
    ``aggregates`` object, an ``iterations.csv`` without the ``init,
    sample, status`` columns, or a ``trajectories.csv`` without the
    ``init, time, agent`` columns, raises :class:`ValueError` naming it.
    """
    run_a, run_b = Path(run_a), Path(run_b)
    metas = []
    for path in (run_a / "meta.json", run_b / "meta.json"):
        with open(path) as fh:
            try:
                metas.append(json.load(fh))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: {exc}") from exc
        if not (isinstance(metas[-1], dict) and all(
                isinstance(metas[-1].get(k), dict)
                for k in ("config", "aggregates"))):
            raise ValueError(f"{path}: not a run's meta.json")
    for key in (f.name for f in dataclasses.fields(ExperimentConfig)
                if f.name not in _SOLVER_KEYS):
        va, vb = metas[0]["config"].get(key), metas[1]["config"].get(key)
        if va != vb:
            raise ValueError(f"scenario mismatch: {key} differs ({va} vs {vb})")
    metrics = {}
    for metric in _METRICS:
        pair = [meta["aggregates"].get(metric) for meta in metas]
        if any(p is not None for p in pair):
            metrics[metric] = {"a": pair[0], "b": pair[1]}

    def _read_traj(run):
        path = run / "trajectories.csv"
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh, restval="")
            if (reader.fieldnames or [])[:3] != ["init", "time", "agent"]:
                raise ValueError(f"{path}: lacks the init, time and agent "
                                 f"columns")
            columns = reader.fieldnames[3:]
            return {(row["init"], row["time"], row["agent"]):
                    {c: float(row[c]) for c in columns if row[c] != ""}
                    for row in reader}

    def _failed(run):
        path = run / "iterations.csv"
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if (reader.fieldnames or [])[:3] != ["init", "sample", "status"]:
                raise ValueError(f"{path}: lacks the init, sample and status "
                                 f"columns")
            return {row["init"]: row["status"] for row in reader
                    if row["sample"] == "-1"}

    fa, fb = _failed(run_a), _failed(run_b)
    one_sided = {init: {"a": fa.get(init), "b": fb.get(init)}
                 for init in sorted(fa.keys() ^ fb.keys(), key=int)}
    failed = fa.keys() | fb.keys()
    ta, tb = ({key: row for key, row in _read_traj(run).items()
               if key[0] not in failed} for run in (run_a, run_b))
    if set(ta) != set(tb):
        raise ValueError("trajectory tables do not align")
    diff = 0.0
    for key, va in ta.items():
        vb = tb[key]
        if va.keys() != vb.keys():
            raise ValueError("trajectory tables do not align")
        for c, value in va.items():
            diff = max(diff, abs(value - vb[c]))
    return ComparisonResult(metrics=metrics, max_trajectory_diff=diff,
                            one_sided_failures=one_sided)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmpcqp",
        description="Distributed QP solvers for networked MPC experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    # an omitted flag leaves its ExperimentConfig default in place
    run = sub.add_parser("run", help="run a closed-loop experiment",
                         argument_default=argparse.SUPPRESS)
    run.add_argument("--scenario", choices=("chain", "file"))
    run.add_argument("--network", dest="network_file",
                     help="network JSON (scenario 'file')")
    run.add_argument("--masses", dest="n_masses", type=int,
                     help="number of masses in the chain")
    run.add_argument("--mass", type=float)
    run.add_argument("--stiffness", type=float)
    run.add_argument("--damping", type=float)
    run.add_argument("--dt", type=float)
    run.add_argument("--u-max", type=float)
    run.add_argument("--q-diag", type=float, nargs=2)
    run.add_argument("--r-weight", type=float)
    run.add_argument("--p-weight", type=float)
    run.add_argument("--horizon", type=int)
    run.add_argument("--steps", type=int)
    run.add_argument("--inits", dest="n_inits", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--solver", choices=SOLVERS)
    run.add_argument("--rho", type=float)
    run.add_argument("--eps-dcg", type=float)
    run.add_argument("--eps-asm", type=float)
    run.add_argument("--y0-range", type=float)
    run.add_argument("--v0-range", type=float)
    run.add_argument("--out", dest="out_dir")

    cmp_p = sub.add_parser("compare", help="compare two run directories")
    cmp_p.add_argument("run_a")
    cmp_p.add_argument("run_b")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        cfg = ExperimentConfig(**{name: value for name, value
                                  in vars(args).items() if name != "command"})
        try:
            result = run_experiment(cfg)
        except (ValueError, SolverError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {result.out_dir}")
        for metric, agg in result.aggregates.items():
            print(f"  {metric}: mean {agg['mean']:.3f}  max {agg['max']:.3f}")
        if result.failures:
            print(f"  {result.failures} initial conditions failed",
                  file=sys.stderr)
            return 1
        return 0
    try:
        comparison = compare_runs(args.run_a, args.run_b)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for init, status in comparison.one_sided_failures.items():
        run = args.run_a if status["a"] else args.run_b
        print(f"init {init} failed only in {run}: "
              f"{status['a'] or status['b']}")
    for metric, pair in comparison.metrics.items():
        print(f"{metric}: {pair['a']} vs {pair['b']}")
    print(f"max trajectory difference: {comparison.max_trajectory_diff:.3e}")
    return 0 if comparison.identical else 1


if __name__ == "__main__":
    sys.exit(main())
