"""Closed-loop MPC workloads, loop and metrics of the dmpcqp benchmark.

Import this module only after the BLAS thread variables are pinned (see
``run.py``): it imports numpy through ``dmpcqp``.

The loop mirrors what ``dmpcqp run`` executes for one initial condition --
the centralized reference rollout, the distributed closed loop and the
deviation check -- through public functions only, and times every sample's
``asm_solve``/``admm_solve`` call.  One client closes the loop: a sample's
solve starts only after the previous sample's plant step.
"""

from __future__ import annotations

import dataclasses
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from dmpcqp.admm import AdmmConfig, admm_solve, shift_averaged
from dmpcqp.asm import AsmConfig, asm_solve, shift_active
from dmpcqp.errors import SolverError
from dmpcqp.fabric import PHASES, Fabric, verify_comm_identities
from dmpcqp.model import PlantState, build_chain_of_masses, plant_step
from dmpcqp.oracle import centralized_mpc_rollout
from dmpcqp.qp_builder import build_network_qps, update_initial_state

from tracer import NO_SPANS, Tracer

#: Criterion-4 deviation tolerances against the centralized reference.
DEVIATION_TOL = {"asm-dcg": 1e-6, "admm2": 1e-3}
KINDS = ("global_floats", "global_booleans", "local_floats")


@dataclass(frozen=True)
class Workload:
    """One closed-loop experiment: a chain, a solver and a number of inits."""

    name: str
    n_masses: int
    u_max: float
    solver: str
    n_inits: int
    why: str
    horizon: int = 12
    steps: int = 25
    y0_range: float = 1.0
    v0_range: float = 0.5
    rho: float = 5.0


# The init counts trade seed-to-seed spread against run time: on a 2-core
# Xeon with one BLAS thread one experiment takes 30-50 s.  chain5-tight is
# kept for manual runs only; its metrics depend too much on which inits the
# seed draws (see README.md).
WORKLOADS = {w.name: w for w in (
    Workload("chain10-warm", 10, 1.0, "asm-dcg", n_inits=14,
             why="paper baseline: warm-started asm-dcg settles most samples "
                 "in one outer iteration, so condense and dcg set the "
                 "solve time"),
    Workload("chain10-admm", 10, 1.0, "admm2", n_inits=4,
             why="same QPs through consensus ADMM: local QP solves and "
                 "averaging dominate, condense/dcg/asm are idle"),
    Workload("chain5-tight", 5, 0.3, "asm-dcg", n_inits=6,
             why="input bounds bind: active-set changes, DCG in the "
                 "active-set phase, dual recovery, and an oracle-heavy "
                 "experiment"),
)}


def build_network(wl: Workload):
    return build_chain_of_masses(wl.n_masses, u_max=wl.u_max)


def draw_initial_states(net, wl: Workload, seed: int):
    """Initial states with the recipe of ``dmpcqp run``.

    PCG64 seeded from ``seed``; per init, per agent, per state component a
    uniform draw in ``±v0_range`` for the second component (velocity) and
    ``±y0_range`` otherwise.
    """
    rng = np.random.default_rng(seed)
    inits = []
    for _ in range(wl.n_inits):
        states = []
        for agent in net.agents:
            x = np.empty(agent.n)
            for c in range(agent.n):
                r = wl.v0_range if c == 1 else wl.y0_range
                x[c] = rng.uniform(-r, r)
            states.append(x)
        inits.append(states)
    return inits


def loop_api(tracer: Tracer | None = None):
    """The public functions the loop calls, wrapped in spans if traced."""
    fns = dict(
        build_network_qps=build_network_qps, asm_solve=asm_solve,
        shift_active=shift_active, admm_solve=admm_solve,
        shift_averaged=shift_averaged, plant_step=plant_step,
        update_initial_state=update_initial_state,
        verify_comm_identities=verify_comm_identities,
        centralized_mpc_rollout=centralized_mpc_rollout)
    if tracer is not None:
        fns = {k: tracer.wrap(f"loop.{k}", f) for k, f in fns.items()}
    return SimpleNamespace(**fns)


@dataclass
class Sample:
    """What one closed-loop sample produced; ``solve_s`` is its wall time."""

    solve_s: float
    counters: dict
    comm: dict
    fabric_calls: int
    deviation: float


@dataclass
class InitRun:
    index: int
    wall_s: float = 0.0
    samples: list[Sample] = field(default_factory=list)
    states: list = field(default_factory=list)
    inputs: list = field(default_factory=list)
    oracle_iterations: tuple = ()
    failed: int = 0
    error: str | None = None

    def fail(self, steps: int, reason: str) -> None:
        """Fail the current sample and every later sample of this init."""
        self.failed = steps - len(self.samples)
        self.error = reason


@dataclass
class Experiment:
    wall_s: float
    inits: list[InitRun]

    @property
    def samples(self) -> list[Sample]:
        return [s for run in self.inits for s in run.samples]

    @property
    def failed(self) -> int:
        return sum(run.failed for run in self.inits)

    def signature(self):
        """Every exact count and value the experiment produced.

        Two runs of the same code, seed and BLAS configuration must give
        equal signatures, traced or not.
        """
        return [(run.index, run.failed, run.oracle_iterations,
                 [(sorted(s.counters.items()), s.comm, s.fabric_calls,
                   s.deviation) for s in run.samples],
                 [np.concatenate(x).tobytes() for x in run.states],
                 [np.concatenate(u).tobytes() for u in run.inputs])
                for run in self.inits]


def run_init(wl: Workload, net, index: int, x0s, api,
             tracer: Tracer | None = None) -> InitRun:
    """Reference rollout, distributed closed loop and deviation check."""
    out = InitRun(index=index)
    M = net.n_agents
    tol = DEVIATION_TOL[wl.solver]
    if tracer is not None:
        tracer.current_sample = -1 - index
    try:
        reference = api.centralized_mpc_rollout(net, x0s, wl.horizon, wl.steps)
    except SolverError as exc:
        out.fail(wl.steps, f"reference rollout: {exc}")
        return out
    out.oracle_iterations = tuple(reference.iterations)
    qps = api.build_network_qps(net, wl.horizon, x0s)
    n_c = qps[0].n_coupling
    fabric = Fabric(M)
    state = PlantState(states=tuple(x0s))
    out.states.append(list(state.states))
    asm_cfg = AsmConfig(eps_step=1e-6, eps_dcg=1e-8)
    admm_cfg = AdmmConfig.preset(wl.solver, rho=wl.rho) \
        if wl.solver != "asm-dcg" else None
    warm = None
    for t in range(wl.steps):
        if tracer is not None:
            tracer.current_sample = index * wl.steps + t
        before = fabric.ledger.snapshot()
        rounds = fabric.round_index
        try:
            tic = perf_counter()
            if admm_cfg is None:
                res = api.asm_solve(qps, warm, asm_cfg, fabric)
            else:
                res = api.admm_solve(qps, fabric, admm_cfg, warm)
            solve_s = perf_counter() - tic
            delta = fabric.ledger.delta(before)
            if admm_cfg is None:
                st = res.stats
                counters = dict(asm_iterations=st.outer_iterations,
                                init_rounds=st.init_rounds,
                                dcg_feasible_guess=st.dcg_feasible_guess,
                                dcg_active_set=st.dcg_active_set)
                api.verify_comm_identities(
                    delta, M, n_c, dcg_iterations=st.dcg_total,
                    asm_iterations=st.outer_iterations)
                warm = [api.shift_active(qp, a)
                        for qp, a in zip(qps, res.active)]
            else:
                counters = dict(
                    admm_iterations=res.iterations,
                    local_asm_iterations=res.stats.local_asm_iterations)
                api.verify_comm_identities(delta, M, n_c,
                                           admm_iterations=res.iterations)
                if not res.converged:
                    raise SolverError(f"ADMM did not converge within "
                                      f"{admm_cfg.max_iter} iterations")
                warm = api.shift_averaged(qps, res.z_avg)
        except SolverError as exc:
            out.fail(wl.steps, f"sample {t}: {type(exc).__name__}: {exc}")
            return out
        u = [res.z[i][qps[i].layout.u_slice(0)] for i in range(M)]
        state = api.plant_step(net, state, u)
        dev = max(float(np.abs(state.states[i]
                               - reference.state_of(t + 1, i)).max())
                  for i in range(M))
        if not dev <= tol:
            out.fail(wl.steps, f"sample {t}: deviation {dev:.3e} > {tol:g}")
            return out
        out.samples.append(Sample(
            solve_s=solve_s, counters=counters, comm=delta.as_dict(),
            fabric_calls=fabric.round_index - rounds, deviation=dev))
        out.states.append(list(state.states))
        out.inputs.append(u)
        qps = [api.update_initial_state(qp, x)
               for qp, x in zip(qps, state.states)]
    return out


def run_experiment(wl: Workload, net, inits, api,
                   tracer: Tracer | None = None) -> Experiment:
    """Run every init in order; time each init and the whole workload."""
    runs = []
    start = perf_counter()
    for idx, x0s in enumerate(inits):
        tic = perf_counter()
        run = run_init(wl, net, idx, x0s, api, tracer)
        run.wall_s = perf_counter() - tic
        runs.append(run)
    return Experiment(wall_s=perf_counter() - start, inits=runs)


def warm_up(wl: Workload, net, inits) -> None:
    """Two untimed samples, so lazy imports and first-call costs settle."""
    run_init(dataclasses.replace(wl, steps=2), net, 0, inits[0], loop_api())


# -- end-to-end metrics ----------------------------------------------------

def traffic_per_sample(exp: Experiment) -> dict[tuple[str, str], float]:
    """Mean ledger count per sample, per (phase, kind) and ('total', kind)."""
    samples = exp.samples
    n = max(len(samples), 1)
    out = {}
    for phase in PHASES + ("total",):
        for kind in KINDS:
            out[(phase, kind)] = sum(s.comm[phase][kind] for s in samples) / n
    return out


def end_to_end(untraced: list[Experiment], setup_s: float,
               peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    """End-to-end metrics; medians and p90 over samples or inits.

    Traffic is the median over samples of each sample's ledger total (a few
    inits that need many more iterations move a mean far more than the
    seed-to-seed spread allows); the per-layer metrics keep the means.
    """
    times_ms = [1e3 * s.solve_s for exp in untraced for s in exp.samples]
    totals = [s.comm["total"] for s in untraced[0].samples]

    def traffic(*kinds):
        return float(np.median([sum(t[k] for k in kinds) for t in totals]))

    return {
        "solve_ms_p50": (float(np.percentile(times_ms, 50)), "ms"),
        "solve_ms_p90": (float(np.percentile(times_ms, 90)), "ms"),
        "experiment_s_per_init_p50": (statistics.median(
            r.wall_s for e in untraced for r in e.inits), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "global_values_per_sample_p50": (
            traffic("global_floats", "global_booleans"), "count"),
        "global_booleans_per_sample_p50": (traffic("global_booleans"),
                                           "count"),
        "local_floats_per_sample_p50": (traffic("local_floats"), "count"),
    }


# -- tracing -----------------------------------------------------------------

def _work_rows(args, _out):
    """Working-set rows of a ``condense(qp, work, ...)`` call."""
    return args[1].n_rows


#: (span name, module, attribute path, extra) -- the program's own lookups.
ATTACH_POINTS = (
    ("asm.condense", "dmpcqp.asm", "condense", _work_rows),
    ("asm.backsubstitute", "dmpcqp.asm", "backsubstitute", None),
    ("asm.recover_duals", "dmpcqp.asm", "recover_duals", None),
    ("asm.dcg_solve", "dmpcqp.asm", "dcg_solve", None),
    ("asm.verify_iterate", "dmpcqp.asm", "verify_iterate", None),
    ("dcg.dcg_init", "dmpcqp.dcg", "dcg_init", None),
    ("dcg.dcg_iterate", "dmpcqp.dcg", "dcg_iterate", None),
    ("admm.condense", "dmpcqp.admm", "condense", _work_rows),
    ("admm.local_solve", "dmpcqp.admm", "LocalQpSolver.solve",
     lambda _args, out: out[2]),
    ("admm.admm_average", "dmpcqp.admm", "admm_average", None),
    ("admm.admm_converged", "dmpcqp.admm", "admm_converged", None),
    ("admm.local_linear_term", "dmpcqp.admm", "local_linear_term", None),
    ("admm.admm_dual_update", "dmpcqp.admm", "admm_dual_update", None),
    ("fabric.global_reduce", "dmpcqp.fabric", "Fabric.global_reduce", None),
    ("fabric.global_flags", "dmpcqp.fabric", "Fabric.global_flags", None),
    ("fabric.neighbor_exchange", "dmpcqp.fabric", "Fabric.neighbor_exchange",
     None),
    ("oracle.solve_dense_qp", "dmpcqp.oracle", "solve_dense_qp",
     lambda _args, out: out.iterations),
    ("oracle.prepare_kkt", "dmpcqp.oracle", "prepare_kkt", None),
    ("oracle.stack_global", "dmpcqp.oracle", "stack_global", None),
)
FABRIC_SPANS = ("fabric.global_reduce", "fabric.global_flags",
                "fabric.neighbor_exchange")
DCG_SPANS = ("asm.dcg_solve", "dcg.dcg_init", "dcg.dcg_iterate")
ADMM_SELF_SPANS = ("loop.admm_solve", "admm.admm_converged",
                   "admm.local_linear_term", "admm.admm_dual_update")


def _absent(summary: dict, missing) -> set[str]:
    """Missing spans, plus ``<span>#extra`` where a call's extra is absent."""
    absent = set(missing) | {f"{name}#extra" for name in missing}
    absent |= {f"{name}#extra" for name, row in summary.items()
               if row.extras < row.count}
    return absent


def _sum_counter(exp: Experiment, key: str) -> int:
    return sum(s.counters.get(key, 0) for s in exp.samples)


def layer_metrics(exp: Experiment, summary: dict, missing,
                  overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced experiment.

    Counts come from the program's own counters and the ledger (exact);
    times come from span durations, or self times where a span has traced
    children.  A metric that needs a missing attach point is left out; a
    self time needs every attach point that can be a child of its span.
    """
    S = max(len(exp.samples), 1)
    I = max(len(exp.inits), 1)

    def count(name):
        return summary.get(name, NO_SPANS).count

    def total(*names):
        return sum(summary.get(n, NO_SPANS).total_s for n in names)

    def self_(*names):
        return sum(summary.get(n, NO_SPANS).self_s for n in names)

    def per(num, den):
        return num / den if den else 0.0

    dcg_iters = _sum_counter(exp, "dcg_feasible_guess") \
        + _sum_counter(exp, "dcg_active_set")
    condense_calls = count("asm.condense")
    local_solves = count("admm.local_solve")
    traffic = traffic_per_sample(exp)
    specs = [
        ("qp_builder.build_ms_per_init", "ms", ("loop.build_network_qps",),
         lambda: 1e3 * total("loop.build_network_qps") / I),
        ("qp_builder.stack_global_ms_per_init", "ms", ("oracle.stack_global",),
         lambda: 1e3 * total("oracle.stack_global") / I),
        ("fabric.calls_per_sample", "count", (),
         lambda: sum(s.fabric_calls for s in exp.samples) / S),
        ("fabric.self_ms_per_sample", "ms", FABRIC_SPANS,
         lambda: 1e3 * total(*FABRIC_SPANS) / S),
    ]
    for phase in PHASES + ("total",):
        for kind in KINDS:
            specs.append((f"fabric.{phase}.{kind}_per_sample", "count", (),
                          lambda p=phase, k=kind: traffic[(p, k)]))
    specs += [
        ("condense.calls_per_sample", "count", ("asm.condense",),
         lambda: condense_calls / S),
        ("condense.self_ms_per_call", "ms", ("asm.condense",),
         lambda: per(1e3 * total("asm.condense"), condense_calls)),
        ("condense.working_rows_per_call", "count", ("asm.condense#extra",),
         lambda: per(summary.get("asm.condense", NO_SPANS).extra_sum,
                     condense_calls)),
        ("condense.backsubstitute_ms_per_sample", "ms",
         ("asm.backsubstitute",),
         lambda: 1e3 * total("asm.backsubstitute") / S),
        ("condense.recover_duals_ms_per_sample", "ms", ("asm.recover_duals",),
         lambda: 1e3 * total("asm.recover_duals") / S),
        ("dcg.solves_per_sample", "count", ("asm.dcg_solve",),
         lambda: count("asm.dcg_solve") / S),
        ("dcg.iterations_per_sample", "count", (), lambda: dcg_iters / S),
        ("dcg.self_ms_per_iteration", "ms", DCG_SPANS + FABRIC_SPANS,
         lambda: per(1e3 * self_(*DCG_SPANS), dcg_iters)),
        ("dcg.self_ms_per_sample", "ms", DCG_SPANS + FABRIC_SPANS,
         lambda: 1e3 * self_(*DCG_SPANS) / S),
        ("asm.outer_iterations_per_sample", "count", (),
         lambda: _sum_counter(exp, "asm_iterations") / S),
        ("asm.init_rounds_per_sample", "count", (),
         lambda: _sum_counter(exp, "init_rounds") / S),
        ("asm.self_ms_per_sample", "ms", ("asm.verify_iterate",) + DCG_SPANS
         + FABRIC_SPANS + ("asm.condense", "asm.backsubstitute",
                           "asm.recover_duals"),
         lambda: 1e3 * self_("loop.asm_solve", "asm.verify_iterate") / S),
        ("admm.iterations_per_sample", "count", (),
         lambda: _sum_counter(exp, "admm_iterations") / S),
        ("admm.local_solves_per_sample", "count", ("admm.local_solve",),
         lambda: local_solves / S),
        ("admm.local_solve_ms_per_call", "ms",
         ("admm.local_solve", "admm.condense"),
         lambda: per(1e3 * self_("admm.local_solve"), local_solves)),
        ("admm.local_asm_iterations_per_solve", "count", ("admm.local_solve",),
         lambda: per(_sum_counter(exp, "local_asm_iterations"), local_solves)),
        ("admm.factor_miss_ratio", "ratio",
         ("admm.condense", "admm.local_solve"),
         lambda: per(count("admm.condense"), local_solves)),
        ("admm.average_ms_per_sample", "ms",
         ("admm.admm_average",) + FABRIC_SPANS,
         lambda: 1e3 * self_("admm.admm_average") / S),
        ("admm.self_ms_per_sample", "ms", ADMM_SELF_SPANS[1:]
         + ("admm.local_solve", "admm.admm_average") + FABRIC_SPANS,
         lambda: 1e3 * self_(*ADMM_SELF_SPANS) / S),
        ("oracle.rollout_s_per_init", "s", (),
         lambda: total("loop.centralized_mpc_rollout") / I),
        ("oracle.iterations_per_sample", "count", (),
         lambda: sum(sum(r.oracle_iterations) for r in exp.inits) / S),
        ("oracle.solve_ms_per_sample", "ms", ("oracle.solve_dense_qp",),
         lambda: 1e3 * total("oracle.solve_dense_qp") / S),
        ("oracle.prepare_ms_per_init", "ms", ("oracle.prepare_kkt",),
         lambda: 1e3 * total("oracle.prepare_kkt") / I),
        ("trace.overhead_pct", "%", (), lambda: overhead_pct),
    ]
    absent = _absent(summary, missing)
    return {name: (float(fn()), unit) for name, unit, needs, fn in specs
            if not absent.intersection(needs)}


def check_trace_counts(wl: Workload, exp: Experiment, tracer: Tracer,
                       missing) -> list[str]:
    """Cross-check span counts against the program's own counters.

    Shows that the tracer saw every call it claims to measure: fabric rounds,
    DCG solves and iterations, ADMM local solves and their active-set
    iterations, and oracle solves and iterations.
    """
    summary = tracer.summary()
    absent = _absent(summary, missing)
    problems = []

    def expect(needs, what, got, want):
        if not absent.intersection(needs) and got != want:
            problems.append(f"{what}: {got} spans, {want} by count")

    fabric = [tracer.count_by_sample(n) for n in FABRIC_SPANS]
    dcg_solves = tracer.count_by_sample("asm.dcg_solve")
    dcg_iters = tracer.count_by_sample("dcg.dcg_iterate")
    local = tracer.count_by_sample("admm.local_solve")
    for run in exp.inits:
        for t, s in enumerate(run.samples):
            sid = run.index * wl.steps + t
            c = s.counters
            expect(FABRIC_SPANS, f"sample {sid} fabric calls",
                   sum(f.get(sid, 0) for f in fabric), s.fabric_calls)
            if "asm_iterations" in c:
                expect(("asm.dcg_solve",), f"sample {sid} DCG solves",
                       dcg_solves.get(sid, 0),
                       c["init_rounds"] + c["asm_iterations"])
                expect(("dcg.dcg_iterate",), f"sample {sid} DCG iterations",
                       dcg_iters.get(sid, 0),
                       c["dcg_feasible_guess"] + c["dcg_active_set"])
            else:
                expect(("admm.local_solve",), f"sample {sid} local solves",
                       local.get(sid, 0), wl.n_masses * c["admm_iterations"])
    if wl.solver != "asm-dcg":
        expect(("admm.local_solve#extra",), "local active-set iterations",
               summary.get("admm.local_solve", NO_SPANS).extra_sum,
               _sum_counter(exp, "local_asm_iterations"))
    oracle = summary.get("oracle.solve_dense_qp", NO_SPANS)
    expect(("oracle.solve_dense_qp",), "oracle solves", oracle.count,
           sum(len(r.oracle_iterations) for r in exp.inits))
    expect(("oracle.solve_dense_qp#extra",), "oracle iterations",
           oracle.extra_sum, sum(sum(r.oracle_iterations) for r in exp.inits))
    return problems
