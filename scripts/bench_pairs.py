"""Alternating before/after runs of the closed-loop benchmark.

Usage (from the repository root)::

    python3 scripts/bench_pairs.py --before OLD_CHECKOUT --after . \\
        --workload chain10-warm --workload chain10-admm \\
        --seed 2024 --seed 7 --out BENCH_oracle.json

Each of the ``PAIRS`` pairs runs ``perfbench/run.py --trace 0`` once in each
checkout, at the benchmark's own run length, the side that goes first
alternating from pair to pair, so a drift of the machine's speed falls on
both sides alike.  A gain is claimed only when the ``after`` side wins at
least nine of the ten pairs.  For every seed, workload and
end-to-end metric the output JSON holds each side's runs, median and
quartiles, and the number of pairs the ``after`` side wins (strictly better
in the metric's direction), ties and loses; beside the metrics it holds each
run's number of experiment passes, read from the checkout's
``perfbench/out/<workload>-seed<seed>-trace0.json`` (the peak RSS grows with
the passes a run keeps), and the distinct numeric environments the runs
reported (``perfbench/run.py`` pins the BLAS thread
variables to 1, and each environment records the values it used).

When ``--out`` names an existing report made with the same ``PAIRS`` and
command, this invocation's (seed, workload) cells are added to it, so one
record can hold cells run by several invocations (say, two seeds of one
workload and one of another).  The script exits 2 before running anything
when one of its cells is already in that report, or when the file holds
anything else.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("before", "after")
PAIRS = 10
COMMAND = "perfbench/run.py --trace 0"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, required=True)
    parser.add_argument("--after", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--out", type=Path, required=True)
    return parser.parse_args(argv)


def run_once(root: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run in ``root``: its result line, the
    numeric environment (versions, BLAS threads, CPU) it reported and the
    number of experiment passes it kept."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines
               if line.startswith("environment "))
    full = root / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    return dict(json.loads(lines[-1]), environment=env,
                passes=json.loads(full.read_text())["passes"])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: dict[str, list[dict]]) -> dict:
    """Per metric: both sides' values and quartiles, and the pair tally
    (every end-to-end metric of the benchmark is better lower)."""
    metrics = {}
    for name, first in runs["after"][0]["metrics"].items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in SIDES}
        diffs = [a - b for b, a in zip(values["before"], values["after"])]
        metrics[name] = {
            "unit": first["unit"],
            **{side: dict(quartiles(values[side]), runs=values[side])
               for side in SIDES},
            "after_wins": sum(d < 0 for d in diffs),
            "ties": sum(d == 0 for d in diffs),
            "after_losses": sum(d > 0 for d in diffs),
        }
    return metrics


def load_report(out: Path, seeds, workloads) -> dict:
    """The report to add the cells to: the one at ``out``, or a new one
    when there is no file.  Raises ``ValueError`` when the file holds
    another report or one of the cells."""
    if not out.exists():
        return {"pairs": PAIRS, "command": COMMAND, "seeds": {}}
    report = json.loads(out.read_text())
    if not isinstance(report, dict) or (
            report.get("pairs"), report.get("command")) != (PAIRS, COMMAND):
        raise ValueError(f"{out} is not a report of {PAIRS} pairs of "
                         f"{COMMAND!r}")
    taken = [f"seed {seed} {workload}" for seed in seeds
             for workload in workloads
             if workload in report["seeds"].get(str(seed), {})]
    if taken:
        raise ValueError(f"{out} already holds {', '.join(taken)}")
    return report


def main(argv=None) -> int:
    args = parse_args(argv)
    roots = {"before": args.before.resolve(), "after": args.after.resolve()}
    try:
        report = load_report(args.out, args.seed, args.workload)
    except ValueError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 2
    for seed in args.seed:
        for workload in args.workload:
            runs = {side: [] for side in SIDES}
            for pair in range(PAIRS):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    runs[side].append(run_once(roots[side], workload, seed))
                print(f"seed {seed} {workload} pair {pair + 1}/{PAIRS}",
                      file=sys.stderr, flush=True)
            cell = {key: {side: [r[key] for r in runs[side]]
                          for side in SIDES}
                    for key in ("correct", "failed", "passes")}
            cell["environments"] = [json.loads(e) for e in sorted(
                {json.dumps(r["environment"], sort_keys=True)
                 for side in SIDES for r in runs[side]})]
            cell["metrics"] = summarize(runs)
            report["seeds"].setdefault(str(seed), {})[workload] = cell
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
