"""Compare the acceptance baseline's artifacts between two checkouts.

Usage (from the repository root)::

    python3 scripts/baseline_gate.py --before OLD_CHECKOUT --after .

For each solver in ``SOLVERS`` the script runs ``dmpcqp run`` on the
acceptance baseline (10 masses, horizon 12, 25 steps, 5 inits, seed 2024)
once in each checkout, from that checkout's ``src`` and with one BLAS
thread.  For every solver and CSV file it prints ``identical`` when the
two files' bytes compare equal, and otherwise the largest absolute
difference between numeric fields (or the first differing text field)
with the number of rows and the names of the columns that differ, and
the labels of the rows that differ (see :func:`difference`), or a
differing header or row layout.  It then prints ``meta.json: identical``
when the two ``meta.json`` files agree once ``config.out_dir`` is dropped, and
otherwise the top-level keys that differ, and one line with the wall time
of each side's ``dmpcqp run``: single runs, so a shared machine's noise
shows in them.  After printing every line it exits 1 when any file is not
``identical``, and 0 otherwise; the times do not enter the exit code.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BASELINE = ("--masses", "10", "--horizon", "12", "--steps", "25",
            "--inits", "5", "--seed", "2024")
SOLVERS = {"asm-dcg": (), "admm1": ("--rho", "5"), "admm2": ("--rho", "5"),
           "centralized": ()}
CSV_FILES = ("iterations.csv", "communication.csv", "trajectories.csv",
             "deviation.csv", "summary.csv")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, required=True)
    parser.add_argument("--after", type=Path, required=True)
    return parser.parse_args(argv)


def run_baseline(root: Path, solver: str, out: Path) -> None:
    """One baseline run of ``solver`` in ``root``, written to ``out``.

    Exit code 1 (some initial conditions failed) still writes every file;
    the failures then show in ``iterations.csv``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               **dict.fromkeys(THREAD_VARS, "1"))
    proc = subprocess.run(
        [sys.executable, "-m", "dmpcqp.cli", "run", *BASELINE,
         "--solver", solver, *SOLVERS[solver], "--out", str(out)],
        cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{root}: dmpcqp run --solver {solver} exited "
                           f"{proc.returncode}:\n{proc.stderr}")


def difference(before: Path, after: Path) -> str:
    """``identical``, or how the two CSV files differ.

    A differing header or row layout is named alone.  Otherwise the result
    is the largest absolute difference between numeric fields (or the first
    differing text field), the number of data rows that differ and the
    header names of the columns that do.  When the table's first label
    column (all text, no numbers, and more than one value, such as
    ``communication.csv``'s ``phase``) did not change, the result ends
    with its values among the differing rows, in first-seen order."""
    if before.read_bytes() == after.read_bytes():
        return "identical"
    tables = []
    for path in (before, after):
        with open(path, newline="") as fh:
            tables.append(list(csv.reader(fh)))
    if [len(row) for row in tables[0]] != [len(row) for row in tables[1]]:
        return "row layout differs"
    header = tables[0][0]
    if header != tables[1][0]:
        return f"header differs: {header} vs {tables[1][0]}"
    worst, text, rows, columns, labels = 0.0, None, 0, set(), []
    label = _label_column(tables[0][1:])
    for row_b, row_a in zip(tables[0][1:], tables[1][1:]):
        moved = [k for k, (b, a) in enumerate(zip(row_b, row_a)) if b != a]
        rows += bool(moved)
        columns.update(moved)
        if moved and label is not None:
            labels.append(row_b[label])
        for k in moved:
            try:
                worst = max(worst, abs(float(row_a[k]) - float(row_b[k])))
            except ValueError:
                text = text or f"text differs: {row_b[k]!r} vs {row_a[k]!r}"
    names = ", ".join(header[k] for k in sorted(columns))
    out = (f"{text or f'max abs difference {worst:.3g}'} in {rows} of "
           f"{len(tables[0]) - 1} rows, columns {names}")
    if label is None or label in columns:
        return out
    return f"{out}; {header[label]} {', '.join(dict.fromkeys(labels))}"


def _label_column(rows) -> int | None:
    """Index of the first column of ``rows`` whose fields are all text, not
    numbers, and hold more than one value, or None."""
    for k, values in enumerate(zip(*rows)):
        if len(set(values)) > 1 and not any(map(_is_number, values)):
            return k
    return None


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def meta_difference(before: Path, after: Path) -> str:
    """``identical``, or the top-level keys in which the two ``meta.json``
    files differ; ``config.out_dir`` names the output directory and is
    dropped."""
    metas = []
    for path in (before, after):
        meta = json.loads(path.read_text())
        meta.get("config", {}).pop("out_dir", None)
        metas.append(meta)
    keys = sorted(key for key in metas[0].keys() | metas[1].keys()
                  if metas[0].get(key) != metas[1].get(key))
    return "keys differ: " + ", ".join(keys) if keys else "identical"


def main(argv=None) -> int:
    args = parse_args(argv)
    roots = {"before": args.before.resolve(), "after": args.after.resolve()}
    identical = True
    with tempfile.TemporaryDirectory() as tmp:
        for solver in SOLVERS:
            outs = {side: Path(tmp) / f"{side}-{solver}" for side in roots}
            seconds = {}
            for side, root in roots.items():
                start = time.perf_counter()
                run_baseline(root, solver, outs[side])
                seconds[side] = time.perf_counter() - start
            for name in (*CSV_FILES, "meta.json"):
                compare = meta_difference if name == "meta.json" \
                    else difference
                result = compare(outs["before"] / name, outs["after"] / name)
                identical = identical and result == "identical"
                print(f"{solver} {name}: {result}", flush=True)
            print(f"{solver} wall time: before {seconds['before']:.2f} s, "
                  f"after {seconds['after']:.2f} s (one run each, noisy)",
                  flush=True)
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
