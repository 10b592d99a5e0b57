import importlib.util
import json
import re
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "baseline_gate.py"
_SPEC = importlib.util.spec_from_file_location("baseline_gate", _PATH)
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)


def _run_gate(tmp_path, monkeypatch, capsys, changed=None):
    """Run the gate on fake baselines whose ``after`` side of ``admm1``
    writes ``changed`` (a file name) with a different value."""
    def fake_baseline(root, solver, out):
        out.mkdir()
        moved = root.name == "after" and solver == "admm1"
        for name in gate.CSV_FILES:
            value = "2.5" if moved and name == changed else "2"
            (out / name).write_text(f"a,b\n1,{value}\n")
        failures = 1 if moved and changed == "meta.json" else 0
        # the output directory differs between the sides and is dropped
        (out / "meta.json").write_text(json.dumps(
            {"config": {"seed": 2024, "out_dir": str(out)},
             "aggregates": {}, "failures": failures}))

    monkeypatch.setattr(gate, "run_baseline", fake_baseline)
    roots = [tmp_path / side for side in ("before", "after")]
    for root in roots:
        root.mkdir()
    code = gate.main(["--before", str(roots[0]), "--after", str(roots[1])])
    lines = capsys.readouterr().out.splitlines()
    # every line is printed, also after the differing file, and each
    # solver's file lines end with both sides' wall times
    per_solver = len(gate.CSV_FILES) + 2
    assert len(lines) == len(gate.SOLVERS) * per_solver
    times = lines[per_solver - 1::per_solver]
    assert all(re.fullmatch(r"\S+ wall time: before \d+\.\d\d s, after "
                            r"\d+\.\d\d s \(one run each, noisy\)", line)
               for line in times)
    return code, [line for line in lines if line not in times]


@pytest.mark.parametrize("differs", [False, True])
def test_gate_fails_when_any_file_differs(tmp_path, monkeypatch, capsys,
                                          differs):
    code, lines = _run_gate(tmp_path, monkeypatch, capsys,
                            "summary.csv" if differs else None)
    if differs:
        assert code == 1
        assert "admm1 summary.csv: max abs difference 0.5 in 1 of 1 rows, " \
            "columns b" in lines
        assert sum(not line.endswith(": identical") for line in lines) == 1
    else:
        assert code == 0
        assert all(line.endswith(": identical") for line in lines)
        assert "centralized meta.json: identical" in lines


def test_gate_fails_when_only_meta_json_differs(tmp_path, monkeypatch,
                                                capsys):
    code, lines = _run_gate(tmp_path, monkeypatch, capsys, "meta.json")
    assert code == 1
    assert "admm1 meta.json: keys differ: failures" in lines
    assert sum(not line.endswith(": identical") for line in lines) == 1


def _write_csv(path, rows):
    path.write_text("".join(",".join(row) + "\n" for row in rows))


def test_difference_names_the_columns_and_counts_the_rows(tmp_path):
    """A differing CSV file reports its largest difference with the
    number of data rows and the header names of the columns that moved."""
    header = ["init", "sample", "status", "init_rounds", "dcg_total"]
    before = [header] + [[str(i), str(t), "ok", "1", "40"]
                         for i in range(2) for t in range(3)]
    after = [row[:] for row in before]
    for row in after[1:3] + after[4:5]:
        row[3] = "0"
    paths = [tmp_path / "before.csv", tmp_path / "after.csv"]
    _write_csv(paths[0], before)
    _write_csv(paths[1], after)
    assert gate.difference(*paths) == \
        "max abs difference 1 in 3 of 6 rows, columns init_rounds"
    after[6][2], after[6][4] = "error", "41"
    _write_csv(paths[1], after)
    assert gate.difference(*paths) == ("text differs: 'ok' vs 'error' in 4 "
                                       "of 6 rows, columns status, "
                                       "init_rounds, dcg_total")
    _write_csv(paths[1], [header[:2] + ["state"] + header[3:]] + before[1:])
    assert gate.difference(*paths).startswith("header differs: ")
    _write_csv(paths[1], before[:-1])
    assert gate.difference(*paths) == "row layout differs"


def test_difference_names_the_labels_of_the_rows_that_moved(tmp_path):
    """When the first column of text labels stays, the result ends with
    its values among the differing rows, in first-seen order; a label
    column that moved, or that holds one value, is not named."""
    header = ["init", "sample", "phase", "global_floats", "global_booleans"]
    before = [header] + [[str(i), "0", phase, "0", "20"] for i in range(2)
                         for phase in ("init", "dcg", "asm", "admm")]
    after = [row[:] for row in before]
    for row in after[1:]:
        if row[2] == "init":
            row[3] = "20"
        if row[2] == "asm":
            row[4] = "0"
    paths = [tmp_path / "before.csv", tmp_path / "after.csv"]
    _write_csv(paths[0], before)
    _write_csv(paths[1], after)
    assert gate.difference(*paths) == (
        "max abs difference 20 in 4 of 8 rows, columns global_floats, "
        "global_booleans; phase init, asm")
    after[2][2] = "admm"
    _write_csv(paths[1], after)
    assert gate.difference(*paths) == (
        "text differs: 'dcg' vs 'admm' in 5 of 8 rows, columns phase, "
        "global_floats, global_booleans")
    summary = [["metric", "mean", "max"], ["asm_iterations", "1.5", "3"],
               ["global_floats", "2000", "2500"],
               ["global_booleans", "860", "900"]]
    _write_csv(paths[0], summary)
    summary[3][1:] = ["840", "880"]
    summary[2][2] = "2520"
    _write_csv(paths[1], summary)
    assert gate.difference(*paths) == (
        "max abs difference 20 in 2 of 3 rows, columns mean, max; metric "
        "global_floats, global_booleans")
