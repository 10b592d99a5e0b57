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
        assert "admm1 summary.csv: max abs difference 0.5" in lines
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
