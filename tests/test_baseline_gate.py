import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "baseline_gate.py"
_SPEC = importlib.util.spec_from_file_location("baseline_gate", _PATH)
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)


@pytest.mark.parametrize("differs", [False, True])
def test_gate_fails_when_any_file_differs(tmp_path, monkeypatch, capsys,
                                          differs):
    def fake_baseline(root, solver, out):
        out.mkdir()
        for name in gate.CSV_FILES:
            value = "2"
            if (differs and root.name == "after" and solver == "admm1"
                    and name == "summary.csv"):
                value = "2.5"
            (out / name).write_text(f"a,b\n1,{value}\n")

    monkeypatch.setattr(gate, "run_baseline", fake_baseline)
    roots = [tmp_path / side for side in ("before", "after")]
    for root in roots:
        root.mkdir()
    code = gate.main(["--before", str(roots[0]), "--after", str(roots[1])])
    lines = capsys.readouterr().out.splitlines()
    # every line is printed, also after the differing file
    assert len(lines) == len(gate.SOLVERS) * len(gate.CSV_FILES)
    if differs:
        assert code == 1
        assert "admm1 summary.csv: max abs difference 0.5" in lines
        assert sum(not line.endswith(": identical") for line in lines) == 1
    else:
        assert code == 0
        assert all(line.endswith(": identical") for line in lines)
