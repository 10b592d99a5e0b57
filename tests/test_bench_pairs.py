import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

# A stand-in for ``perfbench/run.py``: it prints the environment and result
# lines and writes the full result, with its pass count, where the real one
# does.
_FAKE_RUN = """\
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
passes, rss = {passes}, {rss}
result = {{"correct": True, "attempted": 100, "failed": 0,
          "metrics": {{"peak_rss_mb": {{"value": rss, "unit": "MB"}}}}}}
out = Path("perfbench/out")
out.mkdir(exist_ok=True)
(out / f"{{args['--workload']}}-seed{{args['--seed']}}-trace0.json").write_text(
    json.dumps(dict(result, passes=passes)))
print("environment " + json.dumps({{"nproc": 2}}))
print(json.dumps(result))
"""


def _checkout(root: Path, passes: int, rss: float) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        _FAKE_RUN.format(passes=passes, rss=rss))
    return root


def test_report_keeps_each_runs_passes_beside_its_metrics(tmp_path,
                                                          monkeypatch):
    monkeypatch.setattr(pairs, "PAIRS", 2)
    before = _checkout(tmp_path / "before", passes=7, rss=79.5)
    after = _checkout(tmp_path / "after", passes=10, rss=82.0)
    out = tmp_path / "pairs.json"
    assert pairs.main(["--before", str(before), "--after", str(after),
                       "--workload", "chain10-admm", "--seed", "2024",
                       "--out", str(out)]) == 0
    cell = json.loads(out.read_text())["seeds"]["2024"]["chain10-admm"]
    assert cell["passes"] == {"before": [7, 7], "after": [10, 10]}
    assert cell["correct"] == {"before": [True, True], "after": [True, True]}
    rss = cell["metrics"]["peak_rss_mb"]
    assert rss["before"]["runs"] == [79.5, 79.5]
    assert rss["after"]["runs"] == [82.0, 82.0]
    assert (rss["after_wins"], rss["after_losses"]) == (0, 2)
    assert cell["environments"] == [{"nproc": 2}]


def test_later_invocations_add_their_cells_to_the_report(tmp_path,
                                                         monkeypatch):
    """A second invocation adds its cells to a report of the same pairs and
    command; one that would run a cell the report holds, or that names a
    file holding anything else, exits 2 without running anything."""
    monkeypatch.setattr(pairs, "PAIRS", 2)
    before = _checkout(tmp_path / "before", passes=7, rss=79.5)
    after = _checkout(tmp_path / "after", passes=10, rss=82.0)
    out = tmp_path / "pairs.json"

    def run(*cells, out=out):
        argv = ["--before", str(before), "--after", str(after),
                "--out", str(out)]
        for workload, seed in cells:
            argv += ["--workload", workload, "--seed", str(seed)]
        return pairs.main(argv)

    assert run(("chain10-admm", 2024)) == 0
    first = json.loads(out.read_text())
    assert run(("chain10-warm", 7)) == 0
    report = json.loads(out.read_text())
    assert (report["pairs"], report["command"]) == (2, pairs.COMMAND)
    assert report["seeds"]["2024"] == first["seeds"]["2024"]
    assert report["seeds"]["7"]["chain10-warm"]["passes"] == {
        "before": [7, 7], "after": [10, 10]}

    # nothing may run from here on: a run would fail without the fake
    (before / "perfbench" / "run.py").unlink()
    kept = out.read_text()
    assert run(("chain10-admm", 2024)) == 2
    assert run(("chain10-warm", 7), ("chain10-admm", 7)) == 2
    assert out.read_text() == kept

    monkeypatch.setattr(pairs, "PAIRS", 3)
    assert run(("chain10-admm", 7)) == 2
    other = tmp_path / "other.json"
    other.write_text("not a report\n")
    assert run(("chain10-admm", 7), out=other) == 2
    assert other.read_text() == "not a report\n"
