import os
import subprocess
import sys
import types
from pathlib import Path

import dmpcqp


def test_star_import_exports_the_listed_names_and_no_submodule():
    namespace = {}
    exec("from dmpcqp import *", namespace)  # raises on a name that is gone
    exported = set(namespace) - {"__builtins__"}
    assert exported == set(dmpcqp.__all__)
    assert len(dmpcqp.__all__) == len(exported)
    assert [name for name in exported
            if isinstance(namespace[name], types.ModuleType)] == []
    assert {"WorkingSetFactor", "FactorCache", "build_partner"} <= exported
    assert "build_overlaps" not in exported


def test_condense_is_the_submodule():
    import dmpcqp.condense as m

    assert isinstance(m, types.ModuleType)
    assert m.MAX_FACTORS == 256


def test_cli_import_leaves_scipy_optimize_unloaded():
    """Only a cold ``solve_dense_qp`` needs ``scipy.optimize``; importing the
    command line interface does not load it."""
    code = ("import sys, dmpcqp.cli; "
            "print('scipy.optimize' in sys.modules)")
    src = str(Path(dmpcqp.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"
