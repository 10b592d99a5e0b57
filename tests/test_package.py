import ast
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
    assert {"WorkingSetFactor", "FactorCache", "build_partner",
            "StackedQp", "solve_dense_qp", "prepare_kkt"} <= exported
    assert not {"build_overlaps", "DenseQp", "dense_qp_from_stacked",
                "enumerate_active_sets", "kkt_residual", "DualRecovery",
                "SchurPiece"} & exported


def test_every_import_in_the_package_is_used():
    """Each name a module of the package imports is read in that module
    or, in ``__init__``, listed in ``__all__``."""
    unused = []
    for path in sorted(Path(dmpcqp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            used |= set(dmpcqp.__all__)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and \
                    node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.stem}.{name}" for name in
                           (a.asname or a.name.split(".")[0]
                            for a in node.names) if name not in used]
    assert unused == []


def test_every_module_level_definition_is_read():
    """Each function, class and constant a module of the package defines
    at module level is read somewhere in the package, as a name or an
    attribute, or listed in ``__all__``: no seam is left without a user."""
    trees = {path.stem: ast.parse(path.read_text()) for path in
             sorted(Path(dmpcqp.__file__).parent.glob("*.py"))}
    read = set(dmpcqp.__all__)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    orphans = []
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            orphans += [f"{stem}.{name}" for name in names
                        if name not in read and not name.startswith("__")]
    assert orphans == []


def test_condense_is_the_submodule():
    import dmpcqp.condense as m

    assert isinstance(m, types.ModuleType)
    assert m.MAX_FACTORS == 32


def test_cli_import_leaves_scipy_optimize_unloaded():
    """Only the tests' phase-1 start needs ``scipy.optimize``; importing
    the command line interface does not load it."""
    code = ("import sys, dmpcqp.cli; "
            "print('scipy.optimize' in sys.modules)")
    src = str(Path(dmpcqp.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


def _import_in_subprocess(first):
    """Import ``first`` and then the other of numpy and ``dmpcqp`` in a
    fresh interpreter with no BLAS thread variable set; returns its
    warnings (stderr) and the variables it ended with (stdout)."""
    code = (f"import os, {first}, {'dmpcqp' if first == 'numpy' else 'numpy'}"
            "; print([os.environ.get(v) for v in dmpcqp.THREAD_VARS])")
    env = {k: v for k, v in os.environ.items()
           if k not in dmpcqp.THREAD_VARS}
    env["PYTHONPATH"] = str(Path(dmpcqp.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-W", "default", "-c", code],
                         check=True, capture_output=True, text=True, env=env)
    return out.stderr, out.stdout.strip()


def test_numpy_loaded_first_warns_and_leaves_thread_variables_unset():
    stderr, found = _import_in_subprocess("numpy")
    assert "RuntimeWarning" in stderr
    assert all(var in stderr for var in dmpcqp.THREAD_VARS)
    assert found == str([None] * len(dmpcqp.THREAD_VARS))


def test_package_loaded_first_pins_one_thread_without_warning():
    stderr, found = _import_in_subprocess("dmpcqp")
    assert "Warning" not in stderr
    assert found == str(["1"] * len(dmpcqp.THREAD_VARS))
