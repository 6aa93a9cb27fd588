"""Every name a `seedmark` module imports is used in that module.

A standard-library stand-in for a linter's unused-import rule, so that
code removed from a module does not leave its imports behind. And an
evaluation loads no NumPy module it does not use."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "seedmark"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that no expression in `source` reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for line, name in imported if name not in used)


def test_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom json import dumps, loads\nnp.zeros(loads('1'))\n"
    assert unused_imports(source) == [(1, "os"), (3, "dumps")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


# a reduced evaluation with each verifier kind; `numpy.ma`, which `np.unique`
# imports on its first call, holds about a megabyte and no seedmark code uses it
EVALUATE_WITHOUT_MA = """
import sys
from seedmark.harness import EvaluationConfig, run_raw_evaluation
for kind in ("lr", "gnb"):
    run_raw_evaluation(EvaluationConfig(
        repetitions=1, seen_attacks=("TRL", "DIS"), unseen_attacks=("WP(RET)",),
        n_extracted_train=2, n_nonextracted_train=2, n_extracted_test=2,
        n_nonextracted_test=2, keyset_size=4, classifier_kind=kind))
    assert "numpy.ma" not in sys.modules, kind
"""


def test_evaluation_never_imports_numpy_ma():
    probe = "import sys, numpy; print('numpy.ma' in sys.modules)"
    bare = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, check=True)
    if bare.stdout.strip() == "True":
        pytest.skip("this NumPy loads numpy.ma on `import numpy` alone")
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    child = subprocess.run([sys.executable, "-W", "error", "-c", EVALUATE_WITHOUT_MA],
                           capture_output=True, text=True, env=env)
    assert child.returncode == 0, child.stderr
