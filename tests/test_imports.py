"""Import hygiene of the package.

Every name a module imports is used in that module, importing the
package loads no scipy (only building the Bogovskii operator does), and
the only environment variable the package reads is PSTOKESLAB_OUT: a
switch that only a test sets does not belong in the product.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pstokeslab"
NOQA = "# noqa: F401"


def unused_imports(path):
    """(line, name) of each imported name the module at path never uses.

    Names listed in __all__, __future__ imports and import lines marked
    "# noqa: F401" are exempt.
    """
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [(a, a.asname or a.name) for a in node.names if a.name != "*"]
        else:
            continue
        for alias, name in names:
            if NOQA not in lines[node.lineno - 1] and NOQA not in lines[alias.lineno - 1]:
                imported.append((alias.lineno, name))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path) == []


def test_unused_import_finder_flags_only_unused_names(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from json import dumps, loads\n"
        "from math import pi  # noqa: F401\n"
        "from math import tau\n"
        "__all__ = ['tau']\n"
        "x = np.zeros(1)\n"
        "y = dumps\n"
    )
    assert unused_imports(module) == [(2, "os"), (4, "loads")]


ENV_KEYS = {"PSTOKESLAB_OUT"}


def env_reads(path):
    """(line, key) of each environment read in the module at path.

    Reads are os.environ[...], os.environ.get(...), environ.get(...) and
    os.getenv(...).  A key held in a module-level string constant is
    resolved; any other non-literal key reads as None.
    """
    tree = ast.parse(path.read_text())
    consts = {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        for target in node.targets
        if isinstance(target, ast.Name)
    }

    def key(node):
        if isinstance(node, ast.Constant):
            return node.value
        return consts.get(node.id) if isinstance(node, ast.Name) else None

    def is_environ(node):
        return (isinstance(node, ast.Attribute) and node.attr == "environ") or (
            isinstance(node, ast.Name) and node.id == "environ"
        )

    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "getenv" or (name == "get" and is_environ(func.value)):
                reads.append((node.lineno, key(node.args[0]) if node.args else None))
        elif isinstance(node, ast.Subscript) and is_environ(node.value):
            reads.append((node.lineno, key(node.slice)))
    return reads


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_no_environment_variable_but_the_output_root(path):
    assert [(line, key) for line, key in env_reads(path) if key not in ENV_KEYS] == []


def test_env_read_finder_flags_every_read_form(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import os\n"
        "from os import environ, getenv\n"
        "ROOT = 'PSTOKESLAB_OUT'\n"
        "a = os.environ.get(ROOT, '')\n"
        "b = os.environ.get('HOOK')\n"
        "c = os.getenv('OTHER')\n"
        "d = environ['KEY']\n"
        "e = getenv(ROOT + '_X')\n"
        "f = {}.get('NOT_ENV')\n"
    )
    assert env_reads(module) == [
        (4, "PSTOKESLAB_OUT"), (5, "HOOK"), (6, "OTHER"), (7, "KEY"), (8, None)
    ]
    assert [key for _, key in env_reads(SRC / "config.py")] == ["PSTOKESLAB_OUT"]


SCIPY_FREE_SCRIPT = """
import sys
import numpy as np
import pstokeslab, pstokeslab.cli, pstokeslab.config, pstokeslab.runner
import pstokeslab.analysis
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded[:3]
from pstokeslab import BogovskiiOperator, Grid, ScalarField
from pstokeslab.grid import div_vec_values
grid = Grid(8)
x = np.arange(8.0)
g = np.cos(np.pi * np.add.outer(x, 2.0 * x) / 8.0)
g -= g.mean()
w = BogovskiiOperator(grid).apply(ScalarField(grid, g))
err = float(np.max(np.abs(div_vec_values(grid.diff_1d, w.values) - g)))
assert err < 1e-10 * float(np.max(np.abs(g))), err
"""


def test_package_imports_without_scipy_until_bogovskii_is_built():
    # a fresh interpreter, since this one has scipy loaded by other tests
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
