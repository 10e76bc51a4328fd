"""Guard on the package's public namespace and its imports."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import tpoe


def test_every_export_resolves():
    missing = [name for name in tpoe.__all__ if not hasattr(tpoe, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(tpoe.__all__) == len(set(tpoe.__all__))


def _unused_imports(path):
    """Names a module imports but never reads, in import order."""
    tree = ast.parse(path.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_no_module_imports_an_unused_name():
    # no linter ships with the package; __init__ imports to re-export
    sources = sorted(Path(tpoe.__file__).parent.glob("*.py"))
    unused = {
        path.name: _unused_imports(path)
        for path in sources
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in unused.items() if names} == {}


def test_import_loads_no_scipy_and_starts_no_thread():
    # scipy is a test dependency only (``import scipy.fft`` alone adds about
    # 27 MB of RSS), and transform threads live only inside a call
    code = (
        "import json, sys, threading\n"
        "import tpoe, tpoe.cli\n"
        "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps([scipy, threading.active_count()]))\n"
    )
    src = os.path.join(os.path.dirname(tpoe.__file__), os.pardir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, timeout=60, capture_output=True
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], 1]
