"""Guard on the package's public namespace and its imports."""

import ast
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

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


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree):
    """(name, node) for each private module-level function, class and
    constant, and each private method of a module-level class."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            found += [(m.name, m) for m in node.body if isinstance(m, ast.FunctionDef)]
        if isinstance(node, ast.Assign):
            found += [(t.id, node) for t in node.targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found.append((node.target.id, node))
    return [(name, node) for name, node in found if _private(name)]


def _reads(node):
    """Each name and attribute name in the subtree of ``node``, with
    repeats; a mention in a string or docstring is not one."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_private_name_is_used():
    # a helper that only its own definition reads is dead code
    trees = [
        ast.parse(path.read_text())
        for path in sorted(Path(tpoe.__file__).parent.glob("*.py"))
    ]
    reads = Counter(name for tree in trees for name in _reads(tree))
    definitions = [d for tree in trees for d in _private_definitions(tree)]
    assert len(definitions) > 50  # the walk finds them
    dead = [
        name
        for name, node in definitions
        if reads[name] == Counter(_reads(node))[name]
    ]
    assert dead == []


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


# each public function that takes a field or a spectrum
_TAKES_A_FIELD = (
    "forward", "inverse", "refine", "embed_spectrum", "spectral_derivative",
    "plancherel_norm", "project_solenoidal", "apply_helmholtz",
    "divergence_defect", "recover_pressure", "time_average", "fluctuation",
    "solve_time_periodic", "solve_steady", "solve_full", "apply_operator",
    "apply_operator_fd", "lq_norm", "sobolev_norm_21q", "steady_norm",
    "pressure_norm", "save_field",
)


def _arguments(tmp_path):
    """The arguments of each of ``_TAKES_A_FIELD`` on one n=2 mixed case."""
    d = tpoe.TorusDomain(n=2, L=3.0, N=16, T=5.0, Nt=16)
    pr = tpoe.OseenParams(lam=1.0, T=5.0, q=1.5)
    u, p, f = tpoe.manufactured_case("mixed", d, pr, seed=0)
    rng = np.random.default_rng(0)
    periodic = tpoe.random_band_limited_field(
        d, 2, rng, solenoidal=True, purely_periodic=True
    )
    steady = tpoe.random_band_limited_field(
        d, 2, rng, solenoidal=True, time_constant=True, zero_spatial_mean=True
    )
    spec = tpoe.forward(f)  # conjugate-symmetric, Nyquist modes zero
    kind = tpoe.NormKind(tpoe.NormTag.STEADY_OSEEN_2D, 1.2)
    return {
        "forward": (f,),
        "inverse": (spec,),
        "refine": (f, 24, 24),
        "embed_spectrum": (spec, d.refine(24, 24)),
        "spectral_derivative": (spec, (1, 1), 1),
        "plancherel_norm": (spec,),
        "project_solenoidal": (spec,),
        "apply_helmholtz": (f,),
        "divergence_defect": (spec,),
        "recover_pressure": (f,),
        "time_average": (f,),
        "fluctuation": (f,),
        "solve_time_periodic": (periodic, pr),
        "solve_steady": (steady, pr.lam),
        "solve_full": (f, pr),
        "apply_operator": (u, p, pr),
        "apply_operator_fd": (u, p, pr),
        "lq_norm": (f, pr.q),
        "sobolev_norm_21q": (periodic, pr.q),
        "steady_norm": (steady, kind, pr.lam),
        "pressure_norm": (p, pr.q),
        "save_field": (f, tmp_path / "f.tpf"),
    }


@pytest.mark.parametrize("name", _TAKES_A_FIELD)
def test_public_functions_leave_their_inputs_unchanged(tmp_path, name):
    # the package's inverse transforms in the spectrum it is handed, so
    # every entry point must hand it an array of its own
    function = getattr(tpoe, name, None) or getattr(tpoe.solver, name)
    args = _arguments(tmp_path)[name]
    inputs = [
        arg.samples if isinstance(arg, tpoe.SpaceTimeField) else arg.coefficients
        for arg in args
        if isinstance(arg, (tpoe.SpaceTimeField, tpoe.SpectralField))
    ]
    assert inputs
    before = [array.tobytes() for array in inputs]
    function(*args)
    assert [array.tobytes() for array in inputs] == before


# each public torus function that takes ``OseenParams``: each runs the one
# period check, ``symbols._require_period``
_TAKES_PARAMS = (
    "solve_time_periodic", "solve_full", "apply_operator", "apply_operator_fd",
    "manufactured_case", "roundtrip_verify", "convergence_study",
    "transference_check", "time_periodic_multiplier_grid",
)


def _mismatched_arguments():
    """The arguments of each of ``_TAKES_PARAMS``, with params of period 3
    on a domain of period 2*pi."""
    d = tpoe.TorusDomain(n=2, L=2 * np.pi, N=16, T=2 * np.pi, Nt=16)
    u, p, f = tpoe.manufactured_case(
        "random", d, tpoe.OseenParams(lam=1.0, T=d.T, q=2.0), seed=0
    )
    pr = tpoe.OseenParams(lam=1.0, T=3.0, q=2.0)
    return {
        "solve_time_periodic": (f, pr),
        "solve_full": (f, pr),
        "apply_operator": (u, p, pr),
        "apply_operator_fd": (u, p, pr),
        "manufactured_case": ("random", d, pr),
        "roundtrip_verify": (d, pr, 2, 0),
        "convergence_study": ("random", d, pr, [(12, 12), (16, 16)]),
        "transference_check": (d, pr),
        "time_periodic_multiplier_grid": (d, pr),
    }


@pytest.mark.parametrize("name", _TAKES_PARAMS)
def test_params_of_another_period_are_rejected(name):
    function = getattr(tpoe, name, None) or getattr(tpoe.symbols, name)
    with pytest.raises(tpoe.DomainMismatch, match="period"):
        function(*_mismatched_arguments()[name])


def test_every_torus_function_taking_params_is_period_checked():
    # a new entry point that pairs OseenParams with a field or a domain must
    # join _TAKES_PARAMS, and so its period test
    found = set()
    for module in (tpoe.solver, tpoe.analysis, tpoe.symbols):
        for name, function in inspect.getmembers(module, inspect.isfunction):
            if name.startswith("_") or function.__module__ != module.__name__:
                continue
            parameters = inspect.signature(function).parameters.values()
            kinds = " ".join(str(parameter.annotation) for parameter in parameters)
            if "OseenParams" in kinds and (
                "SpaceTimeField" in kinds or "TorusDomain" in kinds
            ):
                found.add(name)
    assert found == set(_TAKES_PARAMS)


def test_one_refinement_per_quadrature_call():
    # the norm quadrature decides its oversampling factor once per call, for
    # all its blocks, and the streamed inverse takes that one factor: no
    # block carries its own
    calls = []  # (module, top-level definition) of each _auto_refine call
    for path in sorted(Path(tpoe.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "_auto_refine" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)
                ):
                    calls.append((path.stem, getattr(top, "name", None)))
    assert calls == [("norms", "_block_norms")]
    parameters = inspect.signature(tpoe.spectral._refined_derivatives).parameters
    assert list(parameters) == ["coeff", "domain", "blocks", "refinement", "consume"]
