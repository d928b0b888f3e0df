"""The public surface: every exported name resolves."""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import symprep

# every module that declares a public surface (the cli entry point does not)
MODULES = [symprep] + [
    m for m in (importlib.import_module(f"symprep.{i.name}") for i in pkgutil.iter_modules(symprep.__path__))
    if hasattr(m, "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_exported_names_resolve(module):
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_surface_is_the_modules_all():
    # every public name is declared once, in its module's __all__; the
    # package star-imports each public module (not statevec, circuit.simulate's
    # kernels) and lists their names in that order
    names = [n for m in MODULES[1:] for n in m.__all__]
    assert not sorted({n for n in names if names.count(n) > 1})
    tree = ast.parse(pathlib.Path(symprep.__file__).read_text())
    starred = [node.module for node in tree.body if isinstance(node, ast.ImportFrom)
               and node.level == 1 and [a.name for a in node.names] == ["*"]]
    assert sorted(starred) == sorted(m.__name__.removeprefix("symprep.") for m in MODULES[1:]
                                     if m.__name__ != "symprep.statevec")
    surfaced = [n for name in starred for n in importlib.import_module(f"symprep.{name}").__all__]
    assert symprep.__all__ == ["__version__"] + surfaced
    assert not hasattr(symprep, "widen")


def test_test_oracles_live_with_the_tests():
    # only the tests call these, so they live in tests/oracles.py (SvdResult is gone)
    for mod, name in [("metrics", "meyer_wallach_direct"), ("circuit", "residual"),
                      ("numerics", "SvdResult"), ("statevec", "zero_state"), ("mps", "to_statevector")]:
        module = importlib.import_module(f"symprep.{mod}")
        assert not hasattr(module, name) and not hasattr(symprep, name), f"{mod}.{name}"


def test_metrics_and_circuit_import_only_what_they_run():
    # the scoring functions score vectors that already exist, so they need
    # nothing from symprep but the array value rule (the dense bound guards
    # the allocations, in RunConfig and simulate), and circuit, which keeps
    # that bound beside simulate, needs nothing from mps
    src = pathlib.Path(symprep.__file__).parent
    assert list(_symprep_imports(src / "metrics.py")) == [("numerics", "real_array")]
    assert [(mod, n) for mod, n in _symprep_imports(src / "circuit.py") if mod == "mps"] == []


def test_no_allclose_in_src():
    # numerics.is_orthonormal is the one home of the orthogonality rule; an
    # allclose check would bring back a relative slack of 1e-5.
    src = pathlib.Path(symprep.__file__).parent
    offenders = [p.name for p in sorted(src.glob("*.py")) if "allclose(" in p.read_text()]
    assert not offenders, f"allclose( in {offenders}; use numerics.is_orthonormal"


def test_file_io_stays_at_the_doors():
    # the compute code reads and writes no file: only the CLI (its outputs)
    # and pipeline.parse_config (the config file) open one
    src = pathlib.Path(symprep.__file__).parent
    offenders = [p.name for p in sorted(src.glob("*.py"))
                 if p.name not in ("cli.py", "pipeline.py") and "open(" in p.read_text()]
    assert not offenders, f"open( in {offenders}; file I/O belongs to cli.py and pipeline.parse_config"
    assert (src / "pipeline.py").read_text().count("open(") == 1  # parse_config's


def test_float_range_rule_lives_in_numerics():
    # numerics.is_finite_number is the one home of the finite-number rule;
    # a second reading of float_info would let the two drift apart.
    src = pathlib.Path(symprep.__file__).parent
    offenders = [p.name for p in sorted(src.glob("*.py")) if p.name != "numerics.py" and "float_info" in p.read_text()]
    assert not offenders, f"float_info in {offenders}; use numerics.is_finite_number"


def test_no_scipy_in_src():
    # numpy is the only run-time dependency; scipy is the tests' oracle
    src = pathlib.Path(symprep.__file__).parent
    offenders = [p.name for p in sorted(src.glob("*.py")) if "scipy" in p.read_text()]
    assert not offenders, f"scipy in {offenders}; symprep needs only numpy at run time"


def test_run_imports_no_scipy():
    code = (
        "import sys, symprep\n"
        "cfg = symprep.config_from_dict({'dist': {'kind': 'student_t', 'nu': 3.0}, 'n_qubits': 4})\n"
        "symprep.run_full(cfg)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(pathlib.Path(symprep.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]", out


MODULE_NAMES = {i.name for i in pkgutil.iter_modules(symprep.__path__)}


def _symprep_imports(path):
    # (module, name) for every import of a symprep module or of a name from
    # one; module is the symprep submodule's name ("" for the package)
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if node.level == 0 and not mod.startswith("symprep"):
                continue
            mod = mod.removeprefix("symprep").lstrip(".")
            for alias in node.names:
                yield mod, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("symprep."):
                    yield alias.name.removeprefix("symprep."), None


def test_one_dense_interpreter():
    # circuit.simulate is the only dense interpreter: no other module runs
    # the statevec kernels
    src = pathlib.Path(symprep.__file__).parent
    users = sorted({p.name for p in src.glob("*.py") for mod, name in _symprep_imports(p)
                    if mod.startswith("statevec") or (mod == "" and name == "statevec")})
    assert users == ["circuit.py"], users


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_no_private_names_shared_across_modules():
    # neither imported (from .mps import _kept) nor reached through an
    # imported module (statevec._view)
    src = pathlib.Path(symprep.__file__).parent
    shared = []
    for p in sorted(src.glob("*.py")):
        imports = list(_symprep_imports(p))
        shared += [f"{p.name}: {mod}.{name}" for mod, name in imports if name and _private(name)]
        modules = {name or mod for mod, name in imports if (name or mod) in MODULE_NAMES}
        shared += [f"{p.name}: {n.value.id}.{n.attr}" for n in ast.walk(ast.parse(p.read_text()))
                   if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                   and n.value.id in modules and _private(n.attr)]
    assert not shared, f"private names shared across modules: {shared}"
