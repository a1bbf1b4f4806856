"""Meta tests on the public API surface.

Documentation and structural invariants, enforced mechanically:

* every public module, class and function carries a docstring;
* ``repro.__all__`` names resolve;
* the model module stays independent of distiller and modulator
  (the paper's separability claim, §3.2);
* the package runs on the standard library alone: no process it
  starts, parent or worker, loads numpy.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import repro
from repro.runtime.hosts import _pkg_root

PACKAGES = [
    "repro.sim", "repro.net", "repro.protocols", "repro.hosts",
    "repro.core", "repro.apps", "repro.workloads", "repro.scenarios",
    "repro.validation", "repro.analysis",
]


def _public_modules():
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        yield pkg
        for info in pkgutil.iter_modules(pkg.__path__):
            if not info.name.startswith("_"):
                yield importlib.import_module(f"{pkg_name}.{info.name}")


def test_all_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_every_module_has_docstring():
    for module in _public_modules():
        assert module.__doc__ and module.__doc__.strip(), module.__name__


def test_every_public_class_and_function_documented():
    undocumented = []
    for module in _public_modules():
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-export; documented at its home
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(f"{module.__name__}.{name}")
    assert not undocumented, undocumented


def test_public_methods_documented_in_core():
    """Every public method of the paper's core classes is documented."""
    from repro.core import (
        Distiller,
        ModulationLayer,
        PacketTracer,
        ReplayTrace,
    )

    missing = []
    for cls in (Distiller, ModulationLayer, PacketTracer, ReplayTrace):
        for name, member in vars(cls).items():
            if name.startswith("_") or not callable(member):
                continue
            if not (getattr(member, "__doc__", None) or "").strip():
                missing.append(f"{cls.__name__}.{name}")
    assert not missing, missing


def test_model_is_separable_from_methodology():
    """§3.2: the network model must not *import* distill/modulate."""
    import ast

    import repro.core.replay as replay_module

    tree = ast.parse(inspect.getsource(replay_module))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    forbidden = {"distill", "modulator", "collection", "compensation"}
    for name in imported:
        assert not (set(name.split(".")) & forbidden), name


def test_version_consistency():
    import importlib.metadata

    assert repro.__version__ == "1.0.0"
    try:
        installed = importlib.metadata.version("repro")
    except importlib.metadata.PackageNotFoundError:
        installed = None
    if installed is not None:
        assert installed == repro.__version__


_VALIDATE = ["validate", "--scenario", "wean", "--benchmark", "ftp",
             "--trials", "1", "--ftp-bytes", "200000"]

_NO_NUMPY_SCRIPT = f"""
import contextlib, io, sys
import repro
import repro.runtime.worker
from repro.cli import main
from repro.core.distill import Distiller
from repro.scenarios import WeanScenario
from repro.validation.harness import collect_trace

result = Distiller().distill(collect_trace(WeanScenario(), seed=0, trial=0))
assert len(result.replay) > 0
with contextlib.redirect_stdout(io.StringIO()):
    assert main({_VALIDATE!r} + ["--workers", "1"]) == 0
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "numpy")
assert not loaded, loaded
"""


def _run(args, pythonpath):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, timeout=300.0,
        env={**os.environ, "PYTHONPATH": pythonpath})


def test_no_process_imports_numpy():
    """Importing the package, distilling a collected trace and running
    a one-trial validation never load numpy."""
    proc = _run(["-c", _NO_NUMPY_SCRIPT], _pkg_root())
    assert proc.returncode == 0, proc.stderr.decode()


def test_validate_is_identical_without_numpy(tmp_path):
    """With an ``import numpy`` that raises first on ``PYTHONPATH``, a
    two-worker validation prints the same bytes; the workers inherit
    the environment, so they run without numpy too."""
    stub = tmp_path / "numpy"
    stub.mkdir()
    (stub / "__init__.py").write_text(
        'raise ImportError("numpy is unavailable")\n')
    blocked = f"{tmp_path}{os.pathsep}{_pkg_root()}"
    assert _run(["-c", "import numpy"], blocked).returncode != 0

    argv = ["-m", "repro", *_VALIDATE, "--workers", "2"]
    with_numpy = _run(argv, _pkg_root())
    without = _run(argv, blocked)
    assert with_numpy.returncode == 0, with_numpy.stderr.decode()
    assert without.returncode == 0, without.stderr.decode()
    assert without.stdout == with_numpy.stdout
