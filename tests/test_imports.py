"""Each command loads only what it uses: the package imports lazily, the
CLI module holds only the stdlib and ``stats``, and the display tools and
``chi2`` run without numpy. Import state is read in a fresh interpreter."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gridsec
from gridsec.cli import BLAS_THREAD_VARS

SRC = Path(gridsec.__file__).resolve().parent.parent
REFERENCE = SRC / "gridsec" / "data" / "som" / "reference"


def run_fresh(code: str, result: str, **env: str):
    """Run ``code`` in a fresh interpreter, then return the JSON value of the
    expression ``result``. The BLAS thread variables are cleared first and
    ``env`` is added."""
    probe = f"{code}\nimport json as _json\nprint(_json.dumps({result}))"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    child_env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(child_env, PYTHONPATH=path, **env),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(code: str) -> set[str]:
    """numpy and the gridsec modules a fresh interpreter holds after ``code``."""
    modules = "[m for m in __import__('sys').modules if m == 'numpy' or m.split('.')[0] == 'gridsec']"
    return set(run_fresh(code, modules))


def test_import_gridsec_loads_no_submodule():
    assert loaded_after("import gridsec") == {"gridsec"}
    # A submodule is still reachable as an attribute, loaded on first use.
    assert "gridsec.som" in loaded_after("import gridsec\ngridsec.som.parse_segments")


def test_import_cli_loads_only_stats():
    assert loaded_after("import gridsec.cli") == {"gridsec", "gridsec.cli", "gridsec.stats"}


@pytest.mark.parametrize(
    "argv",
    [
        ["chi2", "--df", "15"],
        ["som", "verify", "--dir", str(REFERENCE), "--arrangement", str(REFERENCE / "arrangement.json")],
    ],
    ids=["chi2", "som-verify"],
)
def test_command_runs_without_numpy(argv):
    loaded = loaded_after(f"from gridsec.cli import main\nassert main({argv!r}) == 0")
    assert "numpy" not in loaded


def test_every_lazy_export_resolves():
    for name, module in gridsec._SOURCE.items():
        namespace = {}
        exec(f"from gridsec import {name}", namespace)
        assert namespace[name] is getattr(importlib.import_module(f"gridsec.{module}"), name)
    with pytest.raises(AttributeError, match="no_such_name"):
        gridsec.no_such_name
    # Every submodule's own ``__all__`` names only what it defines.
    for info in pkgutil.iter_modules(gridsec.__path__):
        module = importlib.import_module(f"gridsec.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"gridsec.{info.name}.__all__ names {missing}"
    # A submodule outside the table still imports through the package.
    from gridsec import fixtures

    assert fixtures.__name__ == "gridsec.fixtures"


def test_no_module_imports_another_modules_private_name():
    """A module reaches another only through its public names: no ``from
    .x import _y`` in the package, at module level or in a function."""
    private = []
    for path in sorted((SRC / "gridsec").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("gridsec")):
                private += [f"{path.name}: {node.module}.{alias.name}" for alias in node.names
                            if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert private == []


def test_baseline_fit_does_not_load_estimation(tmp_path):
    # The detector only annotates with estimation's BddVerdict; fitting
    # never estimates. ``solve`` takes its branch flows from measmodel,
    # which needs nothing of estimation either.
    for argv, module in (
        (["baseline-fit", "--out", str(tmp_path / "stats.json")], "gridsec.detection"),
        (["solve", "--out", str(tmp_path / "solved.csv")], "gridsec.measmodel"),
    ):
        loaded = loaded_after(f"from gridsec.cli import main\nassert main({argv!r}) == 0")
        assert module in loaded
        assert "gridsec.estimation" not in loaded, argv[0]


BLAS_ENV = "{name: __import__('os').environ.get(name) for name in BLAS_THREAD_VARS}"
CHI2 = "from gridsec.cli import BLAS_THREAD_VARS, main\nassert main(['chi2', '--df', '15']) == 0"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
def test_cli_runs_blas_on_one_thread(tmp_path):
    # numpy loads after main pinned the thread count, so OpenBLAS starts no
    # worker thread: the interpreter ends the command with one task.
    argv = ["solve", "--out", str(tmp_path / "solved.csv")]
    tasks, env = run_fresh(
        f"from gridsec.cli import BLAS_THREAD_VARS, main\nassert main({argv!r}) == 0",
        f"[len(__import__('os').listdir('/proc/self/task')), {BLAS_ENV}]",
    )
    assert env == dict.fromkeys(BLAS_THREAD_VARS, "1")
    assert tasks == 1


def test_cli_keeps_a_chosen_thread_count():
    assert run_fresh(CHI2, BLAS_ENV, OMP_NUM_THREADS="3") == {
        "OPENBLAS_NUM_THREADS": None,
        "OMP_NUM_THREADS": "3",
        "MKL_NUM_THREADS": None,
    }


def test_cli_leaves_the_environment_of_a_numpy_caller():
    # An in-process caller (a test run, a notebook, the benchmark harness)
    # has its BLAS pool already; main does not touch its environment.
    code = "import numpy, os\nbefore = dict(os.environ)\n" + CHI2
    assert run_fresh(code, "dict(os.environ) == before") is True
