"""Each command loads only what it uses: the package imports lazily, the
CLI module holds only the stdlib and ``stats``, and the display tools and
``chi2`` run without numpy. Import state is read in a fresh interpreter."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridsec

SRC = Path(gridsec.__file__).resolve().parent.parent
REFERENCE = SRC / "gridsec" / "data" / "som" / "reference"


def loaded_after(code: str) -> set[str]:
    """numpy and the gridsec modules a fresh interpreter holds after ``code``."""
    probe = code + (
        "\nimport json, sys"
        "\nprint(json.dumps([m for m in sys.modules if m == 'numpy' or m.split('.')[0] == 'gridsec']))"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


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
    # A submodule outside the table still imports through the package.
    from gridsec import fixtures

    assert fixtures.__name__ == "gridsec.fixtures"


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
