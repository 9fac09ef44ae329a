"""Golden outputs of a fixed list of ``gridsec`` commands.

Each command in ``COMMANDS`` runs in process through ``gridsec.cli.main``.
Its golden file, ``<name>.txt`` beside this script, holds the command
line, the exit code, stdout, stderr and each file the command wrote (the
``detect --json`` report). Paths are written ``{data}`` for the shipped
fixture directory, ``{golden}`` for this directory and ``{tmp}`` for the
command's scratch directory. ``tests/test_golden.py`` runs every command
and compares its rendering with its file, byte for byte.

The inputs beside the goldens are ``rules.cfg`` (hand-written rule
constants for ``detect --config``), ``measurements.csv`` (a seeded
42-channel measurement set of the solved 14-bus case) and
``baseline.json`` (``gridsec baseline-fit``'s statistics, for
``detect --stats``); this script writes the last two. Regenerate
everything with

    python tests/golden/regen.py

only when an output is meant to change, and review the diff.
"""

from __future__ import annotations

import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent

MEASUREMENT_SEED = 36

# name: (baseline, snapshot) under {data}
PAIRS = {
    "1a": ("scenario1a_baseline.csv", "scenario1a_attacked.csv"),
    "1b": ("scenario1b_baseline.csv", "scenario1b_attacked.csv"),
    "2a": ("post_se_baseline.csv", "scenario2a.csv"),
    "2b": ("post_se_baseline.csv", "scenario2b.csv"),
    "2c": ("post_se_baseline.csv", "scenario2c.csv"),
    "2d": ("post_se_baseline.csv", "scenario2d.csv"),
    "1a-self": ("scenario1a_baseline.csv", "scenario1a_baseline.csv"),
    "post-se-self": ("post_se_baseline.csv", "post_se_baseline.csv"),
}

PROFILES = {
    "default": (),
    "paper": ("--paper-compat",),
    "config": ("--config", "{golden}/rules.cfg"),
    "paper-config": ("--paper-compat", "--config", "{golden}/rules.cfg"),
}


def _detect(pair: str, *options: str) -> tuple[str, ...]:
    baseline, snapshot = PAIRS[pair]
    return ("detect", "--baseline", f"{{data}}/{baseline}", "--snapshot", f"{{data}}/{snapshot}",
            *options, "--json", "{tmp}/report.json")


ESTIMATE = ("estimate", "--measurements", "{golden}/measurements.csv")

COMMANDS: dict[str, tuple[str, ...]] = {
    "chi2-df15": ("chi2", "--df", "15"),
    "chi2-df71-paper": ("chi2", "--df", "71", "--paper-compat"),
    "chi2-df15-alpha001-paper": ("chi2", "--df", "15", "--alpha", "0.01", "--paper-compat"),
    "chi2-df0-paper": ("chi2", "--df", "0", "--paper-compat"),
    "estimate": ESTIMATE,
    "estimate-paper": (*ESTIMATE, "--paper-compat"),
    "estimate-alpha0-paper": (*ESTIMATE, "--alpha", "0", "--paper-compat"),
    **{f"detect-{pair}-{profile}": _detect(pair, *options)
       for pair in PAIRS for profile, options in PROFILES.items()},
    "detect-2a-stats": _detect("2a", "--stats", "{golden}/baseline.json"),
    "detect-2a-stats-paper": _detect("2a", "--stats", "{golden}/baseline.json", "--paper-compat"),
}


def run(argv: tuple[str, ...]) -> str:
    """Run one command in process and render what it did."""
    from gridsec import fixtures
    from gridsec.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        roots = {"{tmp}": tmp, "{data}": str(fixtures.DATA_DIR.resolve()), "{golden}": str(HERE)}
        args = list(argv)
        for key, path in roots.items():
            args = [a.replace(key, path) for a in args]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(args)
        text = f"$ gridsec {' '.join(argv)}\nexit {code}\n"
        text += f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
        for path in sorted(Path(tmp).iterdir()):
            text += f"--- {{tmp}}/{path.name}\n{path.read_text()}"
    for key, path in roots.items():
        text = text.replace(path, key)
    return text


def write_inputs() -> None:
    """The seeded measurement set and the fitted baseline statistics."""
    import numpy as np

    from gridsec.cli import main
    from gridsec.estimation import measurements_from_state, measurements_to_csv
    from gridsec.network import build_ieee14
    from gridsec.powerflow import solve

    model = build_ieee14()
    sol = solve(model)
    ms = measurements_from_state(model, sol.v, sol.theta, noise_rng=np.random.default_rng(MEASUREMENT_SEED))
    (HERE / "measurements.csv").write_text(measurements_to_csv(ms))
    with redirect_stdout(io.StringIO()):
        assert main(["baseline-fit", "--out", str(HERE / "baseline.json")]) == 0


def regenerate() -> None:
    write_inputs()
    for stale in HERE.glob("*.txt"):
        stale.unlink()
    for name, argv in COMMANDS.items():
        (HERE / f"{name}.txt").write_text(run(argv))


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    regenerate()
    print(f"wrote {len(COMMANDS)} golden files under {HERE}")
