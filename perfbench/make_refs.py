"""Record the reference outputs the benchmark's checks compare against.

    python3 perfbench/make_refs.py

Writes ``refs/sweep_seed0.json`` (the 14 stealth ranges of the seed-0
sweep) and ``refs/cli.json`` (exit code, standard output and output files
of each fixed-input CLI command). Run it only at a commit whose outputs
are known to be right; the references were first recorded at the seed
commit of the benchmark.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    from gridsec import attacks

    ctx = workloads.setup_sweep()
    baseline = workloads.sweep_baseline(0, ctx["model"])
    ranges = []
    for bus in range(1, ctx["model"].n_bus + 1):
        rng, _ = attacks.sweep_stealth_range(
            ctx["model"], baseline, bus, n_points=workloads.SWEEP_POINTS,
            window=workloads.SWEEP_WINDOW, nerc=workloads.SWEEP_NERC,
            threshold=workloads.SWEEP_THRESHOLD,
        )
        ranges.append(workloads._range_doc(rng))
    (workloads.REFS / "sweep_seed0.json").write_text(json.dumps({"ranges": ranges}, indent=1) + "\n")

    work = HERE / ".work" / "refs"
    work.mkdir(parents=True, exist_ok=True)
    try:
        refs = {}
        for name, argv, files in workloads.CLI_FIXED:
            args = [a.replace("{data}", str(workloads.DATA)) for a in argv]
            proc = workloads.cli_command(args, work)
            refs[name] = {
                "argv": list(argv),
                "returncode": proc.returncode,
                "stdout": proc.stdout,
                "files": {f: (work / f).read_text() for f in files},
            }
        (workloads.REFS / "cli.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
