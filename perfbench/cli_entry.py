"""Run one gridsec command the way the ``gridsec`` console script does.

    python3 perfbench/cli_entry.py [--spans FILE] -- <gridsec arguments>

With ``--spans`` the interpreter installs the benchmark's tracer before it
calls ``gridsec.cli.main`` and writes the recorded spans to FILE as JSON.
"""

import sys


def main() -> int:
    argv = sys.argv[1:]
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    import gridsec.cli

    if spans_path is None:
        return gridsec.cli.main(argv)

    import json

    import tracer

    t = tracer.Tracer()
    try:
        with t:
            return gridsec.cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans_to_json(t.spans), fh)


if __name__ == "__main__":
    sys.exit(main())
