"""Traced stand-in for ``python -m conestab.cli``, used by the traced run of
the ``cli`` workload.

Usage: python -X importtime perfbench/cli_child.py SPANS.json -- ARGS...

Runs ``conestab.cli.main(ARGS)`` with the benchmark's span wrappers
installed, then writes the spans and the per-layer counters to
SPANS.json.  Standard output and the exit code are those of the CLI.
"""

import json
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402


def main(argv) -> int:
    spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: cli_child.py SPANS.json -- ARGS...")
    import conestab.cli as cli

    tracer = Tracer()
    tracer.install()
    cli.json = types.SimpleNamespace(
        dumps=tracer.wrap("cli.dumps", json.dumps), loads=json.loads,
        JSONDecodeError=json.JSONDecodeError)
    tracer.op = 0
    try:
        code = tracer.span("op", cli.main, cli_args)
    finally:
        tracer.uninstall()
        cli.json = json
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
