"""Run one citydist CLI command with spans, for the traced cold_cli run.

Usage: python cli_child.py SPANS_OUT -- CLI_ARGS...

Behaves like ``python -m citydist.cli CLI_ARGS...`` (same stdout and exit
code) and additionally writes the spans of the import and of the command to
SPANS_OUT in ``Tracer.dump`` format.  The import of citydist.cli is recorded
as the ``cli.import`` span, the command itself as ``cli.run``.
"""

from __future__ import annotations

import sys

from tracing import Tracer


def main(argv: list[str]) -> int:
    out_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: cli_child.py SPANS_OUT -- CLI_ARGS...")
    tracer = Tracer()
    with tracer.span("cli.import"):
        import citydist.cli
    tracer.install()
    try:
        with tracer.span("cli.run"):
            code = citydist.cli.run(cli_args)
    finally:
        tracer.restore()
    tracer.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
