"""Run ``licore.cli.main`` with the benchmark's tracer installed.

    python launch_cli.py TRACE_OUT OP_ID -- <licore cli arguments>

Imports the CLI, wraps licore's functions as the in-process phases do,
runs the command, writes the aggregated stats and spans to TRACE_OUT and
exits with the CLI's exit code.
"""

import sys

import licore.cli
from tracer import Tracer


def main() -> int:
    trace_out, op_id, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch_cli.py TRACE_OUT OP_ID -- ARGS...")
    tracer = Tracer()
    tracer.install()
    tracer.begin("cli", int(op_id))
    try:
        code = licore.cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
