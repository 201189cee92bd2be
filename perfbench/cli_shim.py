"""Run one ``brqst`` CLI command with spans around its library calls.

Usage: python3 perfbench/cli_shim.py SPANS_OUT [brqst arguments...]

The traced CLI workload runs each command through this file instead of
``python3 -m brqst.cli``.  It times the import of ``brqst.cli`` (numpy and
click included), wraps the layer calls the CLI makes, runs the command, and
writes the spans to SPANS_OUT when the command exits, whatever its exit code.
"""

import sys

from tracing import Tracer


def main():
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    span = tracer.open("cli.import")
    import brqst.cli

    tracer.close(span)
    tracer.install(("brqst.cli",))
    try:
        brqst.cli.main(args=argv, prog_name="brqst")
    finally:
        tracer.uninstall()
        tracer.dump(spans_out)


if __name__ == "__main__":
    main()
