"""Run one treeamp CLI call with the tracer installed.

    PYTHONPATH=src python perfbench/cli_traced.py SPANS.json <treeamp argv...>

Installs the wrappers, calls ``treeamp.cli.main(argv)`` inside a root span,
writes the spans to SPANS.json and exits with the CLI's exit code.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import treeamp.cli
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.root("cli.main"):
            code = treeamp.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
