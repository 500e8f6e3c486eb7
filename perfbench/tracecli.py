"""Run ``meanbreak.cli.main`` with layer spans and write them to a JSON file.

Usage: python3 perfbench/tracecli.py SPANS_OUT [meanbreak arguments...]
Exits with the CLI's own exit code.
"""

import sys

from tracing import Tracer, install


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    from meanbreak import cli

    try:
        return cli.main(argv)
    finally:
        tracer.restore()
        tracer.save_json(spans_out)


if __name__ == "__main__":
    sys.exit(main())
