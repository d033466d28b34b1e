"""Run one filmlab subcommand under the span tracer and save its spans.

    python3 bench/cli_child.py SPANS.npz SUBCOMMAND [ARGS...]

Used by the traced run of the cli workload; filmlab must be importable
(``src/`` on PYTHONPATH).  Exits with the subcommand's exit code.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from filmlab import cli

    try:
        return cli.main(argv)
    finally:
        tracer.save(spans)


if __name__ == "__main__":
    sys.exit(main())
