"""Run one ``dualinv`` command line with the benchmark's span wrappers.

    python3 benchmark/traced_cli.py info A.json

stdout carries the command's result document unchanged and the exit code is
the command's.  The last line of stderr is one JSON object with the span
totals of the run (``tracing.Tracer.totals``).
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        import dualinv.cli

        code = dualinv.cli.main(sys.argv[1:])
    finally:
        tracer.restore()
    tracer.collect()
    sys.stdout.flush()
    sys.stderr.write(json.dumps(tracer.totals()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
