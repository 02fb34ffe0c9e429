"""Run the latticewalks CLI with the layer functions traced.

Usage: ``python3 perfbench/traced_cli.py <cli arguments>``.  Stdout and
the exit code are the CLI's own; the spans and counters go to stderr as
one line starting with ``PERFBENCH-TRACE ``.
"""

import json
import sys

from tracer import Tracer

TRACE_MARK = "PERFBENCH-TRACE "


def main() -> int:
    tracer = Tracer()
    tracer.install()
    from latticewalks import cli

    try:
        return cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        doc = {"spans": tracer.spans, "counters": tracer.counters}
        print(TRACE_MARK + json.dumps(doc, separators=(",", ":")), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
