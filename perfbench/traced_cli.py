"""Run the patcol CLI with tracing on: python3 perfbench/traced_cli.py SPANS_FILE ARGS...

Behaves like ``python -m patcol.cli ARGS...`` and writes its spans to
SPANS_FILE when it exits, however it exits.
"""
import sys

from tracer import Tracer

import patcol.cli

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    try:
        code = patcol.cli.main(sys.argv[2:])
    finally:
        tracer.write(sys.argv[1])
    sys.exit(code)
