"""Traced stand-in for the ``k3auto`` command, used by the traced
``cli-cold`` run: the same import and the same ``cli.main``, with the
benchmark's tracer installed in between.

    python3 -X importtime perfbench/cli_child.py OUT.json <k3auto args...>

Stdout and the exit code are those of ``k3auto``; the trace summary goes
to OUT.json and the spans to OUT.json's name with ``.spans`` appended.
"""

import time

T_START = time.monotonic()  # first statement: interpreter start-up ends here

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import k3auto.cli  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    root = tracer.begin_op()
    try:
        code = k3auto.cli.main(argv)
    finally:
        tracer.end_op(root)
        tracer.uninstall()
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"t_start": T_START, **tracer.report()}, handle)
    tracer.write_spans(out_path + ".spans")
    return code


if __name__ == "__main__":
    sys.exit(main())
