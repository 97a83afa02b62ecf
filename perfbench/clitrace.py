"""`python -m cohdist.cli ARGS` with tracer.Tracer installed.

Usage: python perfbench/clitrace.py ARGS... (with PERFBENCH_SPANS set to a
directory).  Writes <dir>/<pid>.json with the process's span summary and
spans, then exits with the command's own exit code.
"""

from __future__ import annotations

import json
import os
import sys

import cohdist.cli as cli
from tracer import Tracer


def main() -> int:
    tracer = Tracer()
    code = 0
    with tracer:
        try:
            tracer.call("cli", "cli.main", cli.main.main, args=sys.argv[1:], prog_name="cohdist")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    path = os.path.join(os.environ["PERFBENCH_SPANS"], f"{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"summary": tracer.summary(), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
