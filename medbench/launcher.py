"""Traced stand-in for ``python -m medli``.

Usage: launcher.py TRACE_FILE ARGS...

Imports ``medli.cli`` (timing the import), installs the boundary tracer,
runs ``medli.cli.main(ARGS)`` inside a ``cli.main`` span, writes the spans,
counters and import time to TRACE_FILE as JSON, and exits with main's code.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    trace_file = Path(sys.argv[1])
    started = time.perf_counter()
    import medli.cli

    import_s = time.perf_counter() - started
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    traced_main = tracer.wrap("cli.main", medli.cli.main)
    try:
        code = traced_main(sys.argv[2:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        doc = tracer.export()
        doc["import_s"] = import_s
        trace_file.write_text(json.dumps(doc))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
