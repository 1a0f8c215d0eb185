"""Run one ``tftkit`` CLI command in a fresh interpreter, traced or faulty.

Usage: python3 perfbench/cli_child.py (--trace | --flip) CLI-ARGS...

--trace records spans as the traced benchmark run does and writes them
        to stderr as one line starting with ``SPANS``, after the command's
        own output.  The import of ``tftkit.cli`` is its own span.
--flip  corrupts one residue of every product, for the self-check.

The exit code is the CLI's.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import tftkit.cli

    t1 = time.perf_counter()
    if mode == "--flip":
        from patching import flip_product, rebound

        with rebound("tftkit.cli", "tft_polymul", flip_product):
            return tftkit.cli.main(argv)
    if mode != "--trace":
        print(f"error: unknown mode {mode!r}", file=sys.stderr)
        return 2
    from spans import Tracer

    tracer = Tracer()
    tracer.activate()
    tracer.record("cli.import", t0, t1)
    with tracer:
        rc = tftkit.cli.main(argv)
    sys.stdout.flush()
    rows = [span.row() for span in tracer.spans]
    print("SPANS " + json.dumps({"spans": rows}), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
