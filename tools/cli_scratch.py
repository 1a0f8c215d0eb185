"""Print where the CLI's traced scratch peaks: the parse, compute and
output phases of one tft, itft or mul run.

The command runs in process on seeded random residues, as in the CLI
scratch gate of tests/test_acceptance.py: stdin and stdout are in-memory
text, and the interpreter's free lists are refilled before tracing.
Each phase's peak is given in bytes above what the command leaves held
(its output, kept in memory), so the largest of the three is the gate's
reading.  Parse runs until the compute call (the kernel, or tft_polymul
for mul), compute until the first _write_values call, output to the end.

Usage: python tools/cli_scratch.py tft|itft L [SEED]
       python tools/cli_scratch.py mul N [SEED]     (two N-coefficient factors)
"""

import io
import random
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tftkit import cli  # noqa: E402

# the cli module global each command computes through
COMPUTE = {"tft": "tft_in_place", "itft": "itft_in_place", "mul": "tft_polymul"}


def refill_free_lists():
    # the gate's burst: tracemalloc does not see an object served from a
    # free list, so each traced run starts from the same free-list state
    burst = [((i,) * (1 + i % 7), [i], {i: i}, i + 0.5, 1 << (64 + i % 64)) for i in range(2000)]
    del burst


def run(command, n, seed, traced):
    rng = random.Random(seed)

    def line():
        return " ".join(str(rng.randrange(cli.DEFAULT_MODULUS)) for _ in range(n))

    if command == "mul":
        argv, text = ["mul"], f"{line()}\n{line()}\n"
    else:
        argv, text = [command, "--length", str(n)], line()
    peaks = []

    def entered(fn):
        # a phase ends where the next one's function is called
        def call(*args):
            if traced:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
            return fn(*args)

        return call

    names = (COMPUTE[command], "_write_values")
    saved = {name: getattr(cli, name) for name in names}
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        for name in names:
            setattr(cli, name, entered(saved[name]))
        with redirect_stdout(io.StringIO()):
            if traced:
                refill_free_lists()
                tracemalloc.start()
            try:
                code = cli.main(argv)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
    finally:
        sys.stdin = stdin
        for name, fn in saved.items():
            setattr(cli, name, fn)
    if code != 0:
        raise SystemExit(f"{command} exited {code}")
    return [value - current for value in peaks + [peak]]


def main(argv) -> None:
    if len(argv) not in (3, 4) or argv[1] not in COMPUTE:
        raise SystemExit(__doc__.split("Usage: ")[1])
    command, n = argv[1], int(argv[2])
    seed = int(argv[3]) if len(argv) > 3 else 0
    run(command, n, seed, traced=False)  # first-use allocations stay out of the reading
    phases = dict(zip(("parse", "compute", "output"), run(command, n, seed, traced=True)))
    shape = f"{n} x {n}" if command == "mul" else f"l = {n}"
    print(f"{command} at {shape}, bytes above the output:")
    for phase, value in phases.items():
        print(f"  {phase:8} {value:>12,}")
    print(f"  {'peak':8} {max(phases.values()):>12,}  ({max(phases, key=phases.get)})")


if __name__ == "__main__":
    main(sys.argv)
