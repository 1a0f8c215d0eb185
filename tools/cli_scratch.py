"""Print where the CLI's traced scratch peaks: the parse, compute and
output phases of one tft, itft or mul run, or each family of a selftest.

The command runs in process, as in the CLI and selftest scratch gates of
tests/test_acceptance.py: stdin holds seeded random residues as bytes,
decoded as from a pipe, stdout is in-memory text, and the interpreter's
free lists are refilled before tracing.  Each phase's peak is given in bytes above what the command
leaves held (its output, kept in memory), so the largest is the gate's
reading.  Parse runs until the compute call (the kernel, or tft_polymul
for mul), compute until the first _write_values call, output to the end.
A selftest's start runs until its first family, and each family until
the next one's call (the last to the end).

Usage: python tools/cli_scratch.py tft|itft L [SEED]
       python tools/cli_scratch.py mul N [SEED]     (two N-coefficient factors)
       python tools/cli_scratch.py selftest N [SEED]   (--max N --seed SEED)
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
    """Each phase's name and traced peak, in bytes above the output."""
    peaks = []

    def entered(fn):
        # a phase ends where the next one's function is called
        def call(*args):
            if traced:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
            return fn(*args)

        return call

    if command == "selftest":
        argv, text = ["selftest", "--max", str(n), "--seed", str(seed)], ""
        families = cli._SELFTEST_FAMILIES
        patches = {"_SELFTEST_FAMILIES": tuple((name, entered(check)) for name, check in families)}
        names = ("start", *(name for name, _ in families))
    else:
        rng = random.Random(seed)

        def line():
            return " ".join(str(rng.randrange(cli.DEFAULT_MODULUS)) for _ in range(n))

        if command == "mul":
            argv, text = ["mul"], f"{line()}\n{line()}\n"
        else:
            argv, text = [command, "--length", str(n)], line()
        patches = {name: entered(getattr(cli, name)) for name in (COMPUTE[command], "_write_values")}
        names = ("parse", "compute", "output")
    saved = {name: getattr(cli, name) for name in patches}
    stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(text.encode()), "ascii")
    try:
        for name, value in patches.items():
            setattr(cli, name, value)
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
    return dict(zip(names, (value - current for value in peaks + [peak])))


def main(argv) -> None:
    if len(argv) not in (3, 4) or argv[1] not in (*COMPUTE, "selftest"):
        raise SystemExit(__doc__.split("Usage: ")[1])
    command, n = argv[1], int(argv[2])
    seed = int(argv[3]) if len(argv) > 3 else 0
    run(command, n, seed, traced=False)  # first-use allocations stay out of the reading
    phases = run(command, n, seed, traced=True)
    shape = {"mul": f"{n} x {n}", "selftest": f"--max {n} --seed {seed}"}.get(command, f"l = {n}")
    width = max(map(len, phases))
    print(f"{command} at {shape}, bytes above the output:")
    for phase, value in phases.items():
        print(f"  {phase:{width}} {value:>12,}")
    print(f"  {'peak':{width}} {max(phases.values()):>12,}  ({max(phases, key=phases.get)})")


if __name__ == "__main__":
    main(sys.argv)
