"""Print where the CLI's traced scratch peaks: the parse, compute and
output phases of one tft, itft or mul run, or each family of a selftest;
the phases of one in-process tft_polymul; or the traced scratch of each
of the kernels' eight pass functions.

``measure(call)`` is the one traced procedure of the scratch gates in
tests/: it refills the interpreter's free lists, runs call() under
tracemalloc and returns its result, its traced peak and the bytes it
still holds.  ``traced_phases`` reads one command through it, in
process: stdin holds seeded random residues as bytes, decoded as from a
pipe, and stdout is in-memory text.  It gives each phase's absolute
traced peak and the bytes the command leaves held (its output, kept in
memory); ``run`` gives each phase's peak above those bytes, so the
largest is the gate's reading.  The tool prints both, so a change in how
the output is held shows apart from a change in the peak.  Parse runs
until the compute call (the kernel, or tft_polymul for mul), compute
until the first _write_values call, output to the end.  A selftest's
start runs until its first family, and each family until the next one's
call (the last to the end).  A product (``product``, no CLI) splits at
its kernel calls: read until f's transform, then f's transform, the
packing until g's transform, g's transform, the pointwise product until
the inverse, and the inverse to the end; the bytes it leaves held are
the product's list.  ``passes`` runs each kernel's four passes
in order on seeded residues, as the kernel does, each through
``measure``, and gives each pass's peak above what it leaves held.

Usage: python tools/cli_scratch.py tft|itft L [SEED]
       python tools/cli_scratch.py mul N [SEED]     (two N-coefficient factors)
       python tools/cli_scratch.py selftest N [SEED]   (--max N --seed SEED)
       python tools/cli_scratch.py product N [SEED]    (tft_polymul, N x N)
       python tools/cli_scratch.py kernel L [SEED]     (each pass, L >= 2)
"""

import io
import random
import sys
import tracemalloc
from contextlib import redirect_stdout
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tftkit import cli, itft, polymul, tft  # noqa: E402

# the cli module global each command computes through
COMPUTE = {"tft": "tft_in_place", "itft": "itft_in_place", "mul": "tft_polymul"}
# each kernel's pass functions, in the order it runs them
PASSES = {
    tft: ("fold_tail", "branch_descent", "branch_restore", "prefix_levels"),
    itft: ("ascend_levels", "branch_recombine", "branch_finish", "scale_and_close"),
}


def measure(call):
    """call()'s result, traced peak and traced bytes still held at its end."""
    # tracemalloc does not see an object the interpreter hands out from a
    # free list, so whatever earlier code left on those lists would move
    # the measured peak by tens of bytes; a fixed burst, made and dropped
    # before each traced call, puts them in the same state every time
    burst = [((i,) * (1 + i % 7), [i], {i: i}, i + 0.5, 1 << (64 + i % 64)) for i in range(2000)]
    del burst
    tracemalloc.start()
    try:
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, current


def run(command, n, seed, traced):
    """Each phase's name and traced peak, in bytes above the output."""
    peaks, held = traced_phases(command, n, seed, traced)
    return {name: value - held for name, value in peaks.items()}


def traced_phases(command, n, seed, traced):
    """Each phase's name and absolute traced peak, and the bytes the
    command leaves held (its output)."""
    peaks = []

    def mark():
        if traced:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()

    def entered(fn, returns=False):
        # a phase ends where the next one's function is called, or where
        # this one returns
        def call(*args):
            mark()
            result = fn(*args)
            if returns:
                mark()
            return result

        return call

    text = ""
    if command == "product":
        rng = random.Random(seed)
        field = cli.PrimeField(cli.DEFAULT_MODULUS)
        f, g = ([rng.randrange(field.modulus) for _ in range(n)] for _ in range(2))
        module, call = polymul, partial(polymul.tft_polymul, f, g, field)
        patches = {"tft_in_place": entered(polymul.tft_in_place, returns=True),
                   "itft_in_place": entered(polymul.itft_in_place)}
        names = ("read", "f transform", "packing", "g transform", "pointwise", "inverse")
    elif command == "selftest":
        argv = ["selftest", "--max", str(n), "--seed", str(seed)]
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
    if command != "product":
        module, call = cli, partial(cli.main, argv)
    saved = {name: getattr(module, name) for name in patches}
    stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(text.encode()), "ascii")
    try:
        for name, value in patches.items():
            setattr(module, name, value)
        with redirect_stdout(io.StringIO()):
            result, peak, current = measure(call) if traced else (call(), 0, 0)
    finally:
        sys.stdin = stdin
        for name, fn in saved.items():
            setattr(module, name, fn)
    if command != "product" and result != 0:
        raise SystemExit(f"{command} exited {result}")
    return dict(zip(names, peaks + [peak])), current


def passes(ell, seed, traced):
    """Each pass function's name and traced peak, in bytes above what it
    leaves held."""
    plan = tft.make_plan(cli.PrimeField(cli.DEFAULT_MODULUS), ell)
    rng = random.Random(seed)
    readings = {}
    for module, names in PASSES.items():
        buf = [rng.randrange(plan.field.modulus) for _ in range(ell)]
        for name in names:
            call = getattr(module, name)
            if traced:
                _, peak, current = measure(lambda: call(plan, buf, plan.field))
                readings[f"{module.__name__.split('.')[-1]}.{name}"] = peak - current
            else:
                call(plan, buf, plan.field)
    return readings


def main(argv) -> None:
    if len(argv) not in (3, 4) or argv[1] not in (*COMPUTE, "selftest", "product", "kernel"):
        raise SystemExit(__doc__.split("Usage: ")[1])
    command, n = argv[1], int(argv[2])
    seed = int(argv[3]) if len(argv) > 3 else 0
    # each reading runs untraced first, so first-use allocations stay out of it
    if command == "kernel":
        if n < 2:
            raise SystemExit("kernel needs L >= 2: at L = 1 the kernels run no pass")
        passes(n, seed, traced=False)
        phases, absolute = passes(n, seed, traced=True), {}
        print(f"kernel passes at l = {n}, bytes above what each leaves held:")
    else:
        run(command, n, seed, traced=False)
        absolute, held = traced_phases(command, n, seed, traced=True)
        phases = {name: value - held for name, value in absolute.items()}
        shape = {"selftest": f"--max {n} --seed {seed}"}.get(
            command, f"{n} x {n}" if command in ("mul", "product") else f"l = {n}")
        print(f"{command} at {shape}, bytes above the output and traced:")
    width = max(map(len, phases))
    for phase, value in phases.items():
        traced = f" {absolute[phase]:>12,}" if absolute else ""
        print(f"  {phase:{width}} {value:>12,}{traced}")
    print(f"  {'peak':{width}} {max(phases.values()):>12,}  ({max(phases, key=phases.get)})")
    if absolute:
        print(f"  {'held':{width}} {held:>12,}  (the output, at the end)")


if __name__ == "__main__":
    main(sys.argv)
