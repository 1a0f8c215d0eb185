"""The benchmark's four closed-loop workloads.

Each workload makes its inputs from the seed, serves one request at a
time through tftkit's public API or CLI, checks every output outside
the timed region, and knows the exact ring-operation count of each
request shape.  Counts are taken with ``CountingField`` on the run's
own input and on a second, independently seeded input of the same
shape; if the two differ the counts are not input-independent and
``CountMismatch`` is raised instead of reporting ns per op.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tftkit
import tftkit.cli
from tftkit import (
    DEFAULT_MODULUS,
    CountingField,
    OpCounters,
    PrimeField,
    make_plan,
    naive_polymul,
    naive_tft,
)

from patching import rebound

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
ROADMAP_LENGTHS = (1000, 1024, 1025, 4096, 5000, 65536, 100000)
SELFTEST_FAMILIES = ("oracle-equivalence", "round-trip", "access-audit", "operation-bounds")
CHILD_TIMEOUT_S = 120
HORNER_PROBES = 4  # forward outputs of each transform_large length checked by Horner
SZ_POINTS = 4  # Schwartz-Zippel points per cli_mul product
CLI_NAIVE_MAX = 16384  # cli_mul products with len(f) * len(g) up to this get naive_polymul
_GOLDEN = (math.sqrt(5) - 1) / 2


class CountMismatch(Exception):
    """Two inputs of one request shape gave different operation counts."""


@dataclass
class Outcome:
    seconds: float  # time inside the library or the CLI process
    ok: bool
    shape: object  # key of the operation-count table
    scale: float = 1.0  # multiplies seconds to the reference speed
    block: int = -1  # calibration block taken just before the request


def child_env() -> dict:
    """Environment for child interpreters: the checkout's src first."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def add_counters(a: OpCounters, b: OpCounters) -> OpCounters:
    return OpCounters(
        mul_root=a.mul_root + b.mul_root,
        mul_pow2=a.mul_pow2 + b.mul_pow2,
        add_sub=a.add_sub + b.add_sub,
        mul_other=a.mul_other + b.mul_other,
    )


def horner_at(coeffs, x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def bitrev(i: int, bits: int) -> int:
    return int(format(i, f"0{bits}b")[::-1], 2) if bits else 0


def transient_bytes(call) -> int:
    """Peak traced memory of call() above what is still held when it returns.

    Inputs are allocated before tracing starts and outputs are still
    held at the end, so the difference is the request's scratch.
    """
    tracemalloc.start()
    try:
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - current


class Workload:
    name = ""
    cycle = 1  # requests that make one whole pass over the mix
    probe_args: tuple = ("tftkit",)  # arguments of setup_probe.py

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.field = PrimeField.from_modulus(DEFAULT_MODULUS)
        self.p = self.field.modulus
        self._counts: dict = {}
        self._kernel: dict = {}

    def rng(self, *tags) -> random.Random:
        return random.Random(":".join(map(str, (self.name, self.seed) + tags)))

    def request(self, i: int, tracer=None) -> Outcome:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed work that fills caches before the closed loop."""

    def _count(self, shape, which: int) -> tuple:
        """Counters of one request of this shape; which=1 draws a second input."""
        raise NotImplementedError

    def counters(self, shape) -> tuple:
        if shape not in self._counts:
            self._store(shape, self._count(shape, 0), self._count(shape, 1))
        return self._counts[shape]

    def count(self, shapes) -> None:
        """Fill the count table for shapes."""
        for shape in shapes:
            self.counters(shape)

    def _store(self, shape, first, second) -> None:
        if first != second:
            raise CountMismatch(f"{self.name} shape {shape}: {first} != {second}")
        self._counts[shape] = first

    def ops(self, shape) -> int:
        return sum(c.total for c in self.counters(shape))

    def reference_ops(self) -> OpCounters:
        """Counters summed over a fixed, seed-independent set of shapes."""
        total = OpCounters()
        for shape in self.reference_shapes():
            for c in self.counters(shape):
                total = add_counters(total, c)
        return total

    def reference_shapes(self):
        raise NotImplementedError

    def kernel_counters(self, kind: str, ell: int) -> OpCounters:
        key = (kind, ell)
        if key not in self._kernel:
            self._kernel[key] = tftkit.measure_transform(self.field, ell, kind)
        return self._kernel[key]

    def peak_aux(self) -> tuple[int, int]:
        """Largest scratch of the measured requests, and how many were measured."""
        raise NotImplementedError


class TransformLarge(Workload):
    """Round trips cycling through the ROADMAP lengths, plans built in set-up."""

    name = "transform_large"

    def __init__(self, seed, lengths=ROADMAP_LENGTHS, naive_max=5000, aux_max=65536):
        super().__init__(seed)
        self.lengths = tuple(lengths)
        self.cycle = len(self.lengths)
        self.probe_args = ("tftkit",) + tuple(map(str, self.lengths))
        self.naive_max = naive_max
        self.aux_max = aux_max
        rng = self.rng()
        self.plans = {ell: make_plan(self.field, ell) for ell in self.lengths}
        self.inputs = {ell: [rng.randrange(self.p) for _ in range(ell)] for ell in self.lengths}
        self.probes = {}
        for ell in self.lengths:
            idx = sorted(rng.sample(range(ell), min(HORNER_PROBES, ell)))
            m = (ell - 1).bit_length()
            psi = self.plans[ell].psi
            data = self.inputs[ell]
            expected = [horner_at(data, pow(psi, bitrev(i, m), self.p), self.p) for i in idx]
            self.probes[ell] = (idx, expected)
        self._full_checked: set = set()

    def request(self, i, tracer=None):
        ell = self.lengths[i % self.cycle]
        plan = self.plans[ell]
        data = self.inputs[ell]
        idx, expected = self.probes[ell]
        full = ell <= self.naive_max and ell not in self._full_checked
        buf = list(data)
        t0 = perf_counter()
        tftkit.tft_in_place(plan, buf)
        t1 = perf_counter()
        forward = list(buf) if full else [buf[j] for j in idx]
        t2 = perf_counter()
        tftkit.itft_in_place(plan, buf)
        t3 = perf_counter()
        if full:
            # full oracle equality once per run for the lengths it can afford
            self._full_checked.add(ell)
            ok = forward == naive_tft(self.field, plan.psi, ell, data)
        else:
            ok = forward == expected
        return Outcome((t1 - t0) + (t3 - t2), ok and buf == data, ell)

    def _count(self, ell, which):
        plan = self.plans[ell]
        if which == 0:
            buf = list(self.inputs[ell])
        else:
            rng = self.rng(ell, "second")
            buf = [rng.randrange(self.p) for _ in range(ell)]
        ring = CountingField(self.p)
        tftkit.tft_in_place(plan, buf, ring)
        forward = ring.counters
        ring.reset()
        tftkit.itft_in_place(plan, buf, ring)
        inverse = ring.counters
        if which == 0:
            self._kernel[("forward", ell)] = forward
            self._kernel[("inverse", ell)] = inverse
        return (forward, inverse)

    def reference_shapes(self):
        return self.lengths

    def warm_up(self):
        # the counting pass runs every kernel once at every length
        self.count(self.lengths)

    def peak_aux(self):
        # tracemalloc makes a round trip ~30x slower (on a 2-core machine,
        # CPython 3.11.7: 19 s at 65536, 34 s at 100000), so the lengths
        # above aux_max are left out
        worst, measured = 0, 0
        for ell in self.lengths:
            if ell > self.aux_max:
                continue
            plan = self.plans[ell]
            buf = list(self.inputs[ell])

            def round_trip():
                tftkit.tft_in_place(plan, buf)
                tftkit.itft_in_place(plan, buf)

            worst = max(worst, transient_bytes(round_trip))
            measured += 1
        return worst, measured


class _Products(Workload):
    """Workloads whose requests are products; shapes are output lengths."""

    max_factor = 1
    first_of: dict  # output length -> factors of its first request

    def _count(self, ell, which):
        # the count is a function of the output length; the second input
        # also splits that length between the factors differently
        if which == 0 and ell in self.first_of:
            f, g = self.first_of[ell]
        else:
            f, g = _split(self.rng(ell, "second", which), ell, self.max_factor, self.p)
        ring = CountingField(self.p)
        tftkit.tft_polymul(f, g, self.field, ring)
        return (ring.counters,)


class PolymulSmall(_Products):
    """Many small products; per-call fixed costs carry a large share."""

    name = "polymul_small"

    def __init__(self, seed, max_factor=64, pool=512):
        super().__init__(seed)
        self.max_factor = max_factor
        rng = self.rng()
        self.pool = []
        self.first_of: dict = {}
        for _ in range(pool):
            f = [rng.randrange(self.p) for _ in range(rng.randint(1, max_factor))]
            g = [rng.randrange(self.p) for _ in range(rng.randint(1, max_factor))]
            self.pool.append((f, g, naive_polymul(self.field, f, g)))
            self.first_of.setdefault(len(f) + len(g) - 1, (f, g))

    def request(self, i, tracer=None):
        f, g, expected = self.pool[i % len(self.pool)]
        t0 = perf_counter()
        out = tftkit.tft_polymul(f, g, self.field)
        t1 = perf_counter()
        return Outcome(t1 - t0, out == expected, len(f) + len(g) - 1)

    def reference_shapes(self):
        return range(1, 2 * self.max_factor)

    def warm_up(self):
        self.count(self.first_of)
        for i in range(len(self.pool)):
            self.request(i)

    def peak_aux(self):
        f, g = _split(self.rng("aux"), 2 * self.max_factor - 1, self.max_factor, self.p)
        return transient_bytes(lambda: tftkit.tft_polymul(f, g, self.field)), 1


class CliMul(_Products):
    """One fresh ``python -m tftkit mul`` process per request."""

    name = "cli_mul"
    probe_args = ("tftkit.cli",)
    cycle = 10  # strata of factor length; 3 is prime to it

    def __init__(self, seed, max_factor=4096, aux_factor=256):
        super().__init__(seed)
        self.max_factor = max_factor
        self.aux_factor = min(aux_factor, max_factor)
        self.env = child_env()
        self.command = [sys.executable, "-m", "tftkit", "mul"]
        self.traced_command = [sys.executable, str(HERE / "cli_child.py"), "--trace", "mul"]
        self.first_of: dict = {}
        rng = self.rng("offsets")
        self._offsets = (rng.random(), rng.random())

    def factors(self, i):
        """Seeded factors of request i, lengths log-uniform in [1, max_factor].

        The log range is cut into ``cycle`` strata; each whole pass of
        requests draws each factor once from every stratum, at an offset
        inside the stratum that moves by the golden ratio from pass to
        pass.  So every run sees nearly the same mix of sizes whatever
        the seed, and the seed picks the offsets and the coefficients.
        """
        width = math.log(self.max_factor + 1) / self.cycle
        sizes = []
        for k, stratum in enumerate((i % self.cycle, (3 * i + 1) % self.cycle)):
            offset = (self._offsets[k] + (i // self.cycle) * _GOLDEN) % 1.0
            sizes.append(min(int(math.exp(width * (stratum + offset))), self.max_factor))
        rng = self.rng(i)
        return tuple([rng.randrange(self.p) for _ in range(n)] for n in sizes)

    def request(self, i, tracer=None):
        f, g = self.factors(i)
        ell = len(f) + len(g) - 1
        self.first_of.setdefault(ell, (f, g))
        text = " ".join(map(str, f)) + "\n" + " ".join(map(str, g)) + "\n"
        command = self.traced_command if tracer else self.command
        t0 = perf_counter()
        try:
            proc = subprocess.run(command, input=text, capture_output=True, text=True,
                                  env=self.env, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return Outcome(perf_counter() - t0, False, ell)
        t1 = perf_counter()
        if tracer is not None:
            _adopt_child_spans(tracer, proc.stderr)
        return Outcome(t1 - t0, self._check(i, f, g, proc), ell)

    def _check(self, i, f, g, proc) -> bool:
        if proc.returncode != 0:
            return False
        try:
            out = [int(token) for token in proc.stdout.split()]
        except ValueError:
            return False
        if len(out) != len(f) + len(g) - 1:
            return False
        rng = self.rng(i, "points")
        for _ in range(SZ_POINTS):
            # Schwartz-Zippel: a wrong product agrees at a random point
            # with probability at most len(out)/p
            x = rng.randrange(self.p)
            if horner_at(f, x, self.p) * horner_at(g, x, self.p) % self.p != horner_at(out, x, self.p):
                return False
        if len(f) * len(g) <= CLI_NAIVE_MAX:
            return out == naive_polymul(self.field, f, g)
        return True

    def reference_shapes(self):
        # balanced products at factor lengths 1, 2, 4, ..., max_factor
        return [2 * (1 << k) - 1 for k in range(self.max_factor.bit_length())]

    def warm_up(self):
        self.request(-1)

    def peak_aux(self):
        # the CLI in this process, on a fixed-shape product
        f, g = _split(self.rng("aux"), 2 * self.aux_factor - 1, self.aux_factor, self.p)
        text = " ".join(map(str, f)) + "\n" + " ".join(map(str, g)) + "\n"
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            with redirect_stdout(out):
                return transient_bytes(lambda: tftkit.cli.main(["mul"])), 1
        finally:
            sys.stdin = saved


class Selftest(Workload):
    """In-process ``tftkit selftest`` with a fresh seed per request."""

    name = "selftest"
    probe_args = ("tftkit.cli",)

    def __init__(self, seed, max_length=64):
        super().__init__(seed)
        self.max_length = max_length

    def argv(self, i, which=0):
        seed = self.rng(i, which).getrandbits(32)
        return ["selftest", "--max", str(self.max_length), "--seed", str(seed)]

    def request(self, i, tracer=None):
        argv = self.argv(i)
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            t0 = perf_counter()
            rc = tftkit.cli.main(argv)
            t1 = perf_counter()
        lines = set(out.getvalue().splitlines())
        ok = rc == 0 and all(f"{family}: ok" in lines for family in SELFTEST_FAMILIES)
        return Outcome(t1 - t0, ok, self.max_length)

    def _count(self, n, which):
        # every kernel call the selftest makes, run on a counting ring
        ring = CountingField(self.p)
        measured = []

        def counted(kernel):
            return lambda plan, buffer, _ring=None: kernel(plan, buffer, ring)

        def recorded(measure):
            def run(*args):
                measured.append(measure(*args))
                return measured[-1]

            return run

        with rebound("tftkit.cli", "tft_in_place", counted), \
                rebound("tftkit.cli", "itft_in_place", counted), \
                rebound("tftkit.cli", "measure_transform", recorded), \
                redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            tftkit.cli.main(["selftest", "--max", str(n), "--seed", self.argv(-1, which)[-1]])
        total = ring.counters
        for c in measured:
            total = add_counters(total, c)
        return (total,)

    def reference_shapes(self):
        return (self.max_length,)

    def warm_up(self):
        self.counters(self.max_length)
        self.request(-1)

    def peak_aux(self):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(out):
            return transient_bytes(lambda: tftkit.cli.main(self.argv(-2))), 1


def _split(rng, ell, max_factor, p):
    """Seeded factors of lengths summing to ell + 1, each within [1, max_factor]."""
    lf = rng.randint(max(1, ell + 1 - max_factor), min(max_factor, ell))
    lg = ell + 1 - lf
    return [rng.randrange(p) for _ in range(lf)], [rng.randrange(p) for _ in range(lg)]


def _adopt_child_spans(tracer, stderr: str) -> None:
    for line in reversed(stderr.splitlines()):
        if line.startswith("SPANS "):
            tracer.adopt(json.loads(line[len("SPANS "):])["spans"], tracer.root)
            return


WORKLOADS = {w.name: w for w in (TransformLarge, PolymulSmall, CliMul, Selftest)}
