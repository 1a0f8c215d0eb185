"""Acceptance sweep: one test per shipped claim.

Each test prints a single PASS/FAIL line, with measured maxima where
the claim includes them, so a verbose run doubles as the acceptance
report (pytest tests/test_acceptance.py -v -s, or see the PASSES
section under the default -rP).  The heaviest item is the constant
scratch gate, whose traced kernel calls at 65536 and 100000 took 88 of
the 144 s of a whole tier-1 run on 2 cores; the oracle and round-trip
sweeps to length 512 come next, and the length-16384 operation-count
sweep shared by the two bound checks takes a few seconds, since
``measure_transform`` counts on a ring whose block operations only
tally.  Every scratch reading goes through ``measure`` of
tools/cli_scratch.py.
"""

import gc
import hashlib
import io
import random
import time
from contextlib import redirect_stdout

import pytest

from brute_force import expand_runs, reference_tft
from test_polymul import operation_profile
from tftkit import bit_reverse
from tftkit.cli import main
from tftkit.instrumentation import (
    AuditBuffer,
    bound_check,
    CountingField,
    measure_transform,
)
from tftkit.itft import itft_in_place
from tftkit.oracle import direct_differences, naive_polymul, naive_tft
from tftkit.polymul import pack, tft_polymul
from tftkit.ring import DEFAULT_MODULUS, PrimeField
from tftkit.tft import make_plan, tft_in_place
from tftkit.twiddle import pair_stream

SEED = 20260817


def _verdict(ok: bool, name: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def bound_sweep(field):
    """Counters and bound reports for every length 1..16384, both kinds,
    as ``measure_transform`` reads them off a TallyRing.

    Computed once; the addition and multiplication criteria read from
    the same sweep.  The collector is paused because the sweep is pure
    allocation churn and the pauses are a measurable fraction of it.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        reports = {
            kind: [
                bound_check(ell, measure_transform(field, ell, kind), kind)
                for ell in range(1, 16385)
            ]
            for kind in ("forward", "inverse")
        }
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    return reports, elapsed


def test_forward_matches_direct_evaluation(field):
    rng = random.Random(SEED)
    p = field.modulus
    start = time.perf_counter()
    for ell in range(1, 513):
        plan = make_plan(field, ell)
        for _ in range(10):
            a = [rng.randrange(p) for _ in range(ell)]
            buf = list(a)
            tft_in_place(plan, buf)
            if buf != naive_tft(field, plan.psi, ell, a):
                _verdict(False, "oracle equivalence", f"mismatch at length {ell}")
    elapsed = time.perf_counter() - start
    _verdict(
        True,
        "oracle equivalence",
        f"lengths 1..512, 10 vectors each, exact equality ({elapsed:.1f}s)",
    )


def test_round_trips_are_identities(field):
    rng = random.Random(SEED + 1)
    p = field.modulus
    start = time.perf_counter()
    for ell in range(1, 513):
        plan = make_plan(field, ell)
        for _ in range(10):
            a = [rng.randrange(p) for _ in range(ell)]
            buf = list(a)
            tft_in_place(plan, buf)
            itft_in_place(plan, buf)
            if buf != a:
                _verdict(False, "round trips", f"inverse(forward) broke at length {ell}")
            b = [rng.randrange(p) for _ in range(ell)]
            buf = list(b)
            itft_in_place(plan, buf)
            tft_in_place(plan, buf)
            if buf != b:
                _verdict(False, "round trips", f"forward(inverse) broke at length {ell}")
    elapsed = time.perf_counter() - start
    _verdict(
        True,
        "round trips",
        f"both compositions, lengths 1..512, 10 vectors each ({elapsed:.1f}s)",
    )


def test_addition_counts_meet_hard_bounds(bound_sweep):
    reports, elapsed = bound_sweep
    for kind, rows in reports.items():
        for rep in rows:
            if rep.counters.add_sub > rep.add_bound:
                _verdict(
                    False,
                    "addition bounds",
                    f"{kind} length {rep.ell}: {rep.counters.add_sub} > {rep.add_bound}",
                )
    _verdict(
        True,
        "addition bounds",
        f"zero slack, forward and inverse, lengths 1..16384 ({elapsed:.1f}s sweep)",
    )


def test_multiplication_counts_meet_declared_bounds(bound_sweep):
    reports, _ = bound_sweep
    peaks = []
    ok = True
    for kind, rows in reports.items():
        for rep in rows:
            c = rep.counters
            if c.mul_root > rep.root_bound or c.mul_pow2 > rep.pow2_bound:
                ok = False
            if c.mul_other != 0:
                ok = False
        worst = max(rows, key=lambda r: r.counters.mul_root / r.root_bound)
        peaks.append(
            f"{kind} mul_root peak {worst.counters.mul_root}/{worst.root_bound}"
            f" at l={worst.ell}"
        )
    inv = reports["inverse"]
    worst = max(inv, key=lambda r: r.counters.mul_pow2 / r.pow2_bound)
    peaks.append(
        f"inverse mul_pow2 peak {worst.counters.mul_pow2}/{worst.pow2_bound}"
        f" at l={worst.ell}"
    )
    _verdict(ok, "multiplication bounds", "; ".join(peaks))


# the default field (capacity 2^23), Goldilocks (2^32) and 5*2^75 + 1,
# checked up to 2^62: measure_transform counts lengths up to sys.maxsize
EXTREMAL_MODULI = (DEFAULT_MODULUS, (1 << 64) - (1 << 32) + 1, 5 * (1 << 75) + 1)


def _extremal_top(field):
    return min(field.two_adicity, 62)


def _extremal_lengths(top):
    return tuple(
        ell
        for k in range(13, top + 1)
        for ell in ((1 << k) - 1, 1 << k, (1 << k) + 1, (1 << k) + 5)
        if ell <= 1 << top
    )


def test_bounds_hold_at_extremal_lengths_beyond_the_sweep():
    # The sweep stops at 16384, but the bounds are claimed for every
    # length a field supports; just below, at and just past a power of
    # two is where the split term and the ceil(lg) terms jump.  Zero
    # bounds (forward mul_pow2, mul_other) are checked by `passed` and not
    # tabulated.
    fields = [PrimeField.from_modulus(modulus) for modulus in EXTREMAL_MODULI]
    gc.disable()
    try:
        start = time.perf_counter()
        reports = [
            [
                bound_check(ell, measure_transform(field, ell, kind), kind)
                for kind in ("forward", "inverse")
                for ell in _extremal_lengths(_extremal_top(field))
            ]
            for field in fields
        ]
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    failed, lines = [], []
    for field, field_reports in zip(fields, reports):
        p, worst = field.modulus, {}
        for rep in field_reports:
            c = rep.counters
            for name, used, limit in (
                ("add_sub", c.add_sub, rep.add_bound),
                ("mul_root", c.mul_root, rep.root_bound),
                ("mul_pow2", c.mul_pow2, rep.pow2_bound),
            ):
                key = f"{rep.kind} {name}"
                if limit and (key not in worst or limit - used < worst[key][0]):
                    worst[key] = (limit - used, rep.ell)
        failed += [f"p={p} {rep.kind} l={rep.ell}" for rep in field_reports if not rep.passed]
        slacks = "; ".join(f"{key} {slack} at l={ell}" for key, (slack, ell) in worst.items())
        lines.append(f"p={p} to 2^{_extremal_top(field)}, {len(field_reports)} checks: worst slack {slacks}")
    _verdict(
        not failed,
        "bounds at extremal lengths",
        "l = 2^k-1, 2^k, 2^k+1, 2^k+5 for k >= 13 up to each field's capacity or 2^62, both kinds; "
        + "; ".join(f"[{line}]" for line in lines)
        + (f"; failed at {', '.join(failed)}" if failed else "")
        + f" ({elapsed:.1f}s)",
    )


def test_fft_counts_match_the_closed_form(field):
    for k in range(15):
        n = 1 << k
        ring = CountingField(field.modulus)
        tft_in_place(make_plan(field, n), [0] * n, ring)
        c = ring.counters
        if c.add_sub != n * k:
            _verdict(
                False, "fft baseline", f"n={n}: {c.add_sub} adds, expected exactly {n * k}"
            )
        if c.mul_root > (n // 2) * k + n + 16:
            _verdict(False, "fft baseline", f"n={n}: {c.mul_root} root products over bound")
        if c.mul_pow2 or c.mul_other:
            _verdict(False, "fft baseline", f"n={n}: stray multiplication class used")
    _verdict(
        True,
        "fft baseline",
        "tft at n = 2^0..2^14: adds exactly n*lg(n), root products within "
        "(n/2)*lg(n)+n+16",
    )


# bytes; at SCRATCH_LENGTHS the kernels read at most 1056 (100000) while
# a pair-stream generator stayed alive through each radix-4 call and the
# branch passes drew their levels from a generator (limit was 1536), and
# 752 (100000) once the radix-4 members walked their twiddle runs inline
# and each branch pass took one level's geometry at a time.
SCRATCH_LIMIT = 1024
SCRATCH_LENGTHS = (1, 2, 3, 17, 1000, 1025, 4096, 5000, 16385, 65536, 100000)


def test_scratch_space_is_constant(field, cli_scratch):
    # In place means O(1) auxiliary space: the traced peak above what the
    # call leaves allocated must stay under one constant at every length.
    measure = cli_scratch["measure"]
    rng = random.Random(SEED + 5)
    p = field.modulus
    worst = (0, None, None)
    start = time.perf_counter()
    for ell in SCRATCH_LENGTHS:
        plan = make_plan(field, ell)
        for kind, kernel in (("forward", tft_in_place), ("inverse", itft_in_place)):
            buf = [rng.randrange(p) for _ in range(ell)]
            _, peak, current = measure(lambda: kernel(plan, buf))
            if peak - current > worst[0]:
                worst = (peak - current, kind, ell)
    elapsed = time.perf_counter() - start
    aux, kind, ell = worst
    _verdict(
        aux <= SCRATCH_LIMIT,
        "constant scratch",
        f"both transforms, l in {SCRATCH_LENGTHS}: worst {aux} B above the output "
        f"({kind}, l={ell}; limit {SCRATCH_LIMIT} B) ({elapsed:.1f}s)",
    )


def test_each_pass_scratch_is_bounded(cli_scratch):
    # tools/cli_scratch.py kernel L reads each of the eight pass functions
    # through measure, as the kernels run them; at 5000 every pass has
    # work, and none may need more than the whole kernel may
    passes = cli_scratch["passes"]
    passes(5000, SEED, traced=False)
    readings = passes(5000, SEED, traced=True)
    assert len(readings) == 8 and all(value > 0 for value in readings.values())
    _verdict(
        max(readings.values()) <= SCRATCH_LIMIT,
        "pass scratch",
        f"each pass at l=5000: {readings} B above what it leaves held (limit {SCRATCH_LIMIT} B)",
    )


def test_pass_scratch_runs_the_passes_in_kernel_order(field, cli_scratch, monkeypatch):
    # the tool runs each pass on the state the passes before it left, so
    # its PASSES must list them in the order the kernels call them; every
    # pass name is rebound to a recorder in its kernel's module, and at
    # l=5000 all eight passes run
    called = []
    for module, names in cli_scratch["PASSES"].items():
        for name in names:
            def record(*args, _name=f"{module.__name__}.{name}", _call=getattr(module, name)):
                called.append(_name)
                return _call(*args)

            monkeypatch.setattr(module, name, record)
    plan = make_plan(field, 5000)
    buf = [0] * 5000
    tft_in_place(plan, buf)
    itft_in_place(plan, buf)
    listed = [f"{module.__name__}.{name}" for module, names in cli_scratch["PASSES"].items()
              for name in names]
    _verdict(
        called == listed,
        "pass order",
        f"at l=5000 the kernels call {called}; tools/cli_scratch.py lists {listed}",
    )


# bytes above the output; the product read 6,132 (64 x 64) and 83,116
# (1024 x 1024) while it held both transformed factors as lists of ints,
# and 1,632 and 12,644 once the factor out of its transform waited packed
# (64 x 64 limit was 2,000); 1,328 and 12,644 once the kernels kept no
# generator alive through a pass
PRODUCT_SCRATCH_LIMITS = {64: 1_600, 1024: 15_000}


def test_product_scratch_is_bounded(field, cli_scratch):
    # tft_polymul holds one list of ints, the one it returns: beside it
    # are the factor out of its transform, packed in 4-byte items on this
    # field, and the kernels' constant scratch
    measure = cli_scratch["measure"]
    rng = random.Random(SEED + 9)
    p = field.modulus
    readings = {}
    start = time.perf_counter()
    for n in PRODUCT_SCRATCH_LIMITS:
        f = [rng.randrange(p) for _ in range(n)]
        g = [rng.randrange(p) for _ in range(n)]
        product, peak, current = measure(lambda: tft_polymul(f, g, field))
        assert product == naive_polymul(field, f, g), n
        readings[n] = peak - current
    elapsed = time.perf_counter() - start
    _verdict(
        all(readings[n] <= limit for n, limit in PRODUCT_SCRATCH_LIMITS.items()),
        "product scratch",
        f"tft_polymul at n x n for n in {tuple(PRODUCT_SCRATCH_LIMITS)}: {readings} B "
        f"above the output (limits {PRODUCT_SCRATCH_LIMITS}) ({elapsed:.1f}s)",
    )


# bytes above what the command leaves held (its output, kept in memory);
# the CLI read 709,000 (tft, itft at 4096) and 78,100 (mul, 256 x 256)
# while it kept its input text through the transform and built the whole
# output as one string, and 377,600 and 55,800 once it did neither; with
# the tokens converted in place, mul's factors handed to the product one
# value at a time and runs of 128 values, it reads 268,700 and 37,300
# (limits were 540,000 and 64,000); with tft and itft reading their text
# in chunks of 4096 bytes straight onto the buffer, tft and itft read
# 177,000, bound by the output phase (tft, itft limit was 300,000); with
# the product holding one list of ints and its other factor packed, mul
# reads 29,100, bound by the output phase (limit was 42,000).  tft and itft
# then read their text once and split it in bounded slices of the text,
# their parse holding the text beside the buffer (164,800), still below
# the output phase.  With every command splitting its text 512 characters
# at a time, mul dropping each line once it is read, and the output cut
# from the list in runs of 32 values, mul reads 18,400, bound by its
# compute phase, and tft and itft 143,800, bound by their parse (limits
# were 32,000 and 200,000)
CLI_SCRATCH_LIMITS = {"tft": 170_000, "itft": 170_000, "mul": 22_000}
# one run of output beside the buffer: 32 values (cli._RUN) as 9-digit
# str objects (58 bytes each), their list slots and their characters in
# the joined text, about 2,600 bytes, with margin; fixed, so that longer
# runs fail the gate.  The output phase of tft and itft reads 2,260 above
# their compute phase
RUN_ALLOWANCE = 3_200


@pytest.fixture(scope="module")
def cli_phases(cli_scratch):
    """Each command's phases as tools/cli_scratch.py reads them, at
    l = 4096 and 256 x 256 from SEED + 6, and the seconds taken; both
    CLI gates read them, so each command is traced once."""
    run = cli_scratch["run"]
    start = time.perf_counter()
    phases = {}
    for command, n in (("tft", 4096), ("itft", 4096), ("mul", 256)):
        run(command, n, SEED + 6, traced=False)  # first-use allocations stay out of the reading
        phases[command] = run(command, n, SEED + 6, traced=True)
    return phases, time.perf_counter() - start


def test_cli_scratch_is_bounded(cli_phases):
    # The CLI's own share of the in-place claim: the text each command
    # reads is gone before it computes, its tokens turn into its values a
    # bounded slice at a time, and its output goes out in bounded runs cut
    # from the buffer, so the traced peak is the parse (the text beside the
    # buffers) or the transform buffers.
    phases, elapsed = cli_phases
    readings = {name: max(phases[name].values()) for name in CLI_SCRATCH_LIMITS}
    _verdict(
        all(readings[name] <= limit for name, limit in CLI_SCRATCH_LIMITS.items()),
        "cli scratch",
        f"tft, itft at l=4096 and mul at 256 x 256: {readings} B above the output "
        f"(limits {CLI_SCRATCH_LIMITS}) ({elapsed:.1f}s)",
    )


def test_cli_output_adds_at_most_one_run(cli_phases):
    # each command writes its output a run at a time, cutting each run from
    # the buffer once formatted, so its output phase holds the buffer and
    # one run's text, no more than the compute phase and one run
    phases, elapsed = cli_phases
    _verdict(
        all(reading["output"] <= reading["compute"] + RUN_ALLOWANCE for reading in phases.values()),
        "cli output phase",
        f"tft, itft at l=4096 and mul at 256 x 256, output at most compute + {RUN_ALLOWANCE}: "
        f"{phases} B above the output ({elapsed:.1f}s)",
    )


def test_mul_parse_holds_no_more_than_its_compute(cli_phases):
    # mul splits each line a bounded slice at a time and drops it once it
    # is read, so its parse holds no more than the product's buffers do
    phases, elapsed = cli_phases
    reading = phases["mul"]
    _verdict(
        reading["parse"] <= reading["compute"],
        "mul parse phase",
        f"mul at 256 x 256, parse at most compute: {reading} B above the output ({elapsed:.1f}s)",
    )


# bytes above the output; selftest read 9,800-9,850 at --max 64 while each
# family kept the previous length's lists and the oracle family a third
# copy of its input, 6,850-7,000 once they held one length's input and
# one working copy, 4,650-4,800 since that input is packed and the oracle
# family evaluates it one value at a time (limit was 5,500), and
# 3,918-3,949 since the oracle family overwrites the kernel's output with
# its difference from the direct evaluation, holding no generator, so the
# round trip bounds the selftest (1.15 x the worst)
SELFTEST_SCRATCH_LIMIT = 4_540
SELFTEST_SEEDS = (0, 11, 12, 2026)


def test_selftest_scratch_is_bounded(cli_scratch):
    # The selftest's own checks stay within one length's data: each family
    # holds the drawn input, packed, and one working copy, and drops both
    # before the next length.
    measure = cli_scratch["measure"]
    argv = ["selftest", "--max", "64", "--seed"]
    with redirect_stdout(io.StringIO()):
        main(argv + ["0"])  # imports and first-use allocations stay untraced
    readings = {}
    start = time.perf_counter()
    for seed in SELFTEST_SEEDS:
        with redirect_stdout(io.StringIO()):
            code, peak, current = measure(lambda: main(argv + [str(seed)]))
        assert code == 0, seed
        readings[seed] = peak - current
    elapsed = time.perf_counter() - start
    _verdict(
        max(readings.values()) <= SELFTEST_SCRATCH_LIMIT,
        "selftest scratch",
        f"--max 64 at seeds {SELFTEST_SEEDS}: {readings} B above the output "
        f"(limit {SELFTEST_SCRATCH_LIMIT} B) ({elapsed:.1f}s)",
    )


# bytes; the selftest's oracle check, direct_differences on a packed input
# and the kernel's output, read 696 (l = 63) over l = 1..64 while it
# evaluated groups of four points, and 604 (l = 64) with cosets of eight,
# which hold eight accumulators but neither w nor the bit-reversal format
# through the loop; it may not hold more than the groups of four did,
# which keeps the oracle's live ints from raising the selftest's peak
ORACLE_SCRATCH_LIMIT = 696


def test_oracle_scratch_is_bounded(field, cli_scratch):
    measure = cli_scratch["measure"]
    rng = random.Random(SEED + 9)
    p = field.modulus
    worst = (0, None)
    for ell in range(1, 65):
        plan = make_plan(field, ell)
        data = pack([rng.randrange(p) for _ in range(ell)], p)
        buf = list(data)
        tft_in_place(plan, buf)
        direct_differences(field, plan.psi, ell, data, list(buf))  # first use untraced
        diffs, peak, current = measure(lambda: direct_differences(field, plan.psi, ell, data, buf))
        assert not any(diffs), ell
        worst = max(worst, (peak - current, ell))
    aux, ell = worst
    _verdict(
        aux <= ORACLE_SCRATCH_LIMIT,
        "oracle scratch",
        f"direct_differences on the kernel's output, l = 1..64: worst {aux} B above "
        f"what it leaves held (l={ell}; limit {ORACLE_SCRATCH_LIMIT} B)",
    )


# sha256 of the comma-joined forward outputs of the seeded inputs below,
# recorded from kernels whose outputs the oracle and round-trip claims
# check up to 512; a changed digest is a changed transform
PINNED_FORWARD_DIGESTS = {
    1000: "cd3be32e6cd468c2fcab761600d38ea7206fd17f5b1818603cda18fc799bc11a",
    1024: "6bec9ae3844a7f09fc8852b6c5d090abb95e37b47f35b668f9111c5b904c1a3e",
    1025: "44e798784285212ce53ff721148639b7aeb6545447117af32c05d9c8ca12e233",
    4096: "341525b3d584e5581f0d8d7eb69ec8725d3388828f3d8ad2e83e15290dbefb93",
    5000: "c448e0dc129aa602699992c88f245a8894c7f2679cf57a1c0f836c6417516f1d",
    65536: "c702fe2ab991aa7bfe72c09359a89b6771f2ca64d32fa3cec402bce3cc31ca9d",
    100000: "7872ca86bedc842d6b692140f72a56869908b1a4b002ce6b51ca646ea85e30d4",
}


def test_outputs_are_pinned_beyond_the_oracle_range(field):
    p = field.modulus
    start = time.perf_counter()
    for ell, want in PINNED_FORWARD_DIGESTS.items():
        rng = random.Random(SEED + ell)
        a = [rng.randrange(p) for _ in range(ell)]
        plan = make_plan(field, ell)
        buf = list(a)
        tft_in_place(plan, buf)
        if hashlib.sha256(",".join(map(str, buf)).encode()).hexdigest() != want:
            _verdict(False, "pinned outputs", f"forward digest changed at length {ell}")
        itft_in_place(plan, buf)
        if buf != a:
            _verdict(False, "pinned outputs", f"inverse(forward) broke at length {ell}")
    elapsed = time.perf_counter() - start
    _verdict(
        True,
        "pinned outputs",
        f"l in {tuple(PINNED_FORWARD_DIGESTS)}: forward sha256 as recorded, "
        f"inverse restores the input ({elapsed:.1f}s)",
    )


# the benchmark's lengths, and the powers of two 2^13..2^16 with both sides
REFERENCE_LENGTHS = tuple(dict.fromkeys([
    *PINNED_FORWARD_DIGESTS, *((1 << k) + d for k in range(13, 17) for d in (-1, 0, 1, 5))
]))


def test_forward_matches_the_out_of_place_reference(field):
    # beyond the O(l^2) oracle's range, the kernel's outputs against an
    # independent O(l log l) transform, not only against recorded digests
    rng = random.Random(SEED + 7)
    p = field.modulus
    start = time.perf_counter()
    for ell in REFERENCE_LENGTHS:
        a = [rng.randrange(p) for _ in range(ell)]
        plan = make_plan(field, ell)
        buf = list(a)
        tft_in_place(plan, buf)
        if buf != reference_tft(field, plan.psi, ell, a):
            _verdict(False, "reference equality", f"forward disagrees at length {ell}")
    elapsed = time.perf_counter() - start
    _verdict(
        True,
        "reference equality",
        f"forward equals the out-of-place reference at l in {REFERENCE_LENGTHS} "
        f"({elapsed:.1f}s)",
    )


def test_round_trips_at_the_reference_lengths(field):
    # the reference lengths that the pinned outputs do not already round-trip
    rng = random.Random(SEED + 8)
    p = field.modulus
    lengths = tuple(ell for ell in REFERENCE_LENGTHS if ell not in PINNED_FORWARD_DIGESTS)
    start = time.perf_counter()
    for ell in lengths:
        a = [rng.randrange(p) for _ in range(ell)]
        plan = make_plan(field, ell)
        buf = list(a)
        tft_in_place(plan, buf)
        itft_in_place(plan, buf)
        if buf != a:
            _verdict(False, "round trips", f"inverse(forward) broke at length {ell}")
    elapsed = time.perf_counter() - start
    _verdict(True, "round trips", f"inverse(forward) at l in {lengths} ({elapsed:.1f}s)")


def test_transforms_stay_inside_the_buffer(field):
    rng = random.Random(SEED + 2)
    p = field.modulus
    start = time.perf_counter()
    for ell in range(1, 513):
        plan = make_plan(field, ell)
        buf = AuditBuffer(rng.randrange(p) for _ in range(ell))
        try:
            tft_in_place(plan, buf)
            itft_in_place(plan, buf)
        except IndexError:
            pass
        if buf.oob:
            _verdict(False, "access audit", f"length {ell} touched outside [0, {ell})")
        if buf.hi is not None and (buf.lo < 0 or buf.hi >= ell):
            _verdict(False, "access audit", f"length {ell} index range escaped")
    elapsed = time.perf_counter() - start
    _verdict(
        True,
        "access audit",
        f"both transforms, lengths 1..512, every access in [0, l) ({elapsed:.1f}s)",
    )


def test_pair_generator_matches_brute_force(field):
    p = field.modulus
    omega = field.generator_root
    s = field.two_adicity
    worst_budget = 0.0
    for m in range(1, 11):
        psi = field.root_of_order(m)
        for q in range(1, (1 << (m - 1)) + 1):
            ring = CountingField(field.modulus)
            got = list(expand_runs(ring.mul_root, pair_stream(ring, m, psi, q)))
            if len(got) != q - 1:
                _verdict(False, "pair generator", f"{len(got)} pairs at m={m}, q={q}")
            got = set(got)
            want = {
                (i, pow(omega, bit_reverse(2 * i, s), p)) for i in range(1, q)
            }
            if got != want:
                _verdict(False, "pair generator", f"wrong pair set at m={m}, q={q}")
            used = ring.counters.mul_root
            if used > q + 4 * m:
                _verdict(
                    False, "pair generator", f"m={m}, q={q}: {used} products > {q + 4 * m}"
                )
            worst_budget = max(worst_budget, used / (q + 4 * m))
    _verdict(
        True,
        "pair generator",
        f"all m<=10, q<=2^(m-1): exact pair sets, worst budget use {worst_budget:.2f}",
    )


def test_polynomial_products_and_smoothness(field):
    rng = random.Random(SEED + 3)
    p = field.modulus
    start = time.perf_counter()
    for _ in range(200):
        out_len = rng.randint(1, 1000)
        len_f = rng.randint(1, out_len)
        len_g = out_len + 1 - len_f
        f = [rng.randrange(p) for _ in range(len_f)]
        g = [rng.randrange(p) for _ in range(len_g)]
        if tft_polymul(f, g, field) != naive_polymul(field, f, g):
            _verdict(
                False,
                "polynomial products",
                f"mismatch at sizes {len_f} x {len_g}",
            )
    profile = operation_profile(field, range(64, 257))
    worst = max(profile[ell + 1] / profile[ell] for ell in range(64, 256))
    elapsed = time.perf_counter() - start
    _verdict(
        worst <= 2.2,
        "polynomial products",
        f"200 random products exact; max consecutive-length cost ratio "
        f"{worst:.3f} (limit 2.2) ({elapsed:.1f}s)",
    )


def test_counts_are_input_independent(field):
    rng = random.Random(SEED + 4)
    p = field.modulus
    for ell in (1, 2, 3, 5, 8, 13, 100, 257, 1024):
        plan = make_plan(field, ell)
        for kind, kernel in (("forward", tft_in_place), ("inverse", itft_in_place)):
            seen = set()
            for _ in range(2):
                ring = CountingField(field.modulus)
                kernel(plan, [rng.randrange(p) for _ in range(ell)], ring)
                seen.add(ring.counters)
            if len(seen) != 1:
                _verdict(
                    False, "count determinism", f"{kind} length {ell} varied with input"
                )
    _verdict(
        True,
        "count determinism",
        "forward and inverse counters identical across disjoint random inputs",
    )
