"""The brute-force references themselves deserve a few checks: they are
the ground truth everything else is compared against.
``direct_differences`` is the direct evaluation in pure Python, four
points a Horner pass, written into a list as each value minus the
entry it replaces: ``naive_tft`` runs it on zeros, and the selftest's
check runs it on the kernel's output and fails on any nonzero entry.
Both are held to a plain Horner loop at each reversed power, one point
at a time (list inputs in one test, packed inputs and the selftest's
check in the next), and refuse coefficients that are not Python ints.
``naive_dft`` (in tests/brute_force.py, with ``naive_itft_solve`` and
``reference_tft``) computes with Python ints at every modulus, and a
64-bit modulus checks the references against direct evaluation.  A
child interpreter with numpy blocked runs the oracles and the selftest,
as no module of the package imports numpy."""

import random
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import tftkit
from brute_force import naive_dft, naive_itft_solve, reference_tft
from tftkit.oracle import direct_differences, naive_polymul, naive_tft
from tftkit.ring import PrimeField
from tftkit.tft import make_plan, tft_in_place

# 2^64 - 2^32 + 1, two-adicity 32: residues above 2^32, packed in 8-byte items
BIG_P = 18446744069414584321


def test_dft_known_values(f17):
    assert naive_dft(f17, 13, [0, 1, 0, 0]) == [1, 13, 16, 4]
    assert naive_dft(f17, 1, [9]) == [9]
    assert naive_dft(f17, 16, [3, 5]) == [8, 15]


def test_dft_input_validation(f17):
    with pytest.raises(ValueError):
        naive_dft(f17, 13, [1, 2, 3])  # not a power of two
    with pytest.raises(ValueError):
        naive_dft(f17, 13, [])
    with pytest.raises(ValueError):
        naive_dft(f17, 16, [1, 2, 3, 4])  # order 2, need 4


def test_tft_is_a_permuted_dft_at_powers_of_two(f17):
    rng = random.Random(21)
    for m in range(5):
        n = 1 << m
        psi = f17.root_of_order(m)
        a = [rng.randrange(17) for _ in range(n)]
        natural = naive_dft(f17, psi, a)
        shuffled = naive_tft(f17, psi, n, a)
        def rev(i):
            return int(format(i, f"0{m}b")[::-1], 2) if m else 0
        assert shuffled == [natural[rev(i)] for i in range(n)]


def _horner_at_reversed_powers(p, psi, ell, a):
    m = (ell - 1).bit_length()
    out = []
    for i in range(ell):
        x = pow(psi, int(format(i, f"0{m}b")[::-1], 2), p)
        acc = 0
        for c in reversed(a):
            acc = (acc * x + c) % p
        out.append(acc)
    return out


def test_tft_length_one(f17):
    assert naive_tft(f17, 1, 1, [25]) == [8]
    with pytest.raises(ValueError):
        naive_tft(f17, 13, 1, [3])  # psi must be 1 when a single point


def test_tft_validation(f17):
    with pytest.raises(ValueError):
        naive_tft(f17, 9, 3, [1, 2])  # length mismatch
    with pytest.raises(ValueError):
        naive_tft(f17, 13, 5, [0] * 5)  # 13 has order 4, need 8
    with pytest.raises(ValueError):
        naive_tft(f17, 9, 0, [])


def _selftest_check_fails(fld, psi, ell, a, output) -> bool:
    # cli._check_oracle's test of a kernel's output, on a copy of it
    return any(direct_differences(fld, psi, ell, a, list(output)))


def test_naive_tft_is_horner_at_the_reversed_powers(field, f17):
    # The list case.  naive_tft takes a group of four points from one pow;
    # the plain loop takes each point from its own pow and its own Horner
    # loop.  Every length to 300 on the default field and to 16 on F17, so
    # each group of four points, whole or cut short by ell, meets the plain
    # loop; and seeded lengths on Goldilocks, with residues above 2^32.
    rng = random.Random(24)
    big = PrimeField.from_modulus(BIG_P)
    cases = ((field, range(1, 301)), (f17, range(1, 17)),
             (big, sorted(rng.sample(range(1, 300), 12))))
    for fld, lengths in cases:
        p = fld.modulus
        for ell in lengths:
            psi = fld.root_of_order((ell - 1).bit_length())
            a = [rng.randrange(p) for _ in range(ell)]
            assert naive_tft(fld, psi, ell, a) == _horner_at_reversed_powers(p, psi, ell, a), (p, ell)


def test_streamed_values_match_horner_at_the_reversed_powers(field, f17):
    # The packed case and the selftest's check.  Each input packed in an
    # array, to 129 on the default field, to 16 on F17 and at seeded
    # lengths on Goldilocks, where it packs in 8-byte items.  To 129 on the
    # default field, the selftest's check passes on the values and fails on
    # them with one entry changed, at each index in turn (the lone last
    # points of a short group included), the input as a list or packed in
    # turn.
    rng = random.Random(26)
    big = PrimeField.from_modulus(BIG_P)
    cases = ((field, "I", range(1, 130)), (f17, "I", range(1, 17)),
             (big, "Q", sorted(rng.sample(range(1, 300), 12))))
    for fld, code, lengths in cases:
        p = fld.modulus
        for ell in lengths:
            psi = fld.root_of_order((ell - 1).bit_length())
            a = [rng.randrange(p) for _ in range(ell)]
            expected = _horner_at_reversed_powers(p, psi, ell, a)
            packed = array(code, a)
            assert naive_tft(fld, psi, ell, packed) == expected, (p, ell)
            assert packed.tolist() == a
            if fld is not field:
                continue
            inputs = (a, packed)
            for coeffs in inputs:
                assert not _selftest_check_fails(fld, psi, ell, coeffs, expected), ell
            for j in range(ell):
                changed = list(expected)
                changed[j] = (changed[j] + 1) % p
                coeffs = inputs[(ell + j) % 2]
                assert _selftest_check_fails(fld, psi, ell, coeffs, changed), (ell, j)


def test_streamed_values_reduce_their_inputs(f17):
    # unreduced and negative coefficients, in the top coefficients that
    # start the accumulators too, as the plain loop takes them
    for ell in range(1, 17):
        psi = f17.root_of_order((ell - 1).bit_length())
        a = [(-1) ** i * (17 * i + 5) for i in range(ell)]
        expected = _horner_at_reversed_powers(17, psi, ell, a)
        assert naive_tft(f17, psi, ell, a) == expected, ell
        assert direct_differences(f17, psi, ell, a, list(expected)) == [0] * ell, ell


def test_streamed_values_refuse_what_naive_tft_refuses(f17):
    # the same ValueError and message from both, and from
    # direct_differences when the list it overwrites is not ell long
    refusals = (
        (9, 3, [1, 2], "expected 3 values, got 2"),
        (13, 5, [0] * 5, "psi must have order 2^ceil(log2 ell)"),
        (9, 0, [], "length must be at least 1"),
        (13, 1, [3], "psi must be 1 for a length-1 transform"),
    )
    for psi, ell, a, message in refusals:
        with pytest.raises(ValueError) as naive:
            naive_tft(f17, psi, ell, a)
        with pytest.raises(ValueError) as direct:
            direct_differences(f17, psi, ell, a, [0] * ell)
        assert str(naive.value) == str(direct.value) == message, (psi, ell)
    for out in ([0] * 3, [0] * 5):
        with pytest.raises(ValueError, match=f"expected 4 outputs, got {len(out)}"):
            direct_differences(f17, 13, 4, [1, 2, 3, 4], out)


def test_oracles_refuse_coefficients_that_are_not_ints(field):
    # numpy integers would compute in numpy's wrapping arithmetic: wrong
    # values, with a RuntimeWarning for uint64 and none for int64; a float
    # or a bool computes in its own.  Every oracle refuses them, while array
    # items and unreduced or negative ints are read as the ints they are.
    np = pytest.importorskip("numpy")
    ell = 37
    psi = field.root_of_order((ell - 1).bit_length())
    a = [pow(3, i + 1, field.modulus) for i in range(ell)]
    expected = naive_tft(field, psi, ell, a)
    refused = {
        "uint64": np.array(a, dtype=np.uint64),
        "int64": np.array(a, dtype=np.int64),
        "float": a[:-1] + [float(a[-1])],
        "bool": [True] + a[1:],
    }
    for name, coeffs in refused.items():
        for call in (
            lambda: naive_tft(field, psi, ell, coeffs),
            lambda: direct_differences(field, psi, ell, coeffs, list(expected)),
            lambda: reference_tft(field, psi, ell, coeffs),
        ):
            with pytest.raises(TypeError, match=f"must be Python ints, got {name}"):
                call()
    unreduced = [c + (-1) ** i * 3 * field.modulus for i, c in enumerate(a)]
    for coeffs in (array("I", a), unreduced):
        assert naive_tft(field, psi, ell, coeffs) == expected
        assert reference_tft(field, psi, ell, coeffs) == expected
        assert not _selftest_check_fails(field, psi, ell, coeffs, expected)


def test_reference_matches_direct_evaluation(field):
    # the out-of-place reference checks the kernels far beyond naive_tft's
    # range; here it meets naive_tft on every length up to 129, and at a
    # modulus above 2^32
    rng = random.Random(25)
    big = PrimeField.from_modulus(BIG_P)
    for fld, lengths in ((field, range(1, 130)), (big, (1, 2, 3, 7, 33, 100))):
        p = fld.modulus
        for ell in lengths:
            psi = fld.root_of_order((ell - 1).bit_length())
            a = [rng.randrange(p) for _ in range(ell)]
            assert reference_tft(fld, psi, ell, a) == naive_tft(fld, psi, ell, a), ell
    assert reference_tft(field, 1, 1, [field.modulus + 5]) == [5]


def test_reference_validation(f17):
    for psi, ell, a in ((9, 3, [1, 2]), (13, 5, [0] * 5), (9, 0, []), (13, 1, [3])):
        with pytest.raises(ValueError):
            reference_tft(f17, psi, ell, a)


def test_solver_inverts_the_evaluator(f17):
    rng = random.Random(22)
    for ell in range(1, 13):
        psi = f17.root_of_order((ell - 1).bit_length())
        a = [rng.randrange(17) for _ in range(ell)]
        vals = naive_tft(f17, psi, ell, a)
        assert naive_itft_solve(f17, psi, ell, vals) == a


def test_polymul_known_product(f17):
    assert naive_polymul(f17, [1, 2, 3], [4, 5]) == [4, 13, 5, 15]
    assert naive_polymul(f17, [16], [16]) == [1]
    assert naive_polymul(f17, [0, 0], [0]) == [0, 0]


def test_polymul_rejects_empty(f17):
    with pytest.raises(ValueError):
        naive_polymul(f17, [], [1])
    with pytest.raises(ValueError):
        naive_polymul(f17, [1], [])


def test_inputs_are_not_mutated(f17):
    a = [3, 1, 4, 1]
    b = list(a)
    naive_dft(f17, 13, a)
    naive_tft(f17, 13, 4, a)
    direct_differences(f17, 13, 4, a, [0] * 4)
    naive_itft_solve(f17, 13, 4, a)
    naive_polymul(f17, a, a)
    reference_tft(f17, 13, 4, a)
    assert a == b


def test_big_modulus_fallback_agrees_with_kernels():
    fld = PrimeField.from_modulus(BIG_P)
    assert fld.two_adicity == 32
    rng = random.Random(23)
    for ell in (1, 2, 3, 7, 12, 16):
        plan = make_plan(fld, ell)
        a = [rng.randrange(BIG_P) for _ in range(ell)]
        buf = list(a)
        tft_in_place(plan, buf)
        assert buf == naive_tft(fld, plan.psi, ell, a)
        assert naive_itft_solve(fld, plan.psi, ell, buf) == a


def test_big_modulus_dft_path():
    fld = PrimeField.from_modulus(BIG_P)
    omega = fld.root_of_order(2)
    a = [1, 2, 3, 4]
    got = naive_dft(fld, omega, a)
    # direct evaluation, no shared helpers
    want = [
        sum(c * pow(omega, i * j, BIG_P) for j, c in enumerate(a)) % BIG_P
        for i in range(4)
    ]
    assert got == want


def test_residues_are_canonicalized(f17):
    # oracle inputs may be unreduced; outputs must be in [0, p)
    assert naive_tft(f17, 13, 4, [18, -1, 0, 0]) == naive_tft(f17, 13, 4, [1, 16, 0, 0])
    assert naive_polymul(f17, [18], [2]) == [2]


def test_oracles_and_selftest_run_with_numpy_blocked():
    # a None entry in sys.modules makes "import numpy" raise ImportError,
    # so the child fails if any module it reaches imports numpy
    src = str(Path(tftkit.__file__).resolve().parent.parent)
    tests = str(Path(__file__).resolve().parent)
    code = f"""
import sys
sys.modules["numpy"] = None
sys.path[:0] = [{src!r}, {tests!r}]
from brute_force import reference_tft
from tftkit import DEFAULT_MODULUS, PrimeField, naive_tft
from tftkit.cli import main
for p in (DEFAULT_MODULUS, {BIG_P}):
    fld = PrimeField.from_modulus(p)
    for ell in (1, 2, 3, 5, 16, 33, 100):
        psi = fld.root_of_order((ell - 1).bit_length())
        a = [pow(3, i + 1, p) for i in range(ell)]
        assert naive_tft(fld, psi, ell, a) == reference_tft(fld, psi, ell, a), (p, ell)
sys.exit(main(["selftest", "--max", "16"]))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "operation-bounds: ok", proc.stdout
