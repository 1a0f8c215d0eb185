"""Operation counting and buffer-access auditing.

The cost claims this package makes are stated per operation class:
additions/subtractions, multiplications by powers of the root, and
multiplications by powers of 2 or its inverse.  ``CountingField``
implements the ring protocol with one counter per class so a transform
run becomes a measurement; ``BoundReport`` turns the measured counters
into a pass/fail verdict against the declared bounds.  ``AuditBuffer``
wraps the data array to prove the in-place claim: any index outside
[0, len) raises and is flagged.

The production kernels are generic over the ring, so none of this
costs anything when a plain PrimeField is passed.
"""

from operator import index

from ._frozen import Frozen
from .itft import itft_in_place
from .ring import PrimeField
from .tft import make_plan, tft_in_place

__all__ = [
    "CSV_HEADER",
    "OpCounters",
    "CountingField",
    "AuditBuffer",
    "BoundReport",
    "bound_check",
    "measure_transform",
]


class OpCounters(Frozen):
    """Snapshot of the four operation-class tallies."""

    __slots__ = ("mul_root", "mul_pow2", "add_sub", "mul_other")

    def __init__(
        self, mul_root: int = 0, mul_pow2: int = 0, add_sub: int = 0, mul_other: int = 0
    ) -> None:
        super().__init__(mul_root, mul_pow2, add_sub, mul_other)

    @property
    def total(self) -> int:
        return self.mul_root + self.mul_pow2 + self.add_sub + self.mul_other


class CountingField:
    """Ring over Z/modulus that tallies every operation it performs.

    The tallies live in one shared list closed over by the scalar
    arithmetic methods, which are bound as instance attributes in
    __init__: the twiddle generator and the inverse's power of 2^-1
    call them once per product, and closure access to the tally is
    measurably cheaper than attribute bookkeeping on self.
    ``root_power`` takes builtin pow and adds to mul_root, in closed
    form, the e.bit_length() + e.bit_count() - 2 products (bit_length - 1
    squarings, bit_count - 1 multiplies) that ``pow_by_squaring`` makes
    for e >= 1, none for e = 0; e < 0 raises ValueError.  The block
    operations run PrimeField's, then tally from their arguments the
    max(hi - lo, 0) entries of a run, or each radix-4 run of n blocks
    as the loop draws it, at the ring protocol's cost: one mul_root and
    two add_sub per butterfly, two add_sub per fold, two more mul_root
    per radix-4 block for its twiddles b*b and b*iota and n - 1 per run
    for its steps, one mul_root and one add_sub per axpy,
    park or recombine entry, one mul_root and two add_sub per restore
    or double entry (a doubling counts as an addition, matching the
    cost model the bounds are stated in), and one mul_pow2 per scale
    entry.  A new instance starts with every tally at zero;
    operator.index converts the modulus.
    """

    __slots__ = ("modulus", "_tally", "add", "sub", "mul", "mul_root", "mul_pow2")

    def __init__(self, modulus: int) -> None:
        p = index(modulus)
        self.modulus = p
        tally = [0, 0, 0, 0]  # mul_root, mul_pow2, add_sub, mul_other
        self._tally = tally

        def add(x: int, y: int) -> int:
            tally[2] += 1
            return (x + y) % p

        def sub(x: int, y: int) -> int:
            tally[2] += 1
            return (x - y) % p

        def product(slot: int):
            def mul(x: int, y: int) -> int:
                tally[slot] += 1
                return x * y % p

            return mul

        self.add = add
        self.sub = sub
        self.mul = product(3)
        self.mul_root = product(0)
        self.mul_pow2 = product(1)

    def reset(self) -> None:
        self._tally[:] = (0, 0, 0, 0)

    @property
    def counters(self) -> OpCounters:
        t = self._tally
        return OpCounters(mul_root=t[0], mul_pow2=t[1], add_sub=t[2], mul_other=t[3])

    def fold(self, buffer, lo: int, hi: int, dist: int) -> None:
        PrimeField.fold(self, buffer, lo, hi, dist)
        self._tally[2] += 2 * max(hi - lo, 0)

    def butterflies(self, buffer, lo: int, hi: int, dist: int, alpha: int) -> None:
        PrimeField.butterflies(self, buffer, lo, hi, dist, alpha)
        self._run(hi - lo, 2)

    def inverse_butterflies(self, buffer, lo: int, hi: int, dist: int, alpha: int) -> None:
        PrimeField.inverse_butterflies(self, buffer, lo, hi, dist, alpha)
        self._run(hi - lo, 2)

    def root_power(self, x: int, e: int) -> int:
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if e:
            self._tally[0] += e.bit_length() + e.bit_count() - 2
        return pow(x, e, self.modulus)

    def axpy(self, buffer, lo: int, hi: int, dist: int, alpha: int) -> None:
        PrimeField.axpy(self, buffer, lo, hi, dist, alpha)
        self._run(hi - lo, 1)

    def park(self, buffer, lo: int, hi: int, dist: int, alpha: int) -> None:
        PrimeField.park(self, buffer, lo, hi, dist, alpha)
        self._run(hi - lo, 1)

    def restore(self, buffer, lo: int, hi: int, dist: int, alpha: int) -> None:
        PrimeField.restore(self, buffer, lo, hi, dist, alpha)
        self._run(hi - lo, 2)

    def recombine(self, buffer, lo: int, hi: int, dist: int, alpha: int) -> None:
        PrimeField.recombine(self, buffer, lo, hi, dist, alpha)
        self._run(hi - lo, 1)

    def double(self, buffer, lo: int, hi: int, dist: int, alpha: int) -> None:
        PrimeField.double(self, buffer, lo, hi, dist, alpha)
        self._run(hi - lo, 2)

    def scale(self, buffer, lo: int, hi: int, c: int) -> None:
        PrimeField.scale(self, buffer, lo, hi, c)
        self._tally[1] += max(hi - lo, 0)

    def _run(self, n: int, adds: int) -> None:
        """Tally max(n, 0) entries of one mul_root and adds add_sub each."""
        n = max(n, 0)
        self._tally[0] += n
        self._tally[2] += adds * n

    def radix4(self, buffer, size: int, iota: int, runs) -> None:
        PrimeField.radix4(self, buffer, size, iota, self._drawn(runs, size))

    def inverse_radix4(self, buffer, size: int, iota: int, runs) -> None:
        PrimeField.inverse_radix4(self, buffer, size, iota, self._drawn(runs, size))

    def _drawn(self, runs, size: int):
        """Yield runs, tallying each as the loop draws it: per block 4*size
        butterflies and the twiddle products b*b and b*iota, and the
        n - 1 products by step inside a run of n blocks."""
        tally = self._tally
        for run in runs:
            n = run[1]
            tally[0] += (4 * size + 3) * n - 1
            tally[2] += 8 * size * n
            yield run


class AuditBuffer:
    """Array wrapper proving a kernel stayed inside its own slice.

    Records the lowest and highest index touched (both None until the
    first access, then set together); any read or write outside
    [0, len), or with a non-integer index, sets ``oob`` and raises
    IndexError.  Each access does this inline, in one frame.
    Iteration reads the wrapped list unrecorded; it serves the kernels'
    entry-type check, and the passes only index.
    """

    __slots__ = ("inner", "lo", "hi", "oob")

    def __init__(self, data) -> None:
        self.inner = list(data)
        self.lo = None
        self.hi = None
        self.oob = False

    def __len__(self) -> int:
        return len(self.inner)

    def __iter__(self):
        return iter(self.inner)

    def __getitem__(self, index) -> int:
        inner = self.inner
        if not isinstance(index, int) or not 0 <= index < len(inner):
            self.oob = True
            raise IndexError(f"audited access at {index!r} outside [0, {len(inner)})")
        if self.lo is None:
            self.lo = self.hi = index
        elif index < self.lo:
            self.lo = index
        elif index > self.hi:
            self.hi = index
        return inner[index]

    def __setitem__(self, index, value) -> None:
        inner = self.inner
        if not isinstance(index, int) or not 0 <= index < len(inner):
            self.oob = True
            raise IndexError(f"audited access at {index!r} outside [0, {len(inner)})")
        if self.lo is None:
            self.lo = self.hi = index
        elif index < self.lo:
            self.lo = index
        elif index > self.hi:
            self.hi = index
        inner[index] = value


# Column names for BoundReport.csv_row, in order.
CSV_HEADER = "l,kind,mul_root,mul_pow2,add_sub,add_bound,root_bound,pow2_bound,pass"


class BoundReport(Frozen):
    """Measured counters for one length-ell transform next to the three
    per-class bounds, which it derives from ell and kind:

    forward:  add_sub <= ell*floor(lg ell) + 2*ell (no slack);
              mul_root <= sum over the power-of-two split ell = sum l_r
              of (l_r/2)*lg(l_r), plus 2*ell + 8*(m+1)^2 slack;
              mul_pow2 must be 0.
    inverse:  add_sub <= ell*floor(lg ell) + 3*ell (no slack);
              mul_root <= (ell/2)*floor(lg ell) + 2*ell + 8*(m+1)^2;
              mul_pow2 <= 2^m + 2*ceil(lg(m+2)) + 4.

    mul_other must be 0 for both kinds; m = ceil(lg ell) throughout.
    operator.index refuses a float ell; ell < 1 or any other kind raises
    ValueError.  The sharper claim at a power of two n, exactly n*lg n
    additions, is gated by the tests.
    """

    __slots__ = ("ell", "kind", "counters", "add_bound", "root_bound", "pow2_bound")

    def __init__(self, ell: int, counters: OpCounters, kind: str) -> None:
        ell = index(ell)
        if ell < 1:
            raise ValueError("ell must be at least 1")
        floor_log = ell.bit_length() - 1
        m = (ell - 1).bit_length()
        slack = 8 * (m + 1) ** 2
        if kind == "forward":
            add_bound = ell * floor_log + 2 * ell
            split = sum((1 << e) * e // 2 for e in range(ell.bit_length()) if ell >> e & 1)
            root_bound = split + 2 * ell + slack
            pow2_bound = 0
        elif kind == "inverse":
            add_bound = ell * floor_log + 3 * ell
            root_bound = ell * floor_log // 2 + 2 * ell + slack
            pow2_bound = (1 << m) + 2 * (m + 1).bit_length() + 4
        else:
            raise ValueError(f"unknown kind {kind!r}")
        super().__init__(ell, kind, counters, add_bound, root_bound, pow2_bound)

    @property
    def passed(self) -> bool:
        c = self.counters
        return (
            c.add_sub <= self.add_bound
            and c.mul_root <= self.root_bound
            and c.mul_pow2 <= self.pow2_bound
            and c.mul_other == 0
        )

    def csv_row(self) -> str:
        c = self.counters
        return (
            f"{self.ell},{self.kind},{c.mul_root},{c.mul_pow2},{c.add_sub},"
            f"{self.add_bound},{self.root_bound},{self.pow2_bound},{int(self.passed)}"
        )


def bound_check(ell: int, counters: OpCounters, kind: str) -> BoundReport:
    """The same as BoundReport(ell, counters, kind)."""
    return BoundReport(ell, counters, kind)


def measure_transform(field, ell: int, kind: str) -> OpCounters:
    """Counters for one forward or inverse transform of length ell.

    Counts do not depend on the buffer contents, so a zero buffer
    measures the true cost.
    """
    plan = make_plan(field, ell)
    ring = CountingField(field.modulus)
    buffer = [0] * ell
    if kind == "forward":
        tft_in_place(plan, buffer, ring)
    elif kind == "inverse":
        itft_in_place(plan, buffer, ring)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return ring.counters
