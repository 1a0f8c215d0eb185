"""Operation counting and buffer-access auditing.

The cost claims this package makes are stated per operation class:
additions/subtractions, multiplications by powers of the root, and
multiplications by powers of 2 or its inverse.  ``TallyRing``
implements the ring protocol with one counter per class and block
operations that only count, so a transform run becomes a measurement
in O(m^2) ring calls; ``CountingField`` counts the same way while
computing the transform.  ``BoundReport`` turns the measured counters
into a pass/fail verdict against the declared bounds.  ``AuditBuffer``
wraps the data array to prove the in-place claim: any index outside
[0, len) raises and is flagged.

The production kernels are generic over the ring, so none of this
costs anything when a plain PrimeField is passed.
"""

import sys
from operator import index

from ._frozen import Frozen
from .itft import itft_in_place
from .ring import PrimeField
from .tft import make_plan, tft_in_place

__all__ = [
    "CSV_HEADER",
    "OpCounters",
    "TallyRing",
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


class TallyRing:
    """Ring over Z/modulus that tallies what a transform costs without
    running its block operations.

    Each block member adds its cost, read off its arguments, to four
    tallies and never touches the buffer.  A pair run [lo, hi) states
    its per-entry cost through ``_entries`` (nothing when hi <= lo);
    members of equal cost and parameters are one method under several
    names.  The radix-4 pair tallies its block 0 and then each run as
    it draws it from runs.  So a whole kernel costs its O(m^2) ring
    calls, whatever ell.  The scalar products ``mul`` (mul_other),
    ``mul_root`` and ``mul_pow2`` compute their residue and count one
    each.  ``root_power`` takes
    builtin pow and adds to mul_root, in closed form, the
    e.bit_length() + e.bit_count() - 2 products (bit_length - 1
    squarings, bit_count - 1 multiplies) that ``pow_by_squaring`` makes
    for e >= 1, none for e = 0; e < 0 raises ValueError.  A new instance
    starts with every tally at zero; operator.index converts the modulus.
    """

    __slots__ = ("modulus", "_tally")

    def __init__(self, modulus: int) -> None:
        self.modulus = index(modulus)
        self._tally = [0, 0, 0, 0]  # mul_root, mul_pow2, add_sub, mul_other

    def reset(self) -> None:
        self._tally[:] = (0, 0, 0, 0)

    @property
    def counters(self) -> OpCounters:
        t = self._tally
        return OpCounters(mul_root=t[0], mul_pow2=t[1], add_sub=t[2], mul_other=t[3])

    def mul(self, x: int, y: int) -> int:
        self._tally[3] += 1
        return x * y % self.modulus

    def mul_root(self, x: int, y: int) -> int:
        self._tally[0] += 1
        return x * y % self.modulus

    def mul_pow2(self, x: int, y: int) -> int:
        self._tally[1] += 1
        return x * y % self.modulus

    def root_power(self, x: int, e: int) -> int:
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if e:
            self._tally[0] += e.bit_length() + e.bit_count() - 2
        return pow(x, e, self.modulus)

    # --- block operations: the cost model of ring.py, per entry ---

    def _entries(self, lo: int, hi: int, roots: int, adds: int, pow2: int = 0) -> None:
        n = hi - lo
        if n > 0:
            tally = self._tally
            tally[0] += roots * n
            tally[1] += pow2 * n
            tally[2] += adds * n

    def fold(self, buffer, lo: int, hi: int, dist: int) -> None:
        self._entries(lo, hi, 0, 2)

    def butterflies(self, buffer, lo: int, hi: int, dist: int, alpha: int) -> None:
        self._entries(lo, hi, 1, 2)

    def axpy(self, buffer, lo: int, hi: int, dist: int, alpha: int) -> None:
        self._entries(lo, hi, 1, 1)

    def scale(self, buffer, lo: int, hi: int, c: int) -> None:
        self._entries(lo, hi, 0, 0, 1)

    def radix4(self, buffer, size: int, iota: int, runs) -> None:
        for _ in self._drawn(runs, size):
            pass

    inverse_butterflies = restore = double = butterflies
    park = recombine = axpy
    inverse_radix4 = radix4

    def _drawn(self, runs, size: int):
        """Yield runs, tallying block 0 before the first and then each run
        as it is drawn.  Block 0 costs size products by iota and 8*size
        additions, what its two folds and one radix-2 block with iota
        would; a run of n blocks costs per block 4*size butterflies and
        the twiddle products b*b and b*iota, and the n - 1 products by
        step inside the run."""
        tally = self._tally
        tally[0] += size
        tally[2] += 8 * size
        for run in runs:
            n = run[1]
            tally[0] += (4 * size + 3) * n - 1
            tally[2] += 8 * size * n
            yield run


class CountingField(TallyRing):
    """A TallyRing whose block members run ``PrimeField``'s loops before
    they tally, so a transform on it computes its result as well.  Its
    ``add`` (x + y, one addition) is outside the ring protocol: no kernel
    calls it, and ``perfbench/selfcheck.py`` injects counts through it."""

    __slots__ = ()

    def add(self, x: int, y: int) -> int:
        self._tally[2] += 1
        return (x + y) % self.modulus


def _computing(name: str):
    """CountingField's member name: PrimeField's loop, then TallyRing's
    tally; the radix-4 pair tallies through ``_drawn`` as the loop draws
    its runs, block 0 at the first draw.  Each member keeps
    PrimeField's parameter list."""
    loop, count = getattr(PrimeField, name), getattr(TallyRing, name)
    if name in ("radix4", "inverse_radix4"):
        def member(self, buffer, size, iota, runs):
            loop(self, buffer, size, iota, self._drawn(runs, size))
    elif name == "fold":
        def member(self, buffer, lo, hi, dist):
            loop(self, buffer, lo, hi, dist)
            count(self, buffer, lo, hi, dist)
    elif name == "scale":
        def member(self, buffer, lo, hi, c):
            loop(self, buffer, lo, hi, c)
            count(self, buffer, lo, hi, c)
    else:
        def member(self, buffer, lo, hi, dist, alpha):
            loop(self, buffer, lo, hi, dist, alpha)
            count(self, buffer, lo, hi, dist, alpha)

    member.__name__ = name
    return member


for _name in ("fold", "butterflies", "inverse_butterflies", "radix4", "inverse_radix4",
              "axpy", "park", "restore", "recombine", "double", "scale"):
    setattr(CountingField, _name, _computing(_name))
del _name


class _Length:
    """The buffer measure_transform counts on: len is ell, iteration is
    empty (so the kernels' entry-type scan costs nothing), and only the
    one entry of ell = 1 can be read, as 0, or written, to no effect.
    len() reports at most sys.maxsize, so no longer buffer is made."""

    __slots__ = ("ell",)

    def __init__(self, ell: int) -> None:
        if ell > sys.maxsize:
            raise ValueError(
                f"length {ell} exceeds {sys.maxsize}, the longest a counting buffer can be"
            )
        self.ell = ell

    def __len__(self) -> int:
        return self.ell

    def __iter__(self):
        return iter(())

    def __getitem__(self, index) -> int:
        if index != 0 or self.ell != 1:
            raise IndexError(f"a counting buffer holds no entry {index!r}")
        return 0

    def __setitem__(self, index, value) -> None:
        self[index]  # the read's check; the value is dropped


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


bound_check = BoundReport


def measure_transform(field, ell: int, kind: str) -> OpCounters:
    """Counters for one forward or inverse transform of length ell.

    Counts do not depend on the buffer contents, so the transform runs
    on a TallyRing over a buffer that holds only its length, at the cost
    of the kernel's O(m^2) ring calls for any ell the field supports up
    to sys.maxsize (2^63 - 1 on 64-bit builds); a longer ell, which only
    a field of two-adicity 63 or more allows, raises ValueError.
    """
    plan = make_plan(field, ell)
    ring = TallyRing(field.modulus)
    buffer = _Length(plan.ell)
    if kind == "forward":
        tft_in_place(plan, buffer, ring)
    elif kind == "inverse":
        itft_in_place(plan, buffer, ring)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return ring.counters
