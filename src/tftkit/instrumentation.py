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


# Per-entry cost of each pair-run block member, in the cost model of the
# ring protocol (see ring.py); the radix-4 pair is tallied per run by
# ``TallyRing._drawn``.
_ENTRY_COSTS = {
    "fold": OpCounters(add_sub=2),
    "butterflies": OpCounters(mul_root=1, add_sub=2),
    "inverse_butterflies": OpCounters(mul_root=1, add_sub=2),
    "axpy": OpCounters(mul_root=1, add_sub=1),
    "park": OpCounters(mul_root=1, add_sub=1),
    "restore": OpCounters(mul_root=1, add_sub=2),
    "recombine": OpCounters(mul_root=1, add_sub=1),
    "double": OpCounters(mul_root=1, add_sub=2),
    "scale": OpCounters(mul_pow2=1),
}
_RADIX4 = ("radix4", "inverse_radix4")


class TallyRing:
    """Ring over Z/modulus that tallies what a transform costs without
    running its block operations.

    Each block member adds its cost, read off its arguments, to one of
    four tallies and never touches the buffer: ``_ENTRY_COSTS`` per entry
    of a pair run [lo, hi) (none when hi <= lo), and for the radix-4 pair
    each run as it draws it from runs.  So a whole kernel costs its O(m^2)
    ring calls, whatever ell.  The scalar products ``mul`` (mul_other),
    ``mul_root`` and ``mul_pow2`` and the additions ``add`` and ``sub``
    compute their residue and count one each; they are bound as instance
    attributes closing over the tally list, which is cheaper per call than
    attribute bookkeeping on self.  ``root_power`` takes builtin pow and
    adds to mul_root, in closed form, the e.bit_length() + e.bit_count() - 2
    products (bit_length - 1 squarings, bit_count - 1 multiplies) that
    ``pow_by_squaring`` makes for e >= 1, none for e = 0; e < 0 raises
    ValueError.  A new instance starts with every tally at zero;
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

    def root_power(self, x: int, e: int) -> int:
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if e:
            self._tally[0] += e.bit_length() + e.bit_count() - 2
        return pow(x, e, self.modulus)

    def _drawn(self, runs, size: int):
        """Yield runs, tallying each as it is drawn: per block 4*size
        butterflies and the twiddle products b*b and b*iota, and the
        n - 1 products by step inside a run of n blocks."""
        tally = self._tally
        for run in runs:
            n = run[1]
            tally[0] += (4 * size + 3) * n - 1
            tally[2] += 8 * size * n
            yield run


class CountingField(TallyRing):
    """A TallyRing whose block members run ``PrimeField``'s loops before
    they tally, so a transform on it computes its result as well."""

    __slots__ = ()


def _block_member(name: str, loop=None):
    """TallyRing's member name, or with loop, CountingField's, which runs
    loop first; the radix-4 pair tallies each run as it is drawn.  Each
    member takes PrimeField's parameters, which the kernels pass
    positionally."""
    if name in _RADIX4:
        def member(self, buffer, size, iota, runs):
            runs = self._drawn(runs, size)
            if loop is None:
                for _ in runs:
                    pass
            else:
                loop(self, buffer, size, iota, runs)

        member.__name__ = name
        return member

    cost = _ENTRY_COSTS[name]
    roots, pow2, adds = cost.mul_root, cost.mul_pow2, cost.add_sub

    def count(self, lo, hi):
        n = hi - lo
        if n > 0:
            tally = self._tally
            tally[0] += roots * n
            tally[1] += pow2 * n
            tally[2] += adds * n

    if name == "fold":
        def member(self, buffer, lo, hi, dist):
            if loop is not None:
                loop(self, buffer, lo, hi, dist)
            count(self, lo, hi)
    elif name == "scale":
        def member(self, buffer, lo, hi, c):
            if loop is not None:
                loop(self, buffer, lo, hi, c)
            count(self, lo, hi)
    else:
        def member(self, buffer, lo, hi, dist, alpha):
            if loop is not None:
                loop(self, buffer, lo, hi, dist, alpha)
            count(self, lo, hi)

    member.__name__ = name
    return member


for _name in (*_ENTRY_COSTS, *_RADIX4):
    setattr(TallyRing, _name, _block_member(_name))
    setattr(CountingField, _name, _block_member(_name, getattr(PrimeField, _name)))
del _name


class _Length:
    """The buffer measure_transform counts on: len is ell, iteration is
    empty (so the kernels' entry-type scan costs nothing), and only the
    one entry of ell = 1 can be read, as 0, or written, to no effect."""

    __slots__ = ("ell",)

    def __init__(self, ell: int) -> None:
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


def bound_check(ell: int, counters: OpCounters, kind: str) -> BoundReport:
    """The same as BoundReport(ell, counters, kind)."""
    return BoundReport(ell, counters, kind)


def measure_transform(field, ell: int, kind: str) -> OpCounters:
    """Counters for one forward or inverse transform of length ell.

    Counts do not depend on the buffer contents, so the transform runs
    on a TallyRing over a buffer that holds only its length, at the cost
    of the kernel's O(m^2) ring calls for any ell the field supports.
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
