"""Prime-field arithmetic for NTT-friendly moduli.

A field handle is fixed by its modulus p; from p it derives the
two-adicity s = ord2(p - 1) and a fixed generator of the 2^s-torsion
subgroup.  Elements themselves are plain canonical ints in [0, p); they
carry no reference back to the field, so a buffer of residues costs
nothing beyond the ints it holds.

The transform kernels are generic over a small ring protocol rather than
this class specifically.  A ring handle provides the members below; the
kernels and ``tft_polymul`` use every one of them, and nothing else.

    modulus                       attribute, the odd prime p
    mul(x, y)                     general product
    mul_pow2(x, y)                product tagged "by a power of 2 or 2^-1"
    fold(buffer, lo, hi, dist)    for j in [lo, hi): (x_j, x_{j+dist}) <-
                                  (x_j + x_{j+dist}, x_j - x_{j+dist})
    butterflies(buffer, lo, hi, dist, alpha)
                                  for j in [lo, hi), the Cooley-Tukey step
                                  (x, y) <- (x + a*y, x - a*y) on
                                  (x_j, x_{j+dist}); dist may be negative
    inverse_butterflies(buffer, lo, hi, dist, alpha)
                                  the same pairs, Gentleman-Sande step
                                  (x, y) <- (x + y, a*(x - y))
    radix4(buffer, size, iota, m, psi, q)
                                  two levels in one sweep over blocks of
                                  size 4*size: block 0, at [0, 4*size),
                                  with b = 1, and then, when q > 1, for
                                  each run (i, n, b, step, bits) of
                                  twiddle.pair_stream(ring, m, psi, q),
                                  the n blocks from block i on, their low
                                  bits counted in bit-reversed order,
                                  with twiddles b, b*step, b*step^2, ...
                                  (psi is not read when q = 1); each
                                  block takes the Cooley-Tukey step with
                                  b*b on its halves, then with b and
                                  b*iota on its quarters
    inverse_radix4(buffer, size, iota, m, psi, q)
                                  the same blocks, Gentleman-Sande steps
                                  in the reverse order: b on the first
                                  quarter pair, b*iota with the
                                  subtraction reversed (iota^-1 = -iota
                                  for iota of order 4) on the second,
                                  then b*b on the halves
    root_power(x, e)              x^e for e >= 0, tagged "by a root power"

and six runs for the rightmost branch's special 2x2 steps and the
closing sweep, on (x, y) = (x_j, x_{j+dist}) for j in [lo, hi):

    axpy(buffer, lo, hi, dist, alpha)       x <- x + a*y
    park(buffer, lo, hi, dist, alpha)       (x, y) <- (y, x - a*y)
    restore(buffer, lo, hi, dist, alpha)    (x, y) <- (2a*x + y, x)
    recombine(buffer, lo, hi, dist, alpha)  y <- x - a*y
    double(buffer, lo, hi, dist, alpha)     x <- 2x - a*y
    scale(buffer, lo, hi, c)                x <- c*x

On this plain handle ``mul_pow2`` and ``mul_root``, the product tagged
"by a root power", are aliases of ``mul``.  ``mul_root`` is not a
member: the radix-4 members here walk ``pair_stream``'s runs with
builtin pow and products of their own, so no kernel reaches it; it is
the product ``pair_stream`` takes.  The instrumentation module ships
two rings that give each tag its own counter, one of which runs no
block loop; their radix-4 members tally in closed form what drawing
``pair_stream`` over their own ``mul_root`` would (see ``TallyRing``),
and a custom ring's may draw the stream itself.  ``root_power`` may compute
x^e any way (here builtin pow), but it costs, and a counting ring
counts, the products ``pow_by_squaring`` makes over ``mul_root``; the
inverse kernel's one power of 2^-1 runs ``pow_by_squaring`` over
``mul_pow2``.  The block operations run many
entries per call, and on this handle they are the loops themselves, so
no kernel loop makes a method call per entry or per radix-4 block.  A
custom ring must implement them as well.  The cost model counts each
butterfly as one product by a root power plus two additions, and each
fold as two additions.  A radix-4 block is 4*size butterflies plus the
two products b*b and b*iota that give its other twiddles, and a run of
n blocks adds the n - 1 products by step that give its twiddles after
the first: (4*size + 3)*n - 1 products by a root power and 8*size*n
additions per run, beside the powers and products ``pair_stream``
makes between runs.  Block 0 costs what its two folds and one radix-2
block with iota would: size products by a root power and 8*size
additions.  An axpy,
park or recombine entry is one product by a root power and one
addition, a restore or double entry the same product and two additions
(a doubling is an addition), and a scale entry one product by a power
of 2^-1.  ``PrimeField.restore`` forms 2a once per run, so it executes
one addition per entry fewer than the model charges; the counts stay
the model's.  Every full butterfly outside a radix-4 call is a radix-2 run
with one twiddle: the blocks a level pair does not cover (a leftover
half block, an unpaired top level) and the rightmost-branch passes'
full runs.  Only the prime-field instantiation
ships here, but nothing in the kernels assumes more than the protocol
above.
"""

from operator import index

from ._frozen import Frozen

DEFAULT_MODULUS = 998244353  # 119 * 2^23 + 1

# Deterministic Miller-Rabin witness set.  The primes up to 41 are exact
# for all n below psi_13, the smallest strong pseudoprime to all of them
# (Sorenson & Webster, Math. Comp. 2017); the primes up to 37 alone are
# fooled by psi_12 = 318665857834031151167461.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981  # psi_13, about 3.3e24


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin test, deterministic (exact) for n < _MR_EXACT_BELOW."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n % w == 0:
            return n == w
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^r, d odd
    d = (n - 1) >> r
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def pow_by_squaring(mul, x: int, e: int) -> int:
    """Right-to-left square and multiply using the supplied product.

    Performs at most 2*floor(log2(e)) + 1 calls to mul for e >= 1, and
    exactly d calls for e = 2^d.  e = 0 returns 1 with no calls.
    """
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    acc = None
    while e:
        if e & 1:
            acc = x if acc is None else mul(acc, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return 1 if acc is None else acc


def _require_prime(p: int) -> None:
    if p >= _MR_EXACT_BELOW:
        raise ValueError(
            f"modulus {p} is too large: primality is exact only below {_MR_EXACT_BELOW}"
        )
    if p < 3 or p % 2 == 0 or not is_probable_prime(p):
        raise ValueError(f"modulus must be an odd prime, got {p}")


class PrimeField(Frozen):
    """Arithmetic handle for Z/p with p an odd prime, p - 1 = odd * 2^s.

    PrimeField(p) takes the modulus only and derives the other two
    attributes from it:

        modulus         the prime p, through operator.index, below psi_13
                        (about 3.3e24) so that primality is exact.
        two_adicity     s = ord2(p - 1); the largest power-of-two
                        transform size the field supports is 2^s.
        generator_root  an element of multiplicative order exactly 2^s,
                        c^((p-1)/2^s) for the smallest quadratic
                        non-residue c, so construction is deterministic.
    """

    __slots__ = ("modulus", "two_adicity", "generator_root")

    def __init__(self, modulus: int) -> None:
        p = index(modulus)
        _require_prime(p)
        s = ((p - 1) & (1 - p)).bit_length() - 1
        odd = (p - 1) >> s
        c = 2
        while pow(c, (p - 1) // 2, p) != p - 1:
            c += 1
        super().__init__(p, s, pow(c, odd, p))

    @classmethod
    def from_modulus(cls, p: int) -> "PrimeField":
        """The field of modulus p; the same as PrimeField(p)."""
        return cls(p)

    # --- element arithmetic (elements are canonical ints in [0, p)) ---

    def mul(self, x: int, y: int) -> int:
        return x * y % self.modulus

    # Tag aliases; CountingField separates these.  mul_root is for
    # twiddle.pair_stream, which the radix-4 members walk inline.
    mul_root = mul
    mul_pow2 = mul

    def root_power(self, x: int, e: int) -> int:
        return pow(x, e, self.modulus)

    # --- block operations (see the ring protocol above): the loops
    # themselves, each reading the modulus once ---

    def fold(self, buffer, lo: int, hi: int, dist: int) -> None:
        p = self.modulus
        for j in range(lo, hi):
            jj = j + dist
            u = buffer[j]
            w = buffer[jj]
            buffer[j] = (u + w) % p
            buffer[jj] = (u - w) % p

    def butterflies(self, buffer, lo: int, hi: int, dist: int, alpha: int) -> None:
        p = self.modulus
        for j in range(lo, hi):
            jj = j + dist
            u = buffer[j]
            t = alpha * buffer[jj] % p
            buffer[j] = (u + t) % p
            buffer[jj] = (u - t) % p

    def inverse_butterflies(self, buffer, lo: int, hi: int, dist: int, alpha: int) -> None:
        # the product is stored first, while the buffer still holds u and w,
        # and j + dist is not kept, so the traced scratch of the branch
        # passes' runs stays at that of the scalar loops they replace
        p = self.modulus
        for j in range(lo, hi):
            u = buffer[j]
            w = buffer[j + dist]
            buffer[j + dist] = alpha * (u - w) % p
            buffer[j] = (u + w) % p

    def radix4(self, buffer, size: int, iota: int, m: int, psi: int, q: int) -> None:
        _level_pair(self.modulus, buffer, size, iota, m, psi, q, True)

    def inverse_radix4(self, buffer, size: int, iota: int, m: int, psi: int, q: int) -> None:
        _level_pair(self.modulus, buffer, size, iota, m, psi, q, False)

    # The runs below take fold's pairs; each step's one expression has
    # the residue of the scalar ring calls it stands for.

    def axpy(self, buffer, lo: int, hi: int, dist: int, alpha: int) -> None:
        p = self.modulus
        for j in range(lo, hi):
            buffer[j] = (buffer[j] + alpha * buffer[j + dist]) % p

    def park(self, buffer, lo: int, hi: int, dist: int, alpha: int) -> None:
        p = self.modulus
        for j in range(lo, hi):
            w = buffer[j + dist]
            buffer[j + dist] = (buffer[j] - alpha * w) % p
            buffer[j] = w

    def restore(self, buffer, lo: int, hi: int, dist: int, alpha: int) -> None:
        p = self.modulus
        twice = 2 * alpha
        for j in range(lo, hi):
            u = buffer[j]
            buffer[j] = (twice * u + buffer[j + dist]) % p
            buffer[j + dist] = u

    def recombine(self, buffer, lo: int, hi: int, dist: int, alpha: int) -> None:
        p = self.modulus
        for j in range(lo, hi):
            buffer[j + dist] = (buffer[j] - alpha * buffer[j + dist]) % p

    def double(self, buffer, lo: int, hi: int, dist: int, alpha: int) -> None:
        p = self.modulus
        for j in range(lo, hi):
            buffer[j] = (2 * buffer[j] - alpha * buffer[j + dist]) % p

    def scale(self, buffer, lo: int, hi: int, c: int) -> None:
        p = self.modulus
        for j in range(lo, hi):
            buffer[j] = c * buffer[j] % p

    # --- field-only helper: not a ring member, so builtin pow ---

    def root_of_order(self, m: int) -> int:
        """Principal 2^m-th root of unity, generator_root^(2^(s-m)).

        Raises ValueError when m exceeds the field's two-adicity.
        """
        if not 0 <= m <= self.two_adicity:
            raise ValueError(
                f"no root of order 2^{m}: field supports at most 2^{self.two_adicity}"
            )
        return pow(self.generator_root, 1 << (self.two_adicity - m), self.modulus)

def _level_pair(p, buffer, size, iota, m, psi, q, forward):
    # Both radix-4 members, the direction tested once per block.  Each
    # name is rebound as soon as its value is spent, and u, t and x to
    # what was stored, so an input's int is freed by the store into its
    # slot and the traced scratch stays at radix-2's; the inverse forms
    # the upper level's outputs from the four inputs directly.
    size2, size3, size4 = 2 * size, 3 * size, 4 * size
    if forward:
        for j in range(size):  # block 0: b = b*b = 1, b*iota = iota
            u = buffer[j]
            w = buffer[j + size]
            t = buffer[j + size2]
            s = buffer[j + size3]
            x = iota * (w - s) % p
            s += w
            w = u - t
            t += u
            u = buffer[j] = (t + s) % p
            t = buffer[j + size] = (t - s) % p
            buffer[j + size2] = (w + x) % p
            buffer[j + size3] = (w - x) % p
    else:
        for j in range(size):  # block 0: b = b*b = 1, b*iota^-1 = p - iota
            u = buffer[j]
            w = buffer[j + size]
            x = buffer[j + size2]
            t = buffer[j + size3]
            s = u - w
            v = (u + w - x - t) % p
            u = buffer[j] = (u + w + x + t) % p
            w = iota * (t - x) % p
            x = buffer[j + size2] = v
            buffer[j + size] = (s + w) % p
            buffer[j + size3] = (s - w) % p
    if q == 1:
        return
    # The runs of twiddle.pair_stream(ring, m, psi, q), walked with its
    # exponents (see _runs there) so that no generator outlives a block:
    # first blocks 2^(bits-1).. of the top digit, then one run per lower
    # digit of q, each from offset on with factors scale*step^j.
    bits = q.bit_length() - 1
    lift = min(m - 1 - bits, 1)
    seed = pow(psi, 1 << (m - 1 - bits - lift), p)
    b = step = pow(seed, 1 << lift, p)
    i, n = 1 << bits >> 1, (1 << bits) - 1
    offset, scale = 1 << bits, 1
    while True:
        top = 1 << bits >> 1
        while True:
            a = b * b % p
            c = b * iota % p
            if size == 1 and forward:  # the bottom pair: one 4-entry block, no loop
                j = 4 * i
                u = buffer[j]
                w = buffer[j + 1]
                t = a * buffer[j + 2] % p
                s = a * buffer[j + 3] % p
                x = c * (w - s) % p
                s = b * (w + s) % p
                w = u - t
                t += u
                u = buffer[j] = (t + s) % p
                t = buffer[j + 1] = (t - s) % p
                buffer[j + 2] = (w + x) % p
                buffer[j + 3] = (w - x) % p
            elif size == 1:
                j = 4 * i
                u = buffer[j]
                w = buffer[j + 1]
                x = buffer[j + 2]
                t = buffer[j + 3]
                s = b * (u - w) % p
                v = a * (u + w - x - t) % p
                u = buffer[j] = (u + w + x + t) % p
                w = c * (t - x) % p
                x = buffer[j + 2] = v
                buffer[j + 1] = (s + w) % p
                buffer[j + 3] = a * (s - w) % p
            elif forward:
                for j in range(size4 * i, size4 * i + size):
                    u = buffer[j]
                    w = buffer[j + size]
                    t = a * buffer[j + size2] % p
                    s = a * buffer[j + size3] % p
                    x = c * (w - s) % p
                    s = b * (w + s) % p
                    w = u - t
                    t += u
                    u = buffer[j] = (t + s) % p
                    t = buffer[j + size] = (t - s) % p
                    buffer[j + size2] = (w + x) % p
                    buffer[j + size3] = (w - x) % p
            else:
                for j in range(size4 * i, size4 * i + size):
                    u = buffer[j]
                    w = buffer[j + size]
                    x = buffer[j + size2]
                    t = buffer[j + size3]
                    s = b * (u - w) % p
                    v = a * (u + w - x - t) % p
                    u = buffer[j] = (u + w + x + t) % p
                    w = c * (t - x) % p
                    x = buffer[j + size2] = v
                    buffer[j + size] = (s + w) % p
                    buffer[j + size3] = a * (s - w) % p
            n -= 1
            if not n:
                break
            bit = top  # the next block: i's low bits counted in bit-reversed order
            while i & bit:
                i ^= bit
                bit >>= 1
            i |= bit
            b = b * step % p
        if offset >= q:
            return
        prev, bits = bits, (q - offset).bit_length() - 1
        scale = scale * seed % p
        seed = pow(seed, 1 << (prev - bits), p)
        i, n, b, step = offset, 1 << bits, scale, seed * seed % p
        offset += 1 << bits
