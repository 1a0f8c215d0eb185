"""Prime-field arithmetic for NTT-friendly moduli.

A field handle is fixed by its modulus p; from p it derives the
two-adicity s = ord2(p - 1) and a fixed generator of the 2^s-torsion
subgroup.  Elements themselves are plain canonical ints in [0, p); they
carry no reference back to the field, so a buffer of residues costs
nothing beyond the ints it holds.

The transform kernels are generic over a small ring protocol rather than
this class specifically.  A ring handle must provide exactly

    modulus                       attribute, the odd prime p
    add(x, y), sub(x, y)          counted together as additions
    mul(x, y)                     general product
    mul_root(x, y)                product tagged "by a root power"
    mul_pow2(x, y)                product tagged "by a power of 2 or 2^-1"
    fold(buffer, lo, hi, dist)    for j in [lo, hi): (x_j, x_{j+dist}) <-
                                  (x_j + x_{j+dist}, x_j - x_{j+dist})
    butterflies(buffer, size, pairs)
                                  for each (i, a) drawn from pairs, the
                                  Cooley-Tukey step (x, y) <- (x + a*y, x - a*y)
                                  on the two halves of block i of size 2*size
    inverse_butterflies(buffer, size, pairs)
                                  the same blocks, Gentleman-Sande step
                                  (x, y) <- (x + y, a*(x - y))

On this plain handle the tagged variants are aliases of the untagged ones;
the instrumentation module ships a ring that gives each tag its own
counter.  Exponentiation is not a ring member: callers run
``pow_by_squaring`` over the tagged product the power belongs to, so
each of its products is counted in that product's class.  The three
block operations run many butterflies per call, so the kernels'
O(ell log ell) loops make no method call per butterfly.  A custom ring
must implement them as well; the cost model counts each butterfly as one
product by a root power plus two additions, and each fold as two
additions.  Only the prime-field instantiation ships here, but nothing
in the kernels assumes more than the protocol above.
"""

from __future__ import annotations

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


def fold_loop(p: int, buffer, lo: int, hi: int, dist: int) -> int:
    """Replace (x_j, x_{j+dist}) by their sum and difference mod p for
    j in [lo, hi); return the number of folds done."""
    for j in range(lo, hi):
        jj = j + dist
        u = buffer[j]
        w = buffer[jj]
        buffer[j] = (u + w) % p
        buffer[jj] = (u - w) % p
    return max(hi - lo, 0)


def butterfly_loop(p: int, buffer, size: int, pairs) -> int:
    """Cooley-Tukey butterflies mod p: for each (i, a) in pairs, pair
    x_j with y_j = x_{j+size} over block i, j in [2*size*i, 2*size*i + size),
    and replace them by (x + a*y, x - a*y).  Return the butterflies done."""
    done = 0
    for i, alpha in pairs:
        base = i * 2 * size
        for j in range(base, base + size):
            jj = j + size
            u = buffer[j]
            t = alpha * buffer[jj] % p
            buffer[j] = (u + t) % p
            buffer[jj] = (u - t) % p
        done += size
    return done


def inverse_butterfly_loop(p: int, buffer, size: int, pairs) -> int:
    """Gentleman-Sande butterflies mod p over the blocks of
    butterfly_loop: (x, y) becomes (x + y, a*(x - y)).  Return the
    butterflies done."""
    done = 0
    for i, alpha in pairs:
        base = i * 2 * size
        for j in range(base, base + size):
            jj = j + size
            u = buffer[j]
            w = buffer[jj]
            buffer[j] = (u + w) % p
            buffer[jj] = alpha * (u - w) % p
        done += size
    return done


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

    def add(self, x: int, y: int) -> int:
        return (x + y) % self.modulus

    def sub(self, x: int, y: int) -> int:
        return (x - y) % self.modulus

    def mul(self, x: int, y: int) -> int:
        return x * y % self.modulus

    # Tag aliases; CountingField separates these.
    mul_root = mul
    mul_pow2 = mul

    # --- block operations (see the ring protocol above) ---

    def fold(self, buffer, lo: int, hi: int, dist: int) -> None:
        fold_loop(self.modulus, buffer, lo, hi, dist)

    def butterflies(self, buffer, size: int, pairs) -> None:
        butterfly_loop(self.modulus, buffer, size, pairs)

    def inverse_butterflies(self, buffer, size: int, pairs) -> None:
        inverse_butterfly_loop(self.modulus, buffer, size, pairs)

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
