"""In-place truncated Fourier transforms over NTT-friendly prime fields.

The transform kernels evaluate (and invert) a polynomial of any length
ell at ell special points using the caller's buffer as the only array,
with operation counts that grow smoothly in ell.  Brute-force oracles,
operation-count instrumentation, and a CLI round out the package.
"""

from .instrumentation import (
    AuditBuffer,
    BoundReport,
    CountingField,
    OpCounters,
    bound_check,
    measure_transform,
)
from .itft import itft_in_place
from .oracle import naive_dft, naive_itft_solve, naive_polymul, naive_tft
from .polymul import operation_profile, tft_polymul
from .ring import DEFAULT_MODULUS, PrimeField, pow_by_squaring
from .tft import TransformPlan, make_plan, tft_in_place
from .twiddle import bit_reverse, pair_stream, twiddle_forward, twiddle_inverse

__version__ = "0.1.0"

__all__ = [
    "AuditBuffer",
    "BoundReport",
    "CountingField",
    "DEFAULT_MODULUS",
    "OpCounters",
    "PrimeField",
    "TransformPlan",
    "bit_reverse",
    "bound_check",
    "itft_in_place",
    "make_plan",
    "measure_transform",
    "naive_dft",
    "naive_itft_solve",
    "naive_polymul",
    "naive_tft",
    "operation_profile",
    "pair_stream",
    "pow_by_squaring",
    "tft_in_place",
    "tft_polymul",
    "twiddle_forward",
    "twiddle_inverse",
]
