"""In-place truncated Fourier transforms over NTT-friendly prime fields.

The transform kernels evaluate (and invert) a polynomial of any length
ell at ell special points using the caller's buffer as the only array,
with operation counts that grow smoothly in ell.  Brute-force oracles,
operation-count instrumentation, and a CLI round out the package.
"""

from .itft import itft_in_place
from .polymul import tft_polymul
from .ring import DEFAULT_MODULUS, PrimeField
from .tft import TransformPlan, make_plan, tft_in_place
from .twiddle import bit_reverse

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
    "itft_in_place",
    "make_plan",
    "measure_transform",
    "naive_polymul",
    "naive_tft",
    "tft_in_place",
    "tft_polymul",
]

# The instrumentation and the oracles are imported on first use of one of
# their names (PEP 562), so that importing the package, or running the CLI's
# transform and mul commands, does not pay to compile them; dir() lists
# those names before then too.
_LAZY = dict.fromkeys(
    ("AuditBuffer", "BoundReport", "CountingField", "OpCounters", "measure_transform"),
    "instrumentation",
) | dict.fromkeys(("naive_polymul", "naive_tft"), "oracle")


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(f"{__name__}.{_LAZY[name]}", fromlist=[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
