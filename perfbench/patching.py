"""Temporary rebinding of public names, and the faults the self-check injects.

``rebound`` swaps one module attribute for a wrapper of it.  The flip
wrappers add 1 to one residue of a result, so a correct benchmark must
count every request that goes through them as failed.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager


def _flip(values, modulus: int) -> None:
    values[0] = (values[0] + 1) % modulus


def flip_kernel(fn):
    """Wrap a kernel ``fn(plan, buffer, ring=None)`` to corrupt its buffer."""

    def faulty(plan, buffer, ring=None):
        fn(plan, buffer, ring)
        _flip(buffer, plan.field.modulus)

    return faulty


def flip_product(fn):
    """Wrap ``tft_polymul(f, g, field, ring=None)`` to corrupt its product."""

    def faulty(f, g, field, ring=None):
        out = fn(f, g, field, ring)
        _flip(out, field.modulus)
        return out

    return faulty


@contextmanager
def rebound(module_name: str, attr: str, wrap):
    """Rebind module_name.attr to wrap(original) for the duration."""
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    setattr(module, attr, wrap(original))
    try:
        yield
    finally:
        setattr(module, attr, original)
