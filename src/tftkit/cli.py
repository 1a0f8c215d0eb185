"""Command-line front end.

Subcommands:

  tft       forward transform: L residues in, L residues out
  itft      inverse transform, same framing
  mul       polynomial product of two coefficient lines
  counts    CSV of instrumented operation counts checked against bounds
  selftest  randomized verification sweep

I/O is decimal text, whitespace-separated.  stdout carries data only;
diagnostics go to stderr.  Exit codes: 0 success, 1 verification
failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import sys

from .instrumentation import (
    CSV_HEADER,
    AuditBuffer,
    bound_check,
    measure_transform,
)
from .itft import itft_in_place
from .oracle import naive_tft
from .polymul import tft_polymul
from .ring import DEFAULT_MODULUS, PrimeField
from .tft import make_plan, tft_in_place

__all__ = ["main", "xorshift64star"]

_MASK64 = (1 << 64) - 1


def xorshift64star(seed: int):
    """Deterministic 64-bit stream for the randomized checks."""
    state = (seed * 6364136223846793005 + 1442695040888963407) & _MASK64
    if state == 0:
        state = 1
    while True:
        state ^= state >> 12
        state = (state ^ (state << 25)) & _MASK64
        state ^= state >> 27
        yield state * 0x2545F4914F6CDD1D & _MASK64


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _read_text(path: str | None) -> str:
    if path is None:
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as handle:
        return handle.read()


def _parse_residues(tokens, modulus: int) -> list[int]:
    values = []
    for token in tokens:
        if not (token.isascii() and token.isdigit()):
            raise ValueError(f"not a decimal integer: {token!r}")
        value = int(token)
        if not 0 <= value < modulus:
            raise ValueError(f"{value} is not a residue mod {modulus}")
        values.append(value)
    return values


# tft, itft and mul check their input in order and report the first problem
# as a usage error: a bad modulus or length, an unreadable file (OSError, or
# UnicodeDecodeError, a ValueError), a wrong count, a bad token, or a
# product longer than the field's transform capacity.


def cmd_transform(args) -> int:
    try:
        field = PrimeField.from_modulus(args.modulus)
        plan = make_plan(field, args.length)
        tokens = _read_text(args.input).split()
        if len(tokens) != args.length:
            raise ValueError(f"expected {args.length} values, got {len(tokens)}")
        buffer = _parse_residues(tokens, field.modulus)
    except (OSError, ValueError) as exc:
        return _usage_error(str(exc))
    if args.inverse:
        itft_in_place(plan, buffer)
    else:
        tft_in_place(plan, buffer)
    sys.stdout.write("".join(f"{value}\n" for value in buffer))
    return 0


def cmd_mul(args) -> int:
    try:
        field = PrimeField.from_modulus(args.modulus)
        lines = _read_text(args.input).splitlines()
        if len(lines) != 2:
            raise ValueError(f"expected 2 coefficient lines, got {len(lines)}")
        f = _parse_residues(lines[0].split(), field.modulus)
        g = _parse_residues(lines[1].split(), field.modulus)
        if not f or not g:
            raise ValueError("coefficient lines must be nonempty")
        product = tft_polymul(f, g, field)
    except (OSError, ValueError) as exc:
        return _usage_error(str(exc))
    print(" ".join(map(str, product)))
    return 0


def cmd_counts(args) -> int:
    if args.min < 1 or args.max < args.min:
        return _usage_error("range must satisfy 1 <= min <= max")
    field = PrimeField.from_modulus(DEFAULT_MODULUS)
    kinds = ("forward", "inverse") if args.kind == "both" else (args.kind,)
    try:
        reports = [
            bound_check(ell, measure_transform(field, ell, kind), kind)
            for ell in range(args.min, args.max + 1)
            for kind in kinds
        ]
    except ValueError as exc:
        return _usage_error(str(exc))
    print(CSV_HEADER)
    for report in reports:
        print(report.csv_row())
    return 0 if all(report.passed for report in reports) else 1


def cmd_selftest(args) -> int:
    if args.max < 1:
        return _usage_error("--max must be at least 1")
    field = PrimeField.from_modulus(DEFAULT_MODULUS)
    if args.max > 1 << field.two_adicity:
        return _usage_error("--max exceeds the field's transform capacity")
    rng = xorshift64star(args.seed)
    print(f"seed: {args.seed}")
    failures = []
    for family, check in _SELFTEST_FAMILIES:
        detail = check(field, rng, args.max)
        if detail is None:
            print(f"{family}: ok")
        else:
            print(f"{family}: FAIL ({detail})")
            failures.append(f"{family}: {detail}")
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


# Each selftest family checks lengths 1..max_len, drawing its inputs from
# the shared stream in turn, and returns the first failure's detail or None.


def _check_oracle(field, rng, max_len: int) -> str | None:
    for ell in range(1, max_len + 1):
        plan = make_plan(field, ell)
        data = [next(rng) % field.modulus for _ in range(ell)]
        buffer = list(data)
        tft_in_place(plan, buffer)
        if buffer != naive_tft(field, plan.psi, ell, data):
            return f"length {ell}: forward transform disagrees with direct evaluation"
    return None


def _check_round_trip(field, rng, max_len: int) -> str | None:
    for ell in range(1, max_len + 1):
        plan = make_plan(field, ell)
        data = [next(rng) % field.modulus for _ in range(ell)]
        buffer = list(data)
        tft_in_place(plan, buffer)
        itft_in_place(plan, buffer)
        if buffer != data:
            return f"length {ell}: inverse(forward) is not the identity"
        itft_in_place(plan, buffer)
        tft_in_place(plan, buffer)
        if buffer != data:
            return f"length {ell}: forward(inverse) is not the identity"
    return None


def _check_access(field, rng, max_len: int) -> str | None:
    for ell in range(1, max_len + 1):
        plan = make_plan(field, ell)
        audited = AuditBuffer(next(rng) % field.modulus for _ in range(ell))
        try:
            tft_in_place(plan, audited)
            itft_in_place(plan, audited)
        except IndexError:
            pass
        if audited.oob:
            return f"length {ell}: transform touched an index outside [0, {ell})"
    return None


def _check_bounds(field, rng, max_len: int) -> str | None:
    for ell in range(1, max_len + 1):
        for kind in ("forward", "inverse"):
            if not bound_check(ell, measure_transform(field, ell, kind), kind).passed:
                return f"length {ell}: {kind} counts exceed the declared bounds"
    return None


_SELFTEST_FAMILIES = (
    ("oracle-equivalence", _check_oracle),
    ("round-trip", _check_round_trip),
    ("access-audit", _check_access),
    ("operation-bounds", _check_bounds),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tftkit",
        description="In-place truncated Fourier transforms over prime fields.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for name, inverse in (("tft", False), ("itft", True)):
        direction = "inverse" if inverse else "forward"
        transform_cmd = commands.add_parser(name, help=f"{direction} transform of L residues")
        transform_cmd.add_argument("--modulus", type=int, default=DEFAULT_MODULUS)
        transform_cmd.add_argument("--length", type=int, required=True, help="transform length")
        transform_cmd.add_argument(
            "--input", metavar="FILE", help="read residues from FILE instead of stdin"
        )
        transform_cmd.set_defaults(func=cmd_transform, inverse=inverse)

    mul_cmd = commands.add_parser(
        "mul", help="multiply two polynomials given as coefficient lines"
    )
    mul_cmd.add_argument("--modulus", type=int, default=DEFAULT_MODULUS)
    mul_cmd.add_argument("--input", metavar="FILE", help="read input from FILE instead of stdin")
    mul_cmd.set_defaults(func=cmd_mul)

    counts_cmd = commands.add_parser(
        "counts", help="CSV of operation counts checked against the bounds"
    )
    counts_cmd.add_argument("--min", type=int, required=True, help="smallest length")
    counts_cmd.add_argument("--max", type=int, required=True, help="largest length")
    counts_cmd.add_argument(
        "--kind", choices=("forward", "inverse", "both"), default="forward"
    )
    counts_cmd.set_defaults(func=cmd_counts)

    selftest_cmd = commands.add_parser("selftest", help="randomized verification sweep")
    selftest_cmd.add_argument("--max", type=int, default=256, help="largest length checked")
    selftest_cmd.add_argument("--seed", type=int, default=0)
    selftest_cmd.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
