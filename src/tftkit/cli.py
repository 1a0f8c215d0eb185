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


def _transform_command(args, inverse: bool) -> int:
    try:
        field = PrimeField.from_modulus(args.modulus)
        plan = make_plan(field, args.length)
    except ValueError as exc:
        return _usage_error(str(exc))
    try:
        tokens = _read_text(args.input).split()
    except (OSError, UnicodeDecodeError) as exc:
        return _usage_error(str(exc))
    if len(tokens) != args.length:
        return _usage_error(f"expected {args.length} values, got {len(tokens)}")
    try:
        buffer = _parse_residues(tokens, field.modulus)
    except ValueError as exc:
        return _usage_error(str(exc))
    if inverse:
        itft_in_place(plan, buffer)
    else:
        tft_in_place(plan, buffer)
    sys.stdout.write("".join(f"{value}\n" for value in buffer))
    return 0


def cmd_tft(args) -> int:
    return _transform_command(args, inverse=False)


def cmd_itft(args) -> int:
    return _transform_command(args, inverse=True)


def cmd_mul(args) -> int:
    try:
        field = PrimeField.from_modulus(args.modulus)
    except ValueError as exc:
        return _usage_error(str(exc))
    try:
        lines = _read_text(args.input).splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        return _usage_error(str(exc))
    if len(lines) != 2:
        return _usage_error(f"expected 2 coefficient lines, got {len(lines)}")
    try:
        f = _parse_residues(lines[0].split(), field.modulus)
        g = _parse_residues(lines[1].split(), field.modulus)
    except ValueError as exc:
        return _usage_error(str(exc))
    if not f or not g:
        return _usage_error("coefficient lines must be nonempty")
    try:
        product = tft_polymul(f, g, field)
    except ValueError as exc:
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

    detail = None
    for ell in range(1, args.max + 1):
        plan = make_plan(field, ell)
        data = [next(rng) % field.modulus for _ in range(ell)]
        buffer = list(data)
        tft_in_place(plan, buffer)
        if buffer != naive_tft(field, plan.psi, ell, data):
            detail = f"length {ell}: forward transform disagrees with direct evaluation"
            break
    _report("oracle-equivalence", detail, failures)

    detail = None
    for ell in range(1, args.max + 1):
        plan = make_plan(field, ell)
        data = [next(rng) % field.modulus for _ in range(ell)]
        buffer = list(data)
        tft_in_place(plan, buffer)
        itft_in_place(plan, buffer)
        if buffer != data:
            detail = f"length {ell}: inverse(forward) is not the identity"
            break
        itft_in_place(plan, buffer)
        tft_in_place(plan, buffer)
        if buffer != data:
            detail = f"length {ell}: forward(inverse) is not the identity"
            break
    _report("round-trip", detail, failures)

    detail = None
    for ell in range(1, args.max + 1):
        plan = make_plan(field, ell)
        audited = AuditBuffer(next(rng) % field.modulus for _ in range(ell))
        try:
            tft_in_place(plan, audited)
            itft_in_place(plan, audited)
        except IndexError:
            pass
        if audited.oob:
            detail = f"length {ell}: transform touched an index outside [0, {ell})"
            break
    _report("access-audit", detail, failures)

    detail = None
    for ell in range(1, args.max + 1):
        for kind in ("forward", "inverse"):
            report = bound_check(ell, measure_transform(field, ell, kind), kind)
            if not report.passed:
                detail = f"length {ell}: {kind} counts exceed the declared bounds"
                break
        if detail is not None:
            break
    _report("operation-bounds", detail, failures)

    if failures:
        for line in failures:
            print(line, file=sys.stderr)
        return 1
    return 0


def _report(family: str, detail: str | None, failures: list[str]) -> None:
    if detail is None:
        print(f"{family}: ok")
    else:
        print(f"{family}: FAIL ({detail})")
        failures.append(f"{family}: {detail}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tftkit",
        description="In-place truncated Fourier transforms over prime fields.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    tft_cmd = commands.add_parser("tft", help="forward transform of L residues")
    _transform_flags(tft_cmd)
    tft_cmd.set_defaults(func=cmd_tft)

    itft_cmd = commands.add_parser("itft", help="inverse transform of L residues")
    _transform_flags(itft_cmd)
    itft_cmd.set_defaults(func=cmd_itft)

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


def _transform_flags(subparser) -> None:
    subparser.add_argument("--modulus", type=int, default=DEFAULT_MODULUS)
    subparser.add_argument("--length", type=int, required=True, help="transform length")
    subparser.add_argument("--input", metavar="FILE", help="read residues from FILE instead of stdin")
