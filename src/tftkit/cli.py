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

import sys

from .itft import itft_in_place
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


def _parse_residues(tokens: list, modulus: int) -> list[int]:
    # in place: each token gives way to its value, and the list is returned.
    # Past its leading zeros, a token with more digits than the modulus is
    # refused unread, so int() never meets the interpreter's digit limit.
    width = len(str(modulus))
    for i, token in enumerate(tokens):
        if not (token.isascii() and token.isdigit()):
            raise ValueError(f"not a decimal integer: {token!r}")
        digits = token.lstrip("0") or "0"
        if len(digits) > width or (value := int(digits)) >= modulus:
            raise ValueError(f"{digits} is not a residue mod {modulus}")
        tokens[i] = value
    return tokens


def _drain(values: list):
    # values in order, each dropped from the list as it is read
    values.reverse()
    while values:
        yield values.pop()


_RUN = 128  # values formatted per write


def _write_values(values, sep: str) -> None:
    # sep.join(values) and a newline, a bounded run at a time, so the
    # output text is never held whole
    for start in range(0, len(values), _RUN):
        end = sep if start + _RUN < len(values) else "\n"
        sys.stdout.write(sep.join(map(str, values[start : start + _RUN])) + end)


# tft, itft and mul check their input in order and report the first problem
# as a usage error: a bad modulus or length, unreadable input (OSError, or
# bytes that do not decode, a ValueError), a wrong count, a bad token, or a
# product longer than the field's transform capacity.  tft and itft read
# their text in bounded chunks straight onto the buffer; mul drops its text
# once split, each token gives way to its value in the same list, and its
# factors pass to the product one value at a time: the transform and the
# output run with the buffers alone.


def cmd_transform(opts) -> int:
    from ._reader import read_residues  # here, so that only tft and itft compile it

    try:
        field = PrimeField.from_modulus(opts["modulus"])
        plan = make_plan(field, opts["length"])
        buffer = read_residues(opts["input"], opts["length"], field.modulus)
    except (OSError, ValueError) as exc:
        return _usage_error(str(exc))
    if opts["command"] == "itft":
        itft_in_place(plan, buffer)
    else:
        tft_in_place(plan, buffer)
    _write_values(buffer, "\n")
    return 0


def cmd_mul(opts) -> int:
    try:
        field = PrimeField.from_modulus(opts["modulus"])
        lines = _read_text(opts["input"]).splitlines()
        if len(lines) != 2:
            raise ValueError(f"expected 2 coefficient lines, got {len(lines)}")
        f = _parse_residues(lines[0].split(), field.modulus)
        g = _parse_residues(lines[1].split(), field.modulus)
        del lines
        if not f or not g:
            raise ValueError("coefficient lines must be nonempty")
        product = tft_polymul(_drain(f), _drain(g), field)
    except (OSError, ValueError) as exc:
        return _usage_error(str(exc))
    _write_values(product, " ")
    return 0


def cmd_counts(opts) -> int:
    low, high = opts["min"], opts["max"]
    if low < 1 or high < low:
        return _usage_error("range must satisfy 1 <= min <= max")
    field = PrimeField.from_modulus(DEFAULT_MODULUS)
    if high > 1 << field.two_adicity:
        return _usage_error("--max exceeds the field's transform capacity")
    _bind_checks()
    kinds = ("forward", "inverse") if opts["kind"] == "both" else (opts["kind"],)
    print(CSV_HEADER)
    passed = True
    for ell in range(low, high + 1):
        for kind in kinds:
            report = bound_check(ell, measure_transform(field, ell, kind), kind)
            print(report.csv_row())
            passed &= report.passed
    return 0 if passed else 1


def cmd_selftest(opts) -> int:
    max_len, seed = opts["max"], opts["seed"]
    if max_len < 1:
        return _usage_error("--max must be at least 1")
    field = PrimeField.from_modulus(DEFAULT_MODULUS)
    if max_len > 1 << field.two_adicity:
        return _usage_error("--max exceeds the field's transform capacity")
    _bind_checks()
    rng = xorshift64star(seed)
    print(f"seed: {seed}")
    failures = []
    for family, check in _SELFTEST_FAMILIES:
        detail = check(field, rng, max_len)
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
# It drops a length's lists before drawing the next length's.


def _check_oracle(field, rng, max_len: int) -> str | None:
    for ell in range(1, max_len + 1):
        plan = make_plan(field, ell)
        buffer = [next(rng) % field.modulus for _ in range(ell)]
        expected = naive_tft(field, plan.psi, ell, buffer)
        tft_in_place(plan, buffer)
        if buffer != expected:
            return f"length {ell}: forward transform disagrees with direct evaluation"
        del buffer, expected
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
        del data, buffer
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
        del audited
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


# Names that only counts and selftest use.  Compiling instrumentation.py
# and oracle.py is a large share of the CLI's start-up when no bytecode is
# cached, so they are imported on first use: by _bind_checks when one of
# those commands runs, or by a module attribute lookup (PEP 562) from outside.
_CHECKS = dict.fromkeys(
    ("CSV_HEADER", "AuditBuffer", "bound_check", "measure_transform"), "instrumentation"
) | {"naive_tft": "oracle"}


def _bind_checks() -> None:
    # setdefault keeps a wrapper that a caller bound in place of a name
    # first, as the benchmark does to count or trace a selftest run
    for name, module in _CHECKS.items():
        home = __import__(f"{__package__}.{module}", fromlist=[name])
        globals().setdefault(name, getattr(home, name))


def __getattr__(name):
    if name not in _CHECKS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_checks()
    return globals()[name]


def _integer(text: str) -> int:
    # stricter than int(): no "+", "_", whitespace or non-ASCII digits
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _kind(text: str) -> str:
    if text not in ("forward", "inverse", "both"):
        raise ValueError(f"{text!r} is not forward, inverse or both")
    return text


# option -> (placeholder shown in help, parser of its value)
_VALUES = dict.fromkeys(("modulus", "length", "min", "max", "seed"), ("N", _integer)) | {
    "input": ("FILE", str),
    "kind": ("forward|inverse|both", _kind),
}
_REQUIRED = object()
_TRANSFORM = {"modulus": DEFAULT_MODULUS, "length": _REQUIRED, "input": None}
# command -> (handler, summary, {option: default, or _REQUIRED})
_COMMANDS = {
    "tft": (cmd_transform, "forward transform of L residues", _TRANSFORM),
    "itft": (cmd_transform, "inverse transform of L residues", _TRANSFORM),
    "mul": (
        cmd_mul,
        "multiply two polynomials given as coefficient lines",
        {"modulus": DEFAULT_MODULUS, "input": None},
    ),
    "counts": (
        cmd_counts,
        "CSV of operation counts checked against the bounds",
        {"min": _REQUIRED, "max": _REQUIRED, "kind": "forward"},
    ),
    "selftest": (cmd_selftest, "randomized verification sweep", {"max": 256, "seed": 0}),
}
_HELP = ("-h", "--help")
_RULES = """
Options take full names, as --OPTION VALUE or --OPTION=VALUE; an integer
is ASCII digits with an optional leading '-'.  Exit codes: 0 success,
1 verification failure, 2 usage or input error."""


def _help(command: str | None) -> str:
    if command is None:
        lines = ["usage: tftkit COMMAND [--OPTION VALUE ...]", ""]
        lines += [f"  {name:<9} {entry[1]}" for name, entry in _COMMANDS.items()]
    else:
        _, summary, options = _COMMANDS[command]
        lines = [f"usage: tftkit {command} [--OPTION VALUE ...]", "", summary, ""]
        for name, default in options.items():
            usage = f"--{name} {_VALUES[name][0]}"
            if default is _REQUIRED:
                lines.append(f"  {usage:<28} required")
            else:
                lines.append(f"  {usage:<28} default: {'stdin' if default is None else default}")
    return "\n".join(lines) + "\n" + _RULES


def main(argv=None) -> int:
    args = iter(sys.argv[1:] if argv is None else argv)
    command = next(args, None)
    if command in _HELP:
        print(_help(None))
        return 0
    if command not in _COMMANDS:
        problem = "no command" if command is None else f"unknown command {command!r}"
        return _usage_error(f"{problem} (choose from {', '.join(_COMMANDS)})")
    handler, _, options = _COMMANDS[command]
    opts = {"command": command, **options}
    for arg in args:
        if arg in _HELP:
            print(_help(command))
            return 0
        flag, eq, text = arg.partition("=")
        name = flag[2:]
        if not flag.startswith("--") or name not in options:
            return _usage_error(f"{command}: unrecognized argument {arg!r}")
        text = text if eq else next(args, None)
        if text is None:
            return _usage_error(f"{command}: {flag} needs a value")
        try:
            opts[name] = _VALUES[name][1](text)
        except ValueError as exc:
            return _usage_error(f"{command}: {flag}: {exc}")
    missing = [f"--{name}" for name, value in opts.items() if value is _REQUIRED]
    if missing:
        return _usage_error(f"{command} needs {', '.join(missing)}")
    return handler(opts)
