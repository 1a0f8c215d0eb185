"""Command-line front end.

Subcommands:

  tft       forward transform: L residues in, L residues out
  itft      inverse transform, same framing
  mul       polynomial product of two coefficient lines
  counts    CSV of instrumented operation counts checked against bounds
  selftest  randomized verification sweep

I/O is decimal text, whitespace-separated.  stdout carries data only;
diagnostics go to stderr.  Exit codes: 0 success, 1 verification
failure, 2 usage or input error, 141 (128 + SIGPIPE, as a shell
reports a command its reader stopped) when stdout closes early.
"""

import os
import sys
from operator import ne

from .itft import itft_in_place
from .polymul import pack, tft_polymul
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


_SHOWN = 40  # characters of a refused token that its error message echoes


def _cut(token: str) -> tuple[str, str]:
    # a refused token as its message shows it: whole, or its first _SHOWN
    # characters and then its length, so the message stays one short line
    return token[:_SHOWN], f"... ({len(token)} characters)" if len(token) > _SHOWN else ""


CHUNK = 512  # characters of the input text split at a time


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
            head, tail = _cut(token)
            raise ValueError(f"not a decimal integer: {head!r}{tail}")
        digits = token.lstrip("0") or "0"
        if len(digits) > width or (value := int(digits)) >= modulus:
            head, tail = _cut(digits)
            raise ValueError(f"{head}{tail} is not a residue mod {modulus}")
        tokens[i] = value
    return tokens


def _split_residues(text: str, modulus: int, length: int | None = None) -> list[int]:
    # text.split() as residues, converted onto the end of a new buffer a
    # slice of the text at a time.  A token that runs past a slice's end
    # starts the next slice; one longer than the slice is read again in a
    # slice twice as wide, so text without whitespace still reads in
    # linear time.  Past length tokens, or after a bad one, the rest are
    # only counted, so that a wrong count is still reported first.
    buffer, count, problem, start, size = [], 0, None, 0, CHUNK
    while start < len(text):
        end = start + size
        tokens = text[start:end].split()
        if end < len(text) and not text[end - 1].isspace() and not text[end].isspace():
            end -= len(tokens.pop())
            if end == start:
                size *= 2
                continue
        start, size = end, CHUNK
        count += len(tokens)
        if problem is None and (length is None or count <= length):
            try:
                buffer += _parse_residues(tokens, modulus)
            except ValueError as exc:
                problem = str(exc)
    if length is not None and count != length:
        raise ValueError(f"expected {length} values, got {count}")
    if problem is not None:
        raise ValueError(problem)
    return buffer


def _read_factors(path: str | None, modulus: int) -> tuple[list[int], list[int]]:
    # two lines of residues, each dropped once it is split; a bad token in
    # the first is reported before one in the second
    lines = _read_text(path).splitlines()
    if len(lines) != 2:
        raise ValueError(f"expected 2 coefficient lines, got {len(lines)}")
    lines.reverse()
    f = _split_residues(lines.pop(), modulus)
    g = _split_residues(lines.pop(), modulus)
    if not f or not g:
        raise ValueError("coefficient lines must be nonempty")
    return f, g


def _drain(values: list):
    # values in order, each dropped from the list as it is read
    values.reverse()
    while values:
        yield values.pop()


_RUN = 32  # values formatted per write


def _write_values(values: list, sep: str) -> None:
    # sep.join(values) and a newline, a bounded run at a time, each run
    # cut from the list once formatted: neither the output text nor the
    # values already written are held
    values.reverse()
    while values:
        run = values[: -_RUN - 1 : -1]
        del values[-_RUN:]
        sys.stdout.write(sep.join(map(str, run)) + (sep if values else "\n"))


# tft, itft and mul check their input in order and report the first problem
# as a usage error: a bad modulus or length, unreadable input (OSError, or
# bytes that do not decode, a ValueError), a wrong count, a bad token, or a
# product longer than the field's transform capacity.  All three read their
# text once and split it with _split_residues, CHUNK characters at a time,
# onto new buffers, so they never hold more than one slice's token strings;
# mul splits its text into two lines and drops each once it is read.  The
# parse therefore holds the text (malformed input far longer than --length
# is held whole) beside the buffers, and the factors pass to the product
# one value at a time.  The output drops each run of _RUN values once it is
# formatted.  Traced in bytes above the output (tools/cli_scratch.py),
# parse, compute and output read 17,600, 18,400 and 17,400 for mul at
# 256 x 256 and 125,600, 141,400 and 119,000 at 2048 x 2048: the compute
# phase, the product's buffers, binds.  tft and itft read 143,800, 118,100
# and 120,300 at l = 4096 and 2,260,000, 1,872,400 and 1,874,600 at 65536:
# the parse, the text beside the buffer, binds.


def cmd_transform(opts) -> int:
    try:
        field = PrimeField.from_modulus(opts["modulus"])
        plan = make_plan(field, opts["length"])
        # decoded in one read, so a byte that does not decode is named at
        # its position in the input
        buffer = _split_residues(_read_text(opts["input"]), field.modulus, opts["length"])
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
        f, g = _read_factors(opts["input"], field.modulus)
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
# A length's input is drawn packed (_draw) and the kernels run on one list
# copy of it, checked entry by entry against the input, or overwritten by
# direct_differences with its difference from the direct evaluation, which
# must be all zeros; both are dropped before the next length is drawn.


def _draw(rng, modulus: int, ell: int):
    # ell residues from the stream, packed as tft_polymul packs the factor
    # it is not transforming
    return pack((next(rng) % modulus for _ in range(ell)), modulus)


def _differs(buffer, ell: int, values) -> bool:
    # buffer != list(values), for the ell values, without making the list
    return len(buffer) != ell or any(map(ne, buffer, values))


def _check_oracle(field, rng, max_len: int) -> str | None:
    for ell in range(1, max_len + 1):
        plan = make_plan(field, ell)
        data = _draw(rng, field.modulus, ell)
        buffer = list(data)
        tft_in_place(plan, buffer)
        if any(direct_differences(field, plan.psi, ell, data, buffer)):
            return f"length {ell}: forward transform disagrees with direct evaluation"
        del data, buffer
    return None


def _check_round_trip(field, rng, max_len: int) -> str | None:
    for ell in range(1, max_len + 1):
        plan = make_plan(field, ell)
        data = _draw(rng, field.modulus, ell)
        buffer = list(data)
        tft_in_place(plan, buffer)
        itft_in_place(plan, buffer)
        if _differs(buffer, ell, data):
            return f"length {ell}: inverse(forward) is not the identity"
        itft_in_place(plan, buffer)
        tft_in_place(plan, buffer)
        if _differs(buffer, ell, data):
            return f"length {ell}: forward(inverse) is not the identity"
        del data, buffer
    return None


def _check_access(field, rng, max_len: int) -> str | None:
    for ell in range(1, max_len + 1):
        plan = make_plan(field, ell)
        audited = AuditBuffer(_draw(rng, field.modulus, ell))
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
# naive_tft is not called here: the oracle family checks through
# direct_differences, which naive_tft runs on a list of zeros.  The name
# stays bound because perfbench/spans.py rebinds it in this module, and
# tests/test_public_names.py requires every name it rebinds to be bound,
# until the benchmark is rekeyed.
_CHECKS = dict.fromkeys(
    ("CSV_HEADER", "AuditBuffer", "bound_check", "measure_transform"), "instrumentation"
) | dict.fromkeys(("direct_differences", "naive_tft"), "oracle")


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


_DIGITS = 4300  # the most digits int() converts under CPython's default limit


def _integer(text: str) -> int:
    # stricter than int(): no "+", "_", whitespace or non-ASCII digits.
    # Past its leading zeros, a value with more than _DIGITS digits is
    # refused before int() sees it, so int() never meets its digit limit.
    sign, digits = ("-", text[1:]) if text.startswith("-") else ("", text)
    if not (digits.isascii() and digits.isdigit()):
        head, tail = _cut(text)
        raise ValueError(f"not a decimal integer: {head!r}{tail}")
    digits = digits.lstrip("0") or "0"
    if len(digits) > _DIGITS:
        head, tail = _cut(digits)
        raise ValueError(f"{head}{tail} has more than {_DIGITS} digits")
    return int(sign + digits)


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
1 verification failure, 2 usage or input error, 141 output closed early."""


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
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: stop quietly, and point fd 1 at
        # os.devnull so the flush at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return code


def _run(argv) -> int:
    args = iter(sys.argv[1:] if argv is None else argv)
    command = next(args, None)
    if command in _HELP:
        print(_help(None))
        return 0
    if command not in _COMMANDS:
        choices = f"(choose from {', '.join(_COMMANDS)})"
        if command is None:
            return _usage_error(f"no command {choices}")
        head, tail = _cut(command)
        # a name cut short is no typo: its line leaves the choices out
        return _usage_error(f"unknown command {head!r}{tail or ' ' + choices}")
    handler, _, options = _COMMANDS[command]
    opts = {"command": command, **options}
    for arg in args:
        if arg in _HELP:
            print(_help(command))
            return 0
        flag, eq, text = arg.partition("=")
        name = flag[2:]
        if not flag.startswith("--") or name not in options:
            head, tail = _cut(arg)
            return _usage_error(f"{command}: unrecognized argument {head!r}{tail}")
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
