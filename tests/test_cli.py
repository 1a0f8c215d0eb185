"""Command-line surface: golden outputs, exit codes, stream discipline."""

import hashlib
import io
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import tftkit
from tftkit.cli import (
    _RUN,
    CHUNK,
    CSV_HEADER,
    _draw,
    _read_factors,
    _read_text,
    _split_residues,
    main,
    xorshift64star,
)
from tftkit.instrumentation import OpCounters
from tftkit.itft import itft_in_place
from tftkit.polymul import tft_polymul
from tftkit.tft import make_plan, tft_in_place


def run_cli(argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    return main(argv)


def test_tft_from_file(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("1 2 3\n")
    code = main(["tft", "--modulus", "17", "--length", "3", "--input", str(src)])
    out, err = capsys.readouterr()
    assert code == 0
    assert out == "6\n2\n7\n"
    assert err == ""


def test_tft_from_stdin(monkeypatch, capsys):
    code = run_cli(["tft", "--modulus", "17", "--length", "1"], "5", monkeypatch)
    assert code == 0
    assert capsys.readouterr().out == "5\n"


def test_tft_length_two(monkeypatch, capsys):
    code = run_cli(["tft", "--length", "2", "--modulus", "17"], "1 0", monkeypatch)
    assert code == 0
    assert capsys.readouterr().out == "1\n1\n"


def test_itft_undoes_tft(monkeypatch, capsys):
    code = run_cli(["itft", "--modulus", "17", "--length", "3"], "6 2 7", monkeypatch)
    assert code == 0
    assert capsys.readouterr().out == "1\n2\n3\n"


def test_transform_usage_errors(tmp_path, monkeypatch, capsys):
    cases = [
        (["tft", "--modulus", "17", "--length", "4"], "1 2 3"),  # wrong count
        (["tft", "--modulus", "17", "--length", "2"], "1 x"),  # not an integer
        (["tft", "--modulus", "17", "--length", "2"], "1_0 2"),  # not plain decimal
        (["tft", "--modulus", "17", "--length", "1"], "\u0663"),  # Arabic-Indic 3
        (["tft", "--modulus", "17", "--length", "1"], "+3"),
        (["tft", "--modulus", "17", "--length", "2"], "1 17"),  # out of range
        (["tft", "--modulus", "17", "--length", "32"], "0 " * 32),  # too long
        (["tft", "--modulus", "16", "--length", "2"], "1 0"),  # even modulus
        (["itft", "--modulus", "17", "--length", "0"], ""),
    ]
    for argv, text in cases:
        code = run_cli(argv, text, monkeypatch)
        out, err = capsys.readouterr()
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:")
    src = tmp_path / "in.txt"
    src.write_bytes(b"1 \xff\n")  # not ASCII
    code = main(["tft", "--modulus", "17", "--length", "2", "--input", str(src)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["frobnicate"], id="unknown-command"),
        pytest.param([], id="no-command"),
        pytest.param(["tft", "--length", "3", "--bogus", "1"], id="unknown-option"),
        pytest.param(["tft", "--modulus", "17"], id="missing-required"),
        pytest.param(["tft", "--length"], id="no-value"),
        pytest.param(["counts", "--min", "1", "--max", "2", "--kind", "sideways"], id="bad-kind"),
        pytest.param(["tft", "--length", "3", "extra"], id="positional"),
        pytest.param(["tft", "--len", "3", "--mod", "17"], id="abbreviated"),
        pytest.param(["tft", "--length", "\u0663"], id="arabic-indic-digit"),
        pytest.param(["tft", "--length=+3"], id="plus-sign"),
        pytest.param(["tft", "--length", "3", "--modulus", "1_7"], id="underscore"),
        pytest.param(["tft", "--length", " 3"], id="whitespace"),
        pytest.param(["tft", "--length", "3.0"], id="float"),
        pytest.param(["selftest", "--seed", "-"], id="bare-minus"),
        pytest.param(["selftest", "--seed", "--5"], id="double-minus"),
        pytest.param(["selftest", "--max="], id="empty-value"),
    ],
)
def test_argv_problems_are_usage_errors(monkeypatch, capsys, argv):
    # each returns 2, writes no data and one error line; none reads stdin
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 2 3"))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


# pieces of the random inputs below: what a decimal token may be confused
# with (signs, "_", NUL, non-ASCII digits, digit runs too long for int())
# and separators, among them some that str.split and str.splitlines take
# but ASCII whitespace does not include
_JUNK = ("17", "-1", "+3", "_", "1_0", "\x00", "\u0663", "9" * 40, "7" * 5000)
_SEPARATORS = (" ", " ", "\n", "\t", "\x0c", "\x1c", "\x85", "\xa0", "")
_BAD_VALUES = ("", "-", "--5", "+3", "1_7", " 3", "3\x85", "\xa0", "\x1c", "3.0", "\u0663", "x",
               "9" * 5000)


def _option_values(rng, command):
    # every command's sweep stays at 16 lengths or fewer: counts draws --min
    # and --max near one base, selftest's --max is small or past the capacity
    base = rng.choice((1, (1 << 23) - 8))
    near = [str(base + d) for d in range(-1, 15)]
    return {
        "modulus": ("17", "97", "998244353", "16", "1", "2", "-17", str((1 << 61) - 1)),
        "length": [str(n) for n in range(-1, 18)] + [str((1 << 23) + 1), "9" * 30],
        "input": ("/no/such/file",),
        "min": near,
        "max": near if command == "counts" else [str(n) for n in range(-1, 17)] + [str(1 << 24)],
        "seed": ("0", "-5", "7", str(1 << 70)),
        "kind": ("forward", "inverse", "both", "sideways"),
    }


def _option_soup(rng):
    commands = ("tft", "itft", "mul", "counts", "selftest")
    command = rng.choice(commands + ("frob", "--help"))
    values = _option_values(rng, command)
    argv = [command]
    if command == "selftest":
        argv.append(f"--max={rng.choice(values['max'])}")  # the default is 256
    elif command == "counts" and rng.random() < 0.5:
        argv += [f"--min={rng.choice(values['min'])}", f"--max={rng.choice(values['max'])}"]
    for _ in range(rng.randrange(6)):
        name = rng.choice(tuple(values) + ("len", "bogus", "help"))
        pool = values.get(name, ())
        value = rng.choice(pool) if pool and rng.random() < 0.8 else rng.choice(_BAD_VALUES)
        form = rng.randrange(4)
        if form == 0:
            argv.append(f"--{name}={value}")
        elif form == 1:
            argv += [f"--{name}", value]
        elif form == 2:
            argv.append(f"--{name}")  # a value only if another argument follows
        else:
            argv.append(value)
    return argv


def _token_soup(rng):
    command = rng.choice(("tft", "itft", "mul"))
    argv = [command, "--modulus", rng.choice(("17", "97", "998244353"))]
    if command != "mul":
        argv += ["--length", str(rng.randrange(1, 6))]
    pieces = []
    for _ in range(rng.randrange(8)):
        pieces.append(rng.choice(("0", "1", "3", "16")) if rng.random() < 0.8 else rng.choice(_JUNK))
        pieces.append(rng.choice(_SEPARATORS))
    return argv, "".join(pieces)


def _long_text(rng, separators, junk):
    # residues over one to three read chunks, with junk at the given rate
    separators = separators if junk else tuple(sep for sep in separators if sep)
    pieces, size = [], rng.randrange(CHUNK + 1, 3 * CHUNK)
    while size > 0:
        piece = rng.choice(_JUNK) if rng.random() < junk else str(rng.randrange(998244353))
        pieces += (piece, rng.choice(separators))
        size -= len(pieces[-2]) + len(pieces[-1])
    return "".join(pieces)


def _long_token_soup(rng):
    # tft or itft input over one to three read chunks: residues with junk at
    # one of three rates, and a --length that is mostly the token count
    command = rng.choice(("tft", "itft"))
    text = _long_text(rng, _SEPARATORS, rng.choice((0, 0.001, 0.05)))
    return [command, "--length", str(len(text.split()) + rng.choice((0, 0, 0, -1, 1)))], text


def _long_mul_soup(rng):
    # mul input of two lines, each over one to three read chunks, split by
    # the separators that do not end a line, with junk at one of three rates
    junk = rng.choice((0, 0.001, 0.05))
    lines = [_long_text(rng, (" ", " ", "\t", "\xa0", ""), junk) for _ in range(2)]
    return ["mul"], "\n".join(lines) + rng.choice(("", "\n"))


def test_every_input_gets_a_documented_exit_code(monkeypatch, capsys):
    # random token soups for the commands that read residues, random option
    # soups for all five, and soups longer than one read chunk for tft and
    # itft and lines longer than one for mul: each exits 0, 1 or 2 without
    # an exception, and a usage error writes no data and one error line
    rng = random.Random(2026)
    cases = [_token_soup(rng) if case % 2 else (_option_soup(rng), "1 2 3") for case in range(5000)]
    cases += [_long_token_soup(rng) for _ in range(200)]
    cases += [_long_mul_soup(rng) for _ in range(200)]
    for argv, text in cases:
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), (argv, text)
        if code == 2:
            assert out == "", (argv, text)
            assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, text, err)


def test_option_forms(monkeypatch, capsys):
    code = run_cli(["tft", "--modulus=17", "--length=3"], "1 2 3", monkeypatch)
    assert (code, capsys.readouterr().out) == (0, "6\n2\n7\n")
    assert main(["selftest", "--max=2", "--seed", "-5"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "seed: -5"


def test_a_refused_option_value_is_echoed_in_one_short_line(capsys):
    assert main(["tft", "--length", "x" * 100_000]) == 2
    error = f"error: tft: --length: not a decimal integer: {'x' * 40!r}... (100000 characters)\n"
    assert len(error.encode()) < 120 and capsys.readouterr() == ("", error)


def test_an_unknown_command_is_echoed_in_one_short_line(capsys):
    assert main(["y" * 100_000]) == 2
    error = f"error: unknown command {'y' * 40!r}... (100000 characters)\n"
    assert len(error.encode()) < 120 and capsys.readouterr() == ("", error)
    assert main(["yy"]) == 2  # a short name is shown with the choices
    choices = "(choose from tft, itft, mul, counts, selftest)"
    assert capsys.readouterr() == ("", f"error: unknown command 'yy' {choices}\n")


def test_an_unrecognized_argument_is_echoed_in_one_short_line(capsys):
    assert main(["tft", "--" + "x" * 99_998]) == 2
    error = f"error: tft: unrecognized argument {'--' + 'x' * 38!r}... (100000 characters)\n"
    assert len(error.encode()) < 120 and capsys.readouterr() == ("", error)


def test_an_option_value_is_read_past_its_leading_zeros(capsys):
    # int() converts at most 4300 digits by default: a value is read past
    # its leading zeros, and one with more digits is refused by the CLI
    for seed, shown in (("0" * 4400 + "7", "7"), ("9" * 4300, "9" * 4300)):
        assert main(["selftest", "--max", "1", "--seed", seed]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"seed: {shown}"
    assert main(["selftest", "--max", "9" * 5000]) == 2
    too_long = f"{'9' * 40}... (5000 characters) has more than 4300 digits"
    assert capsys.readouterr() == ("", f"error: selftest: --max: {too_long}\n")


def test_missing_input_file(capsys):
    code = main(["tft", "--modulus", "17", "--length", "1", "--input", "/no/such/file"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_mul_golden(monkeypatch, capsys):
    code = run_cli(["mul", "--modulus", "17"], "1 2 3\n4 5\n", monkeypatch)
    assert code == 0
    assert capsys.readouterr().out == "4 13 5 15\n"
    code = run_cli(["mul", "--modulus", "17"], "1 1\n1 1\n", monkeypatch)
    assert code == 0
    assert capsys.readouterr().out == "1 2 1\n"


def test_mul_input_errors(tmp_path, monkeypatch, capsys):
    for text in (
        "1 2 3\n",
        "1 2\n\n",
        "1 2\n3 4\n5\n",
        "1 2\nbogus 4\n",
        "1_0 2\n\u0663\n",  # int() would read these as 10 and 3
    ):
        code = run_cli(["mul", "--modulus", "17"], text, monkeypatch)
        capsys.readouterr()
        assert code == 2, repr(text)
    src = tmp_path / "in.txt"
    src.write_bytes(b"1 2\n3 \xff\n")  # not ASCII
    code = main(["mul", "--modulus", "17", "--input", str(src)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


# Tokens longer than the interpreter's limit on int() of a str (4,300
# digits by default): each command reads them past their leading zeros,
# and refuses one with more digits than p without converting it
_LONG_CASES = (
    (["tft", "--length", "2"], "{} 0"),
    (["itft", "--length", "2"], "0 {}"),
    (["mul"], "{} 1\n1\n"),
)


def test_a_residue_with_many_leading_zeros(monkeypatch, capsys):
    zeros = "0" * 8851 + "7"
    for argv, text in _LONG_CASES:
        outputs = []
        for token in (zeros, "7"):
            assert run_cli(argv, text.format(token), monkeypatch) == 0, argv
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].err == "", argv
    assert run_cli(["mul", "--modulus", "17"], "000 0017\n0\n", monkeypatch) == 2
    assert capsys.readouterr() == ("", "error: 17 is not a residue mod 17\n")


def test_a_token_with_more_digits_than_the_modulus(monkeypatch, capsys):
    nines = "9" * 5000
    for argv, text in _LONG_CASES:
        assert run_cli(argv, text.format(nines), monkeypatch) == 2, argv
        expected = f"error: {'9' * 40}... (5000 characters) is not a residue mod 998244353\n"
        assert capsys.readouterr() == ("", expected)


def test_a_refused_token_is_echoed_in_one_short_line(tmp_path, monkeypatch, capsys):
    # up to 40 characters a refused token is echoed whole; past that, its
    # first 40 and its length, however long it is
    for token, shown in (
        ("x" * 40, f"not a decimal integer: {'x' * 40!r}"),
        ("x" * 41, f"not a decimal integer: {'x' * 40!r}... (41 characters)"),
        ("9" * 40, f"{'9' * 40} is not a residue mod 998244353"),
        ("00" + "9" * 41, f"{'9' * 40}... (41 characters) is not a residue mod 998244353"),
    ):
        for argv, text in _LONG_CASES:
            assert run_cli(argv, text.format(token), monkeypatch) == 2, argv
            assert capsys.readouterr() == ("", f"error: {shown}\n"), (argv, token)
    src = tmp_path / "in.txt"
    for token in ("x" * 1_000_000, "9" * 1_000_000, "7" * 999_999 + "\x00"):
        for argv, text in _LONG_CASES:
            src.write_text(text.format(token), encoding="ascii")
            assert main(argv + ["--input", str(src)]) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1 and len(err.encode()) < 120, (argv, err[:80])
            assert "... (1000000 characters)" in err, argv


# tft, itft and mul read their text once and split it in bounded slices of
# the text, CHUNK characters at a time; the buffer is the whole text's
# tokens wherever the slice ends fall (the text is held whole, malformed
# input far longer than --length included), and mul's factors are each
# line's tokens wherever the slice ends fall in that line
def _digits(n):
    # n characters of one-digit tokens, ending in a digit
    return "1 " * ((n - 1) // 2) + "1" * (2 - n % 2)


def _stdins(text):
    # a text stream, and bytes on stdin (a multibyte separator may then
    # straddle a chunk end)
    return io.StringIO(text), io.TextIOWrapper(io.BytesIO(text.encode()), "utf-8")


def _assert_reads_as_split(text, monkeypatch, tmp_path):
    # from stdin and from an ASCII file; a text of one line is also read as
    # both of mul's lines, each as its own str.split() would
    expected = [int(token) for token in text.split()]
    mul = text.splitlines() == [text]
    for stdin in _stdins(text):
        monkeypatch.setattr(sys, "stdin", stdin)
        assert _split_residues(_read_text(None), 998244353, len(expected)) == expected
    for stdin in _stdins(f"{text}\n{text}\n") if mul else ():
        monkeypatch.setattr(sys, "stdin", stdin)
        assert _read_factors(None, 998244353) == (expected, expected)
    if text.isascii():
        src = tmp_path / "in.txt"
        src.write_text(text, encoding="ascii", newline="")
        assert _split_residues(_read_text(str(src)), 998244353, len(expected)) == expected
        if mul:
            src.write_text(f"{text}\n{text}", encoding="ascii", newline="")
            assert _read_factors(str(src), 998244353) == (expected, expected)


@pytest.mark.parametrize("offset", range(-9, 1))
def test_a_token_across_a_chunk_end(monkeypatch, tmp_path, offset):
    # a nine-digit token, with and without leading zeros, starting 9..0
    # characters before the first chunk's end, and the same two chunks later
    for chunks in (1, 3):
        head = _digits(chunks * CHUNK + offset - 1) + " "
        for token in ("123456789", "000012345"):
            _assert_reads_as_split(head + token + " " + _digits(CHUNK), monkeypatch, tmp_path)


@pytest.mark.parametrize("offset", [-1, 0])
@pytest.mark.parametrize("sep", ["\r\n", "\x1c", "\x85", "\xa0", "\n", "  "])
def test_a_separator_at_a_chunk_end(monkeypatch, tmp_path, sep, offset):
    # the separator starts on the first chunk's last character or the next
    # chunk's first, right after a token
    text = _digits(CHUNK + offset) + sep + "42" + " 9" * CHUNK
    _assert_reads_as_split(text, monkeypatch, tmp_path)


def test_text_without_a_trailing_newline(monkeypatch, tmp_path):
    for size in (3 * CHUNK - 1, 3 * CHUNK, 3 * CHUNK + 17):
        _assert_reads_as_split(_digits(size), monkeypatch, tmp_path)


def test_a_token_longer_than_a_chunk(monkeypatch, tmp_path):
    # leading zeros keep a long token a residue: it spans three chunks, and
    # one that fills the whole text spans two
    long = "0" * (CHUNK + 150) + "5"
    _assert_reads_as_split(_digits(CHUNK - 50) + " " + long + " 8 13", monkeypatch, tmp_path)
    _assert_reads_as_split(long, monkeypatch, tmp_path)


def test_chunked_input_errors_keep_their_order(tmp_path, monkeypatch, capsys):
    # a wrong count before a bad token, wherever the token is; a bad token
    # in a later chunk; an unreadable file before both, with the byte's
    # position in the whole file.  mul reports a bad token in its first
    # line, here in the third chunk, before one in its second, here in the
    # first, and a line without one, even an empty first line, lets the
    # other's be reported
    tokens = ["7"] * (3 * CHUNK // 2)
    late = len(tokens) - 5  # in the third chunk
    ell = str(len(tokens))
    for at, bad, message in (
        (late, "x", "not a decimal integer: 'x'"),
        (late, "998244353", "998244353 is not a residue mod 998244353"),
        (3, "x", "not a decimal integer: 'x'"),
    ):
        text = " ".join(tokens[:at] + [bad] + tokens[at + 1 :])
        for length, expected in ((ell, message), (str(len(tokens) + 1), f"expected {int(ell) + 1} values, got {ell}")):
            assert run_cli(["tft", "--length", length], text, monkeypatch) == 2
            assert capsys.readouterr() == ("", f"error: {expected}\n")
    f = " ".join(tokens[:late] + ["x"] + tokens[late + 1 :])
    g = " ".join(tokens[:3] + ["998244353"] + tokens[4:])
    for text, expected in (
        (f"{f}\n{g}\n", "not a decimal integer: 'x'"),
        (f"{g}\n{f}\n", "998244353 is not a residue mod 998244353"),
        (f"{' '.join(tokens)}\n{g}\n", "998244353 is not a residue mod 998244353"),
        (f"\n{g}\n", "998244353 is not a residue mod 998244353"),
    ):
        assert run_cli(["mul"], text, monkeypatch) == 2
        assert capsys.readouterr() == ("", f"error: {expected}\n")
    data = bytearray(" ".join(["x"] + tokens[1:]), "ascii")
    data[2 * late] = 0xFF
    src = tmp_path / "in.txt"
    src.write_bytes(bytes(data))
    assert main(["itft", "--length", "5", "--input", str(src)]) == 2
    error = f"'ascii' codec can't decode byte 0xff in position {2 * late}: ordinal not in range(128)"
    assert capsys.readouterr() == ("", f"error: {error}\n")


def test_a_wrong_length_is_reported_before_any_buffer_is_made(monkeypatch, capsys, cli_scratch):
    # the buffer grows with the input, not with --length.  At the default
    # field's 2^23 a buffer made first would trace 64 MiB, so that is
    # checked first; only then the Goldilocks prime's 2^32, where it would
    # take 32 GiB
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 2 3"))
    code, peak, _ = cli_scratch["measure"](lambda: main(["tft", "--length", str(1 << 23)]))
    assert (code, *capsys.readouterr()) == (2, "", f"error: expected {1 << 23} values, got 3\n")
    assert peak < 1 << 20, peak
    argv = ["tft", "--modulus", "18446744069414584321", "--length", str(1 << 32)]
    assert run_cli(argv, "1 2 3", monkeypatch) == 2
    assert capsys.readouterr() == ("", f"error: expected {1 << 32} values, got 3\n")


def test_text_without_whitespace_reads_in_linear_time(monkeypatch, capsys):
    # a token that never ends is read again in a slice twice as wide each
    # time it fills one, so 2 MB of comma-separated values cost about two
    # passes (a few ms), not one per chunk (about 0.8 s when each chunk was
    # joined to the text before it)
    text = ",".join(["7"] * 1_000_000)
    for stdin in (io.StringIO(text), io.TextIOWrapper(io.BytesIO(text.encode()), "utf-8")):
        monkeypatch.setattr(sys, "stdin", stdin)
        start = time.perf_counter()
        assert main(["tft", "--length", "3"]) == 2
        elapsed = time.perf_counter() - start
        assert capsys.readouterr() == ("", "error: expected 3 values, got 1\n")
        assert elapsed < 0.25, elapsed


@pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
def test_stdin_bytes_are_decoded_as_a_whole_read_would(monkeypatch, capsys, errors):
    # bad bytes past the first chunks, a sequence cut by a chunk end, and
    # one cut by the end of the input: a strict stdin names each at its
    # position in the whole input, as one read of it would
    head = b"1 " * (4 * CHUNK // 2)
    for data in (
        head + b"\xff 2",
        head[:-1] + b"\xe2\x28 2",
        head[:-2] + b"\xc2\xa0\xe2\x82\xac 2",
        head[: CHUNK + 1] + b"\xe2\x82",
    ):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), "utf-8", errors))
        code = main(["tft", "--length", str(len(data.split()))])
        try:
            bad = next(token for token in data.decode("utf-8", errors).split() if not token.isdigit())
            expected = f"error: not a decimal integer: {bad!r}\n"
        except UnicodeDecodeError as exc:
            expected = f"error: {exc}\n"
        assert (code, *capsys.readouterr()) == (2, "", expected), data[-8:]


def _residues(rng, p, n):
    return [rng.randrange(p) for _ in range(n)]


# output lengths on either side of one, two, four and eight write runs
RUN_BOUNDARIES = [n * _RUN + d for n in (1, 4) for d in (-1, 0, 1)] + [2 * _RUN + 1, 8 * _RUN + 1]


@pytest.mark.parametrize("ell", sorted({1, 1024, 2500, *RUN_BOUNDARIES}))
@pytest.mark.parametrize(
    "command, kernel", [("tft", tft_in_place), ("itft", itft_in_place)], ids=["tft", "itft"]
)
def test_transform_output_across_write_runs(field, monkeypatch, capsys, command, kernel, ell):
    # the output goes out a bounded run of values at a time; the bytes are
    # those of the whole buffer, one value per line
    data = _residues(random.Random(ell), field.modulus, ell)
    code = run_cli([command, "--length", str(ell)], " ".join(map(str, data)), monkeypatch)
    out, err = capsys.readouterr()
    kernel(make_plan(field, ell), data)
    assert (code, err) == (0, "")
    assert out == "".join(f"{value}\n" for value in data)


@pytest.mark.parametrize(
    "sizes",
    [(1024, 1024), (1024, 1025)] + [(ell // 2 + 1, ell - ell // 2) for ell in RUN_BOUNDARIES] + [(1, 1)],
)
def test_mul_output_across_write_runs(field, monkeypatch, capsys, sizes):
    # products of 2047 and 2048 coefficients, of the run boundaries'
    # lengths and of one coefficient, on one space-separated line
    rng = random.Random(sum(sizes))
    f, g = (_residues(rng, field.modulus, n) for n in sizes)
    text = " ".join(map(str, f)) + "\n" + " ".join(map(str, g)) + "\n"
    code = run_cli(["mul"], text, monkeypatch)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out == " ".join(map(str, tft_polymul(f, g, field))) + "\n"


class _DigestSink:
    """A stdout that keeps only a running sha256 of what is written."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode())
        return len(text)

    def flush(self):
        pass


def test_counts_streams_its_rows(capsys, cli_scratch):
    # each row is printed as it is measured, so the sweep's traced peak
    # does not grow with the number of rows (it grew by about 324 B a row
    # when the reports were all kept until the sweep ended)
    main(["counts", "--min", "1", "--max", "1"])  # binds the checks
    capsys.readouterr()
    peaks, digests = {}, {}
    for high in (128, 1024):
        sink = _DigestSink()
        argv = ["counts", "--min", "1", "--max", str(high), "--kind", "both"]
        with redirect_stdout(sink):
            code, peaks[high], _ = cli_scratch["measure"](lambda: main(argv))
        assert code == 0
        digests[high] = sink.digest.hexdigest()
    assert peaks[1024] - peaks[128] < 4096, peaks
    main(["counts", "--min", "1", "--max", "128", "--kind", "both"])
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digests[128]


def test_counts_csv(monkeypatch, capsys):
    code = main(["counts", "--min", "1", "--max", "8", "--kind", "both"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == CSV_HEADER
    assert len(out) == 1 + 16
    assert all(line.endswith(",1") for line in out[1:])
    assert out[1].startswith("1,forward,")
    # frozen row: length 4 forward = 1 root product, 8 add/sub
    assert "4,forward,1,0,8,16,84,0,1" in out


def test_counts_digest_to_4096(capsys):
    # every count row for l = 1..4096, both kinds, byte for byte:
    # FORWARD_COUNTS and INVERSE_COUNTS pin only l <= 8
    assert main(["counts", "--min", "1", "--max", "4096", "--kind", "both"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "6481610b97077a68b524f89dbcc0552fe8cd8f11b652a354ce37ad9d6fc116be"
    )


def test_counts_single_kind(capsys):
    code = main(["counts", "--min", "4", "--max", "4", "--kind", "forward"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(out) == 2
    add_sub = int(out[1].split(",")[4])
    assert add_sub <= 16


def test_counts_bad_range(capsys):
    assert main(["counts", "--min", "5", "--max", "4"]) == 2
    assert main(["counts", "--min", "0", "--max", "4"]) == 2
    capsys.readouterr()


def test_counts_refuses_lengths_beyond_the_capacity_before_counting(monkeypatch, capsys):
    # the same message as selftest's, and not one length measured first
    calls = []
    monkeypatch.setattr(tftkit.cli, "measure_transform", lambda *args: calls.append(args))
    beyond = str((1 << 23) + 1)
    for argv in (["counts", "--min", "1", "--max", beyond], ["selftest", "--max", beyond]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --max exceeds the field's transform capacity\n"
    assert calls == []


def test_counts_reach_the_capacity(capsys):
    start = time.perf_counter()
    code = main(["counts", "--min", "8388607", "--max", "8388608", "--kind", "both"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out.splitlines()
    assert code == 0 and len(out) == 5
    rows = [row.split(",") for row in out[1:]]
    assert [row[:2] for row in rows] == [
        [ell, kind] for ell in ("8388607", "8388608") for kind in ("forward", "inverse")
    ]
    assert all(row[-1] == "1" for row in rows)
    assert elapsed < 1.0, elapsed


def test_selftest_small(capsys):
    code = main(["selftest", "--max", "16", "--seed", "7"])
    out, err = capsys.readouterr()
    assert code == 0
    assert err == ""
    assert out.splitlines() == [
        "seed: 7",
        "oracle-equivalence: ok",
        "round-trip: ok",
        "access-audit: ok",
        "operation-bounds: ok",
    ]


def test_selftest_reports_failures(monkeypatch, capsys):
    # a forward kernel that is off by one in its first entry breaks the
    # two families that call it; the other two run their own kernels
    real = tftkit.cli.tft_in_place

    def off_by_one(plan, buffer, ring=None):
        real(plan, buffer, ring)
        buffer[0] = (buffer[0] + 1) % plan.field.modulus

    monkeypatch.setattr(tftkit.cli, "tft_in_place", off_by_one)
    code = main(["selftest", "--max", "8", "--seed", "5"])
    out, err = capsys.readouterr()
    assert code == 1
    oracle = "length 1: forward transform disagrees with direct evaluation"
    round_trip = "length 1: inverse(forward) is not the identity"
    assert out.splitlines() == [
        "seed: 5",
        f"oracle-equivalence: FAIL ({oracle})",
        f"round-trip: FAIL ({round_trip})",
        "access-audit: ok",
        "operation-bounds: ok",
    ]
    assert err.splitlines() == [f"oracle-equivalence: {oracle}", f"round-trip: {round_trip}"]


def _last_entry_off_at(ell, real):
    # a kernel that is off by one in its last entry at length ell only:
    # at 33..40 the last point is each position of a coset of eight in
    # turn, the first of a coset that ell cuts short after one point included
    def kernel(plan, buffer, ring=None):
        real(plan, buffer, ring)
        if plan.ell == ell:  # an index, not -1, which an AuditBuffer refuses
            buffer[ell - 1] = (buffer[ell - 1] + 1) % plan.field.modulus

    return kernel


@pytest.mark.parametrize("ell", range(33, 41))
@pytest.mark.parametrize(
    "name, family, detail",
    [
        ("tft_in_place", "oracle-equivalence", "forward transform disagrees with direct evaluation"),
        ("itft_in_place", "round-trip", "inverse(forward) is not the identity"),
    ],
    ids=["forward", "inverse"],
)
def test_selftest_checks_every_entry(monkeypatch, capsys, ell, name, family, detail):
    # each family compares all ell entries, the last point of a length
    # included, and not only those a shorter sequence would reach; a
    # forward fault breaks the round trip as well
    monkeypatch.setattr(tftkit.cli, name, _last_entry_off_at(ell, getattr(tftkit.cli, name)))
    code = main(["selftest", "--max", "40", "--seed", "5"])
    out, err = capsys.readouterr()
    assert code == 1
    failing = [line for line in out.splitlines()[1:] if not line.endswith(": ok")]
    expected = [(family, f"length {ell}: {detail}")]
    if name == "tft_in_place":
        expected.append(("round-trip", f"length {ell}: inverse(forward) is not the identity"))
    assert failing == [f"{family}: FAIL ({detail})" for family, detail in expected]
    assert err.splitlines() == [f"{family}: {detail}" for family, detail in expected]


def _reads_minus_one(real):
    # a plain list wraps -1, an AuditBuffer refuses it: only the audit fails
    def kernel(plan, buffer, ring=None):
        buffer[-1]
        real(plan, buffer, ring)

    return kernel


@pytest.mark.parametrize(
    "name, fault, family, detail",
    [
        (
            "tft_in_place",
            _reads_minus_one,
            "access-audit",
            "length 1: transform touched an index outside [0, 1)",
        ),
        (
            "measure_transform",
            lambda real: lambda field, ell, kind: OpCounters(mul_other=1),
            "operation-bounds",
            "length 1: forward counts exceed the declared bounds",
        ),
    ],
    ids=["access-audit", "operation-bounds"],
)
def test_selftest_reports_audit_and_bound_failures(monkeypatch, capsys, name, fault, family, detail):
    monkeypatch.setattr(tftkit.cli, name, fault(getattr(tftkit.cli, name)))
    code = main(["selftest", "--max", "8", "--seed", "5"])
    out, err = capsys.readouterr()
    assert code == 1
    failing = [line for line in out.splitlines()[1:] if not line.endswith(": ok")]
    assert failing == [f"{family}: FAIL ({detail})"]
    assert err.splitlines() == [f"{family}: {detail}"]


def test_selftest_degenerate(capsys):
    assert main(["selftest", "--max", "1"]) == 0
    capsys.readouterr()


def test_selftest_bad_flags(capsys):
    assert main(["selftest", "--max", "0"]) == 2
    assert main(["selftest", "--max", str(1 << 24)]) == 2
    capsys.readouterr()


def test_selftest_is_deterministic(capsys):
    main(["selftest", "--max", "8", "--seed", "3"])
    first = capsys.readouterr()
    main(["selftest", "--max", "8", "--seed", "3"])
    assert capsys.readouterr() == first


def test_prng_stream_is_pinned():
    # regression pin: these values must never drift between releases
    g = xorshift64star(0)
    assert [next(g) for _ in range(3)] == [
        8307305640096511178,
        8845462177732129376,
        8083236197672306406,
    ]
    assert next(xorshift64star(1)) == 10474393251248582864
    # masked to 64 bits
    assert all(0 <= next(xorshift64star(s)) < 1 << 64 for s in range(50))


def test_selftest_draws_are_packed():
    # the values of the stream as a list of ints would hold them, packed
    # in 4-byte items below 2^32, 8-byte below 2^64, and a list above
    for modulus, code in ((998244353, "I"), ((1 << 64) - (1 << 32) + 1, "Q"), (5 * 2**75 + 1, None)):
        values = xorshift64star(3)
        expected = [next(values) % modulus for _ in range(9)]
        drawn = _draw(xorshift64star(3), modulus, 9)
        assert getattr(drawn, "typecode", None) == code
        assert list(drawn) == expected


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tftkit", "tft", "--modulus", "17", "--length", "3"],
        input="1 2 3\n",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "6\n2\n7\n"


def test_a_closed_output_stops_quietly():
    # a reader that stops early, as `| head -1` does, closes the pipe: the
    # CLI exits 141 (128 + SIGPIPE, what a shell reports for a command
    # stopped there) with nothing on stderr, not 1, the code of a failed
    # verification, with a traceback.  counts overflows the pipe's buffer,
    # so its rows meet the close mid-stream; selftest's few lines meet it
    # in the flush that ends the command, since the pipe closes first.
    counts = ["counts", "--min", "1", "--max", "4096", "--kind", "both"]
    for argv, lines_read in ((counts, 1), (["selftest", "--max", "8"], 0)):
        proc = subprocess.Popen(
            [sys.executable, "-m", "tftkit", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        for _ in range(lines_read):
            assert proc.stdout.readline() == (CSV_HEADER + "\n").encode()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (141, b""), argv


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "tftkit", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for name in ("tft", "itft", "mul", "counts", "selftest"):
        assert name in proc.stdout
    transform = {"--modulus": "default: 998244353", "--length": "required",
                 "--input": "default: stdin"}
    options = {
        "tft": transform,
        "itft": transform,
        "mul": {"--modulus": "default: 998244353", "--input": "default: stdin"},
        "counts": {"--min": "required", "--max": "required", "--kind": "default: forward"},
        "selftest": {"--max": "default: 256", "--seed": "default: 0"},
    }
    for command, marks in options.items():
        proc = subprocess.run(
            [sys.executable, "-m", "tftkit", command, "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0, command
        assert proc.stderr == ""
        listed = [line.split(maxsplit=1) for line in proc.stdout.splitlines()
                  if line.startswith("  --")]
        assert [option for option, _ in listed] == list(marks), command
        for option, rest in listed:
            assert rest.endswith(marks[option]), (command, option)


def test_import_leaves_numpy_unloaded():
    # numpy is most of the CLI's start-up time, and no module of the package uses it
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, tftkit.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_selftest_leaves_numpy_unloaded():
    # the selftest's oracle evaluates in pure Python, so no CLI command
    # needs numpy; run with site, where numpy can be found if installed
    code = "from tftkit.cli import main; rc = main(['selftest', '--max', '64']); print('numpy' in sys.modules, rc)"
    out = _fresh_interpreter(code, flags=())
    assert out.splitlines()[-1] == "False 0", out


def _fresh_interpreter(code, stdin=None, flags=("-S",)):
    # -S keeps site hooks from preloading modules, so the child sees what
    # tftkit itself imports
    src = str(Path(tftkit.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
        input=stdin,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# each of these costs start-up time that the transform and mul commands
# never use: argparse brings gettext, instrumentation and the oracles are
# compiled anew in every process when no bytecode is cached, and every
# annotation evaluates at run time without __future__
_UNUSED = ("dataclasses", "inspect", "typing", "numpy", "argparse", "gettext",
           "tftkit.instrumentation", "tftkit.oracle", "__future__")
_LOADED = f"[name for name in {_UNUSED!r} if name in sys.modules]"


def test_cli_import_skips_unused_stdlib():
    assert _fresh_interpreter(f"import tftkit.cli; print({_LOADED})") == "[]\n"
    code = f"from tftkit.cli import main; rc = main(['mul']); print({_LOADED}, rc)"
    assert _fresh_interpreter(code, "1 2\n3\n") == "3 6\n[] 0\n"


def test_package_loads_instrumentation_and_oracles_on_first_use():
    lazy = ("tftkit.instrumentation", "tftkit.oracle")
    code = (
        f"import tftkit; print([name for name in {lazy!r} if name in sys.modules]); "
        "print(all(getattr(tftkit, name) is not None for name in tftkit.__all__)); "
        f"print([name for name in {lazy!r} if name in sys.modules])"
    )
    assert _fresh_interpreter(code).splitlines() == ["[]", "True", str(list(lazy))]


def test_rebinding_survives_lazy_loading():
    # perfbench rebinds tftkit.cli.measure_transform to count a selftest
    # run; binding the checks on first use must not overwrite the wrapper
    code = """
import io, contextlib, tftkit.cli as cli
original = getattr(cli, "measure_transform")
calls = []
def counting(*args):
    calls.append(args)
    return original(*args)
cli.measure_transform = counting
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["selftest", "--max", "4"], ["counts", "--min", "1", "--max", "4"]):
        before = len(calls)
        assert cli.main(argv) == 0, argv
        assert len(calls) > before, argv
cli.measure_transform = original
from tftkit.instrumentation import measure_transform
assert original is measure_transform
print(len(calls))
"""
    # selftest measures both kinds at each length, counts the forward kind only
    assert int(_fresh_interpreter(code)) == 2 * 4 + 4
