"""Command-line surface: golden outputs, exit codes, stream discipline."""

import io
import subprocess
import sys
from pathlib import Path

import pytest

import tftkit
from tftkit.cli import CSV_HEADER, main, xorshift64star


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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tftkit", "tft", "--modulus", "17", "--length", "3"],
        input="1 2 3\n",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "6\n2\n7\n"


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "tftkit", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for name in ("tft", "itft", "mul", "counts", "selftest"):
        assert name in proc.stdout


def test_import_leaves_numpy_unloaded():
    # numpy is most of the CLI's start-up time, and only the oracles use it
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, tftkit.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cli_import_skips_unused_stdlib():
    # -S keeps site hooks from preloading modules, so the check sees what
    # tftkit.cli itself imports; each of these costs CLI start-up time
    src = str(Path(tftkit.__file__).resolve().parent.parent)
    unused = ("dataclasses", "inspect", "typing", "numpy")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import tftkit.cli; "
        f"print([name for name in {unused!r} if name in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
