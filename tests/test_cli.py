"""Command-line surface: golden outputs, exit codes, stream discipline."""

import io
import subprocess
import sys
from pathlib import Path

import pytest

import tftkit
from tftkit.cli import CSV_HEADER, main, xorshift64star
from tftkit.instrumentation import OpCounters


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


def test_option_forms(monkeypatch, capsys):
    code = run_cli(["tft", "--modulus=17", "--length=3"], "1 2 3", monkeypatch)
    assert (code, capsys.readouterr().out) == (0, "6\n2\n7\n")
    assert main(["selftest", "--max=2", "--seed", "-5"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "seed: -5"


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
    # numpy is most of the CLI's start-up time, and only the oracles use it
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, tftkit.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


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
# never use: argparse brings gettext, and instrumentation and the oracles
# are compiled anew in every process when no bytecode is cached
_UNUSED = ("dataclasses", "inspect", "typing", "numpy", "argparse", "gettext",
           "tftkit.instrumentation", "tftkit.oracle")
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
    # with site, for the numpy the selftest's oracle needs; selftest
    # measures both kinds at each length, counts the forward kind only
    assert int(_fresh_interpreter(code, flags=())) == 2 * 4 + 4
