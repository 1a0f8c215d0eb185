"""The package's public names, and the names the benchmark tracer rebinds.

``perfbench/spans.py`` traces a run by rebinding names such as
``tftkit.polymul.make_plan`` in each module that calls them.  A home
name that goes makes the traced run fail; a caller module that stops
holding the original is skipped without an error, so its layer would
vanish from the traces.  These tests catch both in the tier-1 suite,
and hold the README's count of the public names to ``tftkit.__all__``.
"""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import tftkit

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def _spans_namespace() -> dict:
    # compiled from the source text: importing it would write bytecode
    # next to the benchmark files; it imports only the standard library
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace


def test_public_names_are_pinned():
    assert sorted(tftkit.__all__) == [
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
    for name in tftkit.__all__:
        assert hasattr(tftkit, name), name


def test_readme_states_the_public_name_count():
    stated = re.findall(r"`tftkit\.__all__`\s+has\s+(\d+)\s+names", (ROOT / "README.md").read_text())
    assert stated and all(int(count) == len(tftkit.__all__) for count in stated), stated


def test_traced_names_are_bound_in_every_caller():
    targets = _spans_namespace()["TARGETS"]
    assert targets
    for span, (home, attr, callers) in targets.items():
        original = getattr(importlib.import_module(home), attr)
        for caller in callers:
            held = getattr(importlib.import_module(caller), attr, None)
            assert held is original, f"{span}: {caller}.{attr}"
    cli = importlib.import_module("tftkit.cli")
    assert callable(cli.PrimeField.from_modulus)


def test_benchmark_refusal_hook_still_runs():
    # perfbench/selfcheck.py runs every workload at tiny sizes on the
    # package's rings, and its check_refusal injects input-dependent
    # counts through CountingField.add, the one member kept outside the
    # ring protocol; a ring member that CountingField lacks fails it.
    # -B keeps bytecode out of the benchmark directory
    path = os.pathsep.join(str(ROOT / d) for d in ("src", "perfbench"))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-B", str(ROOT / "perfbench" / "selfcheck.py")],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "selfcheck: ok", done.stdout


def test_dir_lists_the_lazy_names_without_importing_them():
    # the instrumentation and oracle names load on first use, but dir(),
    # and so help() and completion, lists them before that
    code = (
        "import sys, tftkit; "
        "print(set(tftkit.__all__) <= set(dir(tftkit)), "
        "'tftkit.instrumentation' in sys.modules, 'tftkit.oracle' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True False False\n"
