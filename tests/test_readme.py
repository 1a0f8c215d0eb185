"""The README's examples, checked against what the code returns.

Each ```python block runs in one shared namespace, in order.  A line
``expr  # value`` must evaluate to ``value``, and a line
``stmt  # name -> value`` must leave ``name`` equal to ``value``.  Each
``$ [printf '...' |] python3 -m tftkit ...`` line of a ```sh block runs
through ``tftkit.cli.main`` with the printf text on stdin, and its
stdout must be the lines shown under it, byte for byte.
"""

import ast
import io
import re
import shlex
import sys
from pathlib import Path

from tftkit.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
VALUE = re.compile(r"^(.*?)\s+# (?:(\w+) -> )?(.*)$")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_python_examples_show_what_the_code_returns():
    namespace = {}
    checked = 0
    for block in _blocks("python"):
        for line in block.splitlines():
            match = VALUE.match(line)
            if match is None:
                exec(line, namespace)
                continue
            code, name, shown = match.groups()
            if name is None:
                got = eval(code, namespace)
            else:
                exec(code, namespace)
                got = namespace[name]
            assert got == ast.literal_eval(shown), line
            checked += 1
    assert checked == 7


def _cli_examples():
    for block in _blocks("sh"):
        for example in block.split("$ ")[1:]:
            command, *shown = example.rstrip("\n").split("\n")
            words = shlex.split(command)
            stdin = ""
            if words[0] == "printf":
                stdin = words[1].replace("\\n", "\n")
                words = words[3:]
            assert words[:3] == ["python3", "-m", "tftkit"], command
            yield command, words[3:], stdin, "".join(f"{line}\n" for line in shown)


def test_cli_examples_print_what_the_readme_shows(monkeypatch, capsys):
    examples = list(_cli_examples())
    assert len(examples) == 4
    for command, argv, stdin, shown in examples:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        assert main(argv) == 0, command
        assert capsys.readouterr().out == shown, command
