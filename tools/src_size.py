"""Print the size of the package source: per module and in total, its
lines and its code lines, and the number of public names.

Code lines leave out blank lines, comment-only lines and docstrings (the
first string statement of a module, class or function).  A line that
holds any other token counts once, and so does every line a multi-line
token (such as a string that is not a docstring) spans.

Usage: python tools/src_size.py [SRC]    (SRC defaults to src/ beside tools/)
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main(argv) -> None:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    package = src / "tftkit"
    total = code = 0
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        n, c = len(text.splitlines()), code_lines(text)
        total += n
        code += c
        print(f"{path.name:20} {n:6} {c:6}")
    print(f"{'total':20} {total:6} {code:6}")
    sys.path.insert(0, str(src))
    import tftkit

    print(f"public names: {len(tftkit.__all__)}")


if __name__ == "__main__":
    main(sys.argv)
