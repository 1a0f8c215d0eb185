"""tft and itft input, read once and split in bounded slices of the text
onto the buffer.

The parse holds the decoded text beside the buffer, but never more than
one slice's token strings.  Malformed input far longer than ``--length``
is held whole, as its text.  ``cmd_transform`` imports this module when
it runs, so that the other commands' start-up does not compile it.
"""

from .cli import _parse_residues, _read_text

CHUNK = 4096  # characters of the text split at a time


def read_residues(path: str | None, length: int, modulus: int) -> list[int]:
    # the input's tokens, converted onto the end of the buffer a slice of
    # the text at a time; the text is decoded in one read, so a byte that
    # does not decode is named at its position in the input.  The pieces of
    # a token cut by slice ends are joined once it ends; the last slice is
    # empty, so a token at the text's end is flushed.  Past length tokens,
    # or after a bad one, the rest are only counted, so that a wrong count
    # is still reported first.
    text = _read_text(path)
    buffer, count, problem, pieces = [], 0, None, []
    for start in range(0, len(text) + CHUNK, CHUNK):
        chunk = text[start : start + CHUNK]
        tokens = chunk.split()
        if pieces and chunk and not chunk[0].isspace():  # the cut token runs on
            pieces.append(tokens[0])
            if len(tokens) == 1 and not chunk[-1].isspace():
                continue
            tokens[0] = "".join(pieces)
        elif pieces:
            tokens.insert(0, "".join(pieces))
        pieces = [tokens.pop()] if chunk and not chunk[-1].isspace() else []
        count += len(tokens)
        if problem is None and count <= length:
            try:
                buffer += _parse_residues(tokens, modulus)
            except ValueError as exc:
                problem = str(exc)
    if count != length:
        raise ValueError(f"expected {length} values, got {count}")
    if problem is not None:
        raise ValueError(problem)
    return buffer
