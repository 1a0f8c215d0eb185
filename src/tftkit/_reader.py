"""tft and itft input, read in bounded chunks straight onto the buffer.

``cmd_transform`` imports this module when it runs, so that the other
commands' start-up does not compile it.
"""

import codecs
import sys

from .cli import _parse_residues

CHUNK = 4096  # bytes read at a time (characters from a text stream)


def _decode_error(exc: UnicodeDecodeError, shift: int) -> ValueError:
    # the error one decode of the whole input gives, for exc raised on bytes
    # that start shift bytes into the input
    start, end = shift + exc.start, shift + exc.end
    if end == start + 1:
        where = f"byte 0x{exc.object[exc.start]:02x} in position {start}"
    else:
        where = f"bytes in position {start}-{end - 1}"
    return ValueError(f"'{exc.encoding}' codec can't decode {where}: {exc.reason}")


def _text_chunks(path: str | None):
    # the input's text a chunk at a time, then "" at its end; its bytes are
    # decoded as one read of the whole input would decode them, so a byte
    # that does not decode is named at its position in the input
    if path is None and not hasattr(sys.stdin, "buffer"):  # text with no bytes beneath
        yield from iter(lambda: sys.stdin.read(CHUNK), "")
        yield ""
        return
    if path is None:
        raw, encoding, errors = sys.stdin.buffer, sys.stdin.encoding, sys.stdin.errors
    else:
        raw, encoding, errors = open(path, "rb"), "ascii", "strict"
    decoder, offset = codecs.getincrementaldecoder(encoding)(errors), 0
    try:
        while True:
            data = raw.read(CHUNK)
            held = len(decoder.getstate()[0])  # bytes of a character cut at the last chunk's end
            try:
                text = decoder.decode(data, final=not data)
            except UnicodeDecodeError as exc:
                raise _decode_error(exc, offset - held) from None
            offset += len(data)
            if text:
                yield text
            if not data:
                yield ""
                return
    finally:
        if path is not None:
            raw.close()


def read_residues(path: str | None, length: int, modulus: int) -> list[int]:
    # the input's tokens, converted onto the end of the buffer a chunk at a
    # time; the pieces of a token cut by chunk ends are joined once it ends.
    # Past length tokens, or after a bad one, the rest are only counted, so
    # that a wrong count is still reported first.
    buffer, count, problem, pieces = [], 0, None, []
    for chunk in _text_chunks(path):
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
