"""The positioned tokenizer and token cursor shared by the ``.mms`` and
``.amb`` parsers."""

from __future__ import annotations

from typing import Callable, Collection, NoReturn

from .core import INF, Timer


class PositionedError(ValueError):
    """Bad input at ``line:col``; the message starts with that position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


def tokenize(
    text: str,
    punct: Collection[str],
    error: Callable,
    operators: tuple[str, ...] = (),
    ident_extra: str = "_",
) -> list[tuple]:
    """Tokens ``(kind, value, line, col)``, ending with an ``eof`` token.

    A punctuation character or an operator is its own kind; the other kinds
    are ``int`` and ``ident``. Identifiers start with a letter or a
    character of ``ident_extra`` and go on with letters, digits and
    ``ident_extra``. ``#`` starts a comment that runs to the end of the
    line. Any other character raises ``error(message, line, col)``.
    """
    op_starts = {op[0] for op in operators}
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line, col = line + 1, 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch in op_starts and text.startswith(operators, i):
            op = next(op for op in operators if text.startswith(op, i))
            tokens.append((op, op, line, col))
            i += len(op)
            col += len(op)
            continue
        if ch in punct:
            tokens.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch in ident_extra:
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in ident_extra):
                j += 1
            tokens.append(("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise error(f"unexpected character {ch!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


class Cursor:
    """A parser's place in the tokens of one text. A subclass names the
    ``PositionedError`` it raises as ``error``. ``next`` does not move
    past the ``eof`` token, so ``peek`` always has a token to show."""

    error: type[PositionedError] = PositionedError

    def __init__(self, text: str, punct: Collection[str], operators: tuple[str, ...] = (), ident_extra: str = "_"):
        self.tokens = tokenize(text, punct, self.error, operators, ident_extra)
        self.pos = 0

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def next(self) -> tuple:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str, tok: tuple | None = None) -> NoReturn:
        """Raise ``error`` at ``tok``, by default at the next token."""
        _kind, _val, line, col = tok or self.peek()
        raise self.error(message, line, col)

    def expect(self, kind: str, what: str = "") -> tuple:
        tok = self.next()
        if tok[0] != kind:
            self.fail(f"expected {what or kind!r}, found {tok[1]!r}", tok)
        return tok

    def timer(self) -> Timer:
        tok = self.next()
        if tok[0] == "int":
            return int(tok[1])
        if tok[0] == "ident" and tok[1] == "inf":
            return INF
        self.fail("expected a timer (natural number or inf)", tok)
