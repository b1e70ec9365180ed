"""The tokenizer and token cursor shared by the ``.mms`` and ``.amb``
parsers.

A token is a triple ``(kind, value, index)``: its kind, its text and its
place in the text's token list. A language (its punctuation marks,
operators and the extra characters of its identifiers) has one
``Scanner``, a compiled pattern that reads one token per match, so that
one ``findall`` tokenizes a whole text in C. A token carries no position:
``Scanner.position`` works out a token's ``line:col`` when an error is
raised there, by running the same pattern up to that token.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import islice
from string import ascii_letters, digits
from typing import Callable, Collection, NoReturn

from .core import INF, Timer


class PositionedError(ValueError):
    """Bad input at ``line:col``; the message starts with that position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class Scanner:
    """One language's tokenizer. The pattern skips white space (what
    ``str.isspace`` calls white space) and ``#`` comments, which run to
    the end of the line, then reads one token: an operator, a punctuation
    mark, an ASCII integer, an identifier, the end of the text, or any
    other single character, which ``tokenize`` refuses. Operators are
    tried in the order given, before punctuation. Identifiers start with
    an ASCII letter or a character of ``ident_extra`` and go on with
    those and ASCII digits. Only ``"\\n"`` starts a line."""

    def __init__(self, punct: Collection[str], operators: tuple[str, ...], ident_extra: str):
        extra = "".join(map(re.escape, ident_extra))
        token = [re.escape(op) for op in operators]
        if punct:
            token.append(f"[{''.join(map(re.escape, sorted(punct)))}]")
        token += ["[0-9]+", f"[A-Za-z{extra}][A-Za-z0-9{extra}]*", ".", r"\Z"]
        self.pattern = re.compile(rf"\s*(?:#[^\n]*\s*)*({'|'.join(token)})", re.DOTALL)
        self.kinds = {mark: mark for mark in (*punct, *operators)}
        self.kinds[""] = "eof"
        self.starts = dict.fromkeys(digits, "int") | dict.fromkeys(ascii_letters + ident_extra, "ident")

    def tokenize(self, text: str, error: Callable) -> tuple[list[str], list[str]]:
        """``text``'s tokens as two lists, their kinds and their values:
        token ``i`` is ``(kinds[i], values[i], i)``, and the last is the
        one ``eof`` token. A punctuation mark or an operator is its own
        kind; the other kinds are ``int`` and ``ident``. The first
        character that starts no token raises ``error(message, line,
        col)``."""
        values = self.pattern.findall(text)
        if len(values) > 1 and not values[-2]:
            # white space or a comment ends the text: the end matched
            # once after it and once, empty, at the very end
            values.pop()
        table = dict(self.kinds)
        starts = self.starts
        for value in set(values).difference(table):
            table[value] = starts.get(value[0])  # an integer, an identifier or None
        if None in table.values():
            index = min(values.index(value) for value, kind in table.items() if kind is None)
            raise error(f"unexpected character {values[index]!r}", *self.position(text, index))
        return list(map(table.__getitem__, values)), values

    def position(self, text: str, index: int) -> tuple[int, int]:
        """``(line, col)`` of token ``index`` of ``text``, counted from
        1: columns count characters, and a comment that ends the text
        counts none, so the end of the text stands where that comment
        starts."""
        start = next(islice(self.pattern.finditer(text), index, None)).start(1)
        line_start = text.rfind("\n", 0, start) + 1
        if start == len(text):
            comment = text.find("#", line_start)
            if comment >= 0:
                start = comment
        return text.count("\n", 0, start) + 1, start - line_start + 1


@lru_cache(maxsize=16)
def scanner(punct: frozenset, operators: tuple[str, ...] = (), ident_extra: str = "_") -> Scanner:
    """The ``Scanner`` of one language, built once per process."""
    return Scanner(punct, operators, ident_extra)


class Cursor:
    """A parser's place in the tokens of one text, which it holds as the
    scanner's two lists ``kinds`` and ``values``; ``peek`` and ``next``
    hand out token triples. A subclass names the ``PositionedError`` it
    raises as ``error``. ``next`` does not move past the ``eof`` token,
    so ``peek`` always has a token to show."""

    error: type[PositionedError] = PositionedError

    def __init__(self, text: str, punct: Collection[str], operators: tuple[str, ...] = (), ident_extra: str = "_"):
        self.text = text
        self.scanner = scanner(frozenset(punct), tuple(operators), ident_extra)
        self.kinds, self.values = self.scanner.tokenize(text, self.error)
        self.pos = 0

    def peek(self) -> tuple:
        p = self.pos
        return self.kinds[p], self.values[p], p

    def next(self) -> tuple:
        p = self.pos
        kind = self.kinds[p]
        if kind != "eof":
            self.pos = p + 1
        return kind, self.values[p], p

    def fail(self, message: str, tok: tuple | None = None) -> NoReturn:
        """Raise ``error`` at ``tok``, by default at the next token."""
        raise self.error(message, *self.scanner.position(self.text, (tok or self.peek())[2]))

    def expect(self, kind: str, what: str = "") -> tuple:
        tok = self.next()
        if tok[0] != kind:
            self.refuse(tok[2], what or kind)
        return tok

    def refuse(self, p: int, what: str) -> NoReturn:
        """Raise ``expect``'s error at token ``p``, which is not ``what``."""
        self.pos = p
        self.fail(f"expected {what!r}, found {self.values[p]!r}")

    def timer(self) -> Timer:
        tok = self.next()
        if tok[0] == "int":
            return int(tok[1])
        if tok[0] == "ident" and tok[1] == "inf":
            return INF
        self.fail("expected a timer (natural number or inf)", tok)
