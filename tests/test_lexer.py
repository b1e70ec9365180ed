"""The shared tokenizer front end, and both parsers under mutated input:
any text either parses, and then survives a render/parse round trip, or
raises its parser's positioned error (or, for a ``.mms`` file that
parses into an ill-formed system, ``InvalidSystemError``)."""

import pytest
from hypothesis import event, given, settings, strategies as st

from mobilemem import corpus
from mobilemem.ambient import AmbientSyntaxError, canonical_key, parse_ambient, render_process
from mobilemem.lexer import Cursor, PositionedError
from mobilemem.sysfile import InvalidSystemError, ParseError, SystemFile, parse_system, render_system


def _mms(system, timed: bool) -> str:
    config, rules = system
    return render_system(SystemFile(timed, config.output_label, config, tuple(rules)))


MMS_TEXTS = [_mms(corpus.random_timed_system(i), True) for i in range(10)] + [
    _mms(corpus.random_untimed_system(i), False) for i in range(10)
]
AMB_TEXTS = [render_process(corpus.random_reducible_process(i)) for i in range(10)] + [
    render_process(p) for p in corpus.hand_processes()
]
# every punctuation mark and operator of both languages, a stray character,
# digits, letters and the characters that end or comment out a line
_ALPHABET = "[]();,|:+-*~.=>#@$_ \n0123456789abmnsx"


@st.composite
def _mutated(draw, texts):
    """One of ``texts`` with up to three spans of at most four characters
    replaced by up to three drawn characters each."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 4)))
        text = text[:i] + draw(st.text(_ALPHABET, max_size=3)) + text[j:]
    return text


def _assert_positioned(err: PositionedError, text: str) -> None:
    assert str(err).startswith(f"{err.line}:{err.col}: ")
    assert 1 <= err.line <= text.count("\n") + 1 and err.col >= 1


def test_both_parse_errors_share_one_positioned_base():
    assert issubclass(ParseError, PositionedError) and issubclass(AmbientSyntaxError, PositionedError)
    with pytest.raises(ParseError, match=r"^3:1: expected 'membrane label', found ''$"):
        parse_system("mms 1 timed\noutput skin\n")
    with pytest.raises(AmbientSyntaxError, match=r"^1:9: expected a timer \(natural number or inf\)$"):
        parse_ambient("n:2[ in:x m ]")


def test_cursor_stays_on_the_last_token():
    cursor = Cursor("a", set())
    assert cursor.next()[:2] == ("ident", "a")
    assert cursor.next()[0] == cursor.next()[0] == cursor.peek()[0] == "eof"
    with pytest.raises(PositionedError, match=r"^1:2: expected 'int', found ''$"):
        cursor.expect("int")


@settings(max_examples=300, deadline=None)
@given(_mutated(MMS_TEXTS))
def test_mms_parser_parses_or_points_at_the_fault(text):
    try:
        sf = parse_system(text)
    except ParseError as err:
        event("syntax error")
        _assert_positioned(err, text)
        return
    except InvalidSystemError as err:
        event("invalid system")
        assert err.violations
        return
    event("parsed")
    rendered = render_system(sf)
    assert render_system(parse_system(rendered)) == rendered


@settings(max_examples=300, deadline=None)
@given(_mutated(AMB_TEXTS))
def test_ambient_parser_parses_or_points_at_the_fault(text):
    try:
        p = parse_ambient(text)
    except AmbientSyntaxError as err:
        event("syntax error")
        _assert_positioned(err, text)
        return
    event("parsed")
    assert canonical_key(parse_ambient(render_process(p))) == canonical_key(p)
