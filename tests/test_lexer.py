"""The shared tokenizer front end, and both parsers under mutated input:
any text either parses, and then survives a render/parse round trip, or
raises its parser's positioned error (or, for a ``.mms`` file that
parses into an ill-formed system, ``InvalidSystemError``). Digests pin
the outcomes of seeded character mutants of both languages, and the
scanner's edge cases (line ends, white space outside ASCII, comments
that end a file, prefixes cut at every token) are pinned by their exact
messages."""

import hashlib
import random
import re
import sys

import pytest
from hypothesis import event, given, settings, strategies as st

from mobilemem import corpus
from mobilemem.ambient import AmbientSyntaxError, canonical_key, parse_ambient, render_process
from mobilemem.lexer import Cursor, PositionedError, scanner
from mobilemem.sysfile import InvalidSystemError, ParseError, SystemFile, parse_system, render_system
from conftest import examples
from systems import hand_processes
from test_sysfile import _parse_outcome


def _mms(system, timed: bool) -> str:
    config, rules = system
    return render_system(SystemFile(timed, config.output_label, config, tuple(rules)))


MMS_TEXTS = [_mms(corpus.random_timed_system(i), True) for i in range(10)] + [
    _mms(corpus.random_untimed_system(i), False) for i in range(10)
]
AMB_TEXTS = [render_process(corpus.random_reducible_process(i)) for i in range(10)] + [
    render_process(p) for p in hand_processes()
]
# every punctuation mark and operator of both languages, a stray character,
# digits, letters, a digit and a letter outside ASCII, and the characters
# that end or comment out a line
_ALPHABET = "[]();,|:+-*~.=>#@$_ \n0123456789abmnsx\u00b2\u00e9"


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


def test_a_token_is_its_kind_value_and_index():
    cursor = Cursor("a =>\n  12 ~b # c\n", {"~"}, ("=>",))
    tokens = [cursor.next() for _ in range(6)]
    assert tokens == [("ident", "a", 0), ("=>", "=>", 1), ("int", "12", 2), ("~", "~", 3), ("ident", "b", 4),
                      ("eof", "", 5)]
    assert [cursor.scanner.position(cursor.text, i) for i in range(6)] == [(1, 1), (1, 3), (2, 3), (2, 6), (2, 7),
                                                                         (3, 1)]


def test_each_language_builds_its_scanner_once():
    parse_system(MMS_TEXTS[0])
    parse_ambient(AMB_TEXTS[0])
    built = scanner.cache_info().misses
    for _ in range(3):
        parse_system(MMS_TEXTS[1])
        parse_ambient(AMB_TEXTS[1])
    assert scanner.cache_info().misses == built


def test_the_scanner_skips_what_str_isspace_calls_white_space():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    spaces = "".join(filter(str.isspace, every))
    assert "".join(re.findall(r"\s", every)) == spaces
    assert Cursor(spaces + "a" + spaces, set()).kinds == ["ident", "eof"]


@settings(max_examples=examples(300), deadline=None)
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


@settings(max_examples=examples(300), deadline=None)
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


# -- pinned outcomes -----------------------------------------------------------

def _char_mutants(texts: list, n: int, seed: int = 0):
    """``n`` seeded mutants of ``texts``, edited as ``_mutated`` edits:
    up to three spans of at most four characters, each replaced by up to
    three characters of ``_ALPHABET``."""
    rng = random.Random(seed)
    for _ in range(n):
        text = rng.choice(texts)
        for _edit in range(rng.randint(1, 3)):
            i = rng.randint(0, len(text))
            j = rng.randint(i, min(len(text), i + 4))
            text = text[:i] + "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 3))) + text[j:]
        yield text


def _amb_outcome(text: str) -> str:
    try:
        p = parse_ambient(text)
    except AmbientSyntaxError as err:
        return f"AmbientSyntaxError {err.line}:{err.col} {err}"
    return canonical_key(p)


def _digest(outcomes: list) -> str:
    return hashlib.sha256("\0".join(outcomes).encode()).hexdigest()


def test_parse_outcomes_of_mutated_amb_texts_are_pinned():
    # the canonical key, or the positioned error, of 5,000 seeded mutants
    # of the .amb texts; any change to what the reader accepts, builds or
    # reports, or where it says a fault is, moves the digest
    outcomes = [_amb_outcome(text) for text in _char_mutants(AMB_TEXTS, 5000)]
    assert sum(outcome.startswith("AmbientSyntaxError") for outcome in outcomes) > 1000
    assert sum(not outcome.startswith("AmbientSyntaxError") for outcome in outcomes) > 200
    assert _digest(outcomes) == "87ad1bba6ec4fcffb8903ff4e31ec24e7f3cf3f66439e17c7445b8a1491baa09"


def test_parse_outcomes_of_character_mutants_of_mms_texts_are_pinned():
    # as above for the .mms texts, with the characters that stray into a
    # file by hand: comments, line ends, '=', '@', '²' and 'é'
    outcomes = [_parse_outcome(text) for text in _char_mutants(MMS_TEXTS, 5000)]
    kinds = {outcome.split(" ", 1)[0] for outcome in outcomes}
    assert {"ParseError", "InvalidSystemError", "mms"} <= kinds
    assert _digest(outcomes) == "2f8c17bb1ab756156a9b9788688d189b62e236aedd0b56572e0be78dd103c3f1"


# -- edge cases of the scanner -------------------------------------------------

_TIMED_HEAD = "mms 1 timed\noutput skin\n"


@pytest.mark.parametrize("text, message", [
    # CRLF: '\r' is a column, only '\n' starts a line
    ("mms 1 timed\r\noutput skin\r\nskin:inf[ a:x ]\r\n", "3:13: expected a timer (natural number or inf)"),
    ("mms 1 timed\r\noutput skin\r\nskin:inf[ a:2 ]\r\nrw * : a => b:+1 c\r\n", "5:1: product c needs ':+timer' or ':-'"),
    # no-break space and line separator are white space that starts no line
    ("mms 1 timed\u2028output skin\nskin:inf[\xa0a:2\u2028] @", "2:17: unexpected character '@'"),
    ("mms\xa01\xa0timed\noutput skin\u2028\u2028skin:2[]", "2:22: the outermost membrane must have timer inf"),
    # a comment that ends the file without a line end
    ("mms 1 timed\noutput skin # the skin is missing", "2:13: expected 'membrane label', found ''"),
    (_TIMED_HEAD + "skin:inf[ a:1 ] # rules follow\nrw * : a => b:+ # no line end", "4:17: expected a timer (natural number or inf)"),
    (_TIMED_HEAD + "skin:inf[ a:1 ]\nrw * : a => c #", "4:15: product c needs ':+timer' or ':-'"),
    # a lone '=', and '=>' split by a space
    (_TIMED_HEAD + "skin:inf[ a:1 ]\nrw * : a = b:+1\n", "4:10: unexpected character '='"),
    (_TIMED_HEAD + "skin:inf[ a:1 ]\nrw * : a = > b:+1\n", "4:10: unexpected character '='"),
])
def test_scanner_edge_cases_are_pinned(text, message):
    with pytest.raises(ParseError) as caught:
        parse_system(text)
    assert str(caught.value) == message


def test_non_ascii_characters_after_a_long_prefix_are_refused_where_they_stand():
    text = MMS_TEXTS[8]
    for ch in "\u00b2\u00e9":
        for cut in (len(text) - 1, len(text) // 2):
            with pytest.raises(ParseError) as caught:
                parse_system(text[:cut] + ch + text[cut:])
            line, col = text.count("\n", 0, cut) + 1, cut - text.rfind("\n", 0, cut)
            assert str(caught.value) == f"{line}:{col}: unexpected character {ch!r}"
    with pytest.raises(AmbientSyntaxError, match="^1:6: unexpected character '\u00e9'$"):
        parse_ambient("n:2[ \u00e9 ]")
    with pytest.raises(ParseError, match="^8:2: unexpected character '\u00b2'$"):
        parse_system(MMS_TEXTS[3] + "z\u00b2")


_PREFIX_DIGESTS = {
    8: "bda1859a922b2022ddc963f73005106b9812a0b23226293e533dc90958382da2",
    9: "1e4e80eaf9e2c1b5416331228f1e05ff53d48916f984a43c5e13c7fb232885e2",
}


@pytest.mark.parametrize("seed", sorted(_PREFIX_DIGESTS))
def test_every_token_prefix_of_a_timed_file_fails_at_its_end(seed):
    # a rendered timed corpus file cut after each of its tokens either
    # parses or fails where the text ends
    text = MMS_TEXTS[seed]
    outcomes = []
    for m in re.finditer(r"=>|[A-Za-z0-9_$]+|\S", text):
        prefix = text[:m.end()]
        try:
            parse_system(prefix)
        except ParseError as err:
            end = (prefix.count("\n") + 1, len(prefix) - prefix.rfind("\n"))
            assert (err.line, err.col) == end
            outcomes.append(str(err))
        else:
            outcomes.append("parsed")
    assert sum(o.endswith(", found ''") for o in outcomes) > len(outcomes) // 2
    assert _digest(outcomes) == _PREFIX_DIGESTS[seed]
