import hashlib
import random

import pytest

from mobilemem.core import (
    Carry,
    Configuration,
    EndoRule,
    ExoRule,
    Fresh,
    INF,
    Multiset,
    RewriteRule,
    Symbol,
    canonicalize,
    mem,
    validate,
)
from mobilemem.untimed import u_canonicalize
from mobilemem.sysfile import InvalidSystemError, ParseError, SystemFile, parse_system, render_system
from mobilemem.corpus import random_reducible_process, random_timed_system, random_untimed_system
from mobilemem.translate import generate_rules, translate
from conftest import count_calls

a, b = Symbol("a"), Symbol("b")

S1_TEXT = """
# a mover with a handshake partner
mms 1 timed
output skin

skin:inf[ ; h:3[ a:2, b:5 ] m:inf[ ~a:4 ] ]

endo h m : a |  , ~a |  => c:+7 |
"""


def test_parse_s1():
    sf = parse_system(S1_TEXT)
    assert sf.timed and sf.output == "skin"
    assert canonicalize(sf.config) == \
        "skin:inf{}[h:3{a:2,b:5}[] m:inf{~a:4}[]]|out=skin"
    (rule,) = sf.rules
    assert isinstance(rule, EndoRule)
    assert rule.u == Multiset([a]) and rule.w == ((Symbol("c"), Fresh(7)),)


def test_roundtrip_is_stable():
    sf = parse_system(S1_TEXT)
    text = render_system(sf)
    again = parse_system(text)
    assert canonicalize(again.config) == canonicalize(sf.config)
    assert again.rules == sf.rules
    assert render_system(again) == text


def test_roundtrip_random_systems():
    for seed in range(40):
        config, rules = random_timed_system(seed)
        sf = SystemFile(True, "skin", config, rules)
        again = parse_system(render_system(sf))
        assert canonicalize(again.config) == canonicalize(config)
        assert render_system(again) == render_system(sf)
    for seed in range(40):
        config, rules = random_untimed_system(seed)
        sf = SystemFile(False, "skin", config, rules)
        again = parse_system(render_system(sf))
        assert u_canonicalize(again.config) == u_canonicalize(config)
        assert render_system(again) == render_system(sf)


def test_carry_syntax_binds_matching_occurrences():
    text = """mms 1 timed
output skin
skin:inf[ ; h:2[ a:3, a:5 ] m:4[ ~a:2 ] ]
endo h m : a a | , ~a ~a | => a:- a:- |
"""
    (rule,) = parse_system(text).rules
    assert rule.w == ((a, Carry(0)), (a, Carry(1)))


def test_untimed_format():
    text = """mms 1 untimed
output out
skin[ a, ~b ; h[ a ] ]
rw * : a => b
exo h skin : a | , ~a | => |
"""
    sf = parse_system(text)
    assert not sf.timed
    assert u_canonicalize(sf.config) == "skin{a,~b}[h{a}[]]|out=out"
    rw, exo = sf.rules
    assert isinstance(rw, RewriteRule) and rw.at is None
    assert rw.rhs == ((b, Fresh(INF)),)
    assert isinstance(exo, ExoRule)


def test_header_flags():
    text = """mms 1 timed strict
output skin
skin:inf[]
endo h m : a | , ~a | => |
"""
    sf = parse_system(text)
    assert sf.strict and sf.rules[0].keep_active_timer
    text2 = text.replace("timed strict", "untimed compiled").replace(":inf", "") \
                .replace("endo h m : a | , ~a | => |", "")
    assert parse_system(text2).compiled


def test_rendering_refuses_a_strict_flag_its_rules_do_not_carry():
    # a reader gives every movement rule the header's ``strict``, so a
    # file whose flag and rules disagree would read back as another system
    p = random_reducible_process(1)
    config = translate(p)
    for strict in (False, True):
        rules = generate_rules(p, strict=strict)
        text = render_system(SystemFile(True, "skin", config, rules, strict=strict))
        assert [r.keep_active_timer for r in parse_system(text).rules] == [strict] * len(rules)
        with pytest.raises(ValueError, match=rf"^rule in:n0>m0: keep_active_timer {strict}, strict {not strict}$"):
            render_system(SystemFile(True, "skin", config, rules, strict=not strict))


def test_zero_timer_objects_accepted():
    text = """mms 1 timed
output skin
skin:inf[ a:0 ]
"""
    sf = parse_system(text)
    assert canonicalize(sf.config) == "skin:inf{a:0}[]|out=skin"


def test_bad_inputs_have_positions():
    with pytest.raises(ParseError):
        parse_system("not a system")
    with pytest.raises(ParseError, match="timer inf"):
        parse_system("mms 1 timed\noutput skin\nskin:4[]\n")
    with pytest.raises(ParseError, match="duals"):
        parse_system(
            "mms 1 timed\noutput skin\nskin:inf[]\nendo h m : a | , ~b | => |\n"
        )
    with pytest.raises(ParseError) as err:
        parse_system("mms 1 timed\noutput skin\nskin:inf[ a ]\n")
    assert err.value.line == 3
    with pytest.raises(ParseError, match=r"^4:8: unexpected character '@'$"):
        parse_system("mms 1 timed\noutput skin\nskin:inf[]\nrw h : @ => b:+1\n")


@pytest.mark.parametrize("mode, line, message", [
    ("untimed", "skin ]", "3:6: expected '[', found ']'"),
    ("timed", "skin:inf[ a ]", "3:13: expected \"':timer'\", found ']'"),
    ("timed", "skin:inf[]\nendo h m : ~ | , | => |", "4:14: expected 'object name', found '|'"),
    ("timed", "skin:x[ ]", "3:6: expected a timer (natural number or inf)"),
    ("timed", "skin:inf[ a:2, ~ ]", "3:18: expected 'object name', found ']'"),
    ("untimed", "skin[ a, : ]", "3:10: expected 'object name', found ':'"),
])
def test_a_head_an_object_or_a_rule_side_is_refused_at_its_first_bad_token(mode, line, message):
    with pytest.raises(ParseError) as caught:
        parse_system(f"mms 1 {mode}\noutput skin\n{line}\n")
    assert str(caught.value) == message


def test_products_require_timer_spec_in_timed_mode():
    with pytest.raises(ParseError, match="needs"):
        parse_system(
            "mms 1 timed\noutput skin\nskin:inf[]\nrw h : a => b\n"
        )
    # the dissolution marker may stay bare
    sf = parse_system(
        "mms 1 timed\noutput skin\nskin:inf[]\nrw h : a => delta\n"
    )
    assert sf.rules[0].rhs[0][0].name == "delta"


def test_load_lists_every_violation():
    text = "mms 1 timed\noutput skin\nskin:inf[ delta:1 ; h:3[ a:2 ] ]\nrw h : => a:+1\n"
    with pytest.raises(InvalidSystemError) as err:
        parse_system(text)
    assert err.value.violations == [
        "dissolution marker at rest inside skin",
        "rule r0: rewrite left side is empty",
    ]
    untimed = "mms 1 untimed\noutput skin\nskin[ ; h[ delta ] ]\n"
    with pytest.raises(InvalidSystemError, match="marker at rest inside h"):
        parse_system(untimed)


def test_a_parse_numbers_the_tree_it_built_in_place(monkeypatch):
    built = [count_calls(monkeypatch, f"mobilemem.{kind}.__init__")
             for kind in ("core.MembraneNode", "untimed.UNode")]
    for config, rules in (random_timed_system(3), random_untimed_system(3)):
        text = render_system(SystemFile(isinstance(config, Configuration), "skin", config, rules))
        for count in built:
            count.n = 0
        parsed = parse_system(text).config
        nodes = len(list(config.skin.walk()))
        # one node built per membrane: no copy of the tree to renumber
        assert sum(count.n for count in built) == nodes
        assert [node.uid for node in parsed.skin.walk()] == list(range(1, nodes + 1))
        assert render_system(SystemFile(isinstance(config, Configuration), "skin", parsed, rules)) == text


@pytest.mark.parametrize("name", ["a9", "_9", "$c", "9a", "n\u00e9", "\u00b2"])
def test_validate_accepts_exactly_the_names_the_parser_reads(name):
    # a membrane label and an object named ``name``, rendered to a file
    config = Configuration(mem("skin", INF, [], [mem(name, 3, [(Symbol(name), 2)])]))
    text = render_system(SystemFile(True, "skin", config, ()))
    violations = validate(config)
    if violations:
        assert len(violations) == 2 and all(repr(name) in v for v in violations)
        with pytest.raises(ParseError):
            parse_system(text)
    else:
        assert name[0] not in "0123456789" and name.isascii()
        assert canonicalize(parse_system(text).config) == canonicalize(config)


STRICT_TEXT = """mms 1 timed strict
output skin
skin:inf[ ; h:4[ a:2, a:3, b:1 ; k:2[ c:1 ] ] m:inf[ ~a:4, b:2 ] ]
endo h m : a | a b , ~a | b => a:- a:- b:- c:+2 | b:- delta
exo h m : a | , ~a | => a:- | ~a:-
rw k : c c => c:- c:- delta
rw * : b => b:- a:+1
"""

# tokens a mutation may insert: every punctuation mark and keyword of the
# format, a few names and timers, and characters outside it
_INSERTS = [
    ":", "-", "+", "~", "|", ",", ";", "[", "]", "=>", "=", "*", " ", "\n", "#", "@",
    "0", "3", "inf", "a", "~a", "delta", "skin", "h", "endo", "exo", "rw", "mms", "output",
    "timed", "untimed", "compiled", "strict", "a:-", "a:+2", "b:-",
]


def _mutants(n: int, seed: int = 0):
    """``n`` seeded mutants of ``STRICT_TEXT`` and of rendered timed and
    untimed corpus systems: one or two edits each on the text's
    space-separated words, which delete, insert, duplicate or swap a word,
    or drop one character of it."""
    bases = [STRICT_TEXT] * 8
    for s in range(12):
        bases.append(render_system(SystemFile(True, "skin", *random_timed_system(s))))
        bases.append(render_system(SystemFile(False, "skin", *random_untimed_system(s))))
    rng = random.Random(seed)
    for _ in range(n):
        words = rng.choice(bases).split(" ")
        for _edit in range(rng.randint(1, 2)):
            i, k = rng.randrange(len(words)), rng.randrange(len(words))
            op = rng.randrange(5)
            if op == 0:
                del words[i]
            elif op == 1:
                words.insert(i, rng.choice(_INSERTS))
            elif op == 2:
                words.insert(i, words[i])
            elif op == 3:
                words[i], words[k] = words[k], words[i]
            elif words[i]:
                j = rng.randrange(len(words[i]))
                words[i] = words[i][:j] + words[i][j + 1:]
        yield " ".join(words)


def _parse_outcome(text: str) -> str:
    try:
        sf = parse_system(text)
    except ParseError as err:
        return f"ParseError {err.line}:{err.col} {err}"
    except InvalidSystemError as err:
        return "InvalidSystemError " + " | ".join(err.violations)
    flags = (sf.timed, sf.compiled, sf.strict)
    return f"{render_system(sf)}{list(sf.rules)!r}{flags}"


def test_parse_outcomes_of_mutated_files_are_pinned():
    # the rendered system, rules and flags, or the positioned error, of
    # 5,000 seeded mutants; any change to what the reader accepts, builds
    # or reports moves the digest
    outcomes = [_parse_outcome(text) for text in _mutants(5000)]
    kinds = {outcome.split(" ", 1)[0] for outcome in outcomes}
    assert {"ParseError", "InvalidSystemError", "mms"} <= kinds
    digest = hashlib.sha256("\0".join(outcomes).encode()).hexdigest()
    assert digest == "125783b6e54e2c25e04ddeca4fd4689385a201fd9f408574cca7adf1a1e58263"
