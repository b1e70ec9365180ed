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
from mobilemem.corpus import random_timed_system, random_untimed_system
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
    copies = [count_calls(monkeypatch, f"mobilemem.{kind}.with_children")
              for kind in ("core.MembraneNode", "untimed.UNode")]
    for config, rules in (random_timed_system(3), random_untimed_system(3)):
        text = render_system(SystemFile(isinstance(config, Configuration), "skin", config, rules))
        parsed = parse_system(text).config
        assert [node.uid for node in parsed.skin.walk()] == list(range(1, len(list(config.skin.walk())) + 1))
        assert render_system(SystemFile(isinstance(config, Configuration), "skin", parsed, rules)) == text
    assert [c.n for c in copies] == [0, 0]


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
