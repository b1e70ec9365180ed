import random

import pytest

from mobilemem.core import (
    INF,
    Carry,
    Configuration,
    EndoRule,
    MembraneNode,
    Multiset,
    RewriteRule,
    Symbol,
    canonicalize,
    decrement,
    dual,
    mem,
    output_membranes,
    output_reading,
    validate,
)
from mobilemem.untimed import UConfig, umem
from systems import renumber

a, b = Symbol("a"), Symbol("b")


def test_dual_flips_and_is_involution():
    assert dual(a) == Symbol("a", True)
    assert dual(Symbol("a", True)) == a
    rng = random.Random(7)
    for _ in range(50):
        s = Symbol(rng.choice("xyz"), rng.random() < 0.5)
        assert dual(dual(s)) == s
        assert dual(s) != s  # no fixpoints


def test_decrement():
    assert decrement(INF) == INF
    assert decrement(3) == 2
    with pytest.raises(ValueError):
        decrement(0)


def test_multiset_laws():
    m = Multiset([a, a, b])
    assert m.count(a) == 2 and len(m) == 3
    n = Multiset([a])
    assert m.contains(n) and not n.contains(m)
    assert n.union(Multiset([b, a])) == m
    assert Multiset() == Multiset([])
    assert not Multiset()


def test_multiset_no_zero_entries():
    m = Multiset({a: 0})
    assert a not in m and not m
    assert list(m.items()) == []


def test_a_negative_count_is_refused_by_the_constructor():
    with pytest.raises(ValueError, match="negative multiplicity"):
        Multiset({a: -4})


def _tree(rng, depth=3):
    children = []
    if depth:
        for _ in range(rng.randint(0, 3)):
            children.append(_tree(rng, depth - 1))
    objs = [(Symbol(rng.choice("ab"), rng.random() < 0.3), rng.choice([INF, rng.randint(0, 4)]))
            for _ in range(rng.randint(0, 3))]
    return mem(rng.choice("hmk"), rng.choice([INF, rng.randint(0, 5)]), objs, children)


def _shuffled(node, rng):
    kids = list(node.children)
    rng.shuffle(kids)
    return MembraneNode(node.label, node.timer, node.content,
                        tuple(_shuffled(c, rng) for c in kids), uid=node.uid)


def test_canonicalize_invariant_under_sibling_permutation():
    rng = random.Random(13)
    for _ in range(30):
        skin = mem("skin", INF, [], [_tree(rng) for _ in range(3)])
        c1 = Configuration(skin)
        c2 = Configuration(_shuffled(skin, rng))
        assert canonicalize(c1) == canonicalize(c2)


def test_canonicalize_frozen_examples():
    c1 = Configuration(mem("skin", INF, [], [mem("h", 3, [(a, 2)]), mem("m", 5)]))
    c2 = Configuration(mem("skin", INF, [], [mem("m", 5), mem("h", 3, [(a, 2)])]))
    assert canonicalize(c1) == canonicalize(c2)
    c3 = Configuration(mem("skin", INF, [], [mem("h", 2, [(a, 2)]), mem("m", 5)]))
    assert canonicalize(c1) != canonicalize(c3)  # timers are part of state
    # byte-stable rendering, not dependent on hash seeds
    assert canonicalize(c1) == "skin:inf{}[h:3{a:2}[] m:5{}[]]|out=skin"


def test_output_reading_sums_over_output_membranes():
    c = Configuration(
        mem("skin", INF, [], [mem("out", INF, [(a, 2), (a, 5), (b, 1)])]),
        output_label="out",
    )
    assert output_reading(c) == Multiset([a, a, b])

    none = Configuration(mem("skin", INF), output_label="out")
    assert output_reading(none) == Multiset()

    two = Configuration(
        mem("skin", INF, [], [mem("out", INF, [(a, 1)]), mem("out", INF, [(a, 2), (b, 3)])]),
        output_label="out",
    )
    assert output_reading(two) == Multiset([a, a, b])
    # the membrane count and one (uid, symbols) pair per output membrane, in
    # uid order, not sibling order; symbols in order, timers erased
    first, second = two.skin.children
    assert output_membranes(two) == (3, ((first.uid, (a,)), (second.uid, (a, b))))
    swapped = Configuration(mem("skin", INF, [], [second, first]), output_label="out")
    assert output_membranes(swapped) == output_membranes(two)

    untimed = UConfig(umem("skin", [], [umem("out", [a]), umem("out", [b, a, a])]), output_label="out")
    assert output_reading(untimed) == Multiset([a, a, a, b])
    first, second = untimed.skin.children
    assert output_membranes(untimed) == (3, ((first.uid, (a,)), (second.uid, (a, a, b))))


def test_validate_flags_violations():
    bad_skin = Configuration(mem("skin", 4))
    assert any("skin" in v for v in validate(bad_skin))

    ok = Configuration(mem("skin", INF, [], [mem("h", 3, [(a, 2)])]))
    empty_u = EndoRule("h", "m", Multiset())
    assert any("u is empty" in v for v in validate(ok, [empty_u]))

    dangling = RewriteRule("h", Multiset([a]), ((b, Carry(3)),))
    assert any("out of range" in v for v in validate(ok, [dangling]))

    wrong_sym = RewriteRule("h", Multiset([a]), ((b, Carry(0)),))
    assert any("binds" in v for v in validate(ok, [wrong_sym]))

    resting_delta = Configuration(mem("skin", INF, [(Symbol("delta"), INF)]))
    assert any("marker" in v for v in validate(resting_delta))

    spaced = Configuration(mem("skin", INF, [(Symbol("in m"), 1)]))
    assert any("plain name" in v for v in validate(spaced))

    good_rule = EndoRule("h", "m", Multiset([a]), w=((a, Carry(0)),))
    assert validate(ok, [good_rule]) == []

    h = mem("h", 3)
    twins = Configuration(mem("skin", INF, [], [h, MembraneNode("k", 2, Multiset(), uid=h.uid)]))
    assert validate(twins) == [f"duplicate membrane uid {h.uid}"]


def test_symbol_reads_and_orders_as_its_name_and_co_bit():
    co_a = Symbol("a", True)
    assert repr(a) == "Symbol(name='a', is_co=False)"
    assert repr(co_a) == "Symbol(name='a', is_co=True)"
    assert (str(a), str(co_a)) == ("a", "~a")
    assert sorted([Symbol("b", True), b, co_a, a]) == [a, co_a, b, Symbol("b", True)]
    assert a < co_a < b and not co_a < a
    assert hash(dual(dual(a))) == hash(Symbol("a")) and dual(dual(a)) == Symbol("a", False)
    assert len({a, Symbol("a"), dual(co_a), co_a}) == 2


def test_move_rule_slots_are_built_once_and_stay_out_of_equality():
    rule = EndoRule("h", "m", Multiset([a, b]), v=Multiset([b]), v2=Multiset([a]))
    twin = EndoRule("h", "m", Multiset([a, b]), v=Multiset([b]), v2=Multiset([a]))
    assert rule.active_slots == (a, b, b) and rule.passive_slots == (a.dual(), b.dual(), a)
    assert rule.u_bar == Multiset([a.dual(), b.dual()])
    assert rule.active_slots is rule.active_slots and rule.passive_slots is rule.passive_slots
    assert rule == twin and hash(rule) == hash(twin) and repr(rule) == repr(twin)
    assert rule != EndoRule("h", "m", Multiset([a, b]), v=Multiset([b]))


def test_validate_names_an_unnamed_rule_by_its_position():
    from mobilemem.engine import find_instances

    ok = Configuration(mem("skin", INF))
    rules = [RewriteRule("p", Multiset())]
    want = "rule r0: rewrite left side is empty"
    assert want in validate(ok, rules)
    with pytest.raises(ValueError, match=want):
        find_instances(ok, rules)


def test_validate_tells_bare_symbols_from_timed_pairs():
    # an untimed membrane holds bare symbols, which are tuples too: they
    # must not be read as (symbol, timer) pairs
    untimed = UConfig(umem("skin", [a, Symbol("b", True)], [umem("h", [Symbol("a", True)])]))
    assert validate(untimed) == []
    assert any("marker" in v for v in validate(UConfig(umem("skin", [Symbol("delta")]))))
    assert any("plain name" in v for v in validate(UConfig(umem("skin", [Symbol("in m", True)]))))
    for t in (-1, 1.5, "3"):
        bad = Configuration(mem("skin", INF, [], [mem("h", 2, [(a, t)])]))
        assert validate(bad) == [f"object a has invalid timer {t!r}"]
    assert validate(Configuration(mem("skin", INF, [(Symbol("a", True), 0), (b, INF)]))) == []


def test_tree_maps_take_deep_nesting():
    """Every map over a membrane tree or an ambient term runs through
    ``core.rebuild_tree``, so nesting deeper than Python's default
    recursion limit of 1,000 goes through each of them."""
    from mobilemem import ambient as amb
    from mobilemem.compiler import eliminate_timers, embed_infinite, project
    from mobilemem.sysfile import SystemFile, parse_system, render_system
    from mobilemem.translate import some_preimage, translate
    from mobilemem.untimed import UConfig, erase_timers, u_canonicalize, umem

    depth = 1_500
    timed, untimed = mem("m", 5, [(a, 3)]), umem("m", [a])
    for _ in range(depth - 1):
        timed, untimed = mem("m", 5, [(a, 3)], [timed]), umem("m", [a], [untimed])
    config = renumber(Configuration(mem("skin", INF, [], [timed])))
    uconfig = renumber(UConfig(umem("skin", [], [untimed])))
    for cfg in (config, uconfig):
        assert [n.uid for n in cfg.skin.walk()] == list(range(1, depth + 2))

    erased = erase_timers(config)
    assert u_canonicalize(erased) == u_canonicalize(uconfig)
    lifted, _rules = embed_infinite(uconfig, ())
    assert all(n.timer == INF and all(t == INF for (_s, t) in n.content) for n in lifted.skin.walk())
    compiled, _rules = eliminate_timers(config, ())
    assert u_canonicalize(project(compiled)) == u_canonicalize(project(config)) == u_canonicalize(erased)

    for sf in (SystemFile(True, "skin", config, ()), SystemFile(False, "skin", uconfig, ())):
        text = render_system(sf)
        assert render_system(parse_system(text)) == text

    cap = amb.Capability("in", False, "m", 3)
    process = amb.Amb("n", 5, amb.Prefix(cap), "p")
    for _ in range(depth - 1):
        process = amb.Amb("n", 5, amb.Prefix(cap, process), "p")
    image = translate(process)
    assert sum(1 for _ in image.skin.walk()) == depth + 1
    assert canonicalize(translate(some_preimage(image))) == canonicalize(image)
    tags = [q.tag for q in amb.subterms(amb.normalize(process)) if isinstance(q, amb.Amb)]
    assert tags == ["p"] * depth
    tags = [q.tag for q in amb.subterms(amb.erase_tags(process)) if isinstance(q, amb.Amb)]
    assert tags == ["a"] * depth


def _tuple_key(node) -> tuple:
    """A membrane as nested tuples of its compared fields, which is how the
    generated dataclass methods compared nodes."""
    kind = type(node)
    own = (node.label, node.timer, node.content, node.uid) if kind is MembraneNode else (node.label, node.content, node.uid)
    return (kind, own, tuple(_tuple_key(child) for child in node.children))


def test_shallow_nodes_compare_and_hash_as_their_fields():
    from mobilemem.corpus import random_timed_system, random_untimed_system

    nodes = []
    for seed in range(30):  # renumbered, so uids repeat across systems
        nodes += list(renumber(random_timed_system(seed)[0]).skin.walk())
        nodes += list(renumber(random_untimed_system(seed)[0]).skin.walk())
    keys = [_tuple_key(node) for node in nodes]
    equal_pairs = 0
    for i, (p, kp) in enumerate(zip(nodes, keys)):
        for q, kq in zip(nodes[i:], keys[i:]):
            assert (p == q) == (kp == kq) and (p != q) == (kp != kq)
            if kp == kq:
                equal_pairs += 1
                assert hash(p) == hash(q)
    assert equal_pairs > len(nodes)  # not only each node with itself
    x = mem("h", 2, [(a, 1)], [mem("k", INF)])
    assert x == MembraneNode(x.label, x.timer, x.content, x.children, uid=x.uid)
    assert {x: 1}[MembraneNode(x.label, x.timer, x.content, x.children, uid=x.uid)] == 1
    assert x != MembraneNode(x.label, x.timer, x.content, x.children) and x != "h" and x is not None


def test_deep_nodes_compare_and_hash_without_recursion():
    from mobilemem.untimed import UNode

    depth = 3_001

    def chain(bottom="p"):
        timed = MembraneNode(bottom, 3, Multiset([(a, 2)]), (), uid=0)
        untimed = UNode(bottom, Multiset([a]), (), uid=0)
        for uid in range(1, depth):
            timed = MembraneNode("p", 3, Multiset([(a, 2)]), (timed,), uid=uid)
            untimed = UNode("p", Multiset([a]), (untimed,), uid=uid)
        return timed, untimed

    (t1, u1), (t2, u2), (t3, u3) = chain(), chain(), chain("q")
    for one, two, other in ((t1, t2, t3), (u1, u2, u3)):
        assert one == two and not one != two and hash(one) == hash(two)
        assert one != other and not one == other
    assert Configuration(mem("skin", INF, [], [t1]), "skin") != Configuration(mem("skin", INF, [], [t3]), "skin")
