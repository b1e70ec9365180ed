import random
import sys
from collections import Counter
from dataclasses import replace
from itertools import permutations
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
import reference as ref

from mobilemem.choices import enumerate_choices
from mobilemem.core import INF, Configuration, Multiset, Symbol, canonicalize, mem
from mobilemem.engine import StaleChoiceError, find_instances
from mobilemem.ambient import (
    Amb,
    Capability,
    Prefix,
    ZERO,
    canonical_key,
    congruent,
    par,
    parse_ambient,
    subterms,
)
from mobilemem.translate import (
    PREIMAGE_CAP,
    TranslateError,
    cap_from_symbol,
    cap_symbol,
    check_correspondence_PQ,
    check_preimage_reordering,
    generate_rules,
    has_preimage,
    literal_successors,
    preimage_processes,
    some_preimage,
    translate,
    _arrangements,
    _literal_apply,
)
from mobilemem.corpus import random_reducible_process
from systems import hand_processes, random_process, reorder_demo_process
from mobilemem.explore import check_translation, explore_ambients, explore_membranes


def _capabilities(p):
    return [q.cap for q in subterms(p) if isinstance(q, Prefix)]


def test_capability_symbols_respect_duality():
    c = Capability("in", False, "m", 2)
    assert str(cap_symbol(c)) == "in_m"
    assert cap_symbol(Capability("in", True, "m", 2)) == cap_symbol(c).dual()
    back = cap_from_symbol(Symbol("out_s"), 3)
    assert back == Capability("out", False, "s", 3)
    assert cap_from_symbol(Symbol("plain"), 3) is None


def test_translate_demo_shape():
    config = translate(reorder_demo_process())
    assert canonicalize(config) == \
        "skin:inf{}[m:6{~in_m:5}[] n:4{in_k:2,in_m:1,out_s:3}[]]|out=skin"


def test_translate_zero_and_twins():
    assert canonicalize(translate(ZERO)) == "skin:inf{}[]|out=skin"
    twins = translate(parse_ambient("n:2[] | n:2[]"))
    assert canonicalize(twins) == "skin:inf{}[n:2{}[] n:2{}[]]|out=skin"


def test_reserved_skin_name_rejected():
    with pytest.raises(TranslateError):
        translate(parse_ambient("skin:1[]"))


def test_generate_rules_demo():
    rules = generate_rules(reorder_demo_process())
    assert sorted(r.name for r in rules) == ["in:n>m", "out:n<m"]
    assert generate_rules(ZERO) == ()
    co_only = parse_ambient("n:4[ ~in:2 m ] | m:3[]")
    assert generate_rules(co_only) == ()


def test_an_ambient_moves_into_and_out_of_a_same_named_one():
    # an ambient may enter or leave another of its own name, which the
    # ambient side reduces; one ambient alone has no such partner
    p = parse_ambient("n:3[ in:2 n ] | n:3[ ~in:2 n ]")
    for strict in (False, True):
        assert [r.name for r in generate_rules(p, strict)] == ["in:n>n", "out:n<n"]
    assert generate_rules(parse_ambient("n:3[ in:2 n ]")) == ()
    for text, depth in [
        ("n:3[ in:2 n ] | n:3[ ~in:2 n ]", 3),
        ("m:8[ m:6[ out:3 m ] | ~out:4 m ]", 2),
        ("n:3[ in:2 n ] | n:3[ ~in:2 n ] | n:4[ ~in:1 n ]", 3),
    ]:
        verdict = check_translation(parse_ambient(text), depth)
        assert verdict.ok, (text, verdict.details)


def test_generated_rules_strict_flag():
    rules = generate_rules(reorder_demo_process(), strict=True)
    assert all(r.keep_active_timer for r in rules)


def test_translation_erases_tags_and_prefix_order():
    tagged = Amb("n", 3, Prefix(Capability("in", False, "m", 1)), tag="p")
    plain = Amb("n", 3, Prefix(Capability("in", False, "m", 1)))
    assert canonicalize(translate(tagged)) == canonicalize(translate(plain))

    c1 = Capability("in", False, "m", 1)
    c2 = Capability("out", False, "k", 2)
    p12 = Prefix(c1, Prefix(c2))
    p21 = Prefix(c2, Prefix(c1))
    assert canonicalize(translate(p12)) == canonicalize(translate(p21))


def test_congruence_soundness():
    # congruent processes (reordered parallel parts, dropped zeros)
    # translate to configurations with equal canonical keys
    from mobilemem.ambient import Par

    for seed in range(40):
        p = random_process(seed)
        parts = list(p.parts) if isinstance(p, Par) else [p]
        q = par(ZERO, *reversed(parts))
        assert congruent(p, q)
        assert canonicalize(translate(p)) == canonicalize(translate(q))


def test_timer_preservation():
    for seed in range(40):
        p = random_process(seed)
        config = translate(p)
        want_caps = sorted((str(cap_symbol(c)), c.timer) for c in _capabilities(p))
        got_caps = sorted(
            (str(sym), t)
            for node in config.skin.walk()
            for (sym, t), n in node.content.items()
            for _ in range(n)
        )
        assert want_caps == got_caps
        want_membranes = sorted(_amb_timers(p))
        got_membranes = sorted(
            (node.label, node.timer) for node in config.skin.walk() if node.label != "skin"
        )
        assert want_membranes == got_membranes


def _amb_timers(p):
    from mobilemem.ambient import Par

    if isinstance(p, Amb):
        return [(p.name, p.timer)] + _amb_timers(p.body)
    if isinstance(p, Prefix):
        return _amb_timers(p.cont)
    if isinstance(p, Par):
        out = []
        for x in p.parts:
            out.extend(_amb_timers(x))
        return out
    return []


# ---------------------------------------------------------------------------
# Literal relation and correspondence

def test_literal_successor_is_exact():
    p = reorder_demo_process()
    rules = generate_rules(p, strict=True)
    succ = literal_successors(translate(p), rules)
    assert [canonicalize(cfg) for _i, cfg, _key in succ] == [
        "skin:inf{}[m:6{}[n:4{in_k:2,out_s:3}[]]]|out=skin"
    ]


def test_correspondence_demo_and_vacuous():
    report = check_correspondence_PQ(explore_ambients(reorder_demo_process(), 1))
    assert report["ok"] and report["edges"] == 1
    assert check_correspondence_PQ(explore_ambients(ZERO, 3))["ok"]


def test_correspondence_hand_corpus():
    for i, p in enumerate(hand_processes()):
        report = check_correspondence_PQ(explore_ambients(p, 2))
        assert report["ok"], (i, report)


# ---------------------------------------------------------------------------
# Preimages

def test_some_preimage_exists_for_translated_reachables():
    p = reorder_demo_process()
    config = translate(p)
    q = some_preimage(config)
    assert q is not None
    assert canonicalize(translate(q)) == canonicalize(config)


def test_has_preimage_equals_some_preimage_being_found():
    states = 0
    for seed in range(100):
        p = random_reducible_process(seed)
        graph = explore_membranes(translate(p), generate_rules(p), 4)
        for state in graph.objects.values():
            assert has_preimage(state) == (some_preimage(state) is not None), seed
        states += len(graph.objects)
    assert states > 1000
    # a plain object in the skin, or two levels down, has no capability
    # to stand for; next to it, capabilities of every kind
    plain, caps = (Symbol("plain"), 3), [(Symbol("in_m"), 2), (Symbol("out_n", True), INF)]
    for objects, inner in (([plain], caps), (caps, [plain, *caps]), (caps, caps)):
        config = Configuration(mem("skin", INF, objects, [mem("m", 9, caps, [mem("n", 4, inner)])]), clock=1)
        assert has_preimage(config) == (some_preimage(config) is not None) == (plain not in objects + inner)


def test_preimage_reordering_demo():
    report = check_preimage_reordering(reorder_demo_process())
    assert report["reordering_found"]
    (target,) = report["targets"]
    assert target["preimages"] == 3  # two chain orders plus the parallel form
    assert "m:6^a[n:4^a[out:3 s.in:2 k.0]]" in target["unreachable_preimages"]


def test_preimage_reordering_degenerate_single_capability():
    p = parse_ambient("n:5[ in:3 m ] | m:5[ ~in:3 m ]")
    report = check_preimage_reordering(p)
    assert report["degenerate"]
    assert not report["reordering_found"]


def test_three_capability_chain_has_many_preimages():
    p = parse_ambient("n:7[ in:3 m . in:4 k . out:5 s . in:6 w ] | m:9[ ~in:5 m ]")
    report = check_preimage_reordering(p)
    (target,) = report["targets"]
    assert target["preimages"] >= 2
    assert report["reordering_found"]


def test_preimage_enumeration_counts():
    p = parse_ambient("n:5[ in:3 m ] | m:5[ ~in:3 m ]")
    rules = generate_rules(p, strict=True)
    ((_i, n_config, _key),) = literal_successors(translate(p), rules)
    # the moved membrane is empty: exactly one preimage shape
    assert len(preimage_processes(n_config)) == 1


def test_every_preimage_translates_back_to_its_target():
    # the property the reordering note relies on, for every literal
    # successor of every seeded and hand-made process
    checked = 0
    for p in [random_reducible_process(seed) for seed in range(20)] + hand_processes():
        rules = generate_rules(p, strict=True)
        for _inst, n_config, n_key in literal_successors(translate(p), rules):
            preimages = preimage_processes(n_config)
            assert preimages and not preimages.truncated
            for q in preimages:
                assert canonicalize(translate(q)) == n_key
                checked += 1
    assert checked > 40


def _chains_brute_force(caps):
    """Every arrangement of ``caps`` into chains, as a sorted tuple of
    chains: each ordering of the list, cut at each subset of its gaps."""
    n = len(caps)
    out = set()
    for order in permutations(caps):
        for mask in range(1 << max(n - 1, 0)):
            chains, chain = [], []
            for idx, cap in enumerate(order):
                chain.append(cap)
                if idx == n - 1 or mask >> idx & 1:
                    chains.append(tuple(chain))
                    chain = []
            out.add(tuple(sorted(chains, key=str)))
    return out


def _chain_caps(proc):
    caps = []
    while isinstance(proc, Prefix):
        caps.append(proc.cap)
        proc = proc.cont
    assert proc == ZERO
    return tuple(caps)


def test_arrangements_list_each_multiset_of_chains_once():
    rng = random.Random(7)
    for _ in range(200):
        caps = [
            Capability(rng.choice(["in", "out"]), rng.random() < 0.3, rng.choice("mk"), rng.choice([1, 2, INF]))
            for _ in range(rng.randint(0, 5))
        ]
        got = [tuple(sorted(map(_chain_caps, chains), key=str)) for chains in _arrangements(Counter(caps))]
        assert len(got) == len(set(got)), caps
        assert set(got) == _chains_brute_force(caps), caps


def test_preimage_search_stops_at_the_cap_and_says_so():
    # c equal capabilities split into chains as the partitions of c; the
    # search keeps PREIMAGE_CAP bodies per membrane and marks every list
    # above a full one truncated
    for c, count in [(1, 1), (4, 5), (8, 22), (29, None)]:
        caps = " | ".join(["in:5 m"] * c)
        found = preimage_processes(translate(parse_ambient(f"k:9[ n:9[ {caps} ] ]")))
        if count is None:
            assert len(found) == PREIMAGE_CAP and found.truncated
        else:
            assert len(found) == count and not found.truncated
        assert found == sorted(found, key=canonical_key)
    assert preimage_processes(translate(parse_ambient("n:9[]"))) == [parse_ambient("n:9[]")]
    plain = Configuration(mem("skin", INF, [], [mem("n", 9, [(Symbol("plain"), 3)])]))
    assert preimage_processes(plain) == [] and some_preimage(plain) is None


def test_literal_apply_matches_reference_per_membrane():
    # the literal relation shares every subtree its instances leave
    # untouched; compared membrane by membrane, uids and parents included
    processes = [random_reducible_process(seed) for seed in range(60)] + hand_processes() + [
        parse_ambient("n:5[ in:3 m ] | m:5[ ~in:3 m ] | b:7[ c:6[ d:5[ in:4 e ] ] | e:6[] ]"),
        parse_ambient("p:9[ q:8[ out:4 p ] | ~out:4 p | r:7[ s:6[] ] ] | k:5[ j:4[] ]"),
    ]
    compared = 0
    for p in processes:
        config, rules = translate(p), generate_rules(p, strict=True)
        root = ref.from_config(config)
        moves = [i for i in find_instances(config, rules) if i.is_move]
        for choice in enumerate_choices(config, moves, lambda i: False):
            if choice:
                want, _detached, _stats = ref.apply_step(root, ref.from_choice(choice), rules, literal=True)
                assert ref.membranes(ref.from_config(_literal_apply(config, choice))) == ref.membranes(want)
                compared += 1
    assert compared > 60


def test_a_literal_choice_whose_capability_is_gone_is_stale():
    # the image of n, its ``in_m`` removed, keeps n's uid; the choice
    # found before binds the capability and is refused, not a KeyError
    p = parse_ambient("n:9[ in:5 m ] | m:9[ ~in:5 m ]")
    config = translate(p)
    [(choice, _moved, key)] = literal_successors(config, generate_rules(p))
    n = next(node for node in config.skin.walk() if node.label == "n")
    bare = replace(n, content=Multiset())
    stale = Configuration(replace(config.skin, children=tuple(bare if c is n else c for c in config.skin.children)))
    with pytest.raises(StaleChoiceError, match=f"in_m.* missing in {n.uid}$"):
        _literal_apply(stale, choice)
    assert canonicalize(_literal_apply(config, choice)) == key


def test_translation_numbers_uids_in_pre_order_and_normalizes_once(monkeypatch):
    # translate numbers the tree it builds in place, and the correspondence
    # walk translates graph states, already normal, without normalizing
    import mobilemem.ambient as amb_module

    processes = [random_reducible_process(seed) for seed in range(20)] + hand_processes()
    for p in processes:
        config = translate(p)
        assert [node.uid for node in config.skin.walk()] == list(range(1, len(list(config.skin.walk())) + 1))
    graphs = [explore_ambients(p, 3) for p in processes]
    reports = [check_correspondence_PQ(graph) for graph in graphs]
    calls = {"n": 0}
    normalize = amb_module.normalize

    def counted(p):
        calls["n"] += 1
        return normalize(p)

    monkeypatch.setattr(amb_module, "normalize", counted)
    assert [check_correspondence_PQ(graph) for graph in graphs] == reports
    assert calls["n"] == 0
    translate(processes[0])
    assert calls["n"] == 1
