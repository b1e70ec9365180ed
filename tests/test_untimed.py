import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))
import reference as ref
from conftest import count_calls, examples
from systems import exact

from mobilemem.compiler import _counter_of, eliminate_timers, embed_infinite, project
from mobilemem.corpus import random_timed_system, random_untimed_system
from mobilemem.engine import StaleChoiceError
from mobilemem.explore import explore_membranes, explore_untimed
from mobilemem.core import (
    Configuration, EndoRule, ExoRule, Fresh, INF, Multiset, RewriteRule, Symbol, mem, output_reading,
)
from mobilemem.untimed import (
    UConfig,
    UInstance,
    erase_timers,
    erased_key,
    u_apply,
    u_canonicalize,
    u_find_instances,
    u_maximal_choices,
    u_render,
    u_run,
    u_successors,
    umem,
)

a, b, c = Symbol("a"), Symbol("b"), Symbol("c")
DELTA = Symbol("delta")


def handshake():
    h = umem("h", [a])
    m = umem("m", [a.dual()])
    return UConfig(umem("skin", [], [h, m]))


RULE = EndoRule("h", "m", Multiset([a]), w=((c, Fresh(INF)),), name="E")


def test_endo_fires_and_is_forced():
    cfg = handshake()
    assert len(u_find_instances(cfg, [RULE])) == 1
    choices = u_maximal_choices(cfg, [RULE])
    assert len(choices) == 1 and len(choices[0]) == 1  # no stalling untimed
    nxt, _det = u_apply(cfg, choices[0])
    assert u_canonicalize(nxt) == "skin{}[m{}[h{c}[]]]|out=skin"


def test_only_elementary_membranes_move():
    inner = umem("k", [])
    cfg = UConfig(umem("skin", [], [
        umem("h", [a], [inner]), umem("m", [a.dual()], [umem("h", [a], [inner])]),
    ]))
    rules = [RULE, ExoRule("h", "m", Multiset([a]), name="X")]
    assert u_find_instances(cfg, rules) == []


def test_two_independent_moves_fire_together():
    cfg = UConfig(umem("skin", [], [
        umem("h", [a]), umem("m", [a.dual()]),
        umem("p", [b]), umem("q", [b.dual()]),
    ]))
    rules = [
        EndoRule("h", "m", Multiset([a]), name="r1"),
        EndoRule("p", "q", Multiset([b]), name="r2"),
    ]
    choices = u_maximal_choices(cfg, rules)
    assert len(choices) == 1 and len(choices[0]) == 2


def test_rewrite_multiplicity():
    cfg = UConfig(umem("skin", [], [umem("h", [a, a, a])]))
    rule = RewriteRule(None, Multiset([a]), ((b, Fresh(INF)),), name="w")
    (choice,) = u_maximal_choices(cfg, [rule])
    assert [n for _inst, n in choice] == [3]  # maximality forces every copy to rewrite
    nxt, _det = u_apply(cfg, choice)
    assert u_canonicalize(nxt) == "skin{}[h{b,b,b}[]]|out=skin"


def test_an_untimed_choice_applied_twice_is_stale():
    # a replayed handshake fails on structure first, as a timed replay does
    rewrite = RewriteRule(None, Multiset([a]), ((b, Fresh(INF)),), name="w")
    for cfg, rules, message in (
        (UConfig(umem("skin", [], [umem("h", [a, a])])), [rewrite], "stale choice: membrane {h} lacks a bound by w@{h}$"),
        (handshake(), [RULE], "endo participants are not siblings here"),
    ):
        (choice,) = u_maximal_choices(cfg, rules)
        nxt, _det = u_apply(cfg, choice)
        with pytest.raises(StaleChoiceError, match=message.format(h=choice[0][0].active_uid)):
            u_apply(nxt, choice)


@pytest.mark.parametrize("rule, skin, message", [
    (EndoRule("h", "m", Multiset([a]), name="E"),
     lambda: umem("skin", [], [umem("h", [a, a]), umem("m", [a.dual(), a.dual()])]),
     "endo participants are not siblings here"),
    (ExoRule("h", "m", Multiset([a]), name="X"),
     lambda: umem("skin", [], [umem("m", [a.dual(), a.dual()], [umem("h", [a, a])])]),
     "exo active is not a child of its passive"),
], ids=["endo", "exo"])
def test_an_untimed_move_replayed_on_its_own_result_is_stale(rule, skin, message):
    # the objects to fire again are there, but the endo active now sits in
    # its passive and the exo active beside it
    cfg = UConfig(skin())
    (choice,) = u_maximal_choices(cfg, [rule])
    moved, _det = u_apply(cfg, choice)
    with pytest.raises(StaleChoiceError, match=message):
        u_apply(moved, choice)


def test_an_untimed_choice_naming_a_missing_membrane_is_stale():
    (choice,) = u_maximal_choices(handshake(), [RULE])
    with pytest.raises(StaleChoiceError, match=f"no membrane with uid {choice[0][0].active_uid}$"):
        u_apply(handshake(), choice)


def test_marker_dissolves_membrane():
    cfg = UConfig(umem("skin", [], [umem("h", [a, b])]))
    rule = RewriteRule("h", Multiset([a]), ((DELTA, Fresh(INF)),), name="d")
    (choice,) = u_maximal_choices(cfg, [rule])
    nxt, _det = u_apply(cfg, choice)
    assert u_canonicalize(nxt) == "skin{b}[]|out=skin"


def test_exo_through_skin_detaches():
    cfg = UConfig(umem("skin", [a.dual()], [umem("h", [a])]))
    rule = ExoRule("h", "skin", Multiset([a]), name="x")
    (choice,) = u_maximal_choices(cfg, [rule])
    nxt, detached = u_apply(cfg, choice)
    assert u_canonicalize(nxt) == "skin{}[]|out=skin"
    assert len(detached) == 1 and detached[0][1] == "h"


def test_output_reading_and_run():
    cfg = handshake()
    trace = u_run(cfg, [RULE], 5, selector="random", seed=1)
    assert trace.records[0].key == "skin{}[m{}[h{c}[]]]|out=skin"
    assert trace.halted  # nothing applies afterwards
    assert output_reading(trace.final) == Multiset()


def test_successors_dedup():
    cfg = UConfig(umem("skin", [], [
        umem("h", [a]), umem("m", [a.dual(), a.dual()]),
    ]))
    succ = u_successors(cfg, [RULE])
    assert len(succ) == 1


def test_choice_sets_match_reference_on_the_embedding():
    for seed in range(40):
        cfg, rules = random_untimed_system(seed)
        timed_cfg, timed_rules = embed_infinite(cfg, rules)
        want = sorted(
            sorted((r, a, -1 if p is None else p) for r, a, p, _ab, _pb in ch)
            for ch in ref.choices(ref.from_config(timed_cfg), timed_rules, True)
        )
        got = sorted(
            sorted((i.rule_index, i.active_uid, -1 if i.passive_uid is None else i.passive_uid) for i in ref.copies(ch))
            for ch in u_maximal_choices(cfg, rules)
        )
        assert got == want, f"seed {seed}"


def _erased_render(node):
    """``u_render`` of a reference membrane after dropping its timers."""
    syms = sorted((name, co) for (name, co, _t), n in node["objs"].items() for _ in range(n))
    objs = ",".join(("~" if co else "") + name for name, co in syms)
    kids = " ".join(sorted(_erased_render(kid) for kid in node["kids"]))
    return node["label"] + "{" + objs + "}[" + kids + "]"


def _cascade_and_exit():
    """q's marker dissolves it into p while p's own marker dissolves p into
    the skin, in one step in which h leaves through the skin; q's b either
    marks q or becomes c."""
    q = umem("q", [b])
    cfg = UConfig(umem("skin", [a.dual()], [umem("h", [a]), umem("p", [c], [q])]))
    rules = [
        ExoRule("h", "skin", Multiset([a]), name="out"),
        RewriteRule("p", Multiset([c]), ((DELTA, Fresh(INF)),), name="dp"),
        RewriteRule("q", Multiset([b]), ((DELTA, Fresh(INF)), (a, Fresh(INF))), name="dq"),
        RewriteRule("q", Multiset([b]), ((c, Fresh(INF)),), name="keep"),
    ]
    return cfg, rules


def test_successors_match_reference_on_the_embedding():
    systems = [random_untimed_system(seed) for seed in range(60)] + [_cascade_and_exit()]
    for i, (cfg, rules) in enumerate(systems):
        timed_cfg, timed_rules = embed_infinite(cfg, rules)
        root = ref.from_config(timed_cfg)
        want = {
            _erased_render(ref.apply_step(root, ch, timed_rules)[0])
            for ch in ref.choices(root, timed_rules, saturated=True)
        }
        got = {u_render(nxt.skin) for _ch, nxt, _key in u_successors(cfg, rules)}
        assert got == want, f"system {i}"


def _u_membranes(config):
    """``(uid, parent uid, label, objects)`` of every untimed membrane."""

    def objs(node):
        return frozenset(((sym.name, sym.is_co), n) for sym, n in node.content.items())

    out = {(config.skin.uid, None, config.skin.label, objs(config.skin))}
    for node in config.skin.walk():
        out.update((kid.uid, node.uid, kid.label, objs(kid)) for kid in node.children)
    return out


def _erased_membranes(root):
    """``ref.membranes`` of an all-INF reference tree, timers dropped."""
    return {
        (uid, parent, label, frozenset(((name, co), n) for (name, co, _t), n in objs))
        for uid, parent, label, _timer, objs in ref.membranes(root)
    }


def test_u_apply_matches_reference_per_membrane():
    # u_apply shares every subtree its choice leaves untouched; compared
    # membrane by membrane, uids and parents included, with the archive
    compared = 0
    systems = [random_untimed_system(seed) for seed in range(60)] + [_cascade_and_exit()]
    for cfg, rules in systems:
        timed_cfg, timed_rules = embed_infinite(cfg, rules)
        root = ref.from_config(timed_cfg)
        by_roles = {
            tuple(sorted((i.rule_index, i.active_uid, -1 if i.passive_uid is None else i.passive_uid)
                         for i in ref.copies(ch))): ch
            for ch in u_maximal_choices(cfg, rules)
        }
        for ref_choice in ref.choices(root, timed_rules, saturated=True):
            roles = tuple(sorted((r, act, -1 if pas is None else pas) for r, act, pas, _ab, _pb in ref_choice))
            got, detached = u_apply(cfg, by_roles[roles])
            want, want_detached, _stats = ref.apply_step(root, ref_choice, timed_rules)
            assert _u_membranes(got) == _erased_membranes(want)
            assert detached == tuple((n["uid"], n["label"], _erased_render(n)) for n in want_detached)
            compared += 1
    assert compared > 60


def test_rewrite_index_equals_the_rule_by_rule_loop():
    # rewrites are looked up by their largest left-side symbol; every kind
    # of left side must still match exactly where a plain loop matches it
    co_a, co_c, x = a.dual(), c.dual(), Symbol("x")
    rewrites = [
        RewriteRule("h", Multiset([a]), ((b, Fresh(INF)),), name="at-h"),
        RewriteRule(None, Multiset([b]), (), name="star"),
        RewriteRule(None, Multiset([a, c]), (), name="two"),
        RewriteRule(None, Multiset([a, a]), (), name="twice"),
        RewriteRule(None, Multiset([co_a, b]), (), name="co-first"),
        RewriteRule("m", Multiset([a, co_c]), (), name="co-key"),
    ]
    rules = [RULE] + rewrites  # a move first, so rewrite indices start at 1
    rng = random.Random(11)
    configs = [UConfig(umem("skin", [x], [umem("z", [x, x]), umem("m", [])]))]  # no key symbol held
    for _ in range(200):
        kids = [
            umem(rng.choice("hmz"), [rng.choice([a, b, c, co_a, co_c, x]) for _ in range(rng.randint(0, 5))])
            for _ in range(rng.randint(0, 4))
        ]
        configs.append(UConfig(umem("skin", [rng.choice([a, c, x])], kids)))
    for config in configs:
        want = sorted(
            (UInstance(idx, rule, host.uid, None, rule.active_slots)
             for idx, rule in enumerate(rules) if isinstance(rule, RewriteRule)
             for host in config.skin.walk()
             if rule.at in (None, host.label) and host.content.contains(rule.lhs)),
            key=UInstance.sort_key,
        )
        got = [inst for inst in u_find_instances(config, rules) if not inst.is_move]
        assert exact(got) == exact(want)
        assert [i.active_classes for i in got] == [i.active_classes for i in want]
    assert not u_find_instances(configs[0], rules)


def test_untimed_successors_derive_their_index_from_their_source(monkeypatch):
    # a wide untimed system: a busy pair, a counter k stepping n0 -> n5, and
    # 300 bystanders no rule names; only the root's index is built by a walk
    n = [Symbol(f"n{i}") for i in range(6)]
    kids = [umem("h", [a]), umem("m", [a.dual()]), umem("k", [n[0]])]
    kids += [umem(f"z{i % 7}", [c] * 5) for i in range(300)]
    rules = [RULE, ExoRule("h", "m", Multiset([c]), w=((a, Fresh(INF)),), name="X")]
    rules += [RewriteRule("k", Multiset([n[i]]), ((n[i + 1], Fresh(INF)),)) for i in range(5)]
    built = count_calls(monkeypatch, "mobilemem.tree.Index")
    derived = count_calls(monkeypatch, "mobilemem.tree.Tree.next_index")
    graph = explore_untimed(UConfig(umem("skin", [], kids)), rules, 5)
    assert len(graph.objects) == 6
    # the nodes at depths 1-4 are expanded; depth 5 ends the search
    assert built.n - derived.n == 1 and derived.n == 4, (built.n, derived.n)


def test_an_untimed_exploration_builds_one_rule_table(monkeypatch):
    # the rewrite index, the move parts and the schema members read are
    # built once per rule container, a compiled one included, not once
    # per state
    tables = count_calls(monkeypatch, "mobilemem.untimed._untimed_table")
    compiled_cfg, compiled = eliminate_timers(*random_timed_system(5))
    cfg, rules = random_untimed_system(5)
    for state, fresh in ((compiled_cfg, compiled), (cfg, list(rules)), (cfg, tuple(rules))):
        tables.n = 0
        graph = explore_untimed(state, fresh, 4)
        assert len(graph.nodes) > 3 and tables.n == 1
    tables.n = 0
    assert len(u_run(handshake(), [RULE], 3).records) == 2  # the move, then the halting empty step
    assert tables.n == 1


# ---------------------------------------------------------------------------
# The erased-key fold against the trees it stands for

def _fold_agrees(config, timed: bool) -> None:
    """``erased_key`` of ``config`` equals the render of the untimed tree
    it stands for: timers erased, and counters dropped as ``project``
    drops them."""
    erased = erase_timers(config) if timed else config
    assert erased_key(config) == u_canonicalize(erased)
    assert erased_key(config, _counter_of) == u_canonicalize(project(config))


def test_erased_keys_equal_the_renders_of_erased_and_projected_trees_on_the_corpus():
    states = 0
    for seed in range(40):
        for timed_config, timed_rules in (random_timed_system(seed), embed_infinite(*random_untimed_system(seed))):
            graph = explore_membranes(timed_config, timed_rules, 4)
            for state in graph.objects.values():
                _fold_agrees(state, True)
            states += len(graph.objects)
        for config, rules in (eliminate_timers(*random_timed_system(seed)), random_untimed_system(seed)):
            graph = explore_untimed(config, rules, 4)
            for state in graph.objects.values():
                _fold_agrees(state, False)
            states += len(graph.objects)
    assert states == 860


# objects that repeat, co-forms, and names with ``$``: counters of
# objects and of labels, and two that only look like them
_FOLD_SYMBOLS = (a, a.dual(), b, Symbol("b$a$1"), Symbol("b$a$1", True), Symbol("b$p$2"), Symbol("b$$3"), Symbol("a$1"))


@st.composite
def timed_trees(draw):
    """Timed configurations at clocks 0 to 3, up to three levels below the
    skin, whose membranes repeat labels and objects."""
    clock = draw(st.integers(0, 3))

    def node(level: int):
        objects = draw(st.lists(
            st.tuples(st.sampled_from(_FOLD_SYMBOLS), st.sampled_from((clock, clock + 1, clock + 2, INF))), max_size=6,
        ))
        kids = [node(level + 1) for _ in range(draw(st.integers(0, 2 if level < 3 else 0)))]
        return mem(draw(st.sampled_from(("p", "q"))), draw(st.sampled_from((clock + 1, INF))), objects, kids)

    skin = node(0)
    return Configuration(mem("skin", INF, skin.content, skin.children), draw(st.sampled_from(("skin", "p"))), clock)


@settings(max_examples=examples(150))
@given(timed_trees())
def test_erased_keys_equal_the_renders_of_erased_and_projected_trees_on_drawn_trees(config):
    _fold_agrees(config, True)
    _fold_agrees(erase_timers(config), False)
