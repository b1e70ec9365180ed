import gc
import hashlib
import json
import random
import sys
import time
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))
import reference as ref

from mobilemem import engine
from mobilemem.choices import availability, enumerate_choices, least_choice
from mobilemem.cli import main
from mobilemem.compiler import eliminate_timers, embed_infinite
from mobilemem.core import (
    INF,
    Carry,
    Configuration,
    EndoRule,
    ExoRule,
    Fresh,
    MembraneNode,
    Multiset,
    RewriteRule,
    RuleSet,
    Symbol,
    at_rest,
    canonicalize,
    mem,
    rebuild_tree,
    render_at,
)
from mobilemem.engine import (
    Instance,
    StaleChoiceError,
    apply_step,
    choice_describe,
    distinct_successors,
    find_instances,
    maximal_choices,
    run,
    step,
    step_choices,
    successors,
)
from mobilemem.corpus import random_reducible_process, random_timed_system, random_untimed_system
from mobilemem.explore import _bfs, _node_record, explore_membranes
from mobilemem.translate import _literal_apply, generate_rules, literal_successors, translate
from mobilemem.sysfile import SystemFile, parse_system, render_system
from mobilemem.tree import drop_index, index_of
from mobilemem.untimed import (
    UConfig, UInstance, erase_timers, u_apply, u_canonicalize, u_find_instances, u_maximal_choices, u_run,
    u_successors, umem,
)
from conftest import count_calls, examples, w4
from systems import exact, hand_processes, random_soak_system, residual_instances

a, b, c, d, p, x, y = (Symbol(s) for s in "abcdpxy")
DELTA = Symbol("delta")


def s1():
    h = mem("h", 3, [(a, 2), (b, 5)])
    m = mem("m", INF, [(a.dual(), 4)])
    return Configuration(mem("skin", INF, [], [h, m]))


E1 = EndoRule("h", "m", Multiset([a]), w=((c, Fresh(7)),), name="E1")


def keys(pairs):
    return sorted(canonicalize(cfg) for _ch, cfg, _key in pairs)


# ---------------------------------------------------------------------------
# Instance matching

def test_find_instances_single_endo():
    inst = find_instances(s1(), [E1])
    assert len(inst) == 1
    only = inst[0]
    assert only.rule is E1
    assert only.active_classes == ((a, 2),)
    assert only.passive_classes == ((a.dual(), 4),)


def test_no_instance_on_zero_timer_object():
    cfg = Configuration(mem("skin", INF, [], [
        mem("h", 3, [(a, 0), (b, 5)]), mem("m", INF, [(a.dual(), 4)]),
    ]))
    assert find_instances(cfg, [E1]) == []


def test_no_instance_when_active_not_elementary():
    cfg = Configuration(mem("skin", INF, [], [
        mem("h", 3, [(a, 2)], [mem("k", 1)]), mem("m", INF, [(a.dual(), 4)]),
    ]))
    assert find_instances(cfg, [E1]) == []


def test_no_instance_on_zero_timer_membranes():
    cfg = Configuration(mem("skin", INF, [], [
        mem("h", 0, [(a, 2)]), mem("m", INF, [(a.dual(), 4)]),
    ]))
    assert find_instances(cfg, [E1]) == []
    cfg2 = Configuration(mem("skin", INF, [], [
        mem("h", 3, [(a, 2)]), mem("m", 0, [(a.dual(), 4)]),
    ]))
    assert find_instances(cfg2, [E1]) == []


def test_binding_classes_distinguish_timers():
    # a:2 and a:5 are observably different bindings; a:2 twice is one
    cfg = Configuration(mem("skin", INF, [], [
        mem("h", 3, [(a, 2), (a, 5)]), mem("m", INF, [(a.dual(), 4)]),
    ]))
    assert len(find_instances(cfg, [E1])) == 2
    cfg2 = Configuration(mem("skin", INF, [], [
        mem("h", 3, [(a, 2), (a, 2)]), mem("m", INF, [(a.dual(), 4)]),
    ]))
    assert len(find_instances(cfg2, [E1])) == 1


# ---------------------------------------------------------------------------
# Choices

def test_maximal_choices_s1_is_forced():
    choices = maximal_choices(s1(), [E1])
    assert len(choices) == 1
    assert len(choices[0]) == 1


def test_step_choices_allow_finite_objects_to_sit_out():
    choices = step_choices(s1(), [E1])
    assert sorted(len(ch) for ch in choices) == [0, 1]


def test_infinite_timer_objects_cannot_refuse():
    cfg = Configuration(mem("skin", INF, [], [
        mem("h", INF, [(a, INF)]), mem("m", INF, [(a.dual(), INF)]),
    ]))
    assert len(step_choices(cfg, [E1])) == 1  # the move is forced


def test_shared_passive_membrane():
    cfg = Configuration(mem("skin", INF, [], [
        mem("h", 3, [(a, 2)]),
        mem("h", 3, [(a, 2)]),
        mem("m", INF, [(a.dual(), 4), (a.dual(), 4)]),
    ]))
    choices = maximal_choices(cfg, [E1])
    assert len(choices) == 1
    assert len(choices[0]) == 2  # both enter, m is shared passively
    result = apply_step(cfg, choices[0])
    assert canonicalize(result) == \
        "skin:inf{}[m:inf{}[h:2{c:7}[] h:2{c:7}[]]]|out=skin"


def test_empty_choice_when_nothing_applies():
    cfg = Configuration(mem("skin", INF, [(a, 3)]))
    assert maximal_choices(cfg, [E1]) == [()]
    assert step_choices(cfg, [E1]) == [()]


def test_membrane_cannot_be_active_and_passive_at_once():
    # mutual entry h->m and m->h would be cyclic; only one fires per step
    r1 = EndoRule("h", "m", Multiset([a]), name="r1")
    r2 = EndoRule("m", "h", Multiset([b]), name="r2")
    cfg = Configuration(mem("skin", INF, [], [
        mem("h", 3, [(a, 2), (b.dual(), 2)]),
        mem("m", 3, [(a.dual(), 2), (b, 2)]),
    ]))
    for choice in step_choices(cfg, [r1, r2]):
        assert len(choice) <= 1


# ---------------------------------------------------------------------------
# Step application (frozen worked examples)

def test_apply_endo_s1():
    cfg = s1()
    (choice,) = maximal_choices(cfg, [E1])
    result = apply_step(cfg, choice)
    assert canonicalize(result) == "skin:inf{}[m:inf{}[h:2{b:4,c:7}[]]]|out=skin"


def test_stall_branch_ticks_everything():
    cfg = s1()
    empty = [ch for ch in step_choices(cfg, [E1]) if not ch][0]
    result = apply_step(cfg, empty)
    assert canonicalize(result) == \
        "skin:inf{}[h:2{a:1,b:4}[] m:inf{~a:3}[]]|out=skin"


def test_dissolution_and_expiry_sequence():
    s2 = Configuration(mem("skin", INF, [], [mem("h", 0, [(a, 1)])]))
    step1 = apply_step(s2, ())
    assert canonicalize(step1) == "skin:inf{a:0}[]|out=skin"
    step2 = apply_step(step1, ())
    assert canonicalize(step2) == "skin:inf{}[]|out=skin"


def test_carry_and_context_objects():
    rule = EndoRule(
        "h", "m",
        u=Multiset([a]), v=Multiset([b]), v2=Multiset([x]),
        w=((c, Fresh(7)), (b, Carry(1))),
        w2=((x, Carry(1)),),
        name="R",
    )
    cfg = Configuration(mem("skin", INF, [], [
        mem("h", 5, [(a, 2), (b, 3)]), mem("m", 4, [(a.dual(), 6), (x, 9)]),
    ]))
    (choice,) = maximal_choices(cfg, [rule])
    result = apply_step(cfg, choice)
    assert canonicalize(result) == \
        "skin:inf{}[m:3{x:8}[h:4{b:2,c:7}[]]]|out=skin"


def test_exo_basic():
    rule = ExoRule("h", "m", Multiset([a]), w=((c, Fresh(7)),), w2=((d, Fresh(1)),), name="X")
    cfg = Configuration(mem("skin", INF, [], [
        mem("m", 5, [(a.dual(), 2)], [mem("h", 3, [(a, 1)])]),
    ]))
    (choice,) = maximal_choices(cfg, [rule])
    result = apply_step(cfg, choice)
    assert canonicalize(result) == "skin:inf{}[h:2{c:7}[] m:4{d:1}[]]|out=skin"


def test_exo_through_skin_detaches_and_archives():
    rule = ExoRule("h", "skin", Multiset([a]), w2=((d, Fresh(2)),), name="X")
    cfg = Configuration(mem("skin", INF, [(a.dual(), 2)], [mem("h", 3, [(a, 1)])]))
    (choice,) = maximal_choices(cfg, [rule])
    result = step(cfg, choice)
    # the passive-side product lands in the skin; the mover is archived
    assert canonicalize(result.config) == "skin:inf{d:2}[]|out=skin"
    assert len(result.detached) == 1
    assert result.detached[0][1] == "h"


def test_a_membrane_leaving_the_skin_at_clock_1_is_archived_at_remaining_timers():
    # at clock 1 h carries b and y (bound, each a tick less), keeps e
    # (unbound, not ticked) and gets c:+2; its archive prints remaining
    # timers, as one at clock 0 does
    sf = parse_system(
        "mms 1 timed\noutput skin\nskin:inf[ ~t:inf ; h:5[ t:9, x:3, b:4, e:6 ] ]\n"
        "rw h : x => y:+3\nexo h skin : t | y b , ~t | => y:- c:+2 b:- |\n"
    )
    first, second = run(sf.config, sf.rules, 2).records
    assert first.detached == ()
    assert second.detached == ((2, "h", "h:3{b:2,c:2,e:5,y:2}[]"),)


def test_endo_between_same_labelled_siblings():
    # labels need not be unique: one h-membrane may enter another
    rule = EndoRule("h", "h", Multiset([a]), name="self")
    cfg = Configuration(mem("skin", INF, [], [
        mem("h", 4, [(a, 2)]), mem("h", 4, [(a.dual(), 2)]),
    ]))
    (choice,) = maximal_choices(cfg, [rule])
    result = apply_step(cfg, choice)
    assert canonicalize(result) == "skin:inf{}[h:3{}[h:3{}[]]]|out=skin"


def test_rewrite_fires_inside_a_moving_membrane():
    # a rewrite host is not an "involved" membrane: contents rewrite and
    # move in the same step
    move = EndoRule("h", "m", Multiset([a]), name="e")
    tick = RewriteRule("h", Multiset([x]), ((y, Fresh(9)),), name="w")
    cfg = Configuration(mem("skin", INF, [], [
        mem("h", 3, [(a, 2), (x, INF)]), mem("m", INF, [(a.dual(), 4)]),
    ]))
    both = [ch for ch in maximal_choices(cfg, [move, tick]) if len(ch) == 2]
    assert both
    result = apply_step(cfg, both[0])
    assert canonicalize(result) == "skin:inf{}[m:inf{}[h:2{y:9}[]]]|out=skin"


def test_rewrite_fires_inside_a_dissolving_membrane():
    rule = RewriteRule("k", Multiset([x]), ((y, Fresh(5)),), name="w")
    cfg = Configuration(mem("skin", INF, [], [mem("k", 0, [(x, INF)])]))
    (choice,) = maximal_choices(cfg, [rule])
    assert len(choice) == 1
    result = apply_step(cfg, choice)
    # the rewrite applies, then the expired membrane spills its output
    assert canonicalize(result) == "skin:inf{y:5}[]|out=skin"


def test_rule_made_marker_dissolves_host():
    rule = RewriteRule("k", Multiset([p]), ((DELTA, Fresh(INF)),), name="D")
    cfg = Configuration(mem("skin", INF, [], [mem("k", 9, [(p, INF), (y, INF)])]))
    (choice,) = maximal_choices(cfg, [rule])
    result = apply_step(cfg, choice)
    assert canonicalize(result) == "skin:inf{y:inf}[]|out=skin"


def test_dissolution_cascades_bottom_up():
    cfg = Configuration(mem("skin", INF, [], [
        mem("k1", 0, [], [mem("k2", 0, [(y, 5)])]),
    ]))
    result = apply_step(cfg, ())
    assert canonicalize(result) == "skin:inf{y:4}[]|out=skin"


def test_inf_system_is_a_fixpoint():
    cfg = Configuration(mem("skin", INF, [(a, INF)]))
    assert canonicalize(apply_step(cfg, ())) == canonicalize(cfg)


def test_stale_choice_rejected():
    cfg = s1()
    (choice,) = maximal_choices(cfg, [E1])
    other = Configuration(mem("skin", INF, [], [mem("h", 3, [(a, 2)])]))
    with pytest.raises(StaleChoiceError):
        apply_step(other, choice)
    aged = apply_step(cfg, [ch for ch in step_choices(cfg, [E1]) if not ch][0])
    with pytest.raises(StaleChoiceError, match=r"stale choice: membrane \d+ lacks a bound by E1@\d+->\d+\{a:2\|"):
        apply_step(aged, choice)  # bindings name timers that moved on; so does the message


def test_an_instance_equals_only_instances_and_prints_as_it_describes_itself():
    cfg = s1()
    (inst,) = find_instances(cfg, [E1])
    assert repr(inst) == f"Instance(E1@{inst.active_uid}->{inst.passive_uid}{{a:2|~a:4}})"


def test_no_instance_binds_what_another_of_its_choice_produces():
    # a step fires its choice against the configuration it starts from:
    # ``rw h : b => c`` may not take the b that ``rw h : a => b`` makes in
    # the same step, nor E2 the ~b that E1 puts into m; every relation
    # refuses such a choice before producing anything, in one wording,
    # and leaves the configuration, its key and its index as they were
    ab = RewriteRule("h", Multiset([a]), ((b, Fresh(INF)),), name="ab")
    bc = RewriteRule("h", Multiset([b]), ((c, Fresh(INF)),), name="bc")
    e1 = EndoRule("h1", "m", Multiset([a]), w2=((b.dual(), Fresh(5)),), name="E1")
    e2 = EndoRule("h2", "m", Multiset([b]), name="E2")
    untimed = UConfig(umem("skin", [], [umem("h", [a])]))
    timed = Configuration(mem("skin", INF, [], [mem("h", INF, [(a, INF)])]))
    literal = Configuration(mem("skin", INF, [], [
        mem("h1", 9, [(a, 9)]), mem("h2", 9, [(b, 9)]), mem("m", 9, [(a.dual(), 9)]),
    ]))
    h1, h2, m = (node.uid for node in literal.skin.children)
    cases = []
    for cfg, apply, key, instance, bound in (
        (untimed, u_apply, u_canonicalize, UInstance, b),
        (timed, step, canonicalize, Instance, (b, INF)),
    ):
        (first,) = (u_find_instances if apply is u_apply else find_instances)(cfg, [ab, bc])
        second = instance(1, bc, first.active_uid, None, (bound,))
        cases.append((cfg, apply, key, ((first, 1), (second, 1)), f"membrane {first.active_uid} lacks b bound by bc@"))
    (first,) = find_instances(literal, [e1, e2])
    second = Instance(1, e2, h2, m, ((b, 9),), ((b.dual(), 5),))
    for apply in (_literal_apply, step):
        cases.append((literal, apply, canonicalize, ((first, 1), (second, 1)), f"membrane {m} lacks ~b bound by E2@{h2}->{m}"))
    for cfg, apply, key, choice, message in cases:
        before, index = key(cfg), index_of(cfg)
        with pytest.raises(StaleChoiceError, match=f"^stale choice: {message}"):
            apply(cfg, choice)
        assert key(cfg) == before and index_of(cfg) is index
        assert apply(cfg, choice[:1])  # the first instance alone fires


def test_a_move_choice_replayed_on_its_own_result_is_stale():
    # the endo active now sits inside its passive; the exo active has left
    # its passive and is its sibling
    exo = ExoRule("h", "m", Multiset([b]), name="X")
    cfg = Configuration(mem("skin", INF, [], [mem("h", INF, [(a, INF)]), mem("m", INF, [(a.dual(), INF)])]))
    endo = EndoRule("h", "m", Multiset([a]), w=((b, Fresh(INF)),), w2=((b.dual(), Fresh(INF)),), name="E")
    for rules, message in (([endo], "endo participants are not siblings here"),
                           ([exo], "exo active is not a child of its passive")):
        (choice,) = maximal_choices(cfg, rules)
        moved = apply_step(cfg, choice)
        with pytest.raises(StaleChoiceError, match=message):
            apply_step(moved, choice)
        cfg = moved


def test_a_hand_built_choice_may_not_move_one_active_twice():
    cfg = Configuration(mem("skin", INF, [], [
        mem("h", INF, [(a, INF), (a, INF)]), mem("m", INF, [(a.dual(), INF)]), mem("m", INF, [(a.dual(), INF)]),
    ]))
    rule = EndoRule("h", "m", Multiset([a]), name="E")
    found = find_instances(cfg, [rule])
    assert len(found) == 2 and found[0].active_uid == found[1].active_uid
    assert all(len(choice) == 1 for choice in maximal_choices(cfg, [rule]))
    with pytest.raises(StaleChoiceError, match="conflicting membrane roles in choice"):
        step(cfg, tuple([(inst, 1) for inst in found]))
    # a move fires exactly once, and any instance at least once
    for count in (2, 0):
        with pytest.raises(StaleChoiceError, match=f"fires {count} times"):
            step(cfg, ((found[0], count),))


def test_a_move_whose_active_gained_a_child_or_ran_out_is_stale():
    cfg = s1()
    (choice,) = maximal_choices(cfg, [E1])
    h, m = cfg.skin.children
    for changed in (replace(h, children=(mem("k", INF),)), replace(h, timer=0)):
        assert changed.uid == h.uid
        other = Configuration(replace(cfg.skin, children=(changed, m)))
        with pytest.raises(StaleChoiceError, match="move structural precondition fails"):
            apply_step(other, choice)


# ---------------------------------------------------------------------------
# Successors, runs, audits

def test_successors_dedup_equivalent_bindings():
    cfg = Configuration(mem("skin", INF, [], [
        mem("h", 3, [(a, 2), (a, 2)]), mem("m", INF, [(a.dual(), 4)]),
    ]))
    succ = successors(cfg, [E1])
    moves = [ch for ch, _cfg, _key in succ if ch]
    assert len(moves) == 1


def test_successors_s1():
    succ = successors(s1(), [E1])
    assert keys(succ) == [
        "skin:inf{}[h:2{a:1,b:4}[] m:inf{~a:3}[]]|out=skin",
        "skin:inf{}[m:inf{}[h:2{b:4,c:7}[]]]|out=skin",
    ]


def test_halted_self_loop_successor():
    cfg = Configuration(mem("skin", INF, [(a, INF)]))
    succ = successors(cfg, [E1])
    assert len(succ) == 1
    assert canonicalize(succ[0][1]) == canonicalize(cfg)


def test_run_zero_steps():
    cfg = s1()
    trace = run(cfg, [E1], 0)
    assert trace.records == []
    assert exact(trace.final) == exact(cfg)


def test_a_run_refuses_negative_steps_and_an_unknown_selector():
    for simulate, cfg in ((run, s1()), (u_run, erase_timers(s1()))):
        with pytest.raises(ValueError) as err:
            simulate(cfg, [E1], -1)
        assert str(err.value) == "steps must be >= 0"
        with pytest.raises(ValueError) as err:
            simulate(cfg, [E1], 1, "last")
        assert str(err.value) == "unknown selector 'last'"


def test_run_executes_the_forced_endo():
    trace = run(s1(), [E1], 1, selector="random", seed=42)
    assert trace.records[-1].key == "skin:inf{}[m:inf{}[h:2{b:4,c:7}[]]]|out=skin"


def test_run_halts_on_fixpoint():
    cfg = Configuration(mem("skin", INF, [(a, INF)]))
    trace = run(cfg, [], 10)
    assert trace.halted
    assert len(trace.records) == 1


def test_equal_seeds_equal_traces():
    cfg, rules = random_soak_system(3)
    t1 = run(cfg, rules, 20, selector="random", seed=5)
    t2 = run(cfg, rules, 20, selector="random", seed=5)
    assert t1.to_jsonl() == t2.to_jsonl()


def test_maximality_audit_on_soak():
    cfg, rules = random_soak_system(1)
    trace = run(cfg, rules, 25, selector="random", seed=9)
    current = cfg
    for record in trace.records:
        assert residual_instances(current, record.choice, rules) == []
        current = step(current, record.choice).config
        assert canonicalize(current) == record.key


def _object_count(cfg):
    return sum(
        n for node in cfg.skin.walk()
        for (sym, _t), n in node.content.items()
        if sym.name != "delta"
    )


def test_conservation_bookkeeping():
    for seed in range(8):
        cfg, rules = random_timed_system(seed)
        for choice in step_choices(cfg, rules):
            result = step(cfg, choice)
            produced = sum(
                sum(1 for sym, _s in inst.rule.w + inst.rule.w2 if sym.name != "delta")
                if inst.is_move else
                sum(1 for sym, _s in inst.rule.rhs if sym.name != "delta")
                for inst in ref.copies(choice)
            )
            consumed = sum(
                len(inst.active_classes) + len(inst.passive_classes) for inst in ref.copies(choice)
            )
            expect = (_object_count(cfg) + produced - consumed
                      - result.stats.expired - result.stats.detached_objects)
            assert _object_count(result.config) == expect


def test_tree_shape_and_skin_preserved():
    for seed in range(8):
        cfg, rules = random_timed_system(seed)
        for _choice, nxt, _key in successors(cfg, rules):
            uids = [node.uid for node in nxt.skin.walk()]
            assert len(uids) == len(set(uids))
            assert nxt.skin.uid == cfg.skin.uid
            assert nxt.skin.timer == INF


# ---------------------------------------------------------------------------
# Independent oracle

def test_against_reference_interpreter():
    systems = {f"seed {seed}": random_timed_system(seed) for seed in range(15)}
    # independent pairs side by side, whose successors are composed from parts
    for name, p in (("W4 k=3", w4(3)), ("reducible 3", random_reducible_process(3)),
                    ("reducible 6", random_reducible_process(6))):
        systems[name] = (translate(p), generate_rules(p))
    for name, (cfg, rules) in systems.items():
        want = ref.successor_renders(ref.from_config(cfg), rules)
        got = {ref.render(ref.from_config(nxt)) for _ch, nxt, _key in successors(cfg, rules)}
        assert want == got, name


def _ref_choice_set(choices):
    return sorted(sorted((r, a, -1 if p is None else p, ab, pb) for r, a, p, ab, pb in ch) for ch in choices)


def _engine_row(inst):
    """An engine instance in the reference's tuple form, ``-1`` for no
    passive membrane."""
    def binds(classes):
        return tuple((s.name, s.is_co, t) for s, t in classes)

    return (inst.rule_index, inst.active_uid, -1 if inst.passive_uid is None else inst.passive_uid,
            binds(inst.active_classes), binds(inst.passive_classes))


def _engine_choice_set(choices):
    return sorted(sorted(_engine_row(i) for i in ref.copies(ch)) for ch in choices)


def _untimed_choice_set(choices):
    return sorted(sorted((i.rule_index, i.active_uid, -1 if i.passive_uid is None else i.passive_uid, (), ())
                         for i in ref.copies(ch)) for ch in choices)


def _shared_passive_behind_a_rewrite():
    """p and r both enter q, which may itself enter s; two rewrites share
    w's objects, so the search backtracks over the first one between the
    two moves into q."""
    cfg = Configuration(mem("skin", INF, [], [
        mem("p", INF, [(a, INF)]),
        mem("q", INF, [(a.dual(), INF), (b.dual(), INF), (c, INF)]),
        mem("r", INF, [(b, INF)]),
        mem("s", INF, [(c.dual(), INF)]),
        mem("w", INF, [(x, INF), (x, INF)]),
    ]))
    rules = [
        EndoRule("p", "q", Multiset([a])),
        RewriteRule("w", Multiset([x]), ((y, Fresh(1)),)),
        EndoRule("r", "q", Multiset([b])),
        EndoRule("q", "s", Multiset([c])),
        RewriteRule("w", Multiset([x]), ((d, Fresh(1)),)),
    ]
    return cfg, rules


def _isolation_boundaries():
    """Hand-made systems at the edges of the choice search's isolated path
    (see ``choices.py``); no instance shares a key or a membrane with
    another unless said."""
    def system(kids, rules):
        return Configuration(mem("skin", INF, [], kids)), rules

    return [
        # a rewrite binding only finite-timer objects, which fits twice: a
        # saturated choice holds it twice, a legal one 0, 1 or 2 times
        system([mem("h", INF, [(x, 2), (x, 2)])], [RewriteRule("h", Multiset([x]), ((y, Fresh(1)),))]),
        # a rewrite binding only INF objects, which fits twice: it blocks
        # in every mode, so every choice holds it twice
        system([mem("h", INF, [(x, INF), (x, INF)])], [RewriteRule("h", Multiset([x]), ((y, Fresh(1)),))]),
        # two moves sharing a passive membrane but no key: not isolated
        system(
            [mem("p", INF, [(a, INF)]), mem("r", INF, [(b, INF)]), mem("q", INF, [(a.dual(), INF), (b.dual(), INF)])],
            [EndoRule("p", "q", Multiset([a])), EndoRule("r", "q", Multiset([b]))],
        ),
        # a move that does not fit, its trigger needing two a where h holds
        # one, beside an isolated move that does
        system(
            [mem("h", INF, [(a, INF)]), mem("m", INF, [(a.dual(), INF)] * 2),
             mem("k", 3, [(b, INF)]), mem("n", INF, [(b.dual(), INF)])],
            [EndoRule("h", "m", Multiset([a, a])), EndoRule("k", "n", Multiset([b]))],
        ),
    ]


def test_choice_sets_match_reference_interpreter():
    # every choice relation: saturated and legal timed choices, untimed
    # saturated ones on the erased system against its embedding, and the
    # literal relation's successors, each reached by a conflict-free choice
    systems = [random_timed_system(seed) for seed in range(40)] + [_shared_passive_behind_a_rewrite()]
    systems += _isolation_boundaries()
    for i, (cfg, rules) in enumerate(systems):
        root = ref.from_config(cfg)
        assert _engine_choice_set(maximal_choices(cfg, rules)) == _ref_choice_set(
            ref.choices(root, rules, saturated=True)), f"maximal, system {i}"
        assert _engine_choice_set(step_choices(cfg, rules)) == _ref_choice_set(
            ref.choices(root, rules, saturated=False)), f"step, system {i}"
        ucfg = erase_timers(cfg)
        timed_cfg, timed_rules = embed_infinite(ucfg, rules)
        assert _untimed_choice_set(u_maximal_choices(ucfg, rules)) == _ref_choice_set(
            [[row[:3] + ((), ()) for row in ch] for ch in ref.choices(ref.from_config(timed_cfg), timed_rules, True)]
        ), f"untimed, system {i}"
        reached = {
            tuple(_ref_choice_set([ch])[0]): ref.render(ref.apply_step(root, ch, rules, literal=True)[0])
            for ch in ref.literal_choices(root, rules)
        }
        literal = literal_successors(cfg, rules)
        for ch, nxt, _key in literal:
            assert reached[tuple(_engine_choice_set([ch])[0])] == ref.render(ref.from_config(nxt)), f"literal, system {i}"
        assert {ref.render(ref.from_config(nxt)) for _ch, nxt, _key in literal} == set(reached.values())


def test_reference_agrees_on_worked_example():
    want = ref.successor_renders(ref.from_config(s1()), [E1])
    got = {ref.render(ref.from_config(nxt)) for _ch, nxt, _key in successors(s1(), [E1])}
    assert want == got


# ---------------------------------------------------------------------------
# The keep boundary: a step loads only the membranes its choice names, their
# ancestors and the subtrees in which some timer reaches 0, and keeps every
# other subtree as it is. Each step is compared with the reference's full
# rebuild membrane by membrane, uids and parents included, with its counts
# and its detached archive.

def _ref_detached(node):
    content = Multiset({(Symbol(name, co), t): n for (name, co, t), n in node["objs"].items()})
    frozen = MembraneNode(node["label"], node["timer"], content, (), uid=node["uid"])
    return node["uid"], node["label"], render_at(frozen, 0)


def _assert_steps_match_reference(cfg, rules) -> int:
    """Every legal choice of ``cfg`` stepped by the engine and by the
    reference; returns the number of choices compared."""
    root = ref.from_config(cfg)
    choices = step_choices(cfg, rules)
    for choice in choices:
        got = step(cfg, choice)
        want_root, want_detached, want_stats = ref.apply_step(root, ref.from_choice(choice), rules)
        where = choice_describe(choice)
        assert ref.membranes(ref.from_config(got.config)) == ref.membranes(want_root), where
        assert got.detached == tuple(_ref_detached(node) for node in want_detached), where
        assert asdict(got.stats) == want_stats, where
    return len(choices)


def test_step_matches_reference_per_membrane_on_the_corpus():
    assert sum(_assert_steps_match_reference(*random_timed_system(seed)) for seed in range(60)) > 60


def _pair(*bystanders, skin=()):
    """h may enter m beside the given bystanders, which no rule touches;
    its ``a:2`` may also sit the step out, which touches nothing."""
    kids = [mem("h", 3, [(a, 2)]), mem("m", 4, [(a.dual(), INF)]), *bystanders]
    return Configuration(mem("skin", INF, skin, kids)), [EndoRule("h", "m", Multiset([a]))]


def test_settle_loads_a_timer_zero_membrane_two_levels_down():
    # b is untouched; d, under c under b, is at timer 0 and dissolves, so
    # b, c and d are loaded, and so is f, whose y:0 expires; e and g are kept
    e = mem("e", 2, [(x, 3)])
    d_ = mem("d", 0, [(x, 1), (y, 0)], [e])
    f = mem("f", 2, [(x, 1), (y, 0)])
    b_ = mem("b", 5, [(x, 2)], [f, mem("c", 3, [(y, 1)], [d_]), mem("g", 1, [(y, 2)])])
    cfg, rules = _pair(b_)
    assert _assert_steps_match_reference(cfg, rules) == 2
    after = step(cfg, maximal_choices(cfg, rules)[0]).config
    c_after = next(node for node in after.skin.walk() if node.label == "c")
    assert [kid.label for kid in c_after.children] == ["e"]
    assert step(cfg, ()).stats.expired == 2


def test_settle_counts_expiries_in_untouched_subtrees():
    z = mem("z", 4, [(x, 0), (x, 0), (y, 2)], [mem("w", 3, [(y, 0)], [mem("v", 2, [(x, 0)])])])
    cfg, rules = _pair(z)
    _assert_steps_match_reference(cfg, rules)
    assert step(cfg, maximal_choices(cfg, rules)[0]).stats.expired == 4


def test_settle_beside_an_exo_through_the_skin():
    h = mem("h", 3, [(a, INF), (x, 2)])
    z = mem("z", 4, [(x, 1)], [mem("w", 2, [(y, 0)])])
    cfg = Configuration(mem("skin", INF, [(a.dual(), INF)], [h, z, mem("k", 0, [(x, 1)])]))
    rules = [ExoRule("h", "skin", Multiset([a]))]
    _assert_steps_match_reference(cfg, rules)
    result = step(cfg, maximal_choices(cfg, rules)[0])
    assert [uid for uid, _label, _render in result.detached] == [h.uid]


def test_settle_below_the_passive_membrane_of_an_endo():
    m = mem("m", 4, [(a.dual(), INF)], [
        mem("k", 3, [(x, 1)], [mem("j", 2, [(y, 1)])]), mem("l", 0, [(x, 2)], [mem("i", 1, [])]),
    ])
    cfg = Configuration(mem("skin", INF, [], [mem("h", 3, [(a, INF)]), m]))
    _assert_steps_match_reference(cfg, [EndoRule("h", "m", Multiset([a]))])


def test_settle_below_a_rewrite_that_dissolves_its_host():
    k = mem("k", 5, [(p, INF)], [mem("j", 2, [(y, 1)], [mem("i", 1, [(x, 1)])])])
    cfg = Configuration(mem("skin", INF, [], [k, mem("z", 3, [(x, 1)])]))
    rules = [RewriteRule("k", Multiset([p]), ((DELTA, Fresh(INF)),), name="D")]
    _assert_steps_match_reference(cfg, rules)
    after = step(cfg, maximal_choices(cfg, rules)[0])
    assert after.stats.delta_consumed == 1
    assert sorted(kid.label for kid in after.config.skin.children) == ["j", "z"]


def test_dissolving_siblings_release_their_children():
    # h1 is made first, so its uid is the lower, but h2 comes first among
    # the skin's children; sibling order is not part of a state, so the
    # released children are compared as a multiset, by uid and by key
    h1 = mem("h", INF, [(p, INF)], [mem("c1", INF)])
    h2 = mem("h", INF, [(p, INF)], [mem("c2", INF)])
    config = Configuration(mem("skin", INF, [], [mem("k", INF), h2, h1]))
    kept = {node.uid for node in config.skin.walk() if node.label != "h"}
    rules = [RewriteRule("h", Multiset([p]), ((DELTA, Fresh(INF)),))]
    after = step(config, maximal_choices(config, rules)[0]).config
    assert Multiset([kid.label for kid in after.skin.children]) == Multiset(["k", "c1", "c2"])
    assert {node.uid for node in after.skin.walk()} == kept
    assert canonicalize(after) == "skin:inf{}[c1:inf{}[] c2:inf{}[] k:inf{}[]]|out=skin"
    untimed = erase_timers(config)
    after, _detached = u_apply(untimed, u_maximal_choices(untimed, rules)[0])
    assert Multiset([kid.label for kid in after.skin.children]) == Multiset(["k", "c1", "c2"])
    assert {node.uid for node in after.skin.walk()} == kept
    assert u_canonicalize(after) == "skin{}[c1{}[] c2{}[] k{}[]]|out=skin"


def test_the_skin_drops_its_own_marker_and_keeps_the_rest():
    # the skin cannot dissolve: a delta a rewrite puts there is dropped,
    # and the skin keeps its other objects and its children
    sf = parse_system("mms 1 timed\noutput skin\nskin:inf[ p:inf, y:2 ; k:3[ x:1 ] ]\nrw skin : p => delta\n")
    _assert_steps_match_reference(sf.config, sf.rules)
    after = step(sf.config, maximal_choices(sf.config, sf.rules)[0])
    assert after.stats.delta_consumed == 1
    assert canonicalize(after.config) == "skin:inf{y:1}[k:2{x:0}[]]|out=skin"


def test_settle_ticks_equal_contents_once_and_counts_every_expiry():
    # untouched bystanders share two contents, one with two timer-0 objects;
    # n holds children with the same contents, and k, at timer 0, dissolves,
    # so it is loaded with its child w
    shared, plain = [(x, 0), (x, 0), (y, 2)], [(x, 3), (y, INF)]
    bystanders = [mem("z", 3 + i % 3, shared if i % 2 else plain) for i in range(12)]
    bystanders += [mem("n", 5, shared, [mem("w", 4, shared), mem("w", 2, plain)]) for _ in range(3)]
    bystanders.append(mem("k", 0, shared, [mem("w", 4, shared)]))
    cfg, rules = _pair(*bystanders)
    assert _assert_steps_match_reference(cfg, rules) == 2
    # 6 z, 3 n, 3 w under n, k and the w under k: 14 shared contents, each
    # losing two objects; a memo counting each content once gives far fewer
    for choice in step_choices(cfg, rules):
        assert step(cfg, choice).stats.expired == 28
    after = at_rest(step(cfg, ()).config)
    assert "k" not in {node.label for node in after.skin.walk()}


def test_walk_is_iterative_pre_order():
    def recursive(node):
        yield node
        for child in node.children:
            yield from recursive(child)

    for seed in range(10):
        skin = random_timed_system(seed)[0].skin
        assert [n.uid for n in skin.walk()] == [n.uid for n in recursive(skin)]
    # 10,000 levels: level k holds a leaf, then level k + 1
    node = mem("n", INF)
    for k in range(10_000):
        node = mem("n", INF, [], [mem("leaf", INF), node])
    labels = [n.label for n in node.walk()]
    assert len(labels) == 20_001 and labels == ["n", "leaf"] * 10_000 + ["n"]


_LABELS = ("p", "q", "r")
_SYMS = (a, b)
_TIMERS = (1, 2, INF, INF, INF, 0)  # mostly INF, so that many instances are forced


@st.composite
def crowded_systems(draw):
    """Flat systems of at most 6 membranes over 2-3 labels and 1-2 symbols,
    where moves share passive membranes, a label is active in one rule and
    passive in another, and rewrites compete with moves for objects.
    Membranes hold objects that the rules on their label bind."""
    labels = _LABELS[:draw(st.integers(2, 3))]
    syms = _SYMS[:draw(st.integers(1, 2))]
    endo = st.builds(
        lambda h, m, u: EndoRule(h, m, Multiset([u])),
        st.sampled_from(labels), st.sampled_from(labels), st.sampled_from(syms),
    )
    exo = st.builds(  # flat: the only parent is the skin
        lambda h, u: ExoRule(h, "skin", Multiset([u])), st.sampled_from(labels), st.sampled_from(syms),
    )
    rewrite = st.builds(
        lambda at, lhs: RewriteRule(at, Multiset(lhs), ((x, Fresh(1)),)),
        st.sampled_from(labels),
        st.lists(st.sampled_from(syms + tuple(s.dual() for s in syms)), min_size=1, max_size=2),
    )
    rules = draw(st.lists(st.one_of(endo, endo, rewrite, exo), min_size=2, max_size=3))
    wanted = {label: [] for label in labels + ("skin",)}
    for rule in rules:
        if isinstance(rule, RewriteRule):
            wanted[rule.at] += list(rule.lhs)
        else:
            wanted[rule.h] += list(rule.u)
            wanted[rule.m] += list(rule.u_bar)

    def objects(label):
        return [
            (sym, draw(st.sampled_from(_TIMERS)))
            for sym in sorted(set(wanted[label]), key=str)
            for _ in range(draw(st.integers(1, 2)))
        ]

    used = [label for label in labels if wanted[label]]
    kids = []
    for label in used + draw(st.lists(st.sampled_from(used), max_size=5 - len(used))):
        kids.append(mem(label, draw(st.sampled_from(_TIMERS)), objects(label)))
    return Configuration(mem("skin", INF, objects("skin"), kids)), rules


def _reference_size(root, rules):
    """Count vectors the reference enumerates: 0..bound per instance."""
    size = 1
    for bound in ref.count_bounds(root, rules, ref.find_instances(root, rules)):
        size *= bound + 1
    return size


@settings(max_examples=examples(200), deadline=None)
@given(crowded_systems())
def test_choice_sets_match_reference_on_crowded_systems(system):
    cfg, rules = system
    root = ref.from_config(cfg)
    assume(_reference_size(root, rules) <= 256)
    assert _engine_choice_set(maximal_choices(cfg, rules)) == _ref_choice_set(
        ref.choices(root, rules, saturated=True))
    assert _engine_choice_set(step_choices(cfg, rules)) == _ref_choice_set(
        ref.choices(root, rules, saturated=False))
    ucfg = erase_timers(cfg)
    timed_cfg, timed_rules = embed_infinite(ucfg, rules)
    timed_root = ref.from_config(timed_cfg)
    # with every timer INF the reference may list millions of count
    # vectors (4,194,304 for a drawn system whose own count is 16: 45 s on
    # a 2-core x86-64 host); every tier-1 example is compared (12,288 at most)
    if _reference_size(timed_root, timed_rules) > 1 << 14:
        return
    want = sorted(
        sorted((r, act, -1 if pas is None else pas) for r, act, pas, _ab, _pb in ch)
        for ch in ref.choices(timed_root, timed_rules, True)
    )
    got = sorted(
        sorted((i.rule_index, i.active_uid, -1 if i.passive_uid is None else i.passive_uid) for i in ref.copies(ch))
        for ch in u_maximal_choices(ucfg, rules)
    )
    assert got == want


@st.composite
def nested_systems(draw):
    """Trees up to three levels under the skin, with membranes and objects
    at timers 0, 1, 2 and INF, moves at any level and rewrites that carry a
    timer or emit the dissolution marker, so that most choices leave whole
    subtrees untouched and some of those subtrees hold timer-0 membranes."""
    timers = st.sampled_from((0, 1, 2, INF))
    symbols = st.sampled_from((a, b, a.dual(), b.dual(), x))

    def tree(depth):
        objects = draw(st.lists(st.tuples(symbols, timers), max_size=3))
        kids = [tree(depth + 1) for _ in range(draw(st.integers(0, 2))) if depth < 3]
        return mem(draw(st.sampled_from(_LABELS)), draw(timers), objects, kids)

    skin = mem("skin", INF, draw(st.lists(st.tuples(symbols, timers), max_size=2)),
               [tree(1) for _ in range(draw(st.integers(1, 4)))])
    move = st.builds(
        lambda kind, h, m, u: kind(h, m, Multiset([u])),
        st.sampled_from((EndoRule, ExoRule)), st.sampled_from(_LABELS),
        st.sampled_from(_LABELS + ("skin",)), st.sampled_from(_SYMS),
    )
    rewrite = st.builds(
        lambda at, u, rhs: RewriteRule(at, Multiset([u]), rhs(u)),
        st.sampled_from(_LABELS), symbols,
        st.sampled_from((
            lambda u: ((DELTA, Fresh(INF)),), lambda u: ((x, Fresh(1)),), lambda u: ((u, Carry(0)),),
        )),
    )
    return Configuration(skin), draw(st.lists(st.one_of(move, rewrite), min_size=1, max_size=3))


@given(nested_systems())
def test_steps_match_reference_on_nested_systems(system):
    cfg, rules = system
    assume(_reference_size(ref.from_config(cfg), rules) <= 64)
    _assert_steps_match_reference(cfg, rules)


# ---------------------------------------------------------------------------
# Successors by parts of the skin: on a state with two or more parts that
# hold instances, ``successors`` steps each part on its own and composes
# the successors; it must give exactly what stepping the whole tree per
# choice gives.

def _whole_tree_successors(config, rules):
    return distinct_successors(config, step_choices(config, rules), lambda c, ch: step(c, ch).config, canonicalize)


def _walk(config):
    """Every membrane as (uid, parent uid, label, timer, contents, least
    timer), in uid order: the tree up to sibling order."""
    rows = []
    stack = [(config.skin, None)]
    while stack:
        node, up = stack.pop()
        rows.append((node.uid, up, node.label, node.timer, node.content.items(), node._least))
        stack.extend((kid, node.uid) for kid in node.children)
    return sorted(rows, key=lambda row: row[0])


def _whole_tree_graph(config, rules, depth):
    """The reach graph ``explore_membranes`` builds, from the whole-tree
    relation."""
    rules = RuleSet(rules)

    def succ(state):
        return [(choice_describe(ch), nxt, key) for ch, nxt, key in _whole_tree_successors(state, rules)]

    return _bfs(config, canonicalize(config), succ, _node_record, depth, 10**6)


def _assert_parts_match_the_whole_tree(config, rules, depth) -> int:
    """Every expanded state of ``explore_membranes(config, rules, depth)``:
    its successors, with one memo for all states and without one, their
    choices, keys and trees (uid, parent uid, label, timer, content and
    least timer of every membrane, up to sibling order: ``_walk``) equal
    the whole tree's, and so does the graph. Returns how many of those states had two or more parts
    holding instances."""
    rules = RuleSet(rules)
    graph = explore_membranes(config, rules, depth)
    memo: dict = {}
    factored = 0
    for key, record in graph.nodes.items():
        if record.depth == depth:
            continue
        state = graph.objects[key]
        split = engine._split(state, find_instances(state, rules))
        want = _whole_tree_successors(state, rules)
        for got in (successors(state, rules, memo), successors(state, rules)):
            assert [(choice_describe(ch), k) for ch, _n, k in got] == [
                (choice_describe(ch), k) for ch, _n, k in want], key
            for (_c, mine, k), (_c2, theirs, _k2) in zip(got, want):
                assert mine.clock == theirs.clock and _walk(mine) == _walk(theirs), k
                assert canonicalize(mine) == k
        if split is not None:
            factored += 1
    mine = json.dumps(graph.to_json(), sort_keys=True)
    assert mine == json.dumps(_whole_tree_graph(config, rules, depth).to_json(), sort_keys=True)
    return factored


def test_successors_by_parts_match_the_whole_tree_on_the_corpus():
    factored = 0
    for seed in range(100):
        p = random_reducible_process(seed)
        factored += _assert_parts_match_the_whole_tree(translate(p), generate_rules(p), 4)
    for p in hand_processes():
        factored += _assert_parts_match_the_whole_tree(translate(p), generate_rules(p), 4)
    for k in range(2, 6):
        factored += _assert_parts_match_the_whole_tree(translate(w4(k)), generate_rules(w4(k)), 3)
    for seed in range(120):
        factored += _assert_parts_match_the_whole_tree(*random_timed_system(seed), 4)
    assert factored > 300, factored


def _build(spec):
    label, timer, objects, kids = spec
    return mem(label, timer, objects, [_build(kid) for kid in kids])


@st.composite
def side_by_side_systems(draw):
    """Two or three kinds of independent sub-system beside each other
    under the skin, each placed once or twice (twins: equal labels,
    contents and timers), at finite and infinite timers:

    * ``box``: a box holding a mover and its partner; the mover may enter
      the partner, carrying a timer, or leave the box for the skin, and
      the box may dissolve into the skin when its timer runs out;
    * ``flat``: a top-level membrane that may dissolve itself into the
      skin by a rule that emits the marker and, if drawn, leave through
      the skin, which holds the co-objects for it;
    * ``skin``: an ``rw skin`` rewrite on objects the skin holds.

    Twin boxes, and twin flat membranes that do not leave, are separate
    parts that compose equal keys from different combinations."""
    timers = st.sampled_from((0, 1, 2, 3, INF))
    lives = st.sampled_from((1, 2, INF))
    skin_objects = []
    kids = []
    rules = []
    for i, kind in enumerate(draw(st.lists(st.sampled_from(("box", "flat", "skin")), min_size=2, max_size=3))):
        ai, bi, ci, ei = (Symbol(f"{s}{i}") for s in "abce")
        copies = draw(st.integers(1, 2))
        if kind == "box":
            life_a, life_b = draw(lives), draw(lives)
            spec = (f"box{i}", draw(timers), [(bi.dual(), life_b)], [
                (f"p{i}", draw(timers), [(ai, life_a), (bi, life_b)], []),
                (f"q{i}", draw(timers), [(ai.dual(), life_a)], []),
            ])
            kids += [_build(spec) for _ in range(copies)]
            rules += [EndoRule(f"p{i}", f"q{i}", Multiset([ai]), w=((ci, Carry(0)),)),
                      ExoRule(f"p{i}", f"box{i}", Multiset([bi]))]
        elif kind == "flat":
            life_e, life_x = draw(lives), draw(lives)
            spec = (f"f{i}", draw(timers), [(ei, life_e), (x, life_x)], [])
            kids += [_build(spec) for _ in range(copies)]
            rules.append(RewriteRule(f"f{i}", Multiset([x]), ((DELTA, Fresh(INF)),)))
            if draw(st.booleans()):
                skin_objects += [(ei.dual(), draw(lives))] * copies
                rules.append(ExoRule(f"f{i}", "skin", Multiset([ei]), w2=((ci, Fresh(2)),)))
        else:
            skin_objects += [(ai, draw(lives))] * copies
            rules.append(RewriteRule("skin", Multiset([ai]), ((y, Fresh(2)),)))
    order = draw(st.permutations(range(len(kids))))
    return Configuration(mem("skin", INF, skin_objects, [kids[j] for j in order])), rules


@given(side_by_side_systems())
def test_successors_by_parts_match_the_whole_tree_side_by_side(system):
    _assert_parts_match_the_whole_tree(*system, 3)


def test_twin_parts_keep_the_first_choice_per_key(monkeypatch):
    # two twin membranes that may each dissolve by a finite-timer rewrite,
    # beside a third that must: dissolving either twin alone gives one key,
    # reached first by the choice that fires the earlier twin's instance
    rules = [RewriteRule("f", Multiset([x]), ((DELTA, Fresh(INF)),)), RewriteRule("g", Multiset([y]), ((d, Fresh(1)),))]
    twins = [mem("f", 5, [(x, 2), (a, 3)]), mem("f", 5, [(x, 2), (a, 3)])]
    config = Configuration(mem("skin", INF, [(b, 4)], [twins[0], mem("g", INF, [(y, INF)]), twins[1]]))
    assert len(engine._split(config, find_instances(config, rules))) == 4  # three parts and the skin's objects
    composed = count_calls(monkeypatch, "mobilemem.engine._composed_key")
    got = successors(config, rules, {})
    assert composed.n == len(step_choices(config, rules)) == 4 and len(got) == 3
    assert [(choice_describe(ch), k) for ch, _n, k in got] == [
        (choice_describe(ch), k) for ch, _n, k in _whole_tree_successors(config, rules)]
    assert _assert_parts_match_the_whole_tree(config, rules, 3) >= 1


def test_a_composed_successor_holds_every_kind_of_skin_arrival():
    # one state, two parts holding instances and an inert one: b stays in
    # the skin while p leaves it by an exo, f dissolves and releases c1
    # and c2, and k stays; the composed skin lists its children part by
    # part, the whole step in edit order, and both hold the same tree up
    # to sibling order
    e = Symbol("e")
    rules = [ExoRule("p", "b", Multiset([e])), RewriteRule("f", Multiset([x]), ((DELTA, Fresh(INF)),))]
    box = mem("b", INF, [(e.dual(), INF)], [mem("p", INF, [(e, INF)])])
    config = Configuration(mem("skin", INF, [], [
        mem("k", INF), box, mem("f", INF, [(x, INF)], [mem("c1", INF), mem("c2", INF)])]))
    split = engine._split(config, find_instances(config, rules))
    assert [len(insts) for _members, _skin, insts in split] == [1, 1, 0]
    [(choice, composed, key)] = successors(config, rules)
    whole = step(config, choice).config
    labels = [kid.label for kid in composed.skin.children]
    assert Multiset(labels) == Multiset(["k", "b", "p", "c1", "c2"])
    assert labels != [kid.label for kid in whole.skin.children]
    assert _walk(composed) == _walk(whole) and key == canonicalize(whole)
    assert _assert_parts_match_the_whole_tree(config, rules, 2) == 1


def test_graphs_list_output_membranes_in_uid_order():
    # two output membranes: o1 leaves its box by an exo and lands after o3
    # in a whole step, while o3's own part comes first when composed; the
    # graph lists each state's output membranes by uid either way
    e = Symbol("e")
    rules = [RewriteRule("o", Multiset([x]), ((y, Fresh(INF)),)), ExoRule("o", "b", Multiset([e]))]
    inner = mem("o", INF, [(e, INF)])
    box = mem("b", INF, [(e.dual(), INF)], [inner])
    late = mem("o", INF, [(x, INF)])
    config = Configuration(mem("skin", INF, [], [box, late]), "o")
    assert inner.uid < late.uid
    assert [members[0].label for members, _skin, _insts in engine._split(config, find_instances(config, rules))] == [
        "o", "b"]
    _assert_parts_match_the_whole_tree(config, rules, 2)
    nodes = explore_membranes(config, rules, 2).to_json()["nodes"]
    assert [node["per_membrane"] for node in nodes] == [
        [[inner.uid, []], [late.uid, ["y"]]], [[inner.uid, ["e"]], [late.uid, ["x"]]]]


def test_a_split_state_is_composed_from_one_enumeration_and_one_step_per_part(monkeypatch):
    # independent pairs of one forced choice each, with no memo: each part
    # lists its choices and steps its one choice once, and the successor
    # is composed from the parts' outcomes, never stepped whole
    cfg, rules = _pairs(3, False), RuleSet(_pair_rules(3))
    assert len(engine._split(cfg, find_instances(cfg, rules))) == 3
    enumerations = count_calls(monkeypatch, "mobilemem.engine.step_choices")
    steps = count_calls(monkeypatch, "mobilemem.engine.step")
    got = successors(cfg, rules)
    assert (enumerations.n, steps.n) == (3, 3)
    assert [(choice_describe(ch), k) for ch, _n, k in got] == [
        (choice_describe(ch), k) for ch, _n, k in _whole_tree_successors(cfg, rules)]
    assert got[0][2] == canonicalize(_pairs(3, True))


def test_a_memo_shared_by_two_rule_sets_keeps_their_outcomes_apart():
    # one configuration under two rule sets that differ in one part's
    # rewrite: the second call must not read the first one's outcomes
    f_rule = RewriteRule("f", Multiset([x]), ((DELTA, Fresh(INF)),))
    config = Configuration(mem("skin", INF, [], [
        mem("f", 5, [(x, 2)]), mem("g", INF, [(y, INF)]), mem("f", 5, [(x, 2)])]))
    memo: dict = {}
    for product_of_g in (d, b):
        rules = [f_rule, RewriteRule("g", Multiset([y]), ((product_of_g, Fresh(1)),))]
        got = successors(config, rules, memo)
        assert [(choice_describe(ch), k) for ch, _n, k in got] == [
            (choice_describe(ch), k) for ch, _n, k in _whole_tree_successors(config, rules)]
    assert len(memo) == 6  # three parts under each rule set


# ---------------------------------------------------------------------------
# Independent instances (ROADMAP W1): n pairs h_i{a_i} next to m_i{~a_i}.
# The endo rule takes each h_i into its m_i, swapping a_i for b_i; the exo
# rule takes it back out. Every instance is forced and independent, so
# there is one saturated choice, and every step flips every pair.

def _pairs(n, flipped):
    kids = []
    for i in range(n):
        ai, bi = Symbol(f"a{i}"), Symbol(f"b{i}")
        if flipped:
            kids.append(mem(f"m{i}", INF, [(bi.dual(), INF)], [mem(f"h{i}", INF, [(bi, INF)])]))
        else:
            kids += [mem(f"h{i}", INF, [(ai, INF)]), mem(f"m{i}", INF, [(ai.dual(), INF)])]
    return Configuration(mem("skin", INF, [], kids))


def _pair_rules(n):
    rules = []
    for i in range(n):
        ai, bi = Symbol(f"a{i}"), Symbol(f"b{i}")
        rules.append(EndoRule(f"h{i}", f"m{i}", Multiset([ai]),
                              w=((bi, Fresh(INF)),), w2=((bi.dual(), Fresh(INF)),)))
        rules.append(ExoRule(f"h{i}", f"m{i}", Multiset([bi]),
                             w=((ai, Fresh(INF)),), w2=((ai.dual(), Fresh(INF)),)))
    return rules


def test_independent_instances_cost_per_instance(monkeypatch):
    n, steps = 40, 20
    tests = count_calls(monkeypatch, "mobilemem.choices.addable")
    cfg, rules = _pairs(n, False), _pair_rules(n)
    assert len(maximal_choices(cfg, rules)) == 1
    assert tests.n <= 4 * n, f"{tests.n} conflict tests"
    tests.n = 0
    trace = run(cfg, rules, steps)
    assert tests.n <= 4 * n * steps, f"{tests.n} conflict tests"
    keys = [canonicalize(cfg), canonicalize(_pairs(n, True))]
    assert [r.key for r in trace.records] == [keys[i % 2] for i in range(1, steps + 1)]


def test_isolated_instances_are_decided_without_a_fit_test(monkeypatch):
    # no instance shares a key or a membrane with another, so each count
    # is fixed before the search, which then tests nothing and, with
    # nothing left contested, is not set up at all
    n, steps = 40, 20
    tests = count_calls(monkeypatch, "mobilemem.choices.addable")
    searches = count_calls(monkeypatch, "mobilemem.choices._settled")
    cfg, rules = _pairs(n, False), _pair_rules(n)
    (choice,) = maximal_choices(cfg, rules)
    assert len(choice) == n and tests.n == 0, f"{tests.n} conflict tests"
    trace = run(cfg, rules, steps)
    assert len(trace.records) == steps and tests.n == 0, f"{tests.n} conflict tests"
    assert enumerate_choices(cfg, [], lambda inst: True) == [()]
    assert searches.n == 0, f"{searches.n} searches set up"


def test_matching_independent_pairs_derives_nothing_twice(monkeypatch):
    # an instance hashes its bindings and not its rule; the choice search
    # builds each instance's needs map once, and the step none: it reads
    # the bound classes
    n = 40
    cfg, rules = _pairs(n, False), _pair_rules(n)
    hashes = [count_calls(monkeypatch, f"mobilemem.core.{kind.__name__}.__hash__") for kind in (EndoRule, ExoRule)]
    assert len(find_instances(cfg, rules)) == n
    assert [h.n for h in hashes] == [0, 0]
    needs = count_calls(monkeypatch, "mobilemem.engine.Instance.needs")
    for state in (cfg, _pairs(n, True)):
        needs.n = 0
        assert len(run(state, rules, 1).records[0].choice) == n
        assert needs.n <= n, f"{needs.n} needs maps for {n} instances"


def test_a_run_and_an_exploration_build_one_rule_table(monkeypatch):
    # the matcher's dispatch by label is built once per rule container,
    # not once per state; a list is read as a tuple for the whole run
    tables = count_calls(monkeypatch, "mobilemem.engine._timed_table")
    cfg, rules = _pairs(6, False), _pair_rules(6)
    for fresh in (list(rules), tuple(rules)):
        tables.n = 0
        assert len(run(cfg, fresh, 12).records) == 12
        assert tables.n == 1
    cfg, rules = random_timed_system(3)
    tables.n = 0
    graph = explore_membranes(cfg, list(rules), 4)
    assert len(graph.nodes) > 4 and tables.n == 1
    # a list handed to the matcher itself may change between calls
    tables.n = 0
    for _ in range(3):
        find_instances(cfg, list(rules))
    assert tables.n == 3


def test_a_rule_set_owns_its_table(monkeypatch):
    # two equal rule sets each build their own table; one rule set read
    # by two runs and an exploration builds it once
    tables = count_calls(monkeypatch, "mobilemem.engine._timed_table")
    cfg, rules = _pairs(6, False), _pair_rules(6)
    first, second = RuleSet(rules), RuleSet(rules)
    assert first == second == tuple(rules)
    assert exact(find_instances(cfg, first)) == exact(find_instances(cfg, second))
    assert tables.n == 2
    shared = RuleSet(rules)
    tables.n = 0
    assert len(run(cfg, shared, 3).records) == len(run(_pairs(6, True), shared, 3).records) == 3
    assert len(explore_membranes(cfg, shared, 3).nodes) == 2
    assert tables.n == 1


def test_wide_input_has_one_choice_and_simulates(tmp_path, capsys):
    n = 1200
    cfg, rules = _pairs(n, False), _pair_rules(n)
    assert len(maximal_choices(cfg, rules)) == 1
    path = tmp_path / "wide.mms"
    path.write_text(render_system(SystemFile(True, "skin", cfg, tuple(rules))))
    assert main(["sim", str(path), "--steps", "1"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# Wide trees (ROADMAP W2): one busy pair among many bystanders that no rule
# names, with rewrites on labels that do not occur. An untouched bystander
# is never loaded into a step's work tree, and matching and availability
# read only the membranes rules can bind.

def _wide(bystanders, contents, ticks=0):
    """W1's pair after ``ticks`` steps beside ``bystanders`` membranes over
    7 labels, each holding one of ``contents`` aged by ``ticks``."""
    def aged(objects):
        return [(sym, t if t == INF else t - ticks) for sym, t in objects]

    pair = _pairs(1, ticks % 2 == 1).skin.children
    kids = [mem(f"z{i % 7}", 50 + i % 3 - ticks, aged(contents[i % len(contents)])) for i in range(bystanders)]
    rules = _pair_rules(1) + [RewriteRule(f"absent{i}", Multiset([x]), ((y, Fresh(5)),)) for i in range(8)]
    return Configuration(mem("skin", INF, [], [*pair, *kids])), rules


def test_untouched_bystanders_are_never_loaded(monkeypatch):
    # a step loads the busy pair below the skin and no bystander, however
    # many there are and whatever their contents
    contents = [[(x, 40)] * 5, [(x, 41)] * 5, [(x, 40), (y, 30)], [(y, INF), (x, 45)], [(x, 42), (x, 43)]]
    for width in (200, 800):
        loads = count_calls(monkeypatch, "mobilemem.tree.Tree._load")
        config, rules = _wide(width, contents)
        for _ in range(10):
            found = find_instances(config, rules)
            bound = {i.active_uid for i in found} | {i.passive_uid for i in found if i.is_move}
            assert len(bound) == 2 and {uid for uid, _cls in availability(config, found)} <= bound
            loads.n = 0
            config = step(config, maximal_choices(config, rules)[0]).config
            assert loads.n <= 2, f"{loads.n} membranes loaded beside {width} bystanders"
        monkeypatch.undo()
        assert canonicalize(config) == canonicalize(_wide(width, contents, ticks=10)[0])


_CONTENTS = [[(x, 40)] * 5, [(x, 41)] * 5, [(x, 40), (y, 30)], [(y, INF), (x, 45)]]


def test_a_clocked_step_builds_what_it_touches_whatever_the_width(monkeypatch):
    # finite timers are deadlines, so a step rebuilds the skin and the busy
    # pair and carries every bystander over as the same object
    per_width = []
    for width in (200, 800):
        config, rules = _wide(width, _CONTENTS)
        built = count_calls(monkeypatch, "mobilemem.core.MembraneNode")
        counts = []
        for _ in range(4):
            before = {node.uid: node for node in config.skin.children}
            built.n = 0
            result = step(config, maximal_choices(config, rules)[0])
            canonicalize(result.config)
            counts.append(built.n)
            after = result.config
            assert after.clock == config.clock + 1
            kept = [node for node in after.skin.children if node.label.startswith("z")]
            assert len(kept) == width and all(node is before[node.uid] for node in kept)
            config = after
        monkeypatch.undo()
        per_width.append(counts)
    assert per_width[0] == per_width[1] and max(per_width[0]) <= 3, per_width
    assert canonicalize(config) == canonicalize(_wide(800, _CONTENTS, ticks=4)[0])
    assert canonicalize(at_rest(config)) == canonicalize(config)


class _Probe(MembraneNode):
    """A bystander that counts the reads of its fields other than ``uid``:
    whatever visits a membrane reads one of them."""

    __slots__ = ()
    reads = 0

    def __getattribute__(self, name):
        if name in _VISIT:
            _Probe.reads += 1
        return MembraneNode.__getattribute__(self, name)


_VISIT = frozenset({"label", "timer", "content", "children", "_least", "_fields"})


def _probed(config):
    """``config`` with its ``z`` bystanders as ``_Probe`` nodes."""
    skin = config.skin
    kids = tuple(
        _Probe(k.label, k.timer, k.content, k.children, uid=k.uid) if k.label.startswith("z") else k
        for k in skin.children
    )
    return Configuration(MembraneNode(skin.label, skin.timer, skin.content, kids, uid=skin.uid))


def test_a_step_on_a_carried_index_visits_no_bystander(monkeypatch):
    # the first step of a run builds the index by one walk; every later
    # step derives the next one, so matching, availability, the work tree
    # and the least timers read only the skin and the busy pair
    per_width = []
    for width in (200, 800):
        config, rules = _wide(width, _CONTENTS)
        state = run(_probed(config), rules, 1).reached
        keeps = count_calls(monkeypatch, "mobilemem.engine._unexpired")
        walked = count_calls(monkeypatch, "mobilemem.core.walk_tree", items=True)
        counts = []
        for _ in range(4):
            keeps.n = walked.n = _Probe.reads = 0
            state = step(state, maximal_choices(state, rules)[0]).config
            counts.append((keeps.n, walked.n, _Probe.reads))
        monkeypatch.undo()
        per_width.append(counts)
        assert canonicalize(state) == canonicalize(_wide(width, _CONTENTS, ticks=5)[0])
    assert per_width[0] == per_width[1], per_width
    assert all(keeps <= 3 and walked == 0 and reads == 0 for keeps, walked, reads in per_width[0]), per_width


def _engine_instances(config, rules):
    return sorted(_engine_row(i) for i in find_instances(config, rules))


def _ref_instances(config, rules):
    return sorted(
        (r, act, -1 if pas is None else pas, ab, pb)
        for r, act, pas, ab, pb in ref.find_instances(ref.from_config(config), rules)
    )


def _entered_and_left_only():
    """t is entered by an endo and named by no other rule; o is left by an
    exo and is the active label of none; z is named by no rule at all; an
    ``rw *`` rewrite binds in every membrane."""
    config = Configuration(mem("skin", INF, [(x, 2)], [
        mem("h", 3, [(a, 2), (a, INF), (x, 1)]),
        mem("t", 4, [(a.dual(), INF), (x, 3)]),
        mem("t", 0, [(a.dual(), INF)]),
        mem("o", 5, [(b.dual(), INF)], [mem("h", 2, [(b, 1), (x, 0)]), mem("z", 1, [(x, 2)])]),
        mem("z", 2, [(x, 1), (y, INF)], [mem("z", 0, [(x, 4)]), mem("t", 3, [(a.dual(), 1)])]),
    ]))
    rules = [
        EndoRule("h", "t", Multiset([a])),
        RewriteRule(None, Multiset([x]), ((y, Fresh(1)),)),
        ExoRule("h", "o", Multiset([b])),
        RewriteRule("h", Multiset([x]), ()),
    ]
    return config, rules


@st.composite
def systems_with_bystanders(draw):
    """Nested systems plus an ``rw *`` rewrite at a drawn rule index and a
    ``z`` subtree, a label no rule names, beside the others."""
    config, rules = draw(nested_systems())
    z = mem("z", draw(st.sampled_from((0, 1, INF))), [(a, 1), (x, INF)], [mem("z", 2, [(b, 2), (x, 1)])])
    skin = config.skin
    skin = MembraneNode(skin.label, skin.timer, skin.content, skin.children + (z,), uid=skin.uid)
    everywhere = RewriteRule(None, Multiset([draw(st.sampled_from((a, b, x)))]), ((y, Fresh(1)),))
    rules = list(rules)
    rules.insert(draw(st.integers(0, len(rules))), everywhere)
    return Configuration(skin), rules


def test_matcher_equals_reference_on_hand_made_and_corpus_systems():
    config, rules = _entered_and_left_only()
    got = _engine_instances(config, rules)
    assert got == _ref_instances(config, rules)
    kinds = {rules[row[0]].__class__ for row in got}
    assert kinds == {EndoRule, ExoRule, RewriteRule}
    # without ``rw *`` the walk enters a leaf only for its label's rewrites
    labelled = [rule for rule in rules if not isinstance(rule, RewriteRule) or rule.at is not None]
    assert _engine_instances(config, labelled) == _ref_instances(config, labelled)
    everywhere = [RewriteRule(None, Multiset([a]), ((x, Fresh(1)),))]
    at_p = [RewriteRule("p", Multiset([a]), ((x, Fresh(1)),))]
    for seed in range(60):
        config, rules = random_timed_system(seed)
        for extended in (rules, everywhere + list(rules), list(rules) + everywhere, list(rules) + at_p):
            assert _engine_instances(config, extended) == _ref_instances(config, extended), f"seed {seed}"


@given(systems_with_bystanders())
def test_matcher_equals_reference_beside_bystanders(system):
    config, rules = system
    assert _engine_instances(config, rules) == _ref_instances(config, rules)


@st.composite
def slots_and_contents(draw):
    """Slot symbols, repeats and co-symbols included, a content over the
    same symbols with timer-0 and INF classes, and a drawn clock at which
    the content is stored as deadlines."""
    symbols = st.sampled_from((a, a.dual(), b, b.dual()))
    slots = tuple(draw(st.lists(symbols, max_size=4)))
    classes = st.tuples(symbols, st.sampled_from((0, 1, 2, INF)))
    objects = draw(st.dictionaries(classes, st.integers(1, 3), max_size=6))
    clock = draw(st.integers(0, 3))
    return slots, objects, clock


@given(slots_and_contents())
def test_slot_bindings_equal_the_reference_at_any_clock(case):
    slots, objects, clock = case
    stored = Multiset({(sym, t + clock): n for (sym, t), n in objects.items()})
    want = ref.assignments(slots, {(sym.name, sym.is_co, t): n for (sym, t), n in objects.items()})
    got = engine._slot_bindings(slots, stored, clock)
    assert [tuple((sym.name, sym.is_co, t) for sym, t in binding) for binding in got] == want


def test_matcher_equals_reference_on_independent_pairs_and_wide_trees():
    cases = [(_pairs(6, flipped), _pair_rules(6)) for flipped in (False, True)]
    cases.append(_wide(60, _CONTENTS))
    for config, rules in cases:
        for _ in range(3):  # clocked states too
            assert _engine_instances(config, rules) == _ref_instances(config, rules)
            config = step(config, maximal_choices(config, rules)[0]).config


def _untimed_rows(found):
    """Untimed instances in the reference's tuple form, each side's
    classes sorted: an untimed side binds a multiset, not slots."""
    def binds(lhs):
        return tuple(sorted((s.name, s.is_co, INF) for s in lhs))

    return sorted(
        (i.rule_index, i.active_uid, -1 if i.passive_uid is None else i.passive_uid,
         binds(i.active_classes), binds(i.passive_classes))
        for i in found
    )


def _ref_untimed_rows(state, rules):
    timed, lifted = embed_infinite(state, rules)
    return sorted((r, act, pas, tuple(sorted(ab)), tuple(sorted(pb))) for r, act, pas, ab, pb in _ref_instances(timed, lifted))


def test_each_matcher_returns_every_instance_once():
    # each instance is built once, so the matchers sort what they find and
    # deduplicate nothing: the timed matcher on every state after 0-3
    # steps, the untimed one on each state's erased twin and on the
    # compiled twin system's states after 0-3 steps
    for seed in range(120):
        config, rules = random_timed_system(seed)
        rng = random.Random(seed)
        ucfg, compiled = eliminate_timers(config, rules)
        for _ in range(4):
            found = find_instances(config, rules)
            assert len(found) == len(set(map(exact, found))), f"seed {seed}"
            assert sorted(map(_engine_row, found)) == _ref_instances(config, rules), f"seed {seed}"
            erased = erase_timers(config)
            for state, side in ((erased, rules), (ucfg, compiled)):
                found = u_find_instances(state, side)
                assert len(found) == len(set(map(exact, found))), f"seed {seed}"
                assert _untimed_rows(found) == _ref_untimed_rows(state, side), f"seed {seed}"
            config = step(config, rng.choice(maximal_choices(config, rules))).config
            ucfg = u_apply(ucfg, rng.choice(u_maximal_choices(ucfg, compiled)))[0]


def test_an_exo_through_the_skin_archives_phase_one_at_a_later_clock():
    # the archive holds the active's objects at their remaining timers and
    # the products at their own, after a step that changed the clock; a
    # rewrite on the leaving membrane adds its product, before or after
    # the exo in rule order
    head = "mms 1 timed\noutput skin\nskin:inf[ ~a:5 ; h:4[ a:3, x:1, x:2 ] ]\n"
    exo = "exo h skin : a | , ~a | => y:+2 a:- |\n"
    rw = "rw h : x => z:+3\n"
    cases = [(exo, "h:2{a:1,x:0,x:1,y:2}[]", 4), (exo + rw, "h:2{a:1,x:0,y:2,z:3}[]", 4), (rw + exo, "h:2{a:1,x:0,y:2,z:3}[]", 4)]
    for text, archived, objects in cases:
        sf = parse_system(head + text)
        config = step(sf.config, ()).config
        assert config.clock == 1
        choices = maximal_choices(config, sf.rules)
        assert len(choices) == 1
        result = step(config, choices[0])
        assert result.detached == ((2, "h", archived),)
        assert result.stats.expired == 0 and result.stats.detached_objects == objects
        assert canonicalize(result.config) == "skin:inf{}[]|out=skin"


# The membrane index a clocked step carries to the next configuration.

def _index_rows(index):
    """An index as plain data, each node by identity."""
    return (
        {uid: id(node) for uid, node in index.node.items()},
        index.up,
        {uid: [(k, id(n)) for k, n in kids.items()] for uid, kids in index.children.items()},
        {label: {at: [(k, id(n)) for k, n in members.items()] for at, members in by_parent.items()}
         for label, by_parent in index.kids.items()},
    )


def _fresh_least(node):
    return rebuild_tree(node, lambda n, built: min([n.timer, *[t for (_s, t), _n in n.content.items()], *built]))


def _assert_carried_is_walked(state) -> None:
    """``state`` carries an index from the step that made it, and that
    index equals the one built by a walk, which then replaces it."""
    assert state._index is not None  # carried, not walked
    carried = index_of(state)
    drop_index(state)
    assert _index_rows(carried) == _index_rows(index_of(state))


def _assert_index_carried(config, rules, selector, seed, steps=6) -> set:
    """Step ``config`` as ``run`` does and check, after every step, the
    index it carries against one built by a walk, the least timers kept
    in the new nodes, and the matcher against the reference; then the
    same for the untimed steps of its erasure, each state's successors
    (``u_successors``) and the one ``u_run`` takes. Returns what the
    timed steps did: detached, dissolved."""
    rng = random.Random(seed)
    seen = set()
    state = config
    for _ in range(steps):
        assert _engine_instances(state, rules) == _ref_instances(state, rules)
        options = maximal_choices(state, rules)
        result = step(state, options[0] if selector == "first" else rng.choice(options))
        state = result.config
        _assert_carried_is_walked(state)
        assert all(node._least == _fresh_least(node) for node in state.skin.walk())
        seen.update(["detached"] * bool(result.detached) + ["dissolved"] * bool(result.stats.delta_consumed))
    state = erase_timers(config)
    for _ in range(steps):
        for _choice, successor, _key in u_successors(state, rules):
            _assert_carried_is_walked(successor)
        state = u_run(state, rules, 1, selector, rng.randrange(10)).reached
        _assert_carried_is_walked(state)
    return seen


@given(st.one_of(nested_systems(), systems_with_bystanders()), st.sampled_from(("first", "random")), st.integers(0, 9))
def test_the_carried_index_is_the_fresh_index(system, selector, seed):
    _assert_index_carried(*system, selector, seed)


def test_the_carried_index_through_exits_dissolutions_and_rw_everywhere():
    seen = set()
    h = mem("h", 3, [(a, INF), (x, 2)])
    z = mem("z", 4, [(x, 1)], [mem("w", 2, [(y, 0)], [mem("v", 5, [(x, 3)])])])
    exit_skin = Configuration(mem("skin", INF, [(a.dual(), INF)], [h, z, mem("k", 0, [(x, 1)], [mem("q", 2)])]))
    cases = [
        (exit_skin, [ExoRule("h", "skin", Multiset([a])), RewriteRule(None, Multiset([x]), ((y, Fresh(1)),))]),
        _entered_and_left_only(),
        (Configuration(mem("skin", INF, [], [mem("k", 5, [(p, INF)], [mem("j", 2, [(y, 1)], [mem("i", 1, [(x, 1)])])]), mem("z", 3, [(x, 1)])])),
         [RewriteRule("k", Multiset([p]), ((DELTA, Fresh(INF)),))]),
    ]
    for config, rules in cases:
        for selector in ("first", "random"):
            seen |= _assert_index_carried(config, rules, selector, 3)
    for seed in range(20):
        seen |= _assert_index_carried(*random_timed_system(seed), "random", seed, 8)
    assert seen == {"detached", "dissolved"}


# ---------------------------------------------------------------------------
# Clocked runs (ROADMAP item 5): ``run`` steps configurations whose finite
# timers are deadlines against a step clock. Its trace, its final
# configuration and every step on the way must equal those of ``step``
# and ``canonicalize`` called in a loop, each step taken from the
# previous result turned back to clock 0 (``at_rest``).

def _assert_run_matches_stepping_at_rest(config, rules, steps, selector, seed=None):
    trace = run(config, rules, steps, selector=selector, seed=seed)
    rng = random.Random(seed) if selector == "random" else None
    want = engine.Trace(canonicalize(config), selector, seed, steps)
    rest, clocked, key = config, config, want.initial_key
    for index in range(1, steps + 1):
        options = maximal_choices(rest, rules)
        assert exact(maximal_choices(clocked, rules)) == exact(options)
        choice = options[0] if rng is None else rng.choice(options)
        result, ahead = step(rest, choice), step(clocked, choice)
        assert (ahead.detached, ahead.stats) == (result.detached, result.stats)
        assert result.config.clock == 1 and ahead.config.clock == index
        new_key = canonicalize(result.config)
        assert canonicalize(ahead.config) == new_key
        rest = at_rest(result.config)
        assert rest.clock == 0 and exact(at_rest(ahead.config)) == exact(rest)  # uids and child order included
        halted = len(options) == 1 and new_key == key
        want.records.append(engine.StepRecord(index, choice, new_key, halted, result.detached))
        clocked, key = ahead.config, new_key
        if halted:
            break
    assert trace.to_jsonl() == want.to_jsonl()
    assert exact(trace.final) == exact(rest) and canonicalize(trace.final) == canonicalize(rest)
    assert [n.uid for n in trace.final.skin.walk()] == [n.uid for n in rest.skin.walk()]
    return trace


def test_clocked_run_matches_stepping_at_rest_on_the_corpus():
    for seed in range(40):
        config, rules = random_timed_system(seed)
        _assert_run_matches_stepping_at_rest(config, rules, 8, "first")
        _assert_run_matches_stepping_at_rest(config, rules, 8, "random", seed)
    # h gets its ``a`` in step 1, when m has one tick left; in step 2 m is
    # at 0, so h may not enter it, however m's deadline compares with 0
    config = Configuration(mem("skin", INF, [], [
        mem("h", 5, [(c, INF)]), mem("m", 1, [(a.dual(), INF)]), mem("k", 3, [(a, 2)]),
    ]))
    rules = [RewriteRule("h", Multiset([c]), ((a, Fresh(INF)),)), EndoRule("h", "m", Multiset([a]))]
    _assert_run_matches_stepping_at_rest(config, rules, 4, "first")


def test_clocked_run_matches_stepping_at_rest_on_strict_translations():
    # generate_rules(strict=True) keeps the active membrane's timer: its
    # deadline moves up by one per step instead of staying put
    for seed in range(20):
        process = random_reducible_process(seed)
        config, rules = translate(process), generate_rules(process, strict=True)
        assert all(rule.keep_active_timer for rule in rules)
        _assert_steps_match_reference(config, rules)
        _assert_run_matches_stepping_at_rest(config, rules, 8, "first")
        _assert_run_matches_stepping_at_rest(config, rules, 8, "random", seed)


@given(nested_systems(), st.booleans(), st.sampled_from(("first", "random")), st.integers(0, 9))
def test_clocked_run_matches_stepping_at_rest_on_nested_systems(system, keep, selector, seed):
    # timer-0 objects and membranes, dissolution markers, exo through the
    # skin (detached renders), and moves that keep the active timer
    config, rules = system
    rules = [replace(r, keep_active_timer=keep) if isinstance(r, (EndoRule, ExoRule)) else r for r in rules]
    if _reference_size(ref.from_config(config), rules) <= 64:
        _assert_steps_match_reference(config, rules)
    _assert_run_matches_stepping_at_rest(config, rules, 6, selector, seed)


def test_clocked_run_halts_exactly_where_stepping_at_rest_does():
    # a run compares two keys only when the least remaining timers agree
    h = lambda *objects: Configuration(mem("skin", INF, [], [mem("h", INF, objects)]))
    # a finite-timer system that reproduces itself halts at step 1
    trace = _assert_run_matches_stepping_at_rest(
        h((a, 3)), [RewriteRule("h", Multiset([a]), ((a, Fresh(3)),))], 4, "first")
    assert [r.halted for r in trace.records] == [True]
    # equal least remaining timers, different configurations: no halt
    flip = [RewriteRule("h", Multiset([a]), ((b, Fresh(3)),)), RewriteRule("h", Multiset([b]), ((a, Fresh(3)),))]
    trace = _assert_run_matches_stepping_at_rest(h((a, 3)), flip, 4, "first")
    assert [r.halted for r in trace.records] == [False] * 4
    # all timers INF: W1's shape halts one step after its pair saturates
    trace = _assert_run_matches_stepping_at_rest(_pairs(1, False), [EndoRule("h0", "m0", Multiset([Symbol("a0")]))], 4, "first")
    assert [r.halted for r in trace.records] == [False, True]


def test_a_run_renders_the_keys_that_are_read(monkeypatch, tmp_path, capsys):
    # the initial key at once, a record's key on its first read; no step of
    # W2 can halt, since the bystanders' least remaining timer falls each step
    config, rules = _wide(200, _CONTENTS)
    final = canonicalize(_wide(200, _CONTENTS, ticks=10)[0])
    renders = count_calls(monkeypatch, "mobilemem.core.canonicalize")
    trace = run(config, rules, 10)
    assert len(trace.records) == 10 and renders.n == 1
    assert trace.records[-1].key == final and renders.n == 2
    assert trace.records[-1].key == final and renders.n == 2
    jsonl = trace.to_jsonl()
    assert renders.n == 11 and jsonl.endswith(f'"key": "{final}", "step": 10}}\n')
    monkeypatch.undo()

    path = tmp_path / "wide.mms"
    path.write_text(render_system(SystemFile(True, "skin", config, tuple(rules))))
    renders = count_calls(monkeypatch, "mobilemem.core.canonicalize")
    assert main(["sim", str(path), "--steps", "10"]) == 0
    assert renders.n == 2
    assert json.loads(capsys.readouterr().out) == {"steps": 10, "halted": False, "final": final}


def _bytes_kept_per_step(config, rules, steps, selector, seed=None) -> float:
    index = index_of(config)  # the caller's, which the run keeps
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run(config, rules, steps, selector, seed)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert config._index is index
    assert len(trace.records) == steps and not trace.halted
    return kept / steps


def test_a_run_keeps_one_index_the_current_states():
    """A record holds its configuration until its key is read, but not that
    configuration's index: ``simulate`` drops each state's index once the
    next state exists, all but the caller's initial configuration's, which
    is built before measuring. Bytes kept per step by the trace,
    measured with tracemalloc on Python 3.11 before indexes were carried:
    1,842 for 3,000 random steps of ``skin[h:inf{a:inf,a:inf}]`` under four
    competing ``rw h`` rules (several options every step, so no key is
    rendered), and 5,901 for 200 steps of W2 at 800 bystanders."""
    rules = [RewriteRule("h", Multiset([u]), ((v, Fresh(INF)),)) for u in (a, b) for v in (a, b)]
    small = Configuration(mem("skin", INF, [], [mem("h", INF, [(a, INF), (a, INF)])]))
    assert _bytes_kept_per_step(small, rules, 3000, "random", 1) <= 1.1 * 1842
    assert _bytes_kept_per_step(*_wide(800, _CONTENTS), 200, "first") <= 1.1 * 5901


def test_corpus_traces_do_not_depend_on_what_was_built_before():
    def traces():
        return [run(*random_timed_system(seed), 8, "random", seed).to_jsonl() for seed in range(20)]

    before = traces()
    for seed in range(100, 150):
        random_timed_system(seed)
        random_untimed_system(seed)
    assert traces() == before


def test_deep_chains_run_and_explore_without_recursion():
    n = 1500
    a_chain = mem("p", INF, [(a, INF)])
    for _ in range(n - 1):
        a_chain = mem("p", INF, [(a, INF)], [a_chain])
    config = Configuration(mem("skin", INF, [], [a_chain]))
    rules = [RewriteRule(None, Multiset([a]), ((b, Fresh(3)),))]

    def chain(label, timer, obj):
        return f"{label}:{timer}{{{obj}}}[" * n + "]" * n

    trace = run(config, rules, 2)
    assert [r.key for r in trace.records] == [
        f"skin:inf{{}}[{chain('p', 'inf', f'b:{t}')}]|out=skin" for t in (3, 2)
    ]
    assert canonicalize(trace.final) == trace.records[-1].key
    graph = explore_membranes(config, rules, 1)
    assert set(graph.nodes) == {canonicalize(config), trace.records[0].key}

    # a finite chain beside W1's pair, which flips every step
    x_chain = mem("q", 50, [(x, 40)])
    for _ in range(n - 1):
        x_chain = mem("q", 50, [(x, 40)], [x_chain])
    config = Configuration(mem("skin", INF, [], [*_pairs(1, False).skin.children, x_chain]))
    rules = _pair_rules(1)
    trace = run(config, rules, 2)
    flipped = "m0:inf{~b0:inf}[h0:inf{b0:inf}[]]"
    apart = "h0:inf{a0:inf}[] m0:inf{~a0:inf}[]"
    assert [r.key for r in trace.records] == [
        f"skin:inf{{}}[{flipped} {chain('q', 49, 'x:39')}]|out=skin",
        f"skin:inf{{}}[{apart} {chain('q', 48, 'x:38')}]|out=skin",
    ]
    assert canonicalize(trace.final) == trace.records[-1].key
    graph = explore_membranes(config, rules, 1)
    assert set(graph.nodes) == {canonicalize(config), trace.records[0].key}


def _deep_chain(depth: int, timed: bool):
    """A parsed chain of ``depth`` membranes ``p``, each holding one ``a``,
    timed under ``rw * : a => b:+3``, or untimed with no rule."""
    if timed:
        text = "mms 1 timed\noutput skin\nskin:inf[ ; " + "p:inf[ a:inf ; " * depth + "]" * depth + " ]\nrw * : a => b:+3\n"
    else:
        text = "mms 1 untimed\noutput skin\nskin[ ; " + "p[ a ; " * depth + "]" * depth + " ]\n"
    return parse_system(text)


def _peak_mb(fn) -> float:
    """The tracemalloc peak of ``fn()``, in MB; what was allocated before
    the call is not counted."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_deep_keys_take_memory_linear_in_depth():
    """A key is one fold that drops each child's render once its parent has
    read it, and no node keeps a render, so key memory is linear in depth.
    tracemalloc peaks at 3,000 deep on Python 3.11 while every node kept
    the render of its subtree: 63.3 MB for ``canonicalize``, 123.7 MB for
    a 3-step run and its final key, 27.2 MB for ``u_canonicalize``; 0.13,
    7.9 and 0.06 MB since."""
    sf = _deep_chain(3000, True)
    assert _peak_mb(lambda: canonicalize(sf.config)) < 2
    sf = _deep_chain(3000, True)
    assert _peak_mb(lambda: run(sf.config, sf.rules, 3).records[-1].key) < 16
    sf = _deep_chain(3000, False)
    assert _peak_mb(lambda: u_canonicalize(sf.config)) < 2


def test_a_configuration_renders_its_key_once(monkeypatch):
    # the key is kept on the configuration: repeated reads, and each run's
    # initial key, cost no render; a bystander's least remaining timer
    # falls each step, so no step compares keys to test for a halt
    sf = parse_system(
        "mms 1 timed\noutput skin\nskin:inf[ ; p:inf[ a:inf ; p:inf[ a:inf ] ] z:50[ x:40 ] ]\nrw * : a => b:+3\n"
    )
    renders = count_calls(monkeypatch, "mobilemem.core.render_at")
    key = canonicalize(sf.config)
    assert canonicalize(sf.config) == key and renders.n == 1
    traces = [run(sf.config, sf.rules, 3) for _ in range(2)]
    assert [t.initial_key for t in traces] == [key, key] and renders.n == 1
    assert traces[0].records[-1].key == traces[0].records[-1].key and renders.n == 2


def test_the_final_state_at_rest_keeps_the_key_of_the_last_record(monkeypatch):
    # ``Trace.final`` is the last state turned back to clock 0, whose key
    # is the one its last record read: reading it folds the tree no more
    sf = parse_system("mms 1 timed\noutput skin\nskin:inf[ ; p:inf[ a:inf ] z:50[ x:40 ] ]\nrw * : a => a:+3\n")
    trace = run(sf.config, sf.rules, 3)
    assert trace.reached.clock == 3
    last = trace.records[-1].key
    renders = count_calls(monkeypatch, "mobilemem.core.render_at")
    assert canonicalize(trace.final) == last and renders.n == 0
    assert render_at(trace.final.skin, 0) + "|out=skin" == last


def test_a_composed_successor_keeps_the_key_it_was_composed_with(monkeypatch):
    # two parts of the skin with two outcomes each: four successors are
    # composed from their parts, each with its key
    sf = parse_system(
        "mms 1 timed\noutput skin\nskin:inf[ ; p:inf[ a:inf ] q:inf[ a:inf ] ]\n"
        "rw * : a => b:+3\nrw * : a => c:+3\n"
    )
    found = successors(sf.config, sf.rules)
    assert len(found) == 4
    renders = count_calls(monkeypatch, "mobilemem.core.render_at")
    assert [canonicalize(config) for _choice, config, _key in found] == [key for _c, _s, key in found]
    assert renders.n == 0
    assert [render_at(at_rest(config).skin, 0) + "|out=skin" for _c, config, _k in found] == [key for _c, _s, key in found]


# ---------------------------------------------------------------------------
# The least saturated choice (ROADMAP item 14): a ``first`` run takes
# ``choices.least_choice``, found in one greedy pass, and asks whether a
# step had a second choice only when the step reproduced its configuration.

@st.composite
def contested_systems(draw):
    """Systems whose instances compete, so that a state has several
    saturated choices: two to four of these gadgets side by side under the
    skin, whose membranes hold one or two objects of each symbol they
    need, each at timer 1, 2 or INF:

    * ``pairs``: one or two identical sibling pairs ``h[a] m[~a]`` under
      one endo rule, each ``h`` able to enter either ``m``;
    * ``shared``: one to three identical ``p[b]`` entering one ``q[~b]``,
      a passive membrane they share, while ``q`` may itself enter
      ``s[~d]``: a membrane active in one move and passive in others;
    * ``rewrites``: two or three rewrites at ``r`` competing for one class
      of ``c``, one of them binding two copies;
    * ``exit``: one or two ``e[g]`` leaving through the skin, which holds
      ``~g``, beside a rewrite at ``e`` that takes the same ``g``.
    """
    lives = st.sampled_from((1, 2, INF))
    sa, sb, sc, sd, sg = (Symbol(f"{s}9") for s in "abcdg")

    def objects(sym, copies=(1, 2)):
        return [(sym, draw(lives)) for _ in range(draw(st.integers(*copies)))]

    kids, skin_objects, rules = [], [], []
    for gadget in draw(st.lists(st.sampled_from(("pairs", "shared", "rewrites", "exit")), min_size=2, max_size=4, unique=True)):
        if gadget == "pairs":
            timer, k = draw(lives), draw(st.integers(1, 2))
            mine, theirs = objects(sa, (1, 1)), objects(sa.dual(), (1, 1))
            for _ in range(k):
                kids += [mem("h", timer, mine), mem("m", timer, theirs)]
            rules.append(EndoRule("h", "m", Multiset([sa]), w=((sa, Carry(0)),), w2=((sa.dual(), Carry(0)),)))
        elif gadget == "shared":
            mine = objects(sb, (1, 1))
            kids += [mem("p", draw(lives), mine) for _ in range(draw(st.integers(1, 3)))]
            kids += [mem("q", INF, objects(sb.dual()) + objects(sd, (1, 1))), mem("s", INF, objects(sd.dual(), (1, 1)))]
            rules += [EndoRule("p", "q", Multiset([sb])), EndoRule("q", "s", Multiset([sd]))]
        elif gadget == "rewrites":
            kids.append(mem("r", INF, objects(sc, (1, 3))))
            rules += [RewriteRule("r", Multiset([sc]), ((x, Fresh(1)),)), RewriteRule("r", Multiset([sc, sc]), ((y, Fresh(2)),))]
            if draw(st.booleans()):
                rules.append(RewriteRule("r", Multiset([sc]), ((y, Fresh(INF)),)))
        else:
            kids += [mem("e", INF, objects(sg, (1, 1))) for _ in range(draw(st.integers(1, 2)))]
            skin_objects += objects(sg.dual())
            rules += [ExoRule("e", "skin", Multiset([sg])), RewriteRule("e", Multiset([sg]), ((x, Fresh(1)),))]
    order = draw(st.permutations(range(len(kids))))
    return Configuration(mem("skin", INF, skin_objects, [kids[j] for j in order])), draw(st.permutations(rules))


def _least_reference_choice(root, rules):
    """The reference's saturated choice whose sorted instance rows sort
    first: rows sort as the engine's instance sort keys do."""
    return min(sorted(_ref_choice_set([ch])[0]) for ch in ref.choices(root, rules, saturated=True))


@settings(max_examples=examples(200))
@given(contested_systems())
def test_the_greedy_choice_is_the_least_saturated_choice(system):
    cfg, rules = system
    found = find_instances(cfg, rules)
    options = maximal_choices(cfg, rules)
    least = least_choice(cfg, found)
    assert exact(least) == exact(options[0])
    ucfg = erase_timers(cfg)
    u_options = u_maximal_choices(ucfg, rules)
    u_least = least_choice(ucfg, u_find_instances(ucfg, rules))
    assert exact(u_least) == exact(u_options[0])
    root = ref.from_config(cfg)
    if _reference_size(root, rules) <= 1024:
        assert sorted(_engine_row(i) for i in ref.copies(least)) == _least_reference_choice(root, rules)
        timed_cfg, timed_rules = embed_infinite(ucfg, rules)
        want = _least_reference_choice(ref.from_config(timed_cfg), timed_rules)
        assert [(i.rule_index, i.active_uid, -1 if i.passive_uid is None else i.passive_uid)
                for i in ref.copies(u_least)] == [
            row[:3] for row in want]


def test_contested_systems_have_several_saturated_choices():
    # the strategy's point: most drawn states are contested, some heavily
    counts = []

    @settings(max_examples=100, database=None, derandomize=True)
    @given(contested_systems())
    def record(system):
        counts.append(len(maximal_choices(*system)))

    record()
    assert sum(n > 1 for n in counts) >= 0.8 * len(counts) and max(counts) >= 8, counts


def _bench_systems(name):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    return [parse_system(item.text) for item in workload.make_inputs(random.Random(f"{name}:1"))]


# SHA-256 of the concatenated ``to_jsonl()`` of each group of runs, as
# computed before runs took the greedy choice: 12 steps, seeded by the
# corpus seed; sim-dense (ROADMAP W1) for 4 steps and sim-wide (W2) for 11,
# seeded by their position among seed 1's bench inputs. The population
# group (``_POPULATIONS``, 8 steps, seeds 0-2) was computed while a choice
# still held one entry per copy of an instance.
_TRACE_DIGESTS = {
    "population first": "232fb92de9b34b13456299dc0f53d5e994ab06793a38506c24d86b8392eeeb42",
    "population random": "6b277aef897b181421036f42088641cdee127ee39a32b2f0467e8bb655f969e9",
    "timed first": "52db8031cca51ba94b05ae3b6bc0ed6a285a7e44fbc8f9c2e26f416a8745ce87",
    "timed random": "c929d391a036b3a2d5124e8c2c3f3a113bc736bf0f56ccdaf680db2c073d550a",
    "soak first": "9b4adc349960accde7f9cb0476bbb72efd5e467d6cd000fed7704ba4bf1fc101",
    "soak random": "2f9f8af3def3a7615d5c8bccf71ca2e7355ed96d0120fc162e760ee54bc1a513",
    "untimed first": "ea186804b0443ea448be6a627351c2aa0a878f6234c2078f01c58a1e961edd5f",
    "untimed random": "7286befe5b7da93f68b30cb95e336c70d9c2ffe92209addc7cee109d42957764",
    "sim-dense first": "24aa6c41412f42ebccdaca92b3dbf70d7ff9031f7311e28653d434b23a6b4fe4",
    "sim-dense random": "89377876fd0b196761321dbe6baa558e0773d85705fdc5d6ec8de371267fdb16",
    "sim-wide first": "07f140b3672f183f86f99a3a35b526f011870454954567b4200a39187b174cb7",
    "sim-wide random": "ea569679f31498099a7705ba345974c551b2d30e131a98e7f968eceaf6743eaf",
}


_POPULATIONS = [
    # finite objects, fresh products, contested: pairs or singles of a
    "skin:inf[ a:3, a:3, a:3, a:3, a:3, a:2, a:2 ]\n"
    "rw skin : a a => b:+2\nrw skin : a => c:+1\nrw skin : c => a:+3\n",
    # infinite objects and carried finite ones, in two membranes
    "skin:inf[ a:inf, a:inf, a:inf, a:inf ; h:inf[ x:4, x:4, x:4, y:inf, y:inf, y:inf ] ]\n"
    "rw skin : a => a:- b:+2\nrw h : x => x:-\nrw h : y y => y:- y:- z:+inf\nrw skin : b b => c:+inf\n",
    # two moves into one shared passive beside rewrites in the movers
    "skin:inf[ ; h:5[ a:inf, x:2, x:2, x:2 ] m:inf[ ~a:inf, ~a:inf, y:3, y:3 ] h:5[ a:inf, x:2 ] ]\n"
    "endo h m : a | , ~a | => a:- | ~a:-\nrw h : x => x:- z:+3\nrw m : y => y:-\n",
    # exo beside rewrites whose products dissolve the movers later
    "skin:inf[ p:inf ; m:inf[ ~b:inf, ~b:inf ; k:6[ b:inf, q:2, q:2 ] k:6[ b:inf, q:2, q:2, q:2 ] ] ]\n"
    "exo k m : b | , ~b | => b:- | ~b:-\nrw k : q => q:- r:+1\nrw k : r r => delta\nrw skin : p => p:-\n",
    # ROADMAP W12 in small: one instance fires on every copy, each step
    "skin:inf[ " + ", ".join(["a:inf"] * 12) + " ]\nrw skin : a => b:+inf\nrw skin : b => a:+inf\n",
]


def _population_systems():
    """Hand-written timed systems whose steps fire one instance on several
    copies at once (``_POPULATIONS``)."""
    return [parse_system(f"mms 1 timed\noutput skin\n{text}") for text in _POPULATIONS]


@pytest.mark.parametrize("selector", ["first", "random"])
def test_traces_are_byte_identical_to_the_full_choice_list(selector):
    def digest(traces):
        return hashlib.sha256("".join(t.to_jsonl() for t in traces).encode()).hexdigest()

    got = {
        "population": digest(run(sf.config, sf.rules, 8, selector, seed)
                             for sf in _population_systems() for seed in range(3)),
        "timed": digest(run(*random_timed_system(s), 12, selector, s) for s in range(120)),
        "soak": digest(run(*random_soak_system(s), 12, selector, s) for s in range(120)),
        "untimed": digest(u_run(*random_untimed_system(s), 12, selector, s) for s in range(120)),
        "sim-dense": digest(run(sf.config, sf.rules, 4, selector, i) for i, sf in enumerate(_bench_systems("sim-dense"))),
        "sim-wide": digest(run(sf.config, sf.rules, 11, selector, i) for i, sf in enumerate(_bench_systems("sim-wide"))),
    }
    assert got == {group: _TRACE_DIGESTS[f"{group} {selector}"] for group in got}


def test_choices_of_one_instance_list_fewer_copies_first():
    # choices are ordered by their instances' positions written out once
    # per copy: one copy is a prefix of two, so it comes first, and of
    # two parts' combinations with one key, the one with more copies of
    # the earlier instance is the first in choice order
    one = parse_system("mms 1 timed\noutput skin\nskin:inf[ a:3, a:3 ]\nrw skin : a => b:+2\n")
    family = ["(empty)", "r0@1{a:3}", "r0@1{a:3} + r0@1{a:3}"]
    assert [choice_describe(ch) for ch in step_choices(one.config, one.rules)] == family
    assert [choice_describe(ch) for ch, _n, _k in successors(one.config, one.rules)] == family
    two = parse_system("mms 1 timed\noutput skin\nskin:inf[ ; h:inf[ a:3, a:3 ] h:inf[ a:3, a:3 ] ]\n"
                       "rw h : a => b:+2\n")
    h2, h3 = "r0@2{a:3}", "r0@3{a:3}"
    assert [choice_describe(ch) for ch in step_choices(two.config, two.rules)] == [
        "(empty)", h2, f"{h2} + {h2}", f"{h2} + {h2} + {h3}", f"{h2} + {h2} + {h3} + {h3}",
        f"{h2} + {h3}", f"{h2} + {h3} + {h3}", h3, f"{h3} + {h3}"]
    composed = successors(two.config, two.rules)
    assert [choice_describe(ch) for ch, _n, _k in composed] == [
        "(empty)", h2, f"{h2} + {h2}", f"{h2} + {h3}", f"{h2} + {h2} + {h3}", f"{h2} + {h2} + {h3} + {h3}"]
    assert [(choice_describe(ch), k) for ch, _n, k in composed] == [
        (choice_describe(ch), k) for ch, _n, k in _whole_tree_successors(two.config, two.rules)]


@pytest.mark.parametrize("n", [1_000, 10_000])
def test_a_population_step_costs_its_distinct_instances(monkeypatch, n):
    # ROADMAP W12's shape: every step fires one instance on all n copies,
    # and carries their one timer down once
    sf = parse_system("mms 1 timed\noutput skin\nskin:inf[ " + ", ".join(["a:50"] * n) + " ]\nrw skin : a => a:-\n")
    stats = []
    original = engine.step

    def recorded(config, choice):
        result = original(config, choice)
        stats.append(result.stats)
        return result

    monkeypatch.setattr(engine, "step", recorded)
    decrements = count_calls(monkeypatch, "mobilemem.core.decrement")
    trace = run(sf.config, sf.rules, 5, "first")
    assert [[(inst.describe(), k) for inst, k in r.choice] for r in trace.records] == [
        [(f"r0@1{{a:{t}}}", n)] for t in range(50, 45, -1)]
    assert decrements.n == 5
    assert [(s.consumed, s.produced) for s in stats] == [(n, n)] * 5


def _recording_enumerations(monkeypatch) -> list:
    """Patch ``engine.enumerate_choices`` to record ``(limit, number of
    choices returned)`` per call."""
    calls = []
    original = engine.enumerate_choices

    def recorded(config, instances, blocks, limit=None):
        got = original(config, instances, blocks, limit)
        calls.append((limit, len(got)))
        return got

    monkeypatch.setattr(engine, "enumerate_choices", recorded)
    return calls


def test_a_first_step_that_reproduces_its_configuration_halts_only_on_its_only_choice(monkeypatch):
    # one ``c`` under k rewrites that each give it back: every step
    # reproduces the configuration, with k saturated choices
    cfg = Configuration(mem("skin", INF, [], [mem("r", INF, [(c, INF)])]))
    calls = _recording_enumerations(monkeypatch)
    for k, halted in ((1, [True]), (2, [False] * 3), (6, [False] * 3)):
        rules = [RewriteRule("r", Multiset([c]), ((c, Carry(0)),)) for _ in range(k)]
        assert len(maximal_choices(cfg, rules)) == k
        calls.clear()
        for selector in ("first", "random"):
            trace = run(cfg, rules, 3, selector, 0)
            assert [r.halted for r in trace.records] == halted
            assert [r.key for r in trace.records] == [canonicalize(cfg)] * len(halted)
        # ``first`` asks once per reproducing step and stops at two
        # choices; ``random`` lists them all
        steps = len(halted)
        assert calls == [(2, min(k, 2))] * steps + [(None, k)] * steps


def _w8(n: int) -> str:
    """ROADMAP W8: n identical pairs whose one step has n! saturated choices."""
    pairs = " ".join(["h:inf[ a:inf ] m:inf[ ~a:inf ]"] * n)
    return f"mms 1 timed\noutput skin\nskin:inf[ ; {pairs} ]\nendo h m : a | , ~a | => a:- | ~a:-\n"


def test_a_first_run_of_w8_lists_no_choices_until_it_halts(monkeypatch):
    sf = parse_system(_w8(12))
    calls = _recording_enumerations(monkeypatch)
    trace = run(sf.config, sf.rules, 1, "first")
    assert len(trace.records[0].choice) == 12 and not trace.halted
    assert calls == []
    trace = run(sf.config, sf.rules, 2, "first")
    assert [r.halted for r in trace.records] == [False, True]
    assert calls == [(2, 1)]  # the halting step, whose only choice is empty


@pytest.mark.parametrize("n", [8, 12])
def test_a_first_sim_step_of_w8_is_fast(tmp_path, capsys, n):
    path = tmp_path / f"w8_{n}.mms"
    path.write_text(_w8(n))
    start = time.perf_counter()
    assert main(["sim", str(path), "--steps", "1", "--selector", "first"]) == 0
    assert time.perf_counter() - start < 0.5
    assert json.loads(capsys.readouterr().out)["halted"] is False
