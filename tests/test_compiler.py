import gc
import hashlib
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from mobilemem.core import (
    INF,
    Configuration,
    EndoRule,
    ExoRule,
    Fresh,
    Multiset,
    RewriteRule,
    Symbol,
    mem,
)
from mobilemem.compiler import (
    CompileError,
    MoveSchema,
    counter_soundness_violations,
    eliminate_timers,
    embed_infinite,
    lifetime,
    make_counter,
    parse_counter,
    plan_elimination,
    project,
)
import mobilemem.compiler as compiler
from mobilemem.ambient import parse_ambient
from mobilemem.cli import main
from mobilemem.corpus import random_reducible_process, random_timed_system, random_untimed_system
from mobilemem.engine import find_instances, maximal_choices, step_choices
from mobilemem.explore import check_timer_elimination, explore_membranes, explore_untimed
from mobilemem.sysfile import SystemFile, parse_system, render_system
from mobilemem.translate import generate_rules, translate
from mobilemem.untimed import UConfig, u_canonicalize, u_find_instances, u_maximal_choices, umem

sys.path.insert(0, str(Path(__file__).parent))
import reference as ref  # noqa: E402
from conftest import count_calls  # noqa: E402
from systems import exact, renumber  # noqa: E402

a, b, c = Symbol("a"), Symbol("b"), Symbol("c")


def test_lifetime_is_max_over_creation_sites():
    cfg = Configuration(mem("skin", INF, [], [mem("h", 2, [(a, 3)])]))
    rule = EndoRule("h", "m", Multiset([b]), w=((a, Fresh(5)),))
    assert lifetime(a, cfg, [rule]) == 5

    cfg2 = Configuration(mem("skin", INF, [], [mem("h", 2, [(a, 7)])]))
    assert lifetime(a, cfg2, []) == 7

    # lifetime reads what a rewrite creates, though timer elimination refuses rewrites
    rewrite = RewriteRule("h", Multiset([a]), ((b, Fresh(4)),))
    assert lifetime(b, cfg, [rewrite, EndoRule("h", "m", Multiset([a]), w=((b, Fresh(2)),))]) == 4


def test_lifetime_rejects_infinity_and_absence():
    cfg = Configuration(mem("skin", INF, [(a, INF)]))
    with pytest.raises(CompileError, match="infinite lifetime"):
        lifetime(a, cfg, [])
    with pytest.raises(CompileError, match="never created"):
        lifetime(b, cfg, [])


def test_counter_spelling_roundtrip():
    sym = make_counter("~a", 3)
    assert str(sym) == "~b$a$3"  # the co bit stays on the counter
    assert parse_counter(sym) == ("~a", 3)
    assert parse_counter(make_counter("a", 0)) == ("a", 0)
    assert parse_counter(a) is None


def test_embed_assigns_inf_everywhere():
    u = UConfig(umem("skin", [a], [umem("h", [b])]))
    rule = EndoRule("h", "m", Multiset([a]), w=((c, Fresh(INF)),))
    cfg, rules = embed_infinite(u, [rule])
    for node in cfg.skin.walk():
        assert node.timer == INF
        for (_s, t), _n in node.content.items():
            assert t == INF
    for r in rules:
        for _s, spec in r.w + r.w2:
            assert spec.timer == INF


def test_eliminate_initial_counters():
    cfg = Configuration(mem("skin", INF, [], [mem("mem", 4, [(a, 2)])]))
    ucfg, rules = eliminate_timers(cfg, [])
    assert u_canonicalize(ucfg) == "skin{}[mem{a,b$a$0,b$mem$0}[]]|out=skin"
    names = sorted(r.name for r in rules)
    # object ticks for t in {0,1}, one object kill, membrane ticks for
    # t in 0..3, one membrane kill
    assert names == [
        "kill:a", "kill:mem",
        "tick:a:0", "tick:a:1",
        "tick:mem:0", "tick:mem:1", "tick:mem:2", "tick:mem:3",
    ]
    kill_a = next(r for r in rules if r.name == "kill:a")
    assert kill_a.lhs == Multiset([a, make_counter("a", 2)])
    assert kill_a.rhs == ()
    kill_mem = next(r for r in rules if r.name == "kill:mem")
    assert kill_mem.at == "mem"
    assert [s.name for s, _spec in kill_mem.rhs] == ["delta"]


def test_eliminate_generates_move_family():
    cfg = Configuration(mem("skin", INF, [], [
        mem("h", 3, [(a, 2)]), mem("m", INF, [(a.dual(), 4)]),
    ]))
    rule = EndoRule("h", "m", Multiset([a]), w=((c, Fresh(7)),), name="E1")
    _ucfg, rules = eliminate_timers(cfg, [rule])
    family = [r for r in rules if isinstance(r, EndoRule)]
    # counter vectors: a in 0..1, ~a in 0..3, b$h in 0..2; m has no counter
    assert len(family) == 2 * 4 * 3
    sample = family[0]
    assert sample.u == Multiset([a])
    assert make_counter("a", 0) in sample.v or make_counter("a", 1) in sample.v
    assert any(parse_counter(s) == ("h", 0) for s in sample.v) or any(
        parse_counter(s) is not None and parse_counter(s)[0] == "h" for s in sample.v
    )
    # fresh product starts its counter at zero; the mover's counter advances
    fresh_counters = [s for s, _spec in sample.w if parse_counter(s) is not None]
    assert make_counter("c", 0) in fresh_counters


def test_eliminate_rejections():
    inf_obj = Configuration(mem("skin", INF, [(a, INF)]))
    with pytest.raises(CompileError, match="timer inf"):
        eliminate_timers(inf_obj, [])

    cfg = Configuration(mem("skin", INF, [], [mem("h", 2, [(a, 1)])]))
    with pytest.raises(CompileError, match="endo/exo"):
        eliminate_timers(cfg, [RewriteRule("h", Multiset([a]), ())])

    counterish = Configuration(mem("skin", INF, [(Symbol("b$a$0"), 1)]))
    with pytest.raises(CompileError, match="counter"):
        eliminate_timers(counterish, [])

    collision = Configuration(mem("skin", INF, [], [mem("a", 2, [(a, 1)])]))
    with pytest.raises(CompileError, match="collides"):
        eliminate_timers(collision, [])

    shared = Configuration(mem("skin", INF, [], [mem("h", 2), mem("h", 3)]))
    with pytest.raises(CompileError, match="shared"):
        eliminate_timers(shared, [])


# One system with a fault of every kind timer elimination refuses, and,
# in the order they are refused, each fault's message and the edit that
# mends it.
ALL_FAULTS = """mms 1 timed
output skin
skin:inf[ ; h:2[ a$1:inf, a1:2, z:1 ] m:3[ ~a1:2 ] z:2[ ] h:3[ ] ]
rw h : a1 => a1:+1
endo h m : a1 | delta , ~a1 | => b:+inf |
"""
FAULTS = [
    ("label h is shared by membranes with different timers", "h:3[ ] ", ""),
    ("timer elimination covers endo/exo systems only", "rw h : a1 => a1:+1\n", ""),
    ("object a$1 has timer inf; only membranes may be untimed", "a$1:inf", "a$1:2"),
    ("symbol a$1 collides with the counter spelling", "a$1:2, ", ""),
    ("object name z collides with a finite-timer membrane label", "z:2[ ] ", ""),
    ("the dissolution marker cannot be compiled", "| delta ,", "| ,"),
    ("rule creates b with timer inf", "b:+inf", "b:+2"),
]


def test_a_system_is_refused_at_its_first_fault_in_a_fixed_order():
    # the first message is the label clash's, though every fault is
    # present; each mended fault hands the refusal to the next
    text = ALL_FAULTS
    for message, fault, mended in FAULTS:
        sf = parse_system(text)
        with pytest.raises(CompileError) as err:
            plan_elimination(sf.config, sf.rules)
        assert str(err.value) == message
        text = text.replace(fault, mended)
    sf = parse_system(text)
    assert plan_elimination(sf.config, sf.rules).size > 0


def test_the_refusal_does_not_depend_on_hash_order(tmp_path):
    # three symbols with the counter spelling: the first met is named,
    # whatever order strings hash in
    path = tmp_path / "dollars.mms"
    path.write_text("mms 1 timed\noutput skin\nskin:inf[ ; h:3[ a$1:2, b$2:2, c$3:2 ] ]\n")
    for seed in ("0", "1", "2"):
        done = subprocess.run([sys.executable, "-m", "mobilemem", "compile", str(path)], capture_output=True,
                              text=True, timeout=60, env={**os.environ, "PYTHONHASHSEED": seed})
        assert (done.returncode, done.stdout, done.stderr) == (
            3, "", "error: symbol a$1 collides with the counter spelling\n"), seed


def test_inf_membranes_get_no_counter():
    cfg = Configuration(mem("skin", INF, [], [mem("m", INF, [(a, 1)])]))
    ucfg, rules = eliminate_timers(cfg, [])
    assert u_canonicalize(ucfg) == "skin{}[m{a,b$a$0}[]]|out=skin"
    assert all("m" != r.name.split(":")[1] for r in rules if ":" in r.name)


def test_project_erases_counters_and_timers():
    compiled = UConfig(umem("skin", [], [
        umem("mem", [a, make_counter("a", 1), make_counter("mem", 2)]),
    ]))
    assert u_canonicalize(project(compiled)) == "skin{}[mem{a}[]]|out=skin"

    timed = Configuration(mem("skin", INF, [], [mem("mem", 3, [(a, 1)])]))
    assert u_canonicalize(project(timed)) == "skin{}[mem{a}[]]|out=skin"
    assert u_canonicalize(project(project(timed))) == u_canonicalize(project(timed))


def test_counter_soundness_checker():
    good = UConfig(umem("skin", [], [
        umem("h", [a, make_counter("a", 1), make_counter("h", 0)]),
    ]))
    assert counter_soundness_violations(good, {"h"}) == []
    orphan = UConfig(umem("skin", [], [umem("h", [make_counter("a", 1), make_counter("h", 0)])]))
    assert counter_soundness_violations(orphan, {"h"})
    missing_label = UConfig(umem("skin", [], [umem("h", [])]))
    assert counter_soundness_violations(missing_label, {"h"})


def w3_text(T):
    """ROADMAP W3: one two-slot endo rule whose family has T^5 members."""
    return (
        f"mms 1 timed\noutput skin\nskin:inf[ ; h:{T}[ a:{T}, c:{T} ] m:{T}[ ~a:{T} ] ]\n"
        f"endo h m : a | c , ~a | => c:+{T} |\n"
    )


def w3(T):
    return parse_system(w3_text(T))


def test_compiled_rules_read_as_the_expanded_family():
    # members are read as ``u_find_instances`` reads them, through
    # ``parts``: a rewrite at its flat index, a schema's member at the
    # schema's first index plus the member's offset
    rng = random.Random(5)
    for T, size in [(2, 47), (3, 263), (4, 1049), (5, 3155)]:
        sf = w3(T)
        _ucfg, compiled = eliminate_timers(sf.config, sf.rules)
        flat = list(compiled)
        assert len(compiled) == len(flat) == T ** 5 + 5 * (T + 1) == size
        start = 0
        for base, item in compiled.parts:
            assert base == start
            if isinstance(item, MoveSchema):
                offsets = [0, len(item) - 1] + rng.sample(range(len(item)), min(40, len(item)))
                for offset in offsets:
                    assert item[offset] == flat[base + offset]
                    assert item[offset - len(item)] == flat[base + offset]
                with pytest.raises(IndexError):
                    item[len(item)]
                start += len(item)
            else:
                assert item == flat[base]
                start += 1
        assert start == len(flat)


def test_schema_matcher_equals_the_expanded_family():
    # a schema proposes only members whose counters are present; the flat
    # tuple of the same rules takes the rule-by-rule path
    cases = [(renumber(cfg), rules, 6) for cfg, rules in map(random_timed_system, range(40))]
    cases += [(w3(T).config, w3(T).rules, T + 2) for T in range(2, 6)]
    for config, rules, depth in cases:
        ucfg, compiled = eliminate_timers(config, rules)
        flat = tuple(compiled)
        for state in explore_untimed(ucfg, compiled, depth).objects.values():
            got = u_find_instances(state, compiled)
            want = u_find_instances(state, flat)
            assert exact(got) == exact(want)
            assert [(i.active_classes, i.passive_classes) for i in got] == [
                (i.active_classes, i.passive_classes) for i in want
            ]


def _reference_member(schema, vector):
    """``MoveSchema._member`` as it was written before its two sides were
    built in one loop: each side by hand, its consumed counters added one
    by one, its products compiled by a nested function. The active
    membrane of a ``keep_active_timer`` rule keeps its counter."""
    rule = schema.rule
    n_active, n_passive = len(schema.active_lives), len(schema.passive_lives)
    a_vec = vector[:n_active]
    p_vec = vector[n_active:n_active + n_passive]
    rest = list(vector[n_active + n_passive:])
    t3 = rest.pop(0) if schema.h_timer is not None else None
    t6 = rest.pop(0) if schema.m_timer is not None else None

    v = rule.v
    for sym, j in zip(rule.active_slots, a_vec):
        v = v.union(Multiset([make_counter(str(sym), j)]))
    if t3 is not None:
        v = v.union(Multiset([make_counter(rule.h, t3)]))
    v2 = rule.v2
    for sym, j in zip(rule.passive_slots, p_vec):
        v2 = v2.union(Multiset([make_counter(str(sym), j)]))
    if t6 is not None:
        v2 = v2.union(Multiset([make_counter(rule.m, t6)]))

    def compile_prods(prods, vec):
        compiled = []
        for sym, spec in prods:
            compiled.append((sym, Fresh(INF)))
            if isinstance(spec, Fresh):
                compiled.append((make_counter(str(sym), 0), Fresh(INF)))
            else:
                compiled.append((make_counter(str(sym), vec[spec.slot] + 1), Fresh(INF)))
        return compiled

    w = compile_prods(rule.w, a_vec)
    if t3 is not None:
        w.append((make_counter(rule.h, t3 + (0 if rule.keep_active_timer else 1)), Fresh(INF)))
    w2 = compile_prods(rule.w2, p_vec)
    if t6 is not None:
        w2.append((make_counter(rule.m, t6 + 1), Fresh(INF)))

    name = f"{rule.name or 'move'}:{','.join(map(str, vector))}"
    cls = EndoRule if isinstance(rule, EndoRule) else ExoRule
    return cls(rule.h, rule.m, rule.u, v, v2, tuple(w), tuple(w2), name=name)


def test_schema_members_equal_the_reference_builder():
    # every member of W3 at T=1..5, of every schema of timed corpus seeds
    # 0-119 and of the strict translations of reducible seeds 0-39, read
    # by index and by iteration
    systems = [(sf.config, sf.rules) for sf in map(w3, range(1, 6))]
    systems += [random_timed_system(seed) for seed in range(120)]
    systems += [(translate(p), generate_rules(p, strict=True)) for p in map(random_reducible_process, range(40))]
    schemas = []
    for config, rules in systems:
        try:
            _ucfg, compiled = eliminate_timers(config, rules)
        except CompileError:
            continue
        schemas += [item for _base, item in compiled.parts if isinstance(item, MoveSchema)]
    assert len(schemas) > 100
    assert any(s.rule.keep_active_timer and s.h_timer is not None for s in schemas)
    for schema in schemas:
        radices = [range(len(counters)) for _side, counters in schema._axes]
        members = list(schema)
        assert len(members) == schema.size
        for i, vector in enumerate(itertools.product(*radices)):
            want = _reference_member(schema, vector)
            for got in (schema[i], members[i]):
                assert type(got) is type(want) and got == want
                assert (got.name, got.u, got.v, got.v2, got.w, got.w2) == (want.name, want.u, want.v, want.v2, want.w, want.w2)


def test_prop2_holds_on_strict_translations_where_it_holds_on_default_ones():
    # a strict rule keeps the mover's timer, and its compiled members keep
    # the mover's counter; before they did, this mover dissolved one step
    # early on the compiled side, and 25 of the 40 seeds below failed
    p = parse_ambient("n:2[ in:5 m ] | m:9[ ~in:5 m ]")
    assert check_timer_elimination(translate(p), generate_rules(p, strict=True), 6).ok
    failing = {True: [], False: []}
    for seed in range(40):
        p = random_reducible_process(seed)
        for strict in failing:
            if not check_timer_elimination(translate(p), generate_rules(p, strict=strict), 5).ok:
                failing[strict].append(seed)
    # the failures left are ROADMAP item 17's nonuniform creation timers
    assert failing[True] == failing[False] == [0, 11, 15, 34]


def test_compiled_output_is_pinned():
    # what ``compile`` writes, with the rule names the file leaves out, for
    # timed corpus seeds 0-299 and W3 at T=1..5: counters, tick and kill
    # families and move families, in order
    systems = [random_timed_system(seed) for seed in range(300)]
    systems += [(sf.config, sf.rules) for sf in map(w3, range(1, 6))]
    outcomes = []
    for config, rules in systems:
        uconfig, urules = eliminate_timers(config, rules)
        text = render_system(SystemFile(False, uconfig.output_label, uconfig, urules, compiled=True))
        outcomes.append(text + " ".join(rule.name for rule in urules))
    digest = hashlib.sha256("\0".join(outcomes).encode()).hexdigest()
    assert digest == "ae1ca03307ef1b75566ec60de01e08bfee9e6b5eac97a296ebcf5ecb9572e5e7"


def _same_for_a_plain_list(states, rules, matchers) -> int:
    """Check each matcher on ``states`` against a plain list of ``rules``;
    the number of instances the first matcher found."""
    plain, found = list(rules), 0
    for state in states:
        for matcher in matchers:
            got = matcher(state, plain)
            assert exact(got) == exact(matcher(state, rules)), matcher.__name__
            found += len(got) if matcher is matchers[0] else 0
    return found


def test_a_plain_rule_list_matches_as_its_rule_container(tmp_path):
    # a list keeps no table and gets one per call; it matches the same
    # instances, in the same order, with the same choice lists, as the
    # container that keeps its table: corpus rule sets, compiled rules,
    # and the flat rule set ``compile -o`` writes
    timed = (find_instances, maximal_choices, step_choices)
    untimed = (u_find_instances, u_maximal_choices)
    found = [0, 0]
    for seed in range(40):
        cfg, rules = random_timed_system(seed)
        found[0] += _same_for_a_plain_list(explore_membranes(cfg, rules, 3).objects.values(), rules, timed)
        cfg, rules = random_untimed_system(seed)
        found[1] += _same_for_a_plain_list(explore_untimed(cfg, rules, 3).objects.values(), rules, untimed)
    assert min(found) > 50, found
    for T in range(2, 6):
        source, target = tmp_path / f"w3-{T}.mms", tmp_path / f"w3-{T}.compiled.mms"
        source.write_text(w3_text(T))
        assert main(["compile", str(source), "-o", str(target)]) == 0
        flat = parse_system(target.read_text())
        sf = w3(T)
        for config, rules in (eliminate_timers(sf.config, sf.rules), (flat.config, flat.rules)):
            assert len(rules) == T ** 5 + 5 * (T + 1)
            states = explore_untimed(config, rules, T + 2).objects.values()
            assert _same_for_a_plain_list(states, rules, untimed) > T


def test_schema_matcher_on_crowded_counters():
    # reachable states rarely hold one symbol under several counters; here
    # every membrane does, for a W3 rule and one binding ``a`` twice
    T = 2
    sf = w3(T)
    twice = parse_system(
        f"mms 1 timed\noutput skin\nskin:inf[ ; h:{T}[ a:{T}, c:{T} ] m:{T}[ ~a:{T} ] ]\n"
        f"endo h m : a a | c , ~a ~a | => c:+{T} |\nexo h m : a | , ~a | => |\n"
    )
    rng = random.Random(7)
    ctr = make_counter

    def objects(*bases):
        out = []
        for base in bases:
            for _ in range(rng.randint(0, 3)):
                out += [Symbol(base.lstrip("~"), base.startswith("~")), ctr(base, rng.randrange(T + 1))]
        return out

    def membrane(label, *bases):
        labels = [ctr(label, rng.randrange(T + 1)) for _ in range(rng.randint(0, 2))]
        return objects(*bases) + labels

    for system in (sf, twice):
        _ucfg, compiled = eliminate_timers(system.config, system.rules)
        flat = tuple(compiled)
        for _ in range(60):
            h = umem("h", membrane("h", "a", "c"))
            m = umem("m", membrane("m", "~a"), [umem("h", membrane("h", "a"))])
            state = UConfig(umem("skin", [], [h, m, umem("h", membrane("h", "a", "c"))]))
            assert exact(u_find_instances(state, compiled)) == exact(u_find_instances(state, flat))


def _compiled_states(config, rules, depth):
    """(compiled rules, reach-graph states) of the compiled twin."""
    ucfg, compiled = eliminate_timers(config, rules)
    return compiled, list(explore_untimed(ucfg, compiled, depth).objects.values())


def _rows(choice):
    return sorted((i.rule_index, i.active_uid, -1 if i.passive_uid is None else i.passive_uid)
                  for i in ref.copies(choice))


def test_compiled_choices_equal_the_reference():
    # the moves-first search and the rewrite index against the naive
    # count-vector enumeration, on the all-INF image of every compiled
    # state; choices compared as multisets of (rule, active, passive)
    cases = [(w3(T).config, w3(T).rules) for T in (2, 3)]
    cases += [random_timed_system(seed) for seed in range(40)]
    for n, (config, rules) in enumerate(cases):
        compiled, states = _compiled_states(config, rules, 4)
        _cfg, lifted = embed_infinite(states[0], compiled)
        for state in states:
            timed, _rules = embed_infinite(state, ())
            want = sorted(
                sorted((r, act, -1 if pas is None else pas) for r, act, pas, _ab, _pb in ch)
                for ch in ref.choices(ref.from_config(timed), lifted, True)
            )
            got = u_maximal_choices(state, compiled)
            assert sorted(_rows(ch) for ch in got) == want, n
            # whatever order the search decides them in, a choice lists its
            # instances in table order
            assert all([i.sort_key() for i in ref.copies(ch)] == sorted(i.sort_key() for i in ref.copies(ch))
                       for ch in got), n


def test_choice_search_costs_per_instance_and_result(monkeypatch):
    # with the moves decided first, the five counter ticks of the first
    # W3 state settle one branch each instead of doubling the leaves: the
    # fit tests stay within a small multiple of instances plus choices
    fits = count_calls(monkeypatch, "mobilemem.choices.addable")
    compiled, states = _compiled_states(w3(4).config, w3(4).rules, 6)
    worst = 0.0
    for state in states:
        fits.n = 0
        found = u_find_instances(state, compiled)
        returned = u_maximal_choices(state, compiled)
        worst = max(worst, fits.n / (len(found) + len(returned)))
    assert worst <= 5, worst  # 3.6 with moves first; 20.4 decided in table order


def _string_key(inst):
    """Rule index, uids, then each bound class as (symbol render, timer):
    a key built from renders, so it does not depend on how symbols
    compare. The oracle for the order of the matchers' instances and of
    the choice search's lists, which it sorts by instance position."""
    def rendered(classes):
        return tuple([(str(s), t) for s, t in classes])

    return (inst.rule_index, inst.active_uid, -1 if inst.passive_uid is None else inst.passive_uid,
            rendered(getattr(inst, "active_classes", ())), rendered(getattr(inst, "passive_classes", ())))


def _in_key_order(items, key) -> bool:
    return list(items) == sorted(items, key=key)


def _choices_in_key_order(choices) -> bool:
    """Each choice, written out one instance per copy, and the list of
    them, in the order of rendered sort keys."""
    choices = [ref.copies(ch) for ch in choices]
    return all(_in_key_order(ch, _string_key) for ch in choices) and _in_key_order(
        choices, lambda ch: [_string_key(i) for i in ch]
    )


def _row_sets(choices, timed: bool) -> list:
    """Choices as sorted lists of (rule, active, passive, bound classes),
    in the reference's form; an untimed instance binds no classes."""
    def row(i):
        binds = [tuple((s.name, s.is_co, t) for s, t in side) if timed else ()
                 for side in (getattr(i, "active_classes", ()), getattr(i, "passive_classes", ()))]
        return (i.rule_index, i.active_uid, -1 if i.passive_uid is None else i.passive_uid, *binds)

    return sorted(sorted(row(i) for i in ref.copies(ch)) for ch in choices)


def _ref_row_sets(choices, timed: bool) -> list:
    return sorted(sorted((r, act, -1 if pas is None else pas, *((ab, pb) if timed else ((), ())))
                         for r, act, pas, ab, pb in ch) for ch in choices)


def test_choice_lists_keep_the_order_of_rendered_sort_keys():
    # the choice search sorts finished choices by instance position, and
    # the matchers sort instances without rendering symbols: on every
    # state explored, the lists equal those sorted by the rendered key,
    # and on each root they equal the reference's choices as multisets
    for seed in range(120):
        config, rules = random_timed_system(seed)
        for state in explore_membranes(config, rules, 3).objects.values():
            assert _in_key_order(find_instances(state, rules), _string_key), seed
            assert _choices_in_key_order(maximal_choices(state, rules)), seed
            assert _choices_in_key_order(step_choices(state, rules)), seed
        root = ref.from_config(config)
        for saturated, choose in ((True, maximal_choices), (False, step_choices)):
            assert _row_sets(choose(config, rules), True) == _ref_row_sets(ref.choices(root, rules, saturated), True), seed

        config, rules = random_untimed_system(seed)
        for state in explore_untimed(config, rules, 3).objects.values():
            assert _in_key_order(u_find_instances(state, rules), _string_key), seed
            assert _choices_in_key_order(u_maximal_choices(state, rules)), seed
        timed, lifted = embed_infinite(config, rules)
        want = ref.choices(ref.from_config(timed), lifted, True)
        assert _row_sets(u_maximal_choices(config, rules), False) == _ref_row_sets(want, False), seed

    for T in (2, 3, 4, 5):
        sf = w3(T)
        compiled, states = _compiled_states(sf.config, sf.rules, T + 2)
        _cfg, lifted = embed_infinite(states[0], compiled)
        for state in states:
            assert _in_key_order(u_find_instances(state, compiled), _string_key), T
            choices = u_maximal_choices(state, compiled)
            assert _choices_in_key_order(choices), T
            timed, _rules = embed_infinite(state, ())
            assert _row_sets(choices, False) == _ref_row_sets(ref.choices(ref.from_config(timed), lifted, True), False), T


def test_a_check_parses_each_counter_symbol_once(monkeypatch):
    # the projection and the soundness check read every symbol of every
    # explored state; each distinct one goes through the counter regex once
    compiler._counter_of.cache_clear()
    parsed = []
    real = compiler.parse_counter
    monkeypatch.setattr(compiler, "parse_counter", lambda sym: parsed.append(sym) or real(sym))
    sf = w3(3)
    verdict = check_timer_elimination(sf.config, sf.rules, 5)
    assert verdict.ok and verdict.details["compiled_nodes"] > 10
    assert parsed and len(parsed) == len(set(parsed)), f"{len(parsed)} parses of {len(set(parsed))} symbols"


def test_check_timer_elimination_refuses_a_huge_tick_family_before_building_it(monkeypatch):
    # a library caller gets the size guard too: eliminate_timers counts the
    # tick and kill rules from the lifetimes, and the check turns its
    # refusal into an inconclusive verdict
    sf = parse_system("mms 1 timed\noutput skin\nskin:inf[ a:100000 ]\n")
    families = count_calls(monkeypatch, "mobilemem.compiler._tick_family")
    verdict = check_timer_elimination(sf.config, sf.rules, 1)
    assert families.n == 0
    assert verdict.ok is None and verdict.details == {
        "reason": "the compiled system needs 100,001 tick and kill rules, over the 100,000 check prop2 builds"}
    with pytest.raises(compiler.OversizedError, match="100,001 tick and kill rules"):
        eliminate_timers(sf.config, sf.rules)
    assert families.n == 0


def test_checks_on_fresh_compiles_hold_no_more_memory_per_call():
    """Each check compiles a fresh rule container, which owns its matcher
    table, so the table is freed with the container. Bytes held after
    each of 40 checks of W3 at T=4, measured with tracemalloc on Python
    3.11: they grew by under 1 kB from the 10th call to the 40th, while a
    cache that kept a table for every container it met held about 54 kB
    more per call."""
    sf = w3(4)
    assert check_timer_elimination(sf.config, sf.rules, 6).ok
    gc.collect()
    tracemalloc.start()
    try:
        held = []
        for _ in range(40):
            assert check_timer_elimination(sf.config, sf.rules, 6).ok
            gc.collect()
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert held[-1] - held[9] <= 16_000, [h - held[0] for h in held]


def test_plan_elimination_refuses_a_size_past_what_len_can_return():
    # in process, as ``compile`` and ``check prop2`` meet it: a plain int
    # size, refused before a rule is built
    for text in (
        "mms 1 timed\noutput skin\nskin:inf[ a:99999999999999999999999 ]\n",
        "mms 1 timed\noutput skin\nskin:inf[ ; h:99999999999999999999[ a:2 ] m:3[ ~a:2 ] ]\n"
        "endo h m : a | , ~a | => |\n",
    ):
        system = parse_system(text)
        with pytest.raises(CompileError, match="rules, more than a sequence can index"):
            plan_elimination(system.config, system.rules)
