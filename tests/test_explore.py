import gc
import importlib
import json
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest

from mobilemem.core import (
    INF,
    Configuration,
    EndoRule,
    Fresh,
    Multiset,
    RewriteRule,
    Symbol,
    mem,
)
from mobilemem.explore import (
    BudgetExceeded,
    check_embedding,
    check_timer_elimination,
    check_translation,
    explore_ambients,
    explore_membranes,
    explore_untimed,
)
from mobilemem import compiler
from mobilemem.compiler import _counter_of, counter_soundness_violations, eliminate_timers, embed_infinite
from mobilemem.engine import find_instances, successors
from mobilemem.translate import generate_rules, literal_successors, translate
from mobilemem.tree import drop_index, index_of
from mobilemem.untimed import UConfig, erased_key, u_find_instances, u_successors, umem
from mobilemem.ambient import canonical_key, parse_ambient
from mobilemem.corpus import (
    random_reducible_process,
    random_timed_system,
    random_untimed_system,
)
from conftest import count_calls, w4
from systems import renumber, reorder_demo_process

a, b, c = Symbol("a"), Symbol("b"), Symbol("c")
E1 = EndoRule("h", "m", Multiset([a]), w=((c, Fresh(7)),), name="E1")


def s1():
    return Configuration(mem("skin", INF, [], [
        mem("h", 3, [(a, 2), (b, 5)]), mem("m", INF, [(a.dual(), 4)]),
    ]))


def test_depth_zero_is_one_node():
    g = explore_membranes(s1(), [E1], 0)
    assert len(g.nodes) == 1 and g.edges == []


def test_s1_depth_two_reach_graph():
    # one enabled move at each of the first two steps; at every state the
    # trigger object may also sit out a step and tick, so the graph holds
    # the move-now, move-later, and not-yet branches (6 states; confirmed
    # by the reference interpreter in test_engine)
    g = explore_membranes(s1(), [E1], 2)
    assert len(g.nodes) == 6
    assert sorted(rec.depth for rec in g.nodes.values()) == [0, 1, 1, 2, 2, 2]


def test_inert_system_self_loops_and_halts():
    cfg = Configuration(mem("skin", INF, [(a, INF)]))
    g = explore_membranes(cfg, [E1], 5)
    assert len(g.nodes) == 1
    assert g.nodes[g.root].halted
    assert all(src == dst for src, _l, dst in g.edges)


def test_bfs_depths_are_shortest_paths():
    g = explore_membranes(s1(), [E1], 4)
    # recompute shortest distances over the recorded edges
    from collections import deque

    dist = {g.root: 0}
    queue = deque([g.root])
    while queue:
        node = queue.popleft()
        for src, _l, dst in g.edges:
            if src == node and dst not in dist:
                dist[dst] = dist[node] + 1
                queue.append(dst)
    for key, record in g.nodes.items():
        assert dist[key] == record.depth


def test_exploration_is_deterministic():
    g1 = explore_membranes(renumber(s1()), [E1], 3)
    g2 = explore_membranes(renumber(s1()), [E1], 3)
    assert json.dumps(g1.to_json(), sort_keys=True) == json.dumps(g2.to_json(), sort_keys=True)


def test_explorer_reuses_the_successor_key(monkeypatch):
    # the successor relation already keys every configuration it steps
    # the whole tree to, and composes the key of every one it builds from
    # parts (engine.successors); the explorer keys only the root itself
    keys = count_calls(monkeypatch, "mobilemem.core.canonicalize")
    whole = count_calls(monkeypatch, "mobilemem.engine.apply_step")
    composed = count_calls(monkeypatch, "mobilemem.engine._compose")
    roots = 40
    for seed in range(roots):
        config, rules = random_timed_system(seed)
        explore_membranes(renumber(config), rules, 4)
    assert composed.n > 0
    assert keys.n == roots + whole.n


def test_budget_exceeded_carries_partial_graph():
    with pytest.raises(BudgetExceeded) as err:
        explore_membranes(s1(), [E1], 4, max_nodes=2)
    assert err.value.graph.truncated
    assert len(err.value.graph.nodes) >= 2
    # s1's graph holds 1, 2, 3, 3 and 3 states at depths 0 to 4: the cap
    # is met while the root is expanded, or the 2 states at depth 1, or
    # the 3 at depth 2
    assert (err.value.depth, err.value.frontier) == (0, 1)
    for cap, depth, frontier in ((5, 1, 2), (6, 2, 3)):
        with pytest.raises(BudgetExceeded) as err:
            explore_membranes(s1(), [E1], 4, max_nodes=cap)
        assert (err.value.depth, err.value.frontier) == (depth, frontier)
    assert str(err.value) == "exploration exceeded 6 nodes while expanding depth 2 (frontier of 3 states)"


def test_explore_ambients_examples():
    g = explore_ambients(reorder_demo_process(), 1)
    assert len(g.nodes) == 2

    g0 = explore_ambients(parse_ambient("0"), 3)
    assert len(g0.nodes) == 1 and g0.nodes[g0.root].halted

    g1 = explore_ambients(parse_ambient("n:1[]"), 2)
    assert sorted(g1.nodes) == ["0", "n:0^a[0]", "n:1^a[0]"]


def test_check_embedding_small_and_corpus():
    u = UConfig(umem("skin", [], [umem("h", [a]), umem("m", [a.dual()])]))
    rule = EndoRule("h", "m", Multiset([a]), w=((c, Fresh(INF)),), name="E")
    assert check_embedding(u, [rule], 4).ok
    for seed in range(6):
        config, rules = random_untimed_system(seed)
        verdict = check_embedding(config, rules, 4)
        assert verdict.ok, verdict.details


def test_check_embedding_catches_a_dropped_inf():
    u = UConfig(umem("skin", [], [umem("h", [a]), umem("m", [a.dual()])]))
    rule = EndoRule("h", "m", Multiset([a]), w=((c, Fresh(INF)),), name="E")
    timed_config, timed_rules = embed_infinite(u, [rule])
    h_node = next(n for n in timed_config.skin.walk() if n.label == "h")
    mutated_skin = replace(
        timed_config.skin,
        children=tuple(
            replace(ch, timer=5) if ch.uid == h_node.uid else ch
            for ch in timed_config.skin.children
        ),
    )
    mutated = Configuration(mutated_skin, timed_config.output_label)
    verdict = check_embedding(u, [rule], 4, embedded=(mutated, timed_rules))
    assert verdict.ok is False
    assert verdict.details["witnesses"]


def test_check_timer_elimination_worked_examples():
    assert check_timer_elimination(s1(), [E1], 4).ok
    s2 = Configuration(mem("skin", INF, [], [mem("h", 0, [(a, 1)])]))
    assert check_timer_elimination(s2, [], 3).ok


def test_check_timer_elimination_corpus_slice():
    for seed in range(6):
        config, rules = random_timed_system(seed)
        verdict = check_timer_elimination(config, rules, 4)
        assert verdict.ok, (seed, verdict.details)


def test_check_timer_elimination_with_carried_timers():
    # a carried object keeps its remaining lifetime through the move; the
    # compiled rule advances its counter by one instead
    from mobilemem.core import Carry

    rule = EndoRule(
        "h", "m",
        u=Multiset([a]), v=Multiset([b]), v2=Multiset([c]),
        w=((b, Carry(1)),),
        w2=((c, Carry(1)),),
        name="carry",
    )
    cfg = Configuration(mem("skin", INF, [], [
        mem("h", 3, [(a, 2), (b, 3)]),
        mem("m", INF, [(a.dual(), 2), (c, 3)]),
    ]))
    verdict = check_timer_elimination(cfg, [rule], 4)
    assert verdict.ok, verdict.details


def test_check_timer_elimination_detects_shared_passive_divergence():
    # two movers may enter one target in a single timed step, but their
    # compiled counterparts fight over the target's counter object; the
    # check must report the divergence, not paper over it
    shared = Configuration(mem("skin", INF, [], [
        mem("h", 3, [(a, 2)]),
        mem("k", 3, [(a, 2)]),
        mem("m", 2, [(a.dual(), 2), (a.dual(), 2)]),
    ]))
    rules = [
        EndoRule("h", "m", Multiset([a]), name="e1"),
        EndoRule("k", "m", Multiset([a]), name="e2"),
    ]
    verdict = check_timer_elimination(shared, rules, 3)
    assert verdict.ok is False
    assert verdict.details["witnesses"]


def test_check_timer_elimination_detects_nonuniform_creation_timers():
    # counters always start at 0 and kill at the symbol's maximum lifetime,
    # so a symbol created young dies late in the compiled system
    nonuniform = Configuration(mem("skin", INF, [], [
        mem("h", 5, [(a, 1)]),
        mem("m", INF, [(a.dual(), 3)]),
    ]))
    rules = [EndoRule("h", "m", Multiset([a]), w=((a, Fresh(3)),), name="e")]
    verdict = check_timer_elimination(nonuniform, rules, 4)
    assert verdict.ok is False
    assert verdict.details["witnesses"]


def test_check_translation_demo():
    verdict = check_translation(reorder_demo_process(), 2)
    assert verdict.ok
    assert verdict.details["reordering"]["reordering_found"]
    assert verdict.details["pq_exact"]["ok"]
    assert verdict.details["mn"]["misses"] == []


def test_explored_states_stay_at_their_step_clock(monkeypatch):
    # the state at BFS level d sits at clock d, so exploring turns no
    # state back to clock 0; nor does prop45, whose preimage search reads
    # each membrane-graph node at its clock. The literal relation reads
    # each image through ``at_rest``, which hands a clock-0 image back as
    # it is, so only calls on a clocked state are counted
    from mobilemem.translate import generate_rules, translate

    rests = count_calls(monkeypatch, "mobilemem.core.at_rest", when=lambda config: config.clock > 0)
    p = w4(3)
    graph = explore_membranes(translate(p), generate_rules(p), 3)
    assert rests.n == 0
    assert all(graph.objects[key].clock == record.depth for key, record in graph.nodes.items())
    verdict = check_translation(p, 3)
    assert verdict.ok and rests.n == 0


def test_independent_pairs_are_stepped_per_part(monkeypatch):
    # a state whose skin splits into parts steps each part once per choice
    # of its own, and an exploration steps a part that many states share
    # once (engine.successors); the graphs are those of the whole tree
    from mobilemem.translate import generate_rules, translate

    steps = count_calls(monkeypatch, "mobilemem.engine.step")
    p = w4(5)
    graph = explore_membranes(translate(p), generate_rules(p), 3)
    assert (len(graph.nodes), len(graph.edges)) == (97, 518)
    assert steps.n == 52  # 518 when every choice stepped the whole tree
    steps.n = 0
    assert check_translation(random_reducible_process(3), 4).ok
    assert steps.n == 62  # 100 when every choice stepped the whole tree


def test_check_translation_explores_the_ambient_side_once(monkeypatch):
    import mobilemem.explore as explore

    calls = []
    real = explore.explore_ambients
    monkeypatch.setattr(explore, "explore_ambients", lambda *args: calls.append(args) or real(*args))
    for depth in range(4):
        calls.clear()
        assert check_translation(w4(2), depth).ok
        assert len(calls) == 1, depth


def test_check_translation_keeps_the_node_budget(monkeypatch):
    # every ambient reduction goes through the budgeted exploration, which
    # stops at the third new node after the root's one reduce_step call
    import mobilemem.ambient as ambient

    calls = []
    real = ambient.reduce_step
    monkeypatch.setattr(ambient, "reduce_step", lambda p: calls.append(p) or real(p))
    max_nodes = 3
    verdict = check_translation(w4(4), 3, max_nodes)
    assert verdict.ok is None
    assert len(calls) <= max_nodes


def test_correspondence_translates_each_state_once(monkeypatch):
    # the package's ``translate`` function shadows the module of that name
    translate = importlib.import_module("mobilemem.translate")
    graph = explore_ambients(w4(3), 3)
    seen = []
    real = translate._image
    monkeypatch.setattr(translate, "_image", lambda p: seen.append(canonical_key(p)) or real(p))
    report = translate.check_correspondence_PQ(graph)
    assert report["ok"] and report["edges"] == sum(label == "move" for _s, label, _d in graph.edges)
    assert seen and len(seen) == len(set(seen))


def test_verdict_exit_codes():
    v = check_timer_elimination(s1(), [E1], 2)
    assert v.exit_code == 0
    assert v.to_json()["verdict"] == "pass"


def test_check_translation_translates_each_state_once(monkeypatch):
    # both forward passes, the membrane-side root and the reordering note
    # read one map of images, and the note translates none of the
    # preimages it finds: the root and each end of a move edge must be
    # translated, so as many translations as those states means one each
    images = count_calls(monkeypatch, "mobilemem.translate._image")
    calls = 0
    for seed in range(10):
        p = random_reducible_process(seed)
        graph = explore_ambients(p, 4)
        needed = {graph.root} | {key for s, label, d in graph.edges if label == "move" for key in (s, d)}
        images.n = 0
        verdict = check_translation(p, 4)
        assert verdict.details["pq_erased"]["edges"] > 0, seed
        assert images.n == len(needed), seed
        calls += images.n
    assert calls == 42  # the distinct states of the ten graphs' move edges


def test_check_translation_builds_preimages_only_for_the_notes_it_lists(monkeypatch):
    # seed 3's membrane graph has 29 states, and its fifth unreachable
    # preimage is found at the sixth; the erased pass keys stepped states
    # without building erased trees
    preimages = count_calls(monkeypatch, "mobilemem.translate.some_preimage")
    erased = count_calls(monkeypatch, "mobilemem.untimed.erase_timers")
    verdict = check_translation(random_reducible_process(3), 4)
    assert verdict.ok and verdict.details["mn"]["nodes"] == 29
    assert len(verdict.details["preimages_not_in_ambient_graph"]) == 5
    assert (preimages.n, erased.n) == (6, 0)


def test_check_translation_builds_one_table_per_rule_set(monkeypatch):
    # every pass, the literal one included, reads the default rules, whose
    # table is built once
    tables = count_calls(monkeypatch, "mobilemem.engine._timed_table")
    assert check_translation(random_reducible_process(3), 4).ok
    assert tables.n == 1


def test_prop1_and_prop2_build_no_erased_or_projected_tree(monkeypatch):
    erased = count_calls(monkeypatch, "mobilemem.untimed.erase_timers")
    projected = count_calls(monkeypatch, "mobilemem.compiler.project")
    for seed in range(10):
        assert check_embedding(*random_untimed_system(seed), 4).ok, seed
        assert check_timer_elimination(*random_timed_system(seed), 4).ok, seed
    assert (erased.n, projected.n) == (0, 0)


# ---------------------------------------------------------------------------
# Each check's failure branches, reached through test-side fakes

def test_check_translation_reports_a_missed_exact_reduction(monkeypatch):
    translate = importlib.import_module("mobilemem.translate")
    monkeypatch.setattr(translate, "literal_successors", lambda config, rules: [])
    verdict = check_translation(reorder_demo_process(), 2)
    assert verdict.ok is False
    (miss,) = verdict.details["pq_exact"]["misses"]
    assert set(miss) == {"process", "reduct", "wanted"}
    assert not verdict.details["pq_erased"]["misses"] and not verdict.details["mn"]["misses"]


def test_check_translation_reports_a_missed_erased_reduction(monkeypatch):
    import mobilemem.explore as explore

    # the erased pass reads the timed successor relation, here one without
    # successors, which leaves the membrane graph its root alone
    monkeypatch.setattr(explore, "successors", lambda state, rules, memo=None: [])
    verdict = check_translation(reorder_demo_process(), 2)
    assert verdict.ok is False
    (miss,) = verdict.details["pq_erased"]["misses"]
    assert set(miss) == {"state", "reduct"}
    assert verdict.details["pq_exact"]["ok"] and not verdict.details["mn"]["misses"]


def test_check_translation_reports_a_membrane_state_without_preimage(monkeypatch):
    import mobilemem.explore as explore

    monkeypatch.setattr(explore, "has_preimage", lambda state: False)
    verdict = check_translation(reorder_demo_process(), 2)
    assert verdict.ok is False
    misses = verdict.details["mn"]["misses"]
    assert len(misses) == verdict.details["mn"]["nodes"] and set(misses[0]) == {"state"}
    assert verdict.details["pq_exact"]["ok"] and not verdict.details["pq_erased"]["misses"]


def test_check_timer_elimination_reports_unsound_counters(monkeypatch):
    import mobilemem.explore as explore

    monkeypatch.setattr(explore, "counter_soundness_violations", lambda config, labels: ["fake"])
    verdict = check_timer_elimination(s1(), [E1], 2)
    assert verdict.ok is False
    (witness,) = verdict.details["witnesses"]
    assert witness["counter_soundness"][0]["problems"] == ["fake"]


def _embedding_pair():
    u = UConfig(umem("skin", [], [umem("h", [a]), umem("m", [a.dual()])]))
    return u, [EndoRule("h", "m", Multiset([a]), w=((c, Fresh(INF)),), name="E")]


def _altered_membrane_graphs(monkeypatch, alter):
    import mobilemem.explore as explore

    real = explore.explore_membranes

    def altered(*args):
        graph = real(*args)
        alter(graph)
        return graph

    monkeypatch.setattr(explore, "explore_membranes", altered)


def test_check_embedding_reports_unequal_node_sets():
    u, rules = _embedding_pair()
    timed_config, _timed_rules = embed_infinite(u, rules)
    verdict = check_embedding(u, rules, 2, embedded=(timed_config, ()))
    assert verdict.ok is False
    witness = verdict.details["witnesses"][0]
    assert witness["missing_in_embedding"] and not witness["extra_in_embedding"]


def test_check_embedding_reports_unequal_depths(monkeypatch):
    def deeper(graph):
        for key, record in graph.nodes.items():
            record.depth += key != graph.root

    _altered_membrane_graphs(monkeypatch, deeper)
    u, rules = _embedding_pair()
    verdict = check_embedding(u, rules, 2)
    assert verdict.ok is False
    assert verdict.details["witnesses"][0]["depth_mismatch"]


def test_check_embedding_reports_unequal_edges(monkeypatch):
    _altered_membrane_graphs(monkeypatch, lambda graph: graph.edges.pop())
    u, rules = _embedding_pair()
    verdict = check_embedding(u, rules, 2)
    assert verdict.ok is False
    (witness,) = verdict.details["witnesses"]
    assert len(witness["missing_edges"]) == 1 and not witness["extra_edges"]


def _counters_beside_bystanders():
    """3,000 bystanders beside two counters that step by 1 or 2, untimed
    and embedded, as (explore function, system) pairs."""
    n = [Symbol(f"n{i}") for i in range(10)]
    kids = [umem(f"z{i % 7}", [c] * 5) for i in range(3000)] + [umem("k", [n[0]]), umem("j", [n[0]])]
    rules = [RewriteRule(at, Multiset([n[i]]), ((n[i + s], Fresh(INF)),)) for at in "kj" for i in range(8) for s in (1, 2)]
    config = UConfig(umem("skin", [], kids))
    return ((explore_untimed, (config, rules)), (explore_membranes, embed_infinite(config, rules)))


def _held_by_indexes(explore, system, *args):
    """(the graph ``explore(*system, *args)`` returns, the bytes it holds,
    the bytes dropping every index of its states frees), under
    tracemalloc; a ``BudgetExceeded`` gives the partial graph it carries."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        try:
            graph = explore(*system, *args)
        except BudgetExceeded as err:
            graph = err.graph
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
        for state in graph.objects.values():
            drop_index(state)
        gc.collect()
        freed = held - (tracemalloc.get_traced_memory()[0] - base)
    finally:
        tracemalloc.stop()
    return graph, held, freed


def test_an_explored_graph_holds_no_index():
    """A step's result carries its work tree, which holds its source's
    whole index, until the result is expanded. The last level is never
    expanded, so the BFS drops what those states carry: dropping every
    index of the returned graph frees nothing more. Before the last level
    was dropped it freed about half of what the graph held (7.8 of 15.9
    MB untimed, tracemalloc on Python 3.11). Depth 4."""
    for explore, system in _counters_beside_bystanders():
        graph, held, freed = _held_by_indexes(explore, system, 4)
        assert len(graph.nodes) == 41
        assert freed <= held // 100, f"{explore.__name__}: {freed} of {held} bytes held by indexes"


def test_successor_relations_leave_their_arguments_index_in_place():
    """Dropping an expanded state's index is the explorer's (``_bfs``):
    ``successors``, on a whole state and on one composed from its parts,
    ``u_successors`` and ``literal_successors`` leave their argument's
    index in place."""
    p = w4(2)
    image, generated = translate(p), generate_rules(p)
    for relation, state, rules in [
        (successors, *random_timed_system(0)),
        (successors, image, generated),
        (u_successors, *random_untimed_system(0)),
        (literal_successors, image, generated),
    ]:
        index = index_of(state)
        assert relation(state, rules)
        assert state._index is index, relation.__name__


def test_a_partial_graph_holds_no_index():
    """The same for the partial graph of a search stopped by its node cap:
    the states not yet expanded when the cap is hit drop their work trees
    before ``BudgetExceeded`` is raised. Before they did, the untimed
    graph held 11.8 MB, of which dropping the indexes freed 6.1
    (tracemalloc on Python 3.11). Depth 4, ``max_nodes=30``."""
    for explore, system in _counters_beside_bystanders():
        graph, held, freed = _held_by_indexes(explore, system, 4, 30)
        assert graph.truncated and len(graph.nodes) == 30
        assert freed <= held // 100, f"{explore.__name__}: {freed} of {held} bytes held by indexes"


def test_a_rewrite_with_an_empty_left_side_is_refused_where_its_table_is_built():
    # it binds nothing, so a choice could take it without end; the matchers
    # are asked first, as they listed its instances before it was refused
    rule = RewriteRule("p", Multiset(), ((a, Fresh(3)),))
    config = Configuration(mem("skin", INF, [], [mem("p", 5)]))
    calls = [
        lambda: find_instances(config, [rule]),
        lambda: u_find_instances(UConfig(umem("skin", [], [umem("p", [])])), [rule]),
        lambda: explore_membranes(config, [rule], 3),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^rule r0: rewrite left side is empty$"):
            call()


def _naive_record(state, timed: bool) -> tuple:
    """(membranes, output, per_membrane) of a state, by a walk of its own."""
    count, per = 0, []
    stack = [state.skin]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
        if node.label == state.output_label:
            syms = [str(entry[0] if timed else entry) for entry, n in node.content.items() for _ in range(n)]
            per.append((node.uid, tuple(sorted(syms))))
    per.sort()
    return count, tuple(sorted(sym for _uid, syms in per for sym in syms)), tuple(per) if timed else ()


def test_every_record_reads_its_state_as_a_naive_walk_does():
    for explore, generate, timed in ((explore_membranes, random_timed_system, True),
                                     (explore_untimed, random_untimed_system, False)):
        for seed in range(40):
            graph = explore(*generate(seed), 4)
            for key, record in graph.nodes.items():
                got = (record.membranes, record.output, record.per_membrane)
                assert got == _naive_record(graph.objects[key], timed), (timed, seed, key)


def _prop2_by_depth(config, rules, depth) -> dict:
    """prop2's verdict JSON as it was computed before least depths: both
    cumulative projected sets rebuilt for every bound k <= depth."""
    compiled_config, compiled_rules = eliminate_timers(config, rules)
    counter_labels = {node.label for node in config.skin.walk() if node.timer != INF}
    timed_graph = explore_membranes(config, rules, depth)
    compiled_graph = explore_untimed(compiled_config, compiled_rules, depth)
    details = {
        "timed_nodes": len(timed_graph.nodes),
        "compiled_nodes": len(compiled_graph.nodes),
        "initial_membranes_equal":
            sum(1 for _ in config.skin.walk()) == sum(1 for _ in compiled_config.skin.walk()),
    }
    witnesses = []
    soundness = []
    for key in compiled_graph.nodes:
        problems = counter_soundness_violations(compiled_graph.objects[key], counter_labels)
        if problems:
            soundness.append({"state": key, "problems": problems})
    if soundness:
        witnesses.append({"counter_soundness": soundness[:3]})
    timed_proj, compiled_proj = (
        {key: (erased_key(g.objects[key], _counter_of), r.depth) for key, r in g.nodes.items()}
        for g in (timed_graph, compiled_graph)
    )
    for k in range(depth + 1):
        timed_set = {pk for pk, d in timed_proj.values() if d <= k}
        compiled_set = {pk for pk, d in compiled_proj.values() if d <= k}
        if timed_set != compiled_set:
            witnesses.append({
                "depth": k,
                "only_timed": sorted(timed_set - compiled_set)[:3],
                "only_compiled": sorted(compiled_set - timed_set)[:3],
            })
            break
    details["witnesses"] = witnesses
    return {"check": "prop2", "verdict": "fail" if witnesses else "pass", "details": details}


def _assert_prop2_reads_least_depths_as_the_per_depth_loop(seeds) -> int:
    """The verdicts of seeds' timed systems at depths 0-6; returns how many
    name a depth."""
    named = 0
    for seed in seeds:
        for depth in range(7):
            want = _prop2_by_depth(*random_timed_system(seed), depth)
            assert check_timer_elimination(*random_timed_system(seed), depth).to_json() == want, (seed, depth)
            named += any("depth" in w for w in want["details"]["witnesses"])
    return named


def test_prop2_reads_least_depths_as_the_per_depth_loop_reads_its_sets():
    assert _assert_prop2_reads_least_depths_as_the_per_depth_loop(range(120)) == 0


def test_prop2_names_the_per_depth_loop_s_depth_for_lifetimes_one_short(monkeypatch):
    # a planted fault: every compiled object and membrane dies a tick early
    tick_family = compiler._tick_family
    monkeypatch.setattr(compiler, "_tick_family",
                        lambda base, life, *rest: tick_family(base, max(life - 1, 0), *rest))
    assert _assert_prop2_reads_least_depths_as_the_per_depth_loop(range(120)) > 600
