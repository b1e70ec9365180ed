"""Acceptance suite: one test per criterion, exact expectations, timed.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import json
import time

from mobilemem.core import (
    INF,
    Configuration,
    EndoRule,
    ExoRule,
    Multiset,
    Symbol,
    at_rest,
    canonicalize,
    mem,
)
from mobilemem.engine import apply_step, maximal_choices, run
from mobilemem.ambient import (
    Amb,
    Capability,
    Prefix,
    ZERO,
    congruent,
    par,
    parse_ambient,
    phi_delta,
    reduce_step,
    render_process,
)
from mobilemem.translate import (
    check_correspondence_PQ,
    check_preimage_reordering,
    generate_rules,
    translate,
)
from mobilemem.explore import check_embedding, check_timer_elimination, check_translation, explore_ambients
from mobilemem.sysfile import SystemFile, parse_system, render_system
from mobilemem.cli import main
from mobilemem import corpus
import systems

a, b, c, x = Symbol("a"), Symbol("b"), Symbol("c"), Symbol("x")


def _timed(name, bound, t0):
    elapsed = time.perf_counter() - t0
    assert elapsed < bound, f"{name}: {elapsed:.2f}s exceeds {bound}s"
    print(f"PASS {name} ({elapsed:.2f}s < {bound}s)")


def test_criterion_semantics_unit_suite():
    t0 = time.perf_counter()

    # object time-passing: a:3 becomes a:2
    cfg = Configuration(mem("skin", INF, [(a, 3)]))
    assert canonicalize(apply_step(cfg, ())) == "skin:inf{a:2}[]|out=skin"

    # object dissolution: a:0 is removed
    cfg = Configuration(mem("skin", INF, [(a, 0)]))
    assert canonicalize(apply_step(cfg, ())) == "skin:inf{}[]|out=skin"

    # mutual endocytosis: the active membrane's timer drops by one inside
    # the rule; the passive membrane is not decremented by the rule (it
    # ticks once like any bystander, not twice)
    rule = EndoRule("h", "m", Multiset([a]), name="e")
    cfg = Configuration(mem("skin", INF, [], [
        mem("h", 3, [(a, 1)]), mem("m", 5, [(a.dual(), 2)]),
    ]))
    (choice,) = maximal_choices(cfg, [rule])
    assert canonicalize(apply_step(cfg, choice)) == \
        "skin:inf{}[m:4{}[h:2{}[]]]|out=skin"

    # mutual exocytosis: same timer discipline
    xrule = ExoRule("h", "m", Multiset([a]), name="x")
    cfg = Configuration(mem("skin", INF, [], [
        mem("m", 5, [(a.dual(), 2)], [mem("h", 3, [(a, 1)])]),
    ]))
    (choice,) = maximal_choices(cfg, [xrule])
    assert canonicalize(apply_step(cfg, choice)) == \
        "skin:inf{}[h:2{}[] m:4{}[]]|out=skin"

    # membrane time-passing
    cfg = Configuration(mem("skin", INF, [], [mem("k", 5)]))
    assert canonicalize(apply_step(cfg, ())) == "skin:inf{}[k:4{}[]]|out=skin"

    # membrane dissolution at timer 0: marker, then contents to the parent
    cfg = Configuration(mem("skin", INF, [], [mem("k", 0, [(x, 5)])]))
    assert canonicalize(apply_step(cfg, ())) == "skin:inf{x:4}[]|out=skin"

    # inf - 1 = inf
    cfg = Configuration(mem("skin", INF, [(a, INF)], [mem("k", INF)]))
    assert canonicalize(apply_step(cfg, ())) == canonicalize(cfg)

    # clock clauses: prefix with positive timer
    assert systems.exact(phi_delta(Prefix(Capability("in", False, "m", 3)))) == \
        systems.exact(Prefix(Capability("in", False, "m", 2)))
    # prefix at 0 releases the continuation unticked
    assert systems.exact(phi_delta(Prefix(Capability("in", False, "m", 0), Amb("n", 1, ZERO)))) == \
        systems.exact(Amb("n", 1, ZERO))
    # parallel is componentwise
    assert congruent(
        phi_delta(par(Amb("n", 2, ZERO), Prefix(Capability("out", False, "k", 1)))),
        par(Amb("n", 1, ZERO), Prefix(Capability("out", False, "k", 0))),
    )
    # ambient with positive timer: body recursed, tag reset to active
    assert systems.exact(phi_delta(Amb("n", 1, Prefix(Capability("in", False, "m", 2)), tag="p"))) == \
        systems.exact(Amb("n", 0, Prefix(Capability("in", False, "m", 1)), tag="a"))
    # ambient at 0 releases its body unticked
    assert systems.exact(phi_delta(Amb("n", 0, Prefix(Capability("in", False, "m", 2))))) == \
        systems.exact(Prefix(Capability("in", False, "m", 2)))
    # inactivity is a fixpoint
    assert systems.exact(phi_delta(ZERO)) == systems.exact(ZERO)

    _timed("semantics unit suite", 1.0, t0)


def test_criterion_maximality_soak():
    t0 = time.perf_counter()
    total = 0
    for seed in range(20):
        cfg, rules = systems.random_soak_system(seed)
        trace = run(cfg, rules, 50, selector="random", seed=seed)
        current = cfg
        for record in trace.records:
            assert systems.residual_instances(current, record.choice, rules) == [], \
                f"seed {seed} step {record.index}"
            current = apply_step(current, record.choice)
            assert canonicalize(current) == record.key, f"seed {seed} step {record.index}"
        total += len(trace.records)
    assert total == 1000
    _timed(f"maximality audit over {total} steps", 30.0, t0)


def test_criterion_embedding_equivalence():
    t0 = time.perf_counter()
    for seed in range(20):
        config, rules = corpus.random_untimed_system(seed)
        verdict = check_embedding(config, rules, 4)
        assert verdict.ok, (seed, verdict.details)
    _timed("infinite-timer embedding, 20 systems, depth 4", 60.0, t0)


def test_criterion_timer_elimination():
    t0 = time.perf_counter()
    dissolving = expiring = 0
    for seed in range(20):
        config, rules = corpus.random_timed_system(seed)
        verdict = check_timer_elimination(config, rules, 4)
        assert verdict.ok, (seed, verdict.details)

        from mobilemem.explore import explore_membranes

        graph = explore_membranes(config, rules, 4)
        # explored states hold deadlines; at rest they hold remaining timers
        live = [at_rest(graph.objects[k]) for k, rec in graph.nodes.items() if rec.depth < 4]
        if any(node.timer == 0 for state in live for node in state.skin.walk() if node.label != "skin"):
            dissolving += 1
        if any(
            t == 0
            for state in live
            for node in state.skin.walk()
            for (_s, t), _n in node.content.items()
        ):
            expiring += 1
    assert dissolving >= 3, dissolving
    assert expiring >= 3, expiring
    _timed(
        f"timer elimination, 20 systems, depth 4 "
        f"({dissolving} dissolve, {expiring} expire)",
        120.0, t0,
    )


def test_criterion_translation_shape(tmp_path):
    t0 = time.perf_counter()
    process = systems.reorder_demo_process()
    config = translate(process)
    assert canonicalize(config) == \
        "skin:inf{}[m:6{~in_m:5}[] n:4{in_k:2,in_m:1,out_s:3}[]]|out=skin"
    rules = generate_rules(process)
    assert sorted(r.name for r in rules) == ["in:n>m", "out:n<m"]

    amb_file = tmp_path / "demo.amb"
    amb_file.write_text(render_process(process) + "\n")
    mms_file = tmp_path / "demo.mms"
    graph_file = tmp_path / "graph.json"
    assert main(["translate", str(amb_file), "-o", str(mms_file)]) == 0
    assert main(["explore", str(mms_file), "--depth", "1", "--graph", str(graph_file)]) == 0
    keys = [n["key"] for n in json.loads(graph_file.read_text())["nodes"]]
    assert "skin:inf{}[m:5{}[n:3{in_k:1,out_s:2}[]]]|out=skin" in keys
    _timed("translation shape and one-step reachability", 1.0, t0)


def test_criterion_correspondence():
    t0 = time.perf_counter()
    processes = systems.hand_processes() + [systems.reorder_demo_process()]
    assert len(processes) == 11
    for i, p in enumerate(processes):
        verdict = check_translation(p, 2)
        assert verdict.ok, (i, verdict.details)
        assert verdict.details["pq_erased"]["misses"] == [], i
        strict = check_correspondence_PQ(explore_ambients(p, 2))
        assert strict["ok"], (i, strict)
    _timed("movement correspondence, 11 processes, depth 2", 60.0, t0)


def test_criterion_reordered_preimage():
    t0 = time.perf_counter()
    process = systems.reorder_demo_process()
    report = check_preimage_reordering(process)
    assert report["reordering_found"]
    (target,) = report["targets"]
    reordered = "m:6^a[n:4^a[out:3 s.in:2 k.0]]"
    assert reordered in target["unreachable_preimages"]
    q = parse_ambient("m:6[ n:4[ out:3 s . in:2 k ] ]")
    assert canonicalize(translate(q)) == target["n_key"]
    assert all(not congruent(q, r) for r in reduce_step(process))
    _timed("reordered preimage outside the reduction relation", 1.0, t0)


def test_criterion_determinism_and_roundtrip(tmp_path):
    t0 = time.perf_counter()
    cfg, rules = systems.random_soak_system(2)
    first = run(cfg, rules, 30, selector="random", seed=11).to_jsonl()
    second = run(cfg, rules, 30, selector="random", seed=11).to_jsonl()
    assert first.encode() == second.encode()

    source = render_system(SystemFile(True, "skin", cfg, rules))
    path = tmp_path / "soak.mms"
    path.write_text(source)
    trace_a = tmp_path / "a.jsonl"
    trace_b = tmp_path / "b.jsonl"
    assert main(["sim", str(path), "--steps", "20", "--seed", "3", "--trace", str(trace_a)]) == 0
    assert main(["sim", str(path), "--steps", "20", "--seed", "3", "--trace", str(trace_b)]) == 0
    assert trace_a.read_bytes() == trace_b.read_bytes()

    for seed in range(100):
        config, rules = corpus.random_timed_system(seed)
        sf = SystemFile(True, "skin", config, rules)
        assert render_system(parse_system(render_system(sf))) == render_system(sf)
    for seed in range(100):
        config, rules = corpus.random_untimed_system(seed)
        sf = SystemFile(False, "skin", config, rules)
        assert render_system(parse_system(render_system(sf))) == render_system(sf)
    for seed in range(200):
        p = systems.random_process(seed)
        assert congruent(parse_ambient(render_process(p)), p)
    _timed("determinism and parse/print round-trips", 30.0, t0)
