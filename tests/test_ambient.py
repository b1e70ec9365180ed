import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
import reference as ref
from mobilemem.core import INF
from mobilemem.ambient import (
    Amb,
    AmbientSyntaxError,
    Capability,
    Par,
    Prefix,
    ZERO,
    _rebuild,
    canonical_key,
    congruent,
    erase_tags,
    normalize,
    par,
    parse_ambient,
    phi_delta,
    redexes,
    reduce_step,
    render_process,
    subterms,
)
from mobilemem.corpus import random_reducible_process
from systems import hand_processes, random_process, reorder_demo_process
from mobilemem.explore import check_translation, explore_ambients
from mobilemem.translate import translate


def cap(kind, t, target, co=False):
    return Capability(kind, co, target, t)


def _capabilities(p):
    return [q.cap for q in subterms(p) if isinstance(q, Prefix)]


# ---------------------------------------------------------------------------
# Parsing and rendering

def test_parse_demo_process():
    p = parse_ambient("n:4[ in:1 m . in:2 k . out:3 s ] | m:6[ ~in:5 m ]")
    assert canonical_key(p) == \
        "(m:6^a[~in:5 m.0] | n:4^a[in:1 m.in:2 k.out:3 s.0])"


def test_parse_zero_and_unit_law():
    assert parse_ambient("0") == ZERO
    p = parse_ambient("a:inf[ 0 ] | 0")
    assert p == Amb("a", INF, ZERO)


def test_parse_errors_carry_positions():
    with pytest.raises(AmbientSyntaxError) as err:
        parse_ambient("n:4[ in:1 ]")
    assert err.value.line == 1
    with pytest.raises(AmbientSyntaxError, match=r"^2:4: unexpected character '\$'$"):
        parse_ambient("n:4[]\n  b$:1[]")  # '$' belongs to .mms names only
    with pytest.raises(AmbientSyntaxError):
        parse_ambient("n:-3[]")
    with pytest.raises(AmbientSyntaxError):
        parse_ambient("inf:2[]")  # reserved word as a name


def test_render_roundtrip_on_random_processes():
    for seed in range(60):
        p = random_process(seed)
        again = parse_ambient(render_process(p))
        assert congruent(again, p), seed


def test_render_of_a_deep_nesting_does_not_recurse():
    n = 5000
    p = Amb("n", 1)
    for _ in range(n - 1):
        p = Amb("n", 1, p)
    assert render_process(p) == "n:1[ " * (n - 1) + "n:1[]" + " ]" * (n - 1)


def test_congruence():
    p = parse_ambient("n:1[] | m:2[]")
    q = parse_ambient("m:2[] | n:1[]")
    assert congruent(p, q)
    assert congruent(parse_ambient("n:1[] | 0"), parse_ambient("n:1[]"))
    assert not congruent(parse_ambient("n:1[]"), parse_ambient("n:2[]"))


# ---------------------------------------------------------------------------
# Time progress

def test_tick_decrements_a_positive_prefix():
    p = Prefix(cap("in", 3, "m"))
    assert phi_delta(p) == Prefix(cap("in", 2, "m"))


def test_expired_prefix_releases_continuation_unticked():
    p = Prefix(cap("in", 0, "m"), Amb("n", 1, ZERO))
    assert phi_delta(p) == Amb("n", 1, ZERO)  # the continuation is not ticked


def test_ambient_tick_recurses_and_reactivates():
    p = Amb("n", 1, Prefix(cap("in", 2, "m")), tag="p")
    assert phi_delta(p) == Amb("n", 0, Prefix(cap("in", 1, "m")), tag="a")


def test_expired_ambient_releases_body_unticked():
    p = Amb("n", 0, Prefix(cap("in", 2, "m")))
    assert phi_delta(p) == Prefix(cap("in", 2, "m"))


def test_tick_is_componentwise_and_total():
    p = par(Amb("n", 2, ZERO), Prefix(cap("out", 1, "k")))
    q = phi_delta(p)
    assert congruent(q, par(Amb("n", 1, ZERO), Prefix(cap("out", 0, "k"))))
    assert phi_delta(ZERO) == ZERO


def test_inf_timers_only_tags_change():
    p = Amb("n", INF, Amb("k", INF, ZERO, tag="p"), tag="p")
    q = phi_delta(p)
    assert q == Amb("n", INF, Amb("k", INF, ZERO, tag="a"), tag="a")


# ---------------------------------------------------------------------------
# Redexes and reduction

def test_demo_has_exactly_one_redex():
    assert len(redexes(reorder_demo_process())) == 1


def test_passive_mover_blocks_the_redex():
    p = par(
        Amb("n", 4, Prefix(cap("in", 1, "m")), tag="p"),
        Amb("m", 6, Prefix(cap("in", 5, "m", co=True))),
    )
    assert redexes(p) == []


def test_zero_timer_anywhere_blocks_the_redex():
    for broken in [
        "n:0[ in:1 m ] | m:6[ ~in:5 m ]",
        "n:4[ in:0 m ] | m:6[ ~in:5 m ]",
        "n:4[ in:1 m ] | m:0[ ~in:5 m ]",
        "n:4[ in:1 m ] | m:6[ ~in:0 m ]",
    ]:
        assert redexes(parse_ambient(broken)) == []


def test_extra_junk_next_to_the_co_prefix_blocks_entry():
    p = parse_ambient("n:4[ in:1 m ] | m:6[ ~in:5 m | k:3[] ]")
    assert redexes(p) == []


def test_no_redexes_in_zero():
    assert redexes(ZERO) == []


def test_demo_reduct():
    results = reduce_step(reorder_demo_process())
    assert [canonical_key(q) for q in results] == [
        "m:6^a[n:4^p[in:2 k.out:3 s.0]]"
    ]


def test_two_disjoint_redexes_make_three_successors():
    p = parse_ambient(
        "n1:4[ in:3 m1 ] | m1:4[ ~in:3 m1 ] | n2:4[ in:3 m2 ] | m2:4[ ~in:3 m2 ]"
    )
    results = reduce_step(p)
    assert len(results) == 3  # left, right, both


def test_timepass_when_no_redex():
    p = parse_ambient("n:2[]")
    results = reduce_step(p)
    assert results == [Amb("n", 1, ZERO)]


def test_exit_redex():
    p = parse_ambient("m:8[ n:6[ out:3 m ] | ~out:4 m ]")
    (q,) = reduce_step(p)
    assert canonical_key(q) == "(m:8^a[0] | n:6^p[0])"


def test_movers_become_passive_then_reactivate():
    p = reduce_step(reorder_demo_process())[0]
    assert "^p[" in canonical_key(p)
    ticked = reduce_step(p)  # no redex inside: clock tick
    assert len(ticked) == 1
    assert "^p[" not in canonical_key(ticked[0])


def test_no_passive_tags_after_clock_tick_with_live_ambients():
    # every ambient with a positive timer is recursively reactivated
    for seed in range(40):
        p = random_reducible_process(seed)
        for q in reduce_step(p):
            if redexes(q):
                continue
            (ticked,) = reduce_step(q)
            assert "^p[" not in canonical_key(ticked)


def test_capability_count_never_grows_under_movement():
    for seed in range(40):
        p = random_reducible_process(seed)
        before = len(_capabilities(p))
        for q in reduce_step(p):
            if redexes(p):
                assert len(_capabilities(q)) < before


def test_simultaneous_firing_equals_sequential_firing():
    # disjoint redexes commute: everything a joint step reaches is reached
    # by two single steps
    for seed in range(25):
        p = random_reducible_process(seed)
        if not redexes(p):
            continue
        results = {canonical_key(q) for q in reduce_step(p)}
        sequential = set()
        for q in reduce_step(p):
            sequential.add(canonical_key(q))
            if redexes(q):
                sequential.update(canonical_key(r) for r in reduce_step(q))
        assert results <= sequential


def test_erase_tags():
    p = Amb("n", 3, Amb("k", 2, ZERO, tag="p"), tag="p")
    assert erase_tags(p) == Amb("n", 3, Amb("k", 2, ZERO))


def test_normalize_keeps_normal_terms_and_rebuilds_the_rest():
    # reducts and parsed terms are normal and come back as they are; a
    # hand-built composition is rebuilt through par, and reduces as its
    # normal form does
    for seed in range(20):
        frontier = [random_reducible_process(seed), random_process(seed)]
        for _ in range(3):
            assert all(normalize(q) is q for q in frontier), seed
            frontier = [r for q in frontier for r in reduce_step(q)]
    x = Amb("x", 3, Prefix(cap("in", 2, "y")))
    y = Amb("y", 4, Prefix(cap("in", 3, "y", co=True)))
    odd = [
        Par((y, x)),
        Par((x, ZERO, y)),
        Par((x,)),
        Par((Par((y, x)), ZERO)),
        Amb("n", 5, Par((y, Par((x,))))),
        Prefix(cap("out", 1, "n"), Par((ZERO, ZERO))),
    ]
    for p in odd:
        q = normalize(p)
        assert q is not p and q == _rebuild(p, None)
        assert normalize(q) is q
        assert [canonical_key(r) for r in reduce_step(p)] == [canonical_key(r) for r in reduce_step(q)]
        assert redexes(p) == redexes(q)


def test_reduction_agrees_with_the_recursive_oracle():
    # tests/reference.py keeps the recursive time progress, redex search
    # and reduct enumeration; on every corpus process and each of its
    # reducts, the folds give the same reducts, tick and redex count
    roots = [random_process(seed) for seed in range(300)]
    roots += [random_reducible_process(seed) for seed in range(100)]
    roots += hand_processes()
    roots += [parse_ambient(text) for text in (  # redexes that compete for a slot
        "n:9[ in:5 m | in:5 m | in:5 m ] | m:9[ ~in:5 m ]",
        "a:5[ in:3 m ] | b:5[ in:3 m . in:2 k ] | m:5[ ~in:3 m ] | k:4[ ~in:3 k ]",
        "a:5[ in:3 m | in:3 k ] | m:5[ ~in:3 m ] | m:6[ ~in:3 m ] | k:5[ ~in:3 k ]",
        "m:8[ n:6[ out:3 m | out:2 m ] | ~out:4 m ] | k:3[ in:2 m ] | m:7[ ~in:2 m ]",
    )]
    moved = 0
    for root in roots:
        for p in [root, *reduce_step(root)]:
            reducts = reduce_step(p)
            assert ([canonical_key(q) for q in reducts], reducts.moved) == ref.amb_reduce_step(p), canonical_key(p)
            assert phi_delta(p) == ref.amb_phi_delta(p)
            assert redexes(p) == ref.amb_redexes(p)
            moved += reducts.moved
    assert moved > 100


# ---------------------------------------------------------------------------
# Deep inputs

DEEP = 2000  # twice the default recursion limit


def _deep_processes():
    """A nest of DEEP ambients with a redex at the bottom, and a chain of
    DEEP prefixes under one ambient whose first prefix can fire."""
    nest = par(Amb("k", 3, Prefix(cap("in", 2, "m"))), Amb("m", 3, Prefix(cap("in", 2, "m", co=True))))
    for _ in range(DEEP - 1):
        nest = Amb("n", 3, nest)
    chain = ZERO
    for _ in range(DEEP):
        chain = Prefix(cap("in", 2, "m"), chain)
    chain = par(Amb("k", 3, chain), Amb("m", 3, Prefix(cap("in", 2, "m", co=True))))
    return {"nest": nest, "chain": chain}


def test_deep_processes_compare_and_hash_without_recursion():
    one, two = _deep_processes()["nest"], _deep_processes()["nest"]
    assert one == two and not one != two and hash(one) == hash(two)
    assert parse_ambient(render_process(one)) == one
    assert one != _deep_processes()["chain"] and one != Amb("n", 2, one.body)
    for seed in range(40):  # shallow terms: equal exactly when their keys are
        p, q = random_process(seed), random_process(seed + 1)
        assert p == parse_ambient(render_process(p)) and hash(p) == hash(parse_ambient(render_process(p)))
        assert (p == q) == (canonical_key(p) == canonical_key(q))


@pytest.mark.parametrize("shape", ["nest", "chain"])
def test_deep_processes_reduce_translate_and_check_without_recursion(shape, tmp_path):
    p = _deep_processes()[shape]
    text = render_process(p)
    assert canonical_key(parse_ambient(text)) == canonical_key(p)  # == on frozen nodes recurses
    assert len(redexes(p)) == 1
    (q,) = reduce_step(p)
    assert "^p[" in canonical_key(q) and "^p[" not in canonical_key(phi_delta(q))
    assert len(explore_ambients(p, 2).nodes) == 3  # the move, then the tick
    assert check_translation(p, 1).ok is True
    assert translate(p).skin.children
    path = tmp_path / f"{shape}.amb"
    path.write_text(text)
    for command, options in ((["translate"], []), (["explore"], ["--depth", "1"]), (["check", "prop45"], ["--depth", "1"])):
        done = subprocess.run(
            [sys.executable, "-m", "mobilemem", *command, str(path), *options],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0 and "Traceback" not in done.stderr, (command, done.stderr[-500:])
