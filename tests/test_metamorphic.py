"""Metamorphic relations: two runs whose outputs must agree, where no
oracle says what either output is.

- Hash seed: the command line prints the same bytes, and writes the same
  files, under ``PYTHONHASHSEED`` 0, 1 and 2.
- Inert bystander: a membrane that no rule names, added to the skin,
  changes no node count, edge count or verdict.
- Clock invariance: every function of the package reads a clocked state
  (one that ``run``, ``explore_membranes`` or ``successors`` returns) as
  it reads its ``core.at_rest`` form.
- Product law: two timed systems side by side under one skin, with no
  rule relating them, reach in exactly m steps as many states as the
  product of what each reaches alone in exactly m steps.
- Renaming: renaming labels and symbols consistently changes no node
  count, edge count or verdict, and maps each reach graph onto the
  renamed system's.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from string import ascii_lowercase, digits

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mobilemem
from conftest import examples, w4
from mobilemem import ambient as amb, engine
from mobilemem.ambient import canonical_key
from mobilemem.compiler import eliminate_timers, lifetime
from mobilemem.core import (
    DELTA_NAME, INF, Configuration, MembraneNode, Multiset, RewriteRule, RuleSet, Symbol, at_rest, canonicalize,
    mem, output_reading, rebuild_tree, validate,
)
from mobilemem.corpus import random_reducible_process, random_timed_system, random_untimed_system
from mobilemem.engine import run, successors
from mobilemem.explore import (
    check_embedding, check_timer_elimination, check_translation, explore_ambients, explore_membranes,
    explore_untimed,
)
from mobilemem.sysfile import SystemFile, parse_system, render_system
from mobilemem.translate import generate_rules, has_preimage, literal_successors, some_preimage, translate
from mobilemem.untimed import UNode, u_canonicalize, umem
from systems import renumber

_DRIVE = """
import contextlib, hashlib, io, os, sys
from pathlib import Path
from mobilemem.ambient import render_process
from mobilemem.cli import main
from mobilemem.corpus import random_reducible_process, random_timed_system, random_untimed_system
from mobilemem.sysfile import SystemFile, parse_system, render_system

os.chdir(sys.argv[1])
digest = hashlib.sha256()


def drive(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    digest.update(repr((argv, code, out.getvalue(), err.getvalue())).encode())


for seed in range(3):
    s = str(seed)
    for kind, (config, rules) in (("t", random_timed_system(seed)), ("u", random_untimed_system(seed))):
        name = f"{kind}{seed}.mms"
        Path(name).write_text(render_system(SystemFile(kind == "t", "skin", config, rules)))
        drive("sim", name, "--steps", "8", "--seed", s, "--trace", name + ".trace")
        drive("explore", name, "--depth", "4", "--graph", name + ".graph")
        drive("output", name, "--steps", "20", "--seed", s)
        drive("check", "prop2" if kind == "t" else "prop1", name, "--depth", "4")
    drive("compile", f"t{seed}.mms", "-o", f"t{seed}.compiled.mms")
    Path(f"r{seed}.amb").write_text(render_process(random_reducible_process(seed)))
    drive("translate", f"r{seed}.amb", "-o", f"r{seed}.mms")
    drive("translate", f"r{seed}.amb", "--strict-def4", "-o", f"r{seed}.strict.mms")
    drive("sim", f"r{seed}.mms", "--steps", "6", "--seed", s, "--trace", f"r{seed}.trace")
    drive("explore", f"r{seed}.strict.mms", "--depth", "3", "--graph", f"r{seed}.graph")
    drive("check", "prop2", f"r{seed}.strict.mms", "--depth", "3")
    drive("check", "prop45", f"r{seed}.amb", "--depth", "3")
for path in sorted(Path().iterdir()):
    digest.update(path.name.encode() + b"\\0" + path.read_bytes())
print(digest.hexdigest())
"""


def test_the_command_line_prints_the_same_bytes_under_every_hash_seed(tmp_path):
    src = str(Path(mobilemem.__file__).resolve().parents[1])
    digests = []
    for seed in ("0", "1", "2"):
        work = tmp_path / seed
        work.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", _DRIVE, str(work)], capture_output=True, text=True,
                              timeout=120, env=env, check=True)
        digests.append(done.stdout)
    assert len(digests[0]) == 65 and digests[0] == digests[1] == digests[2]


def _beside(config, bystander):
    """``config`` with ``bystander`` added to its skin, uids 1..n."""
    return renumber(replace(config, skin=replace(config.skin, children=config.skin.children + (bystander,))))


def _shape(verdict) -> tuple:
    """A verdict with its keys left out: its outcome, its node counts and
    the number of its witnesses."""
    counts = {k: v for k, v in verdict.details.items() if k.endswith("_nodes")}
    return verdict.ok, counts, len(verdict.details["witnesses"])


def test_an_inert_bystander_changes_no_count_and_no_verdict():
    # timed: an ``inf`` membrane holding an ``inf`` object; the compiler
    # refuses ``inf`` objects, so prop2's bystander is empty
    q = Symbol("q")
    for seed in range(10):
        config, rules = random_timed_system(seed)
        config = renumber(config)
        plain = explore_membranes(config, rules, 4)
        grown = explore_membranes(_beside(config, mem("zz", INF, [(q, INF)])), rules, 4)
        assert (len(grown.nodes), len(grown.edges)) == (len(plain.nodes), len(plain.edges)), seed
        assert _shape(check_timer_elimination(_beside(config, mem("zz", INF)), rules, 4)) == \
            _shape(check_timer_elimination(config, rules, 4)), seed
        config, rules = random_untimed_system(seed)
        config = renumber(config)
        assert _shape(check_embedding(_beside(config, umem("zz", [q])), rules, 4)) == \
            _shape(check_embedding(config, rules, 4)), seed


def _outcome(read, *args):
    """What ``read(*args)`` gives, or the type and message of the error
    it raises."""
    try:
        return read(*args)
    except Exception as err:  # a refusal is an outcome to compare too
        return type(err).__name__, str(err)


def _compiled(config, rules) -> tuple:
    compiled, compiled_rules = eliminate_timers(config, rules)
    return len(compiled_rules), u_canonicalize(compiled)


def _readings(config, rules, depth: int, translated: bool) -> dict:
    """Everything the package reads of ``config`` that must not depend on
    its clock. A symbol no state holds has a lifetime that only the rules
    give, so only the held symbols' lifetimes are read."""
    symbols = {sym for node in config.skin.walk() for (sym, _t), _n in node.content.items()}
    readings = {
        "key": canonicalize(config),
        "output": output_reading(config),
        "validate": validate(config, rules),
        "render": _outcome(render_system, SystemFile(True, config.output_label, config, rules)),
        "compiled": _outcome(_compiled, config, rules),
        "lifetimes": {str(sym): _outcome(lifetime, sym, config, rules) for sym in symbols},
        "successors": [key for _choice, _next, key in successors(config, rules)],
        "run": run(config, rules, 3, "first").to_jsonl(),
    }
    if translated:
        found = some_preimage(config)
        readings["literal"] = _outcome(lambda: [key for _i, _n, key in literal_successors(config, rules)])
        readings["preimage"] = has_preimage(config), found and canonical_key(found)
    if depth == 1:
        readings["prop2"] = check_timer_elimination(config, rules, 2).to_json()
    return readings


def _assert_clock_invariant(config, rules, translated: bool) -> None:
    """Explore ``config`` to depth 3 and compare the readings of each
    clocked state with those of its ``at_rest`` form."""
    graph = explore_membranes(config, rules, 3)
    for key, record in graph.nodes.items():
        state = graph.objects[key]
        if state.clock:
            assert _readings(state, rules, record.depth, translated) == \
                _readings(at_rest(state), rules, record.depth, translated), key


# An example explores a whole system and reads each of its states a dozen
# ways, so these draw a tenth (timed) and a twentieth (translations) of
# what ``examples`` gives: 10 and 5 systems under ``tier1``, 500 and 250
# under ``deep``.
@settings(max_examples=examples(100) // 10)
@given(st.integers(0, 10_000))
def test_a_clocked_state_reads_as_its_form_at_rest_on_timed_systems(seed):
    _assert_clock_invariant(*random_timed_system(seed), False)


@settings(max_examples=examples(100) // 20)
@given(st.integers(0, 10_000))
def test_a_clocked_state_reads_as_its_form_at_rest_on_translations(seed):
    p = random_reducible_process(seed)
    _assert_clock_invariant(translate(p), generate_rules(p), True)


def _exact_sizes(graph) -> list[int]:
    """How many states ``graph`` reaches in exactly m steps, for m from 0
    to its depth, along its edges: S_0 is the root and S_(m+1) what the
    states of S_m step to. Not the first-discovery depths, which count a
    state once, at the first m that reaches it."""
    assert not graph.truncated
    after: dict = {}
    for src, _label, dst in graph.edges:
        after.setdefault(src, set()).add(dst)
    level, sizes = {graph.root}, [1]
    for _ in range(graph.depth):
        level = {dst for src in level for dst in after.get(src, ())}
        sizes.append(len(level))
    return sizes


def _product_law(parts, whole, depth: int) -> list[int]:
    """Explore each of ``parts``, ``(config, rules)`` pairs that no rule
    relates, and ``whole``, the parts side by side, to ``depth``; assert
    that ``whole``'s exact-step sizes are the products of the parts',
    and return them."""
    want = [1] * (depth + 1)
    for config, rules in parts:
        want = [x * y for x, y in zip(want, _exact_sizes(explore_membranes(config, rules, depth)))]
    got = _exact_sizes(explore_membranes(*whole, depth))
    assert got == want
    return got


def _clean_timed(seed: int) -> tuple:
    """The first timed corpus system from ``seed`` on whose skin holds no
    object and whose rules name no skin, so that two of them side by
    side share nothing a step reads."""
    while True:
        config, rules = random_timed_system(seed)
        if not config.skin.content and all("skin" not in (rule.h, rule.m) for rule in rules):
            return config, rules
        seed += 1


def _renamed(config, rules, name) -> tuple:
    """A timed or untimed ``config`` and its ``rules`` with every label but
    the skin's and every symbol but ``delta`` renamed by ``name``."""

    def sym(s: Symbol) -> Symbol:
        return s if s.name == DELTA_NAME else Symbol(name(s.name), s.is_co)

    def label(at: str | None) -> str | None:
        return at if at in (None, "skin") else name(at)

    def node(n, kids):
        if isinstance(n, UNode):
            return UNode(label(n.label), Multiset({sym(s): k for s, k in n.content.items()}), kids)
        return MembraneNode(label(n.label), n.timer, Multiset({(sym(s), t): k for (s, t), k in n.content.items()}), kids)

    def side(ms: Multiset) -> Multiset:
        return Multiset({sym(s): k for s, k in ms.items()})

    def made(products: tuple) -> tuple:
        return tuple((sym(s), spec) for s, spec in products)

    renamed = [
        replace(rule, at=label(rule.at), lhs=side(rule.lhs), rhs=made(rule.rhs)) if isinstance(rule, RewriteRule)
        else replace(rule, h=label(rule.h), m=label(rule.m), u=side(rule.u), v=side(rule.v), v2=side(rule.v2),
                     w=made(rule.w), w2=made(rule.w2))
        for rule in rules
    ]
    return replace(config, skin=rebuild_tree(config.skin, node), output_label=label(config.output_label)), renamed


# Each example explores three small systems to depth 5: 100 pairs
# under ``tier1``, 5,000 under ``deep``.
@settings(max_examples=examples(100))
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_timed_systems_side_by_side_reach_the_product_of_their_states(i, j):
    a_config, a_rules = _renamed(*_clean_timed(i), lambda name: name + "_a")
    b_config, b_rules = _renamed(*_clean_timed(j), lambda name: name + "_b")
    both = Configuration(mem("skin", INF, [], a_config.skin.children + b_config.skin.children))
    _product_law([(a_config, a_rules), (b_config, b_rules)], (both, RuleSet(a_rules + b_rules)), 5)


def _w7(k: int):
    """ROADMAP W7: k disjoint pairs ``h_i:6[a_i:3, c_i:4]`` and
    ``m_i:7[~a_i:5]`` under an endo and an exo rule each."""
    body = " ".join(f"h{i}:6[ a{i}:3, c{i}:4 ] m{i}:7[ ~a{i}:5 ]" for i in range(k))
    rules = "".join(
        f"{kind} h{i} m{i} : a{i} | , ~a{i} | => a{i}:- | ~a{i}:-\n" for i in range(k) for kind in ("endo", "exo")
    )
    system = parse_system(f"mms 1 timed\noutput skin\nskin:inf[ ; {body} ]\n{rules}")
    return system.config, system.rules


def test_the_product_law_on_the_w7_and_w4_cliffs():
    # the expected sizes come from the law and the one-pair parts
    pair = _w7(1)
    assert _exact_sizes(explore_membranes(*pair, 5)) == [1, 2, 2, 2, 2, 2]
    assert _product_law([pair] * 5, _w7(5), 5) == [1, 32, 32, 32, 32, 32]
    one = translate(w4(1)), generate_rules(w4(1))
    for k in (1, 2, 3):
        whole = translate(w4(k)), generate_rules(w4(k))
        assert _product_law([one] * k, whole, 3) == [1, 2 ** k, 2 ** k, 2 ** k]


_MIRROR = str.maketrans(ascii_lowercase + digits, ascii_lowercase[::-1] + digits[::-1])


def _mirrored(name: str) -> str:
    """``name`` with each letter and digit mirrored (a and z, 0 and 9
    swap): a consistent renaming under which any two names, neither a
    prefix of the other, compare the other way round."""
    return name.translate(_MIRROR)


def _renamed_process(p, name):
    """The ambient process ``p`` with every ambient and capability target
    renamed by ``name``, in normal form."""

    def make(q, built):
        if isinstance(q, amb.Amb):
            return amb.Amb(name(q.name), q.timer, built[0], q.tag)
        if isinstance(q, amb.Prefix):
            return amb.Prefix(replace(q.cap, target=name(q.cap.target)), built[0])
        return amb.Par(built) if isinstance(q, amb.Par) else q

    return amb.normalize(rebuild_tree(p, make))


def _skeleton(verdict) -> tuple:
    """A verdict as a renaming must leave it: its outcome, and its details
    with every string blanked and every list sorted."""

    def blank(value):
        if isinstance(value, dict):
            return {k: blank(v) for k, v in value.items()}
        if isinstance(value, list):
            return sorted((blank(v) for v in value), key=repr)
        return "" if isinstance(value, str) else value

    return verdict.ok, blank(verdict.details)


def _assert_renamed_graph(graph, renamed, key_of) -> None:
    """``renamed`` is ``graph`` renamed: each state of ``graph``, renamed
    and keyed by ``key_of``, is a node of ``renamed``, one for one, and
    the (source, target) pairs of their edges map onto each other. Edge
    labels may differ: the first choice per key follows symbol order."""
    key = {k: key_of(graph.objects[k]) for k in graph.nodes}
    assert (len(renamed.nodes), len(renamed.edges)) == (len(graph.nodes), len(graph.edges))
    assert key[graph.root] == renamed.root and set(key.values()) == set(renamed.nodes)
    assert {(key[s], key[d]) for s, _label, d in graph.edges} == {(s, d) for s, _label, d in renamed.edges}


def _assert_renaming_law(config, rules, explore, check, key_of, depth: int) -> None:
    """The renaming law on a timed or untimed system: the reach graphs map
    onto each other and the checks' verdicts agree but for names."""
    renamed_config, renamed_rules = _renamed(config, rules, _mirrored)
    _assert_renamed_graph(explore(config, rules, depth), explore(renamed_config, renamed_rules, depth),
                          lambda state: key_of(_renamed(state, (), _mirrored)[0]))
    assert _skeleton(check(config, rules, depth)) == _skeleton(check(renamed_config, renamed_rules, depth))


def _assert_renaming_law_on_timed_systems(seeds) -> None:
    for seed in seeds:
        _assert_renaming_law(*random_timed_system(seed), explore_membranes, check_timer_elimination, canonicalize, 4)


def test_renaming_labels_and_symbols_changes_no_count_and_no_verdict():
    _assert_renaming_law_on_timed_systems(range(10))
    for seed in range(10):
        _assert_renaming_law(*random_untimed_system(seed), explore_untimed, check_embedding, u_canonicalize, 4)
    for seed in range(5):
        p = random_reducible_process(seed)
        renamed = _renamed_process(p, _mirrored)
        _assert_renamed_graph(explore_ambients(p, 3), explore_ambients(renamed, 3),
                              lambda q: canonical_key(_renamed_process(q, _mirrored)))
        assert _skeleton(check_translation(p, 3)) == _skeleton(check_translation(renamed, 3))


def _without_least(instances: list) -> list:
    """``instances`` less the one whose bound classes sort least."""
    least = min(instances, key=lambda inst: inst.active_classes + inst.passive_classes, default=None)
    return [inst for inst in instances if inst is not least]


def test_the_renaming_law_catches_a_matcher_that_reads_names(monkeypatch):
    # a planted fault: the timed matcher drops the instance whose bound
    # classes sort least, which a renaming makes another instance
    found = engine.find_instances
    monkeypatch.setattr(engine, "find_instances", lambda config, rules: _without_least(found(config, rules)))
    with pytest.raises(AssertionError):
        _assert_renaming_law_on_timed_systems(range(10))
