"""Test systems and test audits that the package itself does not read.

Seeded and curated inputs (a busy soak system, arbitrary ambient processes,
the reordering demo and the hand-picked processes the goldens digest), the
uid renumbering that makes corpus traces independent of what a process
built before, the maximality audit of a step's choice, and ``exact``, by
which tests compare the trees, states and instances that compare by
identity. Tests import it as they import ``conftest``; pytest does not
collect it.
"""

from __future__ import annotations

import random
from typing import Sequence

from mobilemem import ambient as amb
from mobilemem.ambient import Amb, Capability, Prefix, parse_ambient
from mobilemem.choices import addable, availability
from mobilemem.core import (
    INF,
    Configuration,
    EndoRule,
    ExoRule,
    Fresh,
    MembraneNode,
    Multiset,
    Rule,
    RuleSet,
    Symbol,
    number_fresh,
    rebuild_tree,
    walk_tree,
)
from mobilemem.engine import Instance, StepChoice, find_instances
from mobilemem.tree import usage as bound
from mobilemem.untimed import UConfig, UNode


def random_soak_system(seed: int) -> tuple[Configuration, RuleSet]:
    """A system that stays busy: endo/exo rule pairs over INF-timer objects
    cycle forever, with some mortal bystanders mixed in."""
    rng = random.Random(("soak", seed).__repr__())
    pairs = rng.randint(1, 2)
    children = []
    rules: list[Rule] = []
    for k in range(pairs):
        a = Symbol(f"a{k}")
        b = Symbol(f"b{k}")
        h_label, m_label = f"h{k}", f"m{k}"
        h_content = [(a, INF)]
        m_content = [(a.dual(), INF)]
        if rng.random() < 0.6:
            h_content.append((Symbol("x"), rng.randint(1, 4)))
        if rng.random() < 0.4:
            m_content.append((Symbol("y"), rng.randint(1, 4)))
        children.append(MembraneNode(h_label, INF, Multiset(h_content)))
        children.append(MembraneNode(m_label, INF, Multiset(m_content)))
        rules.append(EndoRule(h_label, m_label, Multiset([a]),
                              w=((b, Fresh(INF)),), w2=((b.dual(), Fresh(INF)),),
                              name=f"in{k}"))
        rules.append(ExoRule(h_label, m_label, Multiset([b]),
                             w=((a, Fresh(INF)),), w2=((a.dual(), Fresh(INF)),),
                             name=f"out{k}"))
    if rng.random() < 0.5:
        children.append(MembraneNode("spare", rng.randint(2, 6), Multiset([(Symbol("z"), 3)])))
    skin = MembraneNode("skin", INF, Multiset(), tuple(children))
    return Configuration(number_fresh(skin), "skin"), RuleSet(rules)


# ---------------------------------------------------------------------------
# Ambient processes

_AMB_NAMES = ["n", "m", "k", "s"]


def random_process(seed: int, max_depth: int = 3):
    """Arbitrary well-formed process for round-trip tests."""
    rng = random.Random(("process", seed).__repr__())

    def gen(depth: int):
        roll = rng.random()
        if roll < 0.2 or depth == 0:
            return amb.ZERO
        if roll < 0.55:
            cap = Capability(
                rng.choice(["in", "out"]),
                rng.random() < 0.4,
                rng.choice(_AMB_NAMES),
                rng.choice([INF, rng.randint(0, 5)]),
            )
            return Prefix(cap, gen(depth - 1))
        if roll < 0.85:
            return Amb(
                rng.choice(_AMB_NAMES),
                rng.choice([INF, rng.randint(0, 5)]),
                gen(depth - 1),
            )
        return amb.par(*(gen(depth - 1) for _ in range(rng.randint(2, 3))))

    return amb.normalize(gen(max_depth))


def reorder_demo_process():
    """A mover whose capability chain outlives its first move; the membrane
    image then has reordered preimages the ambient side cannot reach."""
    return parse_ambient("n:4[ in:1 m . in:2 k . out:3 s ] | m:6[ ~in:5 m ]")


def hand_processes() -> list:
    """Curated processes: nesting, co-actions, exits, expiries. Entries
    that move keep their timers at 3 or above so that shallow-horizon
    correspondence checks see no bystander expiry."""
    sources = [
        "0",
        "n:3[]",
        "k:2[] | s:1[ in:4 q ]",
        "n:5[ in:3 m ] | m:5[ ~in:3 m ]",
        "n:6[ in:3 m . in:4 k ] | m:7[ ~in:5 m ] | k:9[]",
        "m:8[ n:6[ out:3 m ] | ~out:4 m ]",
        "m:9[ n:7[ out:3 m . in:5 k ] | ~out:4 m . in:6 s ]",
        "n:4[ in:3 m ] | m:4[ ~in:3 m ] | p:6[ q:5[ out:3 p ] | ~out:3 p ]",
        "a:9[ b:8[ in:4 c ] | c:7[ ~in:5 c ] ]",
        "n:inf[ in:inf m ] | m:inf[ ~in:inf m ]",
    ]
    return [parse_ambient(s) for s in sources]


# ---------------------------------------------------------------------------
# Uids and audits


def renumber(config):
    """A copy of a timed or untimed configuration with uids 1..n in
    pre-order, the uids the parser and the translator give the trees they
    build (``number_fresh``), so that equal sources give byte-equal traces
    and graph labels within one process."""

    def copy(node, children):
        if isinstance(node, MembraneNode):
            return MembraneNode(node.label, node.timer, node.content, children)
        return UNode(node.label, node.content, children)

    skin = rebuild_tree(config.skin, copy)
    return type(config)(number_fresh(skin), config.output_label)


def residual_instances(
    config: Configuration,
    choice: StepChoice,
    rules: Sequence[Rule],
) -> list[Instance]:
    """Instances still applicable after setting aside the choice's bound
    objects and membrane roles. Empty on every saturated choice."""
    found = find_instances(config, rules)
    avail = availability(config, found)
    usage = bound(choice)  # named by remaining timers, as ``avail`` is
    moves = [inst for inst, _n in choice if inst.is_move]
    actives = {inst.active_uid for inst in moves}
    passives = {inst.passive_uid for inst in moves}
    return [
        inst for inst in found
        if addable(inst, inst.needs(), avail, usage, actives, passives) > 0
    ]


# ---------------------------------------------------------------------------
# Comparing what compares by identity


def exact(x):
    """``x`` in the form a test compares it by, since a tree node, a
    configuration and a rule instance compare by identity. A membrane tree
    is its pre-order rows ``(type, label, timer, content, uid, child
    count)``, an untimed node's timer ``None``: an exact ordered tree, uids
    and sibling order included. A configuration is its output label, its
    clock and those rows. An ambient term is its ``canonical_key``, which
    writes names, timers, tags and part order. An instance is ``(type,
    sort_key(), rule)``. A list or tuple is the list of its items' forms,
    and any other value is itself."""
    if isinstance(x, (MembraneNode, UNode)):
        return tuple((type(n), n.label, getattr(n, "timer", None), n.content, n.uid, len(n.children))
                     for n in walk_tree(x))
    if isinstance(x, (Configuration, UConfig)):
        return (x.output_label, x.clock, exact(x.skin))
    if isinstance(x, (amb.Zero, amb.Prefix, amb.Amb, amb.Par)):
        return amb.canonical_key(x)
    if isinstance(x, Instance):
        return (type(x), x.sort_key(), x.rule)
    if isinstance(x, (list, tuple)):
        return [exact(item) for item in x]
    return x
