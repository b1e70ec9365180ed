"""Seeded generators for randomized checks.

All generators are deterministic in their seed. The membrane systems they
build number their uids 1..n in pre-order, so a seed's traces do not
depend on what the process built before. The timed-system generator
stays inside the timer-elimination construction's exactness envelope: every
symbol has one characteristic creation timer, membrane labels are unique,
and each label occurs as the passive side of at most one rule.
"""

from __future__ import annotations

import random
from typing import Sequence

from .core import (
    INF,
    Carry,
    Configuration,
    EndoRule,
    ExoRule,
    Fresh,
    MembraneNode,
    Multiset,
    RewriteRule,
    Rule,
    RuleSet,
    Symbol,
    number_fresh,
)
from .untimed import UConfig, UNode
from . import ambient as amb
from .ambient import Amb, Capability, Prefix

_LABELS = ["p", "q", "r"]
_SYMBOLS = [Symbol("a"), Symbol("b"), Symbol("c")]


def _random_tree(rng: random.Random, labels: Sequence[str]) -> list[tuple[str, int | None]]:
    """(label, parent index) list; index 0 is the skin."""
    nodes: list[tuple[str, int | None]] = [("skin", None)]
    for label in labels:
        parent = rng.randrange(len(nodes))
        nodes.append((label, parent))
    return nodes


def _assemble(nodes, contents, timers=None) -> Configuration | UConfig:
    """The configuration of ``nodes`` holding ``contents``: timed, each
    membrane with its timer from ``timers``, or untimed without them."""
    built: dict = {}
    for idx in range(len(nodes) - 1, -1, -1):
        label, _parent = nodes[idx]
        kids = tuple(built[j] for j in range(len(nodes)) if nodes[j][1] == idx)
        content = Multiset(contents[idx])
        built[idx] = UNode(label, content, kids) if timers is None else MembraneNode(label, timers[idx], content, kids)
    return (UConfig if timers is None else Configuration)(number_fresh(built[0]), "skin")


def _structure_slots(nodes):
    """Candidate (active, passive) index pairs for endo and exo rules."""
    endo, exo = [], []
    for i, (_li, pi) in enumerate(nodes):
        if pi is None:
            continue
        leaf = all(pj != i for _lj, pj in nodes)
        for j, (_lj, pj) in enumerate(nodes):
            if j != i and pj == pi and leaf:
                endo.append((i, j))
        if leaf:
            exo.append((i, pi))
    return endo, exo


def random_untimed_system(seed: int) -> tuple[UConfig, RuleSet]:
    """Small untimed system: at most 4 membranes, 6 objects, 4 rules."""
    rng = random.Random(("untimed", seed).__repr__())
    labels = rng.sample(_LABELS, rng.randint(1, 3))
    nodes = _random_tree(rng, labels)
    contents: list[list] = [[] for _ in nodes]
    endo_slots, exo_slots = _structure_slots(nodes)
    rules: list[Rule] = []
    budget = 6
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(["endo", "exo", "rw"])
        sym = rng.choice(_SYMBOLS)
        if kind == "endo" and endo_slots:
            i, j = rng.choice(endo_slots)
            w = tuple((rng.choice(_SYMBOLS), Fresh(INF)) for _ in range(rng.randint(0, 1)))
            rules.append(EndoRule(nodes[i][0], nodes[j][0], Multiset([sym]), w=w,
                                  name=f"e{len(rules)}"))
            if rng.random() < 0.9 and budget >= 2:
                contents[i].append(sym)
                contents[j].append(sym.dual())
                budget -= 2
        elif kind == "exo" and exo_slots:
            i, j = rng.choice(exo_slots)
            w2 = tuple((rng.choice(_SYMBOLS), Fresh(INF)) for _ in range(rng.randint(0, 1)))
            rules.append(ExoRule(nodes[i][0], nodes[j][0], Multiset([sym]), w2=w2,
                                 name=f"x{len(rules)}"))
            if rng.random() < 0.9 and budget >= 2:
                contents[i].append(sym)
                contents[j].append(sym.dual())
                budget -= 2
        else:
            host = rng.randrange(len(nodes))
            rhs = tuple((rng.choice(_SYMBOLS), Fresh(INF)) for _ in range(rng.randint(0, 2)))
            rules.append(RewriteRule(nodes[host][0], Multiset([sym]), rhs,
                                     name=f"w{len(rules)}"))
            if rng.random() < 0.7 and budget >= 1:
                contents[host].append(sym)
                budget -= 1
    while budget > 0 and rng.random() < 0.4:
        contents[rng.randrange(len(nodes))].append(rng.choice(_SYMBOLS))
        budget -= 1
    return _assemble(nodes, contents), RuleSet(rules)


def random_timed_system(seed: int) -> tuple[Configuration, RuleSet]:
    """Small timed endo/exo system inside the compiler's exactness domain:
    unique labels, one characteristic timer per symbol, one rule per
    passive label. Small timers exercise expiry and dissolution."""
    rng = random.Random(("timed", seed).__repr__())
    labels = rng.sample(_LABELS, rng.randint(1, 3))
    nodes = _random_tree(rng, labels)
    char: dict[Symbol, int] = {}
    for sym in _SYMBOLS + [s.dual() for s in _SYMBOLS]:
        char[sym] = rng.randint(1, 3)
    timers = [INF]
    for _ in nodes[1:]:
        timers.append(rng.choice([INF, rng.randint(1, 3), rng.randint(2, 3)]))
    contents: list[list] = [[] for _ in nodes]
    endo_slots, exo_slots = _structure_slots(nodes)
    rules: list[Rule] = []
    used_passive: set[str] = set()
    budget = 6

    def prods(rng, slots):
        out = []
        if slots and rng.random() < 0.3:
            idx = rng.randrange(len(slots))
            out.append((slots[idx], Carry(idx)))
        if rng.random() < 0.5:
            sym = rng.choice(_SYMBOLS)
            out.append((sym, Fresh(char[sym])))
        return tuple(out)

    for _ in range(rng.randint(1, 4)):
        sym = rng.choice(_SYMBOLS)
        kind = rng.choice(["endo", "exo"])
        slots = endo_slots if kind == "endo" else exo_slots
        slots = [(i, j) for i, j in slots if nodes[j][0] not in used_passive]
        if not slots:
            continue
        i, j = rng.choice(slots)
        used_passive.add(nodes[j][0])
        u = Multiset([sym])
        v = Multiset([rng.choice(_SYMBOLS)]) if rng.random() < 0.25 else Multiset()
        active_slots = tuple(u) + tuple(v)
        passive_slots = tuple(Multiset([s.dual() for s in u]))
        if kind == "endo":
            rules.append(EndoRule(nodes[i][0], nodes[j][0], u, v,
                                  w=prods(rng, active_slots), name=f"e{len(rules)}"))
        else:
            rules.append(ExoRule(nodes[i][0], nodes[j][0], u, v,
                                 w2=prods(rng, passive_slots), name=f"x{len(rules)}"))
        if rng.random() < 0.85 and budget >= 2:
            contents[i].append((sym, char[sym]))
            for extra in v:
                if budget >= 3:
                    contents[i].append((extra, char[extra]))
                    budget -= 1
            contents[j].append((sym.dual(), char[sym.dual()]))
            budget -= 2
    while budget > 0 and rng.random() < 0.5:
        sym = rng.choice(_SYMBOLS)
        contents[rng.randrange(len(nodes))].append((sym, char[sym]))
        budget -= 1
    return _assemble(nodes, contents, timers), RuleSet(rules)


# ---------------------------------------------------------------------------
# Ambient processes

def random_reducible_process(seed: int):
    """Processes with live movement redexes and timers large enough that
    nothing expires within a shallow checked horizon."""
    rng = random.Random(("reducible", seed).__repr__())
    parts = []
    handshakes = rng.randint(1, 2)
    for k in range(handshakes):
        mover, target = f"n{k}", f"m{k}"
        t = lambda: rng.randint(3, 6)
        rest = Prefix(Capability("in", False, "nowhere", t()))
        if rng.random() < 0.5:
            rest = amb.ZERO
        parts.append(Amb(mover, t(), Prefix(Capability("in", False, target, t()), rest)))
        parts.append(Amb(target, t(), Prefix(Capability("in", True, target, t()))))
    if rng.random() < 0.5:
        k = handshakes
        parent, mover = f"m{k}", f"n{k}"
        t = lambda: rng.randint(3, 6)
        parts.append(Amb(parent, t(), amb.par(
            Amb(mover, t(), Prefix(Capability("out", False, parent, t()))),
            Prefix(Capability("out", True, parent, t())),
        )))
    return amb.par(*parts)
