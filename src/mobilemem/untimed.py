"""Untimed mobile membrane systems: a separate, timer-free interpreter.

Untimed systems evolve by classic maximal parallelism: in each step a
conflict-free multiset of endo/exo/rewrite instances is chosen such that no
further instance can be added; every object is used by at most one rule,
every active membrane moves at most once, passive membranes may be shared.
After the instances fire, membranes holding the dissolution marker dissolve
bottom-up. There are no clock phases.

This module is intentionally not a wrapper over the timed engine: the
embedding and timer-elimination checks compare the two interpreters against
each other, which only means something where they are independent code.
Instance matching and the consuming and producing of rule sides are
written here. Shared with the timed engine are the conflict rule
(``choices.py``, which sees nothing of an instance but its membranes, the
objects it binds and its sort key), the structural edit of a step
(``tree.py``: membrane moves, bottom-up dissolution, rebuilding), and the
run loop and successor deduplication of ``engine``. What is shared is
checked against ``tests/reference.py`` rather than by the embedding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .choices import availability, enumerate_choices
from .core import (
    DELTA_NAME,
    Configuration,
    EndoRule,
    ExoRule,
    MoveRule,
    Multiset,
    RewriteRule,
    Rule,
    Symbol,
    fresh_uid,
)
from .engine import distinct_successors, simulate
from .tree import Tree


@dataclass(frozen=True)
class UNode:
    """A membrane without timers: label, symbol multiset, children."""

    label: str
    content: Multiset
    children: tuple = ()
    uid: int = field(default_factory=fresh_uid)

    @property
    def elementary(self) -> bool:
        return not self.children

    def walk(self) -> Iterator["UNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


def umem(label: str, objects=(), children=()) -> UNode:
    return UNode(label, Multiset(objects), tuple(children))


@dataclass(frozen=True)
class UConfig:
    skin: UNode
    output_label: str = "skin"


def u_render(node: UNode) -> str:
    objs = []
    for sym, n in node.content.items():
        objs.extend([str(sym)] * n)
    kids = sorted(u_render(c) for c in node.children)
    return node.label + "{" + ",".join(objs) + "}[" + " ".join(kids) + "]"


def u_canonicalize(config: UConfig) -> str:
    return u_render(config.skin) + "|out=" + config.output_label


def u_output_reading(config: UConfig) -> Multiset:
    out = Multiset()
    for node in config.skin.walk():
        if node.label == config.output_label:
            out = out.union(node.content)
    return out


def u_renumber(config: UConfig) -> UConfig:
    """Uids 1..n in depth-first order; see core.renumber."""
    counter = itertools.count(1)

    def rebuild(node: UNode) -> UNode:
        uid = next(counter)
        return UNode(node.label, node.content, tuple(rebuild(c) for c in node.children), uid=uid)

    return UConfig(rebuild(config.skin), config.output_label)


def erase_timers(config: Configuration) -> UConfig:
    """Project a timed configuration onto the untimed state space."""

    def strip(node) -> UNode:
        return UNode(
            node.label,
            Multiset([sym for (sym, _t) in node.content]),
            tuple(strip(c) for c in node.children),
            uid=node.uid,
        )

    return UConfig(strip(config.skin), config.output_label)


# ---------------------------------------------------------------------------
# Instances and choices

@dataclass(frozen=True)
class UInstance:
    rule_index: int
    rule: Rule
    active_uid: int
    passive_uid: int | None

    @property
    def is_move(self) -> bool:
        return isinstance(self.rule, MoveRule)

    def lhs_active(self) -> Multiset:
        if isinstance(self.rule, RewriteRule):
            return self.rule.lhs
        return self.rule.u.union(self.rule.v)

    def lhs_passive(self) -> Multiset:
        if isinstance(self.rule, RewriteRule):
            return Multiset()
        return self.rule.u_bar.union(self.rule.v2)

    def sort_key(self):
        return (self.rule_index, self.active_uid, -1 if self.passive_uid is None else self.passive_uid)

    def describe(self) -> str:
        name = self.rule.name or f"r{self.rule_index}"
        if self.passive_uid is None:
            return f"{name}@{self.active_uid}"
        return f"{name}@{self.active_uid}->{self.passive_uid}"

    def to_json(self) -> dict:
        return {
            "rule": self.rule.name or f"r{self.rule_index}",
            "active": self.active_uid,
            "passive": self.passive_uid,
            "active_bindings": [[str(s), None] for s in self.lhs_active()],
            "passive_bindings": [[str(s), None] for s in self.lhs_passive()],
        }


def u_find_instances(config: UConfig, rules: Sequence[Rule]) -> list[UInstance]:
    found = []
    for idx, rule in enumerate(rules):
        if isinstance(rule, EndoRule):
            for parent in config.skin.walk():
                for active in parent.children:
                    if active.label != rule.h or not active.elementary:
                        continue
                    if not active.content.contains(rule.u.union(rule.v)):
                        continue
                    for passive in parent.children:
                        if passive is active or passive.label != rule.m:
                            continue
                        if passive.content.contains(rule.u_bar.union(rule.v2)):
                            found.append(UInstance(idx, rule, active.uid, passive.uid))
        elif isinstance(rule, ExoRule):
            for passive in config.skin.walk():
                if passive.label != rule.m:
                    continue
                if not passive.content.contains(rule.u_bar.union(rule.v2)):
                    continue
                for active in passive.children:
                    if active.label != rule.h or not active.elementary:
                        continue
                    if active.content.contains(rule.u.union(rule.v)):
                        found.append(UInstance(idx, rule, active.uid, passive.uid))
        elif isinstance(rule, RewriteRule):
            for host in config.skin.walk():
                if rule.at is not None and host.label != rule.at:
                    continue
                if host.content.contains(rule.lhs):
                    found.append(UInstance(idx, rule, host.uid, None))
    return sorted(set(found), key=UInstance.sort_key)


def _u_needs(inst: UInstance) -> dict:
    need: dict = {}
    for sym in inst.lhs_active():
        need[(inst.active_uid, sym)] = need.get((inst.active_uid, sym), 0) + 1
    for sym in inst.lhs_passive():
        need[(inst.passive_uid, sym)] = need.get((inst.passive_uid, sym), 0) + 1
    return need


def u_maximal_choices(config: UConfig, rules: Sequence[Rule]) -> list[tuple]:
    """All maximal conflict-free instance multisets (classic parallelism)."""
    return enumerate_choices(
        u_find_instances(config, rules), _u_needs, availability(config), lambda inst: True
    )


# ---------------------------------------------------------------------------
# Application

def _is_marker(sym: Symbol) -> bool:
    return sym.name == DELTA_NAME and not sym.is_co


def u_apply(config: UConfig, choice: tuple) -> tuple[UConfig, tuple]:
    """Fire the instances simultaneously, then dissolve marker-holding
    membranes bottom-up. Returns (configuration, detached archive)."""
    tree = Tree(config.skin)

    def consume(uid, syms: Multiset):
        content = tree.nodes[uid].content
        for sym, n in syms.items():
            if content.get(sym, 0) < n:
                raise ValueError(f"stale untimed choice: {sym} x{n} missing in {uid}")
            content[sym] -= n
            if not content[sym]:
                del content[sym]

    def produce(uid, prods):
        content = tree.nodes[uid].content
        for sym, _spec in prods:
            content[sym] = content.get(sym, 0) + 1

    for inst in choice:
        rule = inst.rule
        if isinstance(rule, RewriteRule):
            consume(inst.active_uid, rule.lhs)
            produce(inst.active_uid, rule.rhs)
        else:
            consume(inst.active_uid, rule.u.union(rule.v))
            consume(inst.passive_uid, rule.u_bar.union(rule.v2))
            produce(inst.active_uid, rule.w)
            produce(inst.passive_uid, rule.w2)

    detached = []
    for inst in choice:
        if isinstance(inst.rule, EndoRule):
            tree.endo(inst.active_uid, inst.passive_uid)
        elif isinstance(inst.rule, ExoRule):
            gone = tree.exo(inst.active_uid)
            if gone is not None:
                frozen = UNode(gone.src.label, Multiset(gone.content), (), uid=inst.active_uid)
                detached.append((inst.active_uid, gone.src.label, u_render(frozen)))

    tree.dissolve(_is_marker)
    skin = tree.freeze(
        lambda node, children: UNode(node.src.label, Multiset(node.content), children, uid=node.src.uid)
    )
    return UConfig(skin, config.output_label), tuple(detached)


def u_successors(config: UConfig, rules: Sequence[Rule]) -> list[tuple[tuple, UConfig]]:
    return distinct_successors(
        config, u_maximal_choices(config, rules), lambda c, ch: u_apply(c, ch)[0], u_canonicalize
    )


def u_run(config: UConfig, rules: Sequence[Rule], steps: int, selector: str = "first", seed=None):
    """Untimed simulation loop with the same trace schema as the timed one."""
    return simulate(
        config, steps, selector, seed, lambda c: u_maximal_choices(c, rules), u_apply, u_canonicalize
    )
