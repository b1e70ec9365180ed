"""Untimed mobile membrane systems: a separate, timer-free interpreter.

Untimed systems evolve by classic maximal parallelism: in each step a
conflict-free multiset of endo/exo/rewrite instances is chosen such that no
further instance can be added; every object is used by at most one rule,
every active membrane moves at most once, passive membranes may be shared.
After the instances fire, membranes holding the dissolution marker dissolve
bottom-up. There are no clock phases.

This module is intentionally not a wrapper over the timed engine: the
embedding and timer-elimination checks compare the two interpreters against
each other, which only means something if they are independent code. Only
the conflict rule is shared: ``choices.py`` holds it, with its three modes,
and sees nothing of an instance but its membranes, the objects it binds
and its sort key; matching and application stay here.
"""

from __future__ import annotations

import itertools
import json
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

class _UWork:
    __slots__ = ("label", "content", "children", "parent", "uid")

    def __init__(self, node: UNode, parent):
        self.label = node.label
        self.content = {sym: n for sym, n in node.content.items()}
        self.children = [c.uid for c in node.children]
        self.parent = parent
        self.uid = node.uid


def u_apply(config: UConfig, choice: tuple) -> tuple[UConfig, tuple]:
    """Fire the instances simultaneously, then dissolve marker-holding
    membranes bottom-up. Returns (configuration, detached archive)."""
    nodes: dict[int, _UWork] = {}

    def load(node: UNode, parent):
        nodes[node.uid] = _UWork(node, parent)
        for child in node.children:
            load(child, node.uid)

    load(config.skin, None)

    def consume(uid, syms: Multiset):
        node = nodes[uid]
        for sym, n in syms.items():
            if node.content.get(sym, 0) < n:
                raise ValueError(f"stale untimed choice: {sym} x{n} missing in {uid}")
            node.content[sym] -= n
            if not node.content[sym]:
                del node.content[sym]

    def produce(uid, prods):
        node = nodes[uid]
        for sym, _spec in prods:
            node.content[sym] = node.content.get(sym, 0) + 1

    moves = []
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
            moves.append(("endo" if isinstance(rule, EndoRule) else "exo", inst.active_uid, inst.passive_uid))

    detached = []
    for kind, a_uid, p_uid in moves:
        active = nodes[a_uid]
        nodes[active.parent].children.remove(a_uid)
        if kind == "endo":
            nodes[p_uid].children.append(a_uid)
            active.parent = p_uid
        else:
            passive = nodes[p_uid]
            if passive.parent is None:
                frozen = UNode(active.label, Multiset(active.content), (), uid=a_uid)
                detached.append((a_uid, active.label, u_render(frozen)))
                del nodes[a_uid]
            else:
                nodes[passive.parent].children.append(a_uid)
                active.parent = passive.parent

    def is_marker(sym: Symbol) -> bool:
        return sym.name == DELTA_NAME and not sym.is_co

    def post_order(uid):
        out = []
        for child in list(nodes[uid].children):
            out.extend(post_order(child))
        out.append(uid)
        return out

    for uid in post_order(config.skin.uid):
        node = nodes[uid]
        if not any(is_marker(sym) for sym in node.content):
            continue
        node.content = {sym: n for sym, n in node.content.items() if not is_marker(sym)}
        if node.parent is None:
            continue
        parent = nodes[node.parent]
        for sym, n in node.content.items():
            parent.content[sym] = parent.content.get(sym, 0) + n
        for child_uid in node.children:
            nodes[child_uid].parent = parent.uid
            parent.children.append(child_uid)
        parent.children.remove(uid)
        del nodes[uid]

    def rebuild(uid) -> UNode:
        node = nodes[uid]
        return UNode(node.label, Multiset(node.content), tuple(rebuild(c) for c in node.children), uid=uid)

    return UConfig(rebuild(config.skin.uid), config.output_label), tuple(detached)


def u_successors(config: UConfig, rules: Sequence[Rule]) -> list[tuple[tuple, UConfig]]:
    seen: dict[str, tuple] = {}
    for choice in u_maximal_choices(config, rules):
        result, _det = u_apply(config, choice)
        key = u_canonicalize(result)
        if key not in seen:
            seen[key] = (choice, result)
    return [seen[k] for k in sorted(seen)]


def u_run(config: UConfig, rules: Sequence[Rule], steps: int, selector: str = "first", seed=None):
    """Untimed simulation loop with the same trace schema as the timed one."""
    from .engine import Trace, StepRecord

    if steps < 0:
        raise ValueError("steps must be >= 0")
    rng = None
    if selector == "random":
        import random as _random

        rng = _random.Random(seed)
    elif selector != "first":
        raise ValueError(f"unknown selector {selector!r}")
    trace = Trace(u_canonicalize(config), selector, seed, steps)
    trace.configs.append(config)
    current = config
    current_key = trace.initial_key
    for index in range(1, steps + 1):
        choices = u_maximal_choices(current, rules)
        choice = choices[0] if rng is None else rng.choice(choices)
        result, detached = u_apply(current, choice)
        key = u_canonicalize(result)
        halted = len(choices) == 1 and key == current_key
        trace.records.append(StepRecord(index, choice, key, halted, detached))
        trace.configs.append(result)
        current, current_key = result, key
        if halted:
            break
    return trace
