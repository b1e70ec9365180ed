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
written here. Shared with the timed engine are the instance record
(``UInstance`` is an ``engine.Instance`` whose bound classes are bare
symbols, and differs from it only in how it prints), the conflict rule
(``choices.py``, which sees nothing of an instance but its membranes, the
objects it binds and its position in the sorted list of instances), the
structural edit of a step (``tree.py``: the membrane index, membrane
moves, bottom-up dissolution, rebuilding), and the run loop and
successor deduplication of ``engine``.
What is shared is checked against ``tests/reference.py`` rather than by
the embedding.

The matcher indexes the rewrites by one left-side symbol, the largest; a
membrane tests only the rewrites keyed by a symbol it holds. That index
and the rest of the matcher's rule table are built once per rule
container, not per state, and the container owns it (``core.RuleSet``,
``compiler.CompiledRules``), so it lives exactly as long as its rules;
a plain list or tuple gets a fresh table per call, and ``u_run`` and the
explorer wrap their rules once (``core.rule_set``).
In a compiled system the key of a tick or kill rule is its counter, so a
state costs per counter present rather than per generated rewrite, and
move families are read through their schemas (see ``u_find_instances``).

The checks compare timer-erased and projected states by ``erased_key``,
``u_canonicalize`` of the erased tree rendered in one fold over a timed
or untimed tree, without building the erased tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .choices import enumerate_choices
from .core import (
    DELTA_NAME,
    Configuration,
    EndoRule,
    ExoRule,
    FrozenTree,
    MoveRule,
    Multiset,
    RewriteRule,
    Rule,
    Symbol,
    fresh_uid,
    memo_slot,
    rebuild_tree,
    rule_set,
    stored_render,
    walk_tree,
)
from .engine import Instance, distinct_successors, simulate
from .tree import Tree, carry_index, index_of


@dataclass(slots=True, eq=False)
class UNode(FrozenTree):
    """A membrane without timers: label, symbol multiset, children.
    ``_render`` holds ``u_render(node)`` once it has been computed."""

    label: str
    content: Multiset
    children: tuple = ()
    uid: int = field(default_factory=fresh_uid)
    _render: str | None = memo_slot()

    def _fields(self) -> tuple:
        return (self.label, self.content, self.uid)

    @property
    def elementary(self) -> bool:
        return not self.children

    def with_children(self, children: tuple) -> "UNode":
        """A copy holding ``children``, with a fresh uid."""
        return UNode(self.label, self.content, children)

    walk = walk_tree


def umem(label: str, objects=(), children=()) -> UNode:
    return UNode(label, Multiset(objects), tuple(children))


@dataclass(frozen=True)
class UConfig:
    """An untimed membrane tree, its output label and its ``tree.Index``.
    Its ``clock`` is always 0, as a timed ``Configuration`` at rest."""

    skin: UNode
    output_label: str = "skin"
    _index: object = memo_slot()

    clock = 0  # a class attribute, not a field


def _u_layout(label: str, objs: list, kids: Iterable[str]) -> str:
    """One membrane's render from its objects' and children's renders."""
    return label + "{" + ",".join(objs) + "}[" + " ".join(sorted(kids)) + "]"


def _u_render_one(node: UNode) -> str:
    objs = []
    for sym, n in node.content.items():
        objs.extend([str(sym)] * n)
    return _u_layout(node.label, objs, [c._render for c in node.children])


def u_render(node: UNode) -> str:
    """Canonical render of an untimed membrane, stored once computed."""
    return stored_render(node, _u_render_one)


def u_canonicalize(config: UConfig) -> str:
    return u_render(config.skin) + "|out=" + config.output_label


def erased_key(config, drop: Callable | None = None) -> str:
    """``u_canonicalize(erase_timers(config))``, or ``u_canonicalize(config)``
    if untimed, less each symbol ``drop`` selects; no node is built. A timed
    content sorts by (symbol, timer), so its symbols come out in order."""
    timed = isinstance(config, Configuration)

    def render(node, kids: tuple) -> str:
        objs = []
        for entry, n in node.content.items():
            sym = entry[0] if timed else entry
            if drop is None or not drop(sym):
                objs.extend([str(sym)] * n)
        return _u_layout(node.label, objs, kids)

    return rebuild_tree(config.skin, render) + "|out=" + config.output_label


def erase_timers(config: Configuration) -> UConfig:
    """Project a timed configuration onto the untimed state space."""

    def strip(node, kids) -> UNode:
        return UNode(node.label, Multiset([sym for (sym, _t) in node.content]), kids, uid=node.uid)

    return UConfig(rebuild_tree(config.skin, strip), config.output_label)


# ---------------------------------------------------------------------------
# Instances and choices

class UInstance(Instance):
    """An untimed rule occurrence: an ``engine.Instance`` whose
    ``active_classes``/``passive_classes`` are the multisets the rule
    consumes on each side, as sorted tuples of bare symbols. It differs
    from a timed instance only in how it prints, without timers."""

    __slots__ = ()

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
            "active_bindings": [[str(s), None] for s in self.active_classes],
            "passive_bindings": [[str(s), None] for s in self.passive_classes],
        }


def _untimed_table(rules) -> tuple:
    """``u_find_instances``' rule table, from the ``parts`` of a
    ``core.RuleTables`` container: (rewrites by key symbol, the rewrites
    with an empty left side, the move parts as (flat index, rule or
    schema, the move rule whose labels and nesting its members share),
    and the members read so far). A compiled container
    (``compiler.CompiledRules``) lists each move family as one schema
    whose ``present(active, passive)`` proposes member offsets and whose
    ``[offset]`` builds a member. A member is kept on first use under its
    flat index, as [member, lhs active, its sorted symbols, then lhs
    passive and its sorted symbols once needed]."""
    rewrites: dict = {}  # key symbol (None: empty left side) -> [(flat index, rewrite)]
    moves = []
    for base, item in rules.parts:
        if isinstance(item, RewriteRule):
            key = item.lhs.items()[-1][0] if item.lhs else None
            rewrites.setdefault(key, []).append((base, item))
        else:
            moves.append((base, item, item if isinstance(item, MoveRule) else item.rule))
    everywhere = rewrites.pop(None, ())
    return rewrites, everywhere, moves, {}


def u_find_instances(config: UConfig, rules: Sequence[Rule]) -> list[UInstance]:
    """Every rule instance that fits the configuration, in (rule index,
    active uid, passive uid) order.

    Rewrites are indexed by one left-side symbol, the largest (in a
    compiled system, the counter: it tells apart the ticks of one
    object), so a host tests only the rewrites whose key symbol it holds,
    each then checked against ``at`` and its whole left side; a rewrite
    with an empty left side is tested on every host. A schema is a
    candidate filter: for each active/passive pair whose labels fit, only
    the members whose counters the two membranes hold are tested, each
    exactly as the flat rule at its index would be. That index, the move
    parts and each member read with its two consumed sides form the rule
    table (``_untimed_table``), built once per rule container, which
    keeps it (``core.RuleSet``, ``compiler.CompiledRules``); a plain list
    or tuple gets a fresh one per call. Hosts and move partners are read
    from the configuration's index (``tree.index_of``), which the choice
    search and the step read too."""
    index = index_of(config)
    rewrites, everywhere, moves, sides = rule_set(rules).table(_untimed_table)
    found = []
    for host in (config.skin, *index.node.values()):
        content = host.content
        for sym, _n in content.items():
            for base, rule in rewrites.get(sym, ()):
                if (rule.at is None or rule.at == host.label) and content.contains(rule.lhs):
                    found.append(UInstance(base, rule, host.uid, None, rule.active_slots))
        for base, rule in everywhere:
            if rule.at is None or rule.at == host.label:
                found.append(UInstance(base, rule, host.uid, None, rule.active_slots))
    for base, item, rule in moves:
        for active, passive in _move_pairs(rule, config.skin, index.kids):
            offsets = (0,) if item is rule else item.present(active.content, passive.content)
            for offset in offsets:
                idx = base + offset
                entry = sides.get(idx)
                if entry is None:
                    member = rule if item is rule else item[offset]
                    lhs_a = member.u.union(member.v)
                    entry = sides[idx] = [member, lhs_a, tuple(lhs_a), None, None]
                member, lhs_a, taken_a, lhs_p, taken_p = entry
                if not active.content.contains(lhs_a):
                    continue
                if lhs_p is None:
                    lhs_p = entry[3] = member.u_bar.union(member.v2)
                    taken_p = entry[4] = tuple(lhs_p)
                if passive.content.contains(lhs_p):
                    found.append(UInstance(idx, member, active.uid, passive.uid, taken_a, taken_p))
    return sorted(found, key=UInstance.sort_key)


def _move_pairs(rule: MoveRule, skin: UNode, kids: dict) -> Iterator[tuple]:
    """(active, passive) membrane pairs whose labels and nesting fit the
    move: an elementary ``h`` beside an ``m`` for endo, inside one for
    exo. ``kids`` is the index's children by label and parent uid."""
    actives = kids.get(rule.h, {})
    if isinstance(rule, EndoRule):
        passives = kids.get(rule.m, {})
        for at, here in actives.items():
            there = passives.get(at)
            if not there:
                continue
            for active in here.values():
                if active.elementary:
                    for passive in there.values():
                        if passive is not active:
                            yield active, passive
    else:
        hosts = [passive for members in kids.get(rule.m, {}).values() for passive in members.values()]
        for passive in [skin] * (skin.label == rule.m) + hosts:
            for active in actives.get(passive.uid, {}).values():
                if active.elementary:
                    yield active, passive


def u_maximal_choices(config: UConfig, rules: Sequence[Rule]) -> list[tuple]:
    """All maximal conflict-free instance multisets (classic parallelism)."""
    return enumerate_choices(config, u_find_instances(config, rules), lambda inst: True)


# ---------------------------------------------------------------------------
# Application

def _is_marker(sym: Symbol) -> bool:
    return sym.name == DELTA_NAME and not sym.is_co


def u_apply(config: UConfig, choice: tuple) -> tuple[UConfig, tuple]:
    """Fire the instances simultaneously, then dissolve marker-holding
    membranes bottom-up. Returns (configuration, detached archive).
    Subtrees no instance touches stay as they are and are shared with
    ``config``: without a clock they cannot change. The result's index
    is derived from ``config``'s by the step's edits (``carry_index``)."""
    tree = Tree(config, choice)

    def consume(uid, syms: tuple):
        content = tree.nodes[uid].content
        for sym in syms:
            if not content.get(sym):
                raise ValueError(f"stale untimed choice: {sym} missing in {uid}")
            content[sym] -= 1
            if not content[sym]:
                del content[sym]

    def produce(uid, prods):
        content = tree.nodes[uid].content
        for sym, _spec in prods:
            content[sym] = content.get(sym, 0) + 1

    for inst in choice:
        rule = inst.rule
        consume(inst.active_uid, inst.active_classes)
        if isinstance(rule, RewriteRule):
            produce(inst.active_uid, rule.rhs)
        else:
            consume(inst.passive_uid, inst.passive_classes)
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
    result = UConfig(skin, config.output_label)
    carry_index(result, tree)
    return result, tuple(detached)


def u_successors(config: UConfig, rules: Sequence[Rule]) -> list[tuple[tuple, UConfig, str]]:
    return distinct_successors(
        config, u_maximal_choices(config, rules), lambda c, ch: u_apply(c, ch)[0], u_canonicalize
    )


def u_run(config: UConfig, rules: Sequence[Rule], steps: int, selector: str = "first", seed=None):
    """Untimed simulation loop with the same trace schema as the timed one;
    the rules are wrapped once (``core.rule_set``), as ``run`` does."""
    rules = rule_set(rules)
    return simulate(
        config, steps, selector, seed, lambda c: u_maximal_choices(c, rules), u_apply, u_canonicalize
    )
