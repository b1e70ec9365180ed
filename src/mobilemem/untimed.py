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
Instance matching and the producing of rule sides are written here.
Shared with the timed engine are the instance record (``UInstance`` is
an ``engine.Instance`` whose bound classes are bare symbols, and differs
from it only in how it prints), the conflict rule (``choices.py``, which
sees nothing of an instance but its membranes, the objects it binds and
its position in the sorted list of instances), the edit of a step's
tree (``tree.py``: the membrane index, the take of the objects a choice
binds, checked as a whole, membrane moves, bottom-up dissolution,
rebuilding), and the run loop and successor deduplication of
``engine``.
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

No node keeps a render: ``u_render`` is the one fold of the untimed
layout, and ``u_canonicalize`` keeps its key on the configuration. The
checks compare timer-erased and projected states by ``erased_key``, the
same fold over a timed or untimed tree, without building the erased tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from .choices import enumerate_choices, every
from .core import (
    DELTA,
    DELTA_NAME,
    Configuration,
    EndoRule,
    MembraneNode,
    MoveRule,
    Multiset,
    RewriteRule,
    Rule,
    Symbol,
    fresh_uid,
    memo_slot,
    rebuild_tree,
    rule_name,
    rule_set,
    state_key,
    walk_tree,
)
from .engine import Instance, distinct_successors, simulate
from .tree import Tree, carry_index, index_of, usage


@dataclass(slots=True, eq=False)
class UNode:
    """A membrane without timers: label, symbol multiset, children."""

    label: str
    content: Multiset
    children: tuple = ()
    uid: int = field(default_factory=fresh_uid)

    walk = walk_tree


def umem(label: str, objects=(), children=()) -> UNode:
    return UNode(label, Multiset(objects), tuple(children))


@dataclass(frozen=True, slots=True, eq=False)
class UConfig:
    """An untimed membrane tree, its output label, and its ``tree.Index``
    and ``u_canonicalize`` key, each kept on first read. Its ``clock`` is
    always 0, as a timed ``Configuration`` at rest."""

    skin: UNode
    output_label: str = "skin"
    _index: object = memo_slot()
    _key: str | None = memo_slot()

    clock = 0  # a class attribute, not a field


def u_render(node, drop: Callable | None = None) -> str:
    """Canonical render of a membrane in the untimed layout, timers erased
    from a timed one, less each symbol ``drop`` selects: one fold, children
    first, on an explicit stack. A timed content sorts by (symbol, timer),
    so its symbols come out in order."""
    timed = isinstance(node, MembraneNode)
    order = []  # every membrane, parents first, children right to left
    stack = [node]
    while stack:
        n = stack.pop()
        order.append(n)
        stack += n.children
    done: list = []  # renders not yet read, in post-order
    for n in reversed(order):  # a post-order, children left to right
        objs = []
        for entry, k in n.content._items:
            sym = entry[0] if timed else entry
            if drop is None or not drop(sym):
                objs += ["~" + sym.name if sym.is_co else sym.name] * k  # ``str(sym)``, inlined
        k = len(n.children)  # the children's renders are the last ``k`` made
        kids = " ".join(sorted(done[-k:])) if k else ""
        del done[len(done) - k:]
        done.append(f"{n.label}{{{','.join(objs)}}}[{kids}]")
    return done[0]


def u_canonicalize(config: UConfig) -> str:
    """The key of an untimed configuration, rendered on first read and
    kept in its ``_key`` slot."""
    if config._key is None:
        object.__setattr__(config, "_key", erased_key(config))
    return config._key


def erased_key(config, drop: Callable | None = None) -> str:
    """``u_canonicalize(erase_timers(config))``, or ``u_canonicalize(config)``
    if untimed, less each symbol ``drop`` selects (``u_render``)."""
    return state_key(u_render(config.skin, drop), config.output_label)


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
        name = rule_name(self.rule, self.rule_index)
        if self.passive_uid is None:
            return f"{name}@{self.active_uid}"
        return f"{name}@{self.active_uid}->{self.passive_uid}"

    def to_json(self) -> dict:
        return {
            "rule": rule_name(self.rule, self.rule_index),
            "active": self.active_uid,
            "passive": self.passive_uid,
            "active_bindings": [[str(s), None] for s in self.active_classes],
            "passive_bindings": [[str(s), None] for s in self.passive_classes],
        }


def _untimed_table(rules) -> tuple:
    """``u_find_instances``' rule table, from the ``parts`` of a
    ``core.RuleTables`` container: (rewrites by key symbol, the move
    parts as (flat index, rule or schema, the move rule whose labels and
    nesting its members share), and the members read so far). Every
    rewrite has a key: the container refuses an empty left side. A
    compiled container (``compiler.CompiledRules``) lists each move
    family as one schema whose ``present(active, passive)`` proposes
    member offsets and whose ``[offset]`` builds a member. A member is
    kept on first use under its flat index, as [member, lhs active, its
    sorted symbols, then lhs passive and its sorted symbols once
    needed]."""
    rewrites: dict = {}  # key symbol -> [(flat index, rewrite)]
    moves = []
    for base, item in rules.parts:
        if isinstance(item, RewriteRule):
            rewrites.setdefault(item.lhs.items()[-1][0], []).append((base, item))
        else:
            moves.append((base, item, item if isinstance(item, MoveRule) else item.rule))
    return rewrites, moves, {}


def u_find_instances(config: UConfig, rules: Sequence[Rule]) -> list[UInstance]:
    """Every rule instance that fits the configuration, in (rule index,
    active uid, passive uid) order.

    Rewrites are indexed by one left-side symbol, the largest (in a
    compiled system, the counter: it tells apart the ticks of one
    object), so a host tests only the rewrites whose key symbol it holds,
    each then checked against ``at`` and its whole left side. A schema
    is a candidate filter: for each active/passive pair whose labels fit, only
    the members whose counters the two membranes hold are tested, each
    exactly as the flat rule at its index would be. That index, the move
    parts and each member read with its two consumed sides form the rule
    table (``_untimed_table``), built once per rule container, which
    keeps it (``core.RuleSet``, ``compiler.CompiledRules``); a plain list
    or tuple gets a fresh one per call. Hosts and move partners are read
    from the configuration's index (``tree.index_of``), which the choice
    search and the step read too."""
    index = index_of(config)
    rewrites, moves, sides = rule_set(rules).table(_untimed_table)
    found = []
    for host in (config.skin, *index.node.values()):
        content = host.content
        for sym, _n in content.items():
            for base, rule in rewrites.get(sym, ()):
                if (rule.at is None or rule.at == host.label) and content.contains(rule.lhs):
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
                if not active.children:
                    for passive in there.values():
                        if passive is not active:
                            yield active, passive
    else:
        hosts = [passive for members in kids.get(rule.m, {}).values() for passive in members.values()]
        for passive in [skin] * (skin.label == rule.m) + hosts:
            for active in actives.get(passive.uid, {}).values():
                if not active.children:
                    yield active, passive


def u_maximal_choices(config: UConfig, rules: Sequence[Rule]) -> list[tuple]:
    """All maximal conflict-free instance multisets (classic parallelism)."""
    return enumerate_choices(config, u_find_instances(config, rules), every)


# ---------------------------------------------------------------------------
# Application

def _is_marker(sym: Symbol) -> bool:
    return sym.name == DELTA_NAME and not sym.is_co


def u_apply(config: UConfig, choice: tuple) -> tuple[UConfig, tuple]:
    """Fire the instances simultaneously, each as often as ``choice``
    counts it, then dissolve marker-holding membranes bottom-up. Returns
    (configuration, detached archive). Subtrees no instance touches stay
    as they are and are shared with ``config``: without a clock they
    cannot change. The result's index is derived from ``config``'s by the
    step's edits (``carry_index``). The objects the choice binds, as its
    instances name them (``tree.usage``), are checked as a whole and
    taken first (``Tree.take``), then the right sides are produced, so no
    instance binds what another one of the choice produces. A choice
    whose membranes are gone or moved, or whose bound objects this
    configuration lacks, raises ``StaleChoiceError`` (``tree.Tree``)
    before anything is produced, and leaves ``config`` as it is."""
    tree = Tree(config, choice)
    tree.take(usage(choice))

    marked = False  # whether some rule produced the dissolution marker

    def fire(uid, prods: tuple, n: int):
        """Produce ``prods`` in membrane ``uid``, ``n`` times."""
        nonlocal marked
        content = tree.nodes[uid].content
        for sym, _spec in prods:
            content[sym] = content.get(sym, 0) + n
            if sym == DELTA:
                marked = True

    for inst, n in choice:
        rule = inst.rule
        if isinstance(rule, RewriteRule):
            fire(inst.active_uid, rule.rhs, n)
        else:
            fire(inst.active_uid, rule.w, n)
            fire(inst.passive_uid, rule.w2, n)

    detached = []
    for inst, gone in tree.move(choice):
        frozen = UNode(gone.src.label, Multiset(gone.content), (), uid=inst.active_uid)
        detached.append((inst.active_uid, gone.src.label, u_render(frozen)))

    if marked:  # no marker rests in a configuration
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
    return simulate(config, steps, selector, seed, lambda c: u_find_instances(c, rules), u_apply, u_canonicalize)
