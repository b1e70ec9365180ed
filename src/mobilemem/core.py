"""Core data model for mobile membrane systems with timers.

A configuration is a tree of labelled membranes rooted at the skin. Every
membrane and every object carries a timer: a natural number, or ``INF`` for
resources that never expire. Objects come in dual pairs ``a`` / ``~a``; the
co-object marks the passive side of a movement rule. Rules are mutual
endocytosis, mutual exocytosis, or local multiset rewrites.

All values here are immutable once constructed and safe to share between
concurrent workers. Configurations, rules and multisets are frozen. Tree
nodes (``MembraneNode``, and the untimed and ambient ones) are immutable
by contract instead: they are plain slotted dataclasses, because a frozen
dataclass's constructor writes every field through ``object.__setattr__``,
which makes building a node and filling its memo slot two to three times
as slow, and a step builds every node it touches. Nobody assigns a field
of a node that may be shared; a membrane node's one memo slot
(``memo_slot``), its least timer, is written once, by plain assignment,
with a value worked out from the node alone, and ``number_fresh``
numbers a tree just built, before anyone else holds it. A key is one
fold when read (``render_at``), kept by the configuration, not its
nodes. Rule containers cannot change either, and each owns the matcher
tables derived from it (``RuleTables``): a table lives exactly as long
as its rules.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Union

INF = float("inf")

Timer = Union[int, float]

#: Reserved name of the dissolution marker. A rule right-hand side may emit
#: it; the step engine consumes it while dissolving the host membrane. It
#: must never appear in an at-rest configuration.
DELTA_NAME = "delta"


def decrement(t: Timer) -> Timer:
    """One clock tick: ``INF - 1 == INF``; 0 cannot be decremented."""
    if t == INF:
        return INF
    if t <= 0:
        raise ValueError("cannot decrement a timer at 0")
    return t - 1


def timer_str(t: Timer) -> str:
    return "inf" if t == INF else str(int(t))


class Symbol(NamedTuple):
    """An object name, possibly the co-form ``~name``. A named tuple, so
    that the hashing, equality and ordering every content and needs map
    runs on it are the tuple's own, in C; its ``repr``, order and hash
    are those of the ``(name, is_co)`` pair."""

    name: str
    is_co: bool = False

    def dual(self) -> "Symbol":
        return Symbol(self.name, not self.is_co)

    def __str__(self) -> str:
        return ("~" if self.is_co else "") + self.name


def dual(s: Symbol) -> Symbol:
    """Map ``a`` to ``~a`` and back; an involution without fixpoints."""
    return s.dual()


DELTA = Symbol(DELTA_NAME)


class Multiset:
    """Immutable multiset with counted items.

    Items must be hashable and mutually comparable; entries with count 0 are
    never stored. Used for membrane contents (``(Symbol, timer)`` pairs),
    rule sides (``Symbol``), and output readings.
    """

    __slots__ = ("_counts", "_items", "_hash")

    def __init__(self, items: Iterable = ()):
        counts: dict = {}
        if isinstance(items, dict):
            for item, n in items.items():
                if n < 0:
                    raise ValueError("negative multiplicity")
                if n:
                    counts[item] = n
        else:
            for item in items:
                counts[item] = counts.get(item, 0) + 1
        self._counts = counts
        self._items = tuple(sorted(counts.items()))
        self._hash = None  # computed on first use

    @classmethod
    def _of_sorted(cls, items: tuple, counts: dict | None = None) -> "Multiset":
        """From ``(item, count)`` pairs already sorted, with distinct items
        and positive counts, and ``counts``, a dict of the same pairs in any
        order that no one changes afterwards, where the caller has one."""
        ms = cls.__new__(cls)
        ms._items = items
        ms._counts = dict(items) if counts is None else counts
        ms._hash = None
        return ms

    def count(self, item) -> int:
        return self._counts.get(item, 0)

    def items(self) -> tuple:
        """Sorted ``(item, count)`` pairs."""
        return self._items

    def __iter__(self) -> Iterator:
        for item, n in self._items:
            for _ in range(n):
                yield item

    def __len__(self) -> int:
        return sum(self._counts.values())

    def __contains__(self, item) -> bool:
        return item in self._counts

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Multiset) and self._items == other._items

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._items)
        return self._hash

    def __repr__(self) -> str:
        return f"Multiset({list(self)!r})"

    def union(self, other: "Multiset") -> "Multiset":
        """Additive union (multiset sum)."""
        counts = dict(self._counts)
        for item, n in other._counts.items():
            counts[item] = counts.get(item, 0) + n
        return Multiset(counts)

    def contains(self, other: "Multiset") -> bool:
        return all(self.count(i) >= n for i, n in other._counts.items())


_uid_counter = itertools.count(1)


def fresh_uid() -> int:
    return next(_uid_counter)


def walk_tree(node) -> Iterator:
    """``node`` and every node below it (through ``children``) in
    pre-order, children left to right; iterative, so nesting depth is not
    bounded by the recursion limit."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        if node.children:
            stack.extend(reversed(node.children))


def rebuild_tree(node, make: Callable, whole: Callable | None = None):
    """``make(n, built)`` for ``node``, where ``built`` is the tuple of
    what the same call gives for each of ``n``'s ``children``, left to
    right. ``make`` runs once per occurrence, children first. Iterative,
    so nesting depth is not bounded by the recursion limit: a node whose
    children are pending waits on the stack as a (node, child count)
    pair, and results wait on a positional stack, since a term may hold
    one subterm object in several places. A node for which ``whole(n)``
    holds is not entered: ``make(n, ())`` stands for its whole subtree."""
    done: list = []
    stack = [node]
    while stack:
        n = stack.pop()
        if type(n) is tuple:
            n, k = n
            built = tuple(done[-k:])
            del done[-k:]
            done.append(make(n, built))
            continue
        kids = n.children
        if kids and (whole is None or not whole(n)):
            stack.append((n, len(kids)))
            stack.extend(reversed(kids))
        else:
            done.append(make(n, ()))
    return done[0]


def memo_slot():
    """A dataclass field in which a tree node or configuration keeps a
    value worked out once from it (its least timer, say), filled on first
    use or by whoever builds it. A node's slot is written by plain
    assignment, at most once, and its value depends on the node alone, so
    the write keeps the node immutable by contract; a configuration is
    frozen, and its slot is written through ``object.__setattr__``."""
    return field(default=None, init=False, repr=False)


@dataclass(slots=True, eq=False)
class MembraneNode:
    """A membrane: label, lifetime, contents, child membranes. Timers are
    deadlines against the clock of the configuration that holds the node
    (see ``Configuration``).

    ``uid`` is an engine-assigned identity used by traces and rule
    instances; it is excluded from canonical keys. Labels need not be
    unique, and a node is elementary iff it has no children. ``_least``
    holds ``least_timer(node)`` once it has been computed; a node keeps
    no render (see ``render_at``).
    """

    label: str
    timer: Timer
    content: Multiset
    children: tuple = ()
    uid: int = field(default_factory=fresh_uid)
    _least: Timer | None = memo_slot()

    walk = walk_tree


def mem(label: str, timer: Timer, objects: Iterable = (), children: Iterable = ()) -> MembraneNode:
    """Convenience constructor; ``objects`` holds ``(Symbol, timer)`` pairs."""
    return MembraneNode(label, timer, Multiset(objects), tuple(children))


@dataclass(frozen=True, slots=True, eq=False)
class Configuration:
    """A membrane tree plus the output membrane label, at a step clock.

    A finite timer is stored as its deadline, the remaining timer plus
    ``clock``, so a step leaves whatever it does not touch as it is (see
    ``engine.step``). A configuration at rest is one at clock 0, where
    deadlines are remaining timers; ``at_rest`` turns any configuration
    into that form, and every key and every output reads remaining
    timers. Every function of the package that takes a configuration
    takes one at any clock: outside ``core``, ``engine`` and ``choices``,
    a reader of stored timers reads its argument's ``at_rest`` form, and
    only ``translate._preimages`` and ``choices.availability``, on hot
    paths, read the clock themselves. ``_index`` holds the
    configuration's ``tree.Index`` and ``_key`` its ``canonicalize`` key,
    each filled on first read. Like a tree node, a configuration compares
    by identity; its key names the state.
    """

    skin: MembraneNode
    output_label: str = "skin"
    clock: int = 0
    _index: object = memo_slot()
    _key: str | None = memo_slot()


def least_timer(node: MembraneNode) -> Timer:
    """The least timer in ``node``'s subtree, its own and its objects'
    included; ``INF`` when none is finite. Kept in the ``_least`` slot of
    every node below ``node`` that lacks it, children first."""
    if node._least is None:
        rebuild_tree(node, _fill_least, _has_least)
    return node._least


def _fill_least(node: MembraneNode, _built: tuple) -> None:
    if node._least is None:
        least = node.timer
        for (_sym, t), _n in node.content.items():
            if t < least:
                least = t
        for child in node.children:
            if child._least < least:
                least = child._least
        node._least = least


def _has_least(node: MembraneNode) -> bool:
    return node._least is not None


def at_rest(config: Configuration) -> Configuration:
    """``config`` at clock 0: one fold that rebuilds each node with its
    timer and each object timer less the clock (``INF`` stays), keeping
    uids, child order and the key ``config`` holds, if any. A
    configuration at clock 0, an untimed one included, comes back as it
    is. A reader of stored timers outside the step reads its argument
    through this, so it takes a configuration at any clock."""
    clock = config.clock
    if not clock:
        return config

    def make(node: MembraneNode, children: tuple) -> MembraneNode:
        # moving every finite timer alike keeps the sorted order
        content = Multiset._of_sorted(tuple([((sym, t - clock), n) for (sym, t), n in node.content.items()]))
        return MembraneNode(node.label, node.timer - clock, content, children, uid=node.uid)

    rest = Configuration(rebuild_tree(config.skin, make), config.output_label)
    object.__setattr__(rest, "_key", config._key)  # a key reads remaining timers
    return rest


# ---------------------------------------------------------------------------
# Rules

@dataclass(frozen=True)
class Fresh:
    """Right-hand-side timer given by the rule itself."""

    timer: Timer


@dataclass(frozen=True)
class Carry:
    """Timer carried over from left-hand-side slot ``slot`` minus one tick.

    The slot indexes the same side's bound occurrence list (`u` then `v` for
    products in ``w``; the dual trigger then `v'` for products in ``w2``).
    """

    slot: int


def slot_tuple(u: Multiset, v: Multiset) -> tuple:
    """A side's slots, which a ``Carry`` indexes: ``u``'s members in
    order, one per copy, then ``v``'s."""
    return tuple(u) + tuple(v)


@dataclass(frozen=True)
class MoveRule:
    """Fields shared by the two movement rules.

    The active side consumes ``u + v`` inside ``h``; the passive side
    consumes ``dual(u) + v2`` inside ``m``. ``w`` is produced inside the
    moved ``h``, ``w2`` inside ``m``. ``keep_active_timer`` switches off the
    active membrane's timer decrement (literal translation mode).
    """

    h: str
    m: str
    u: Multiset
    v: Multiset = Multiset()
    v2: Multiset = Multiset()
    w: tuple = ()
    w2: tuple = ()
    name: str = ""
    keep_active_timer: bool = False

    # Worked out once per rule on first read and kept in the instance's
    # ``__dict__``; equality and hashing stay on the fields.

    @cached_property
    def u_bar(self) -> Multiset:
        return Multiset([dual(s) for s in self.u])

    @cached_property
    def active_slots(self) -> tuple:
        return slot_tuple(self.u, self.v)

    @cached_property
    def passive_slots(self) -> tuple:
        return slot_tuple(self.u_bar, self.v2)


@dataclass(frozen=True)
class EndoRule(MoveRule):
    """Mutual endocytosis: an elementary ``h`` enters a sibling ``m``."""


@dataclass(frozen=True)
class ExoRule(MoveRule):
    """Mutual exocytosis: an elementary ``h`` exits its parent ``m``."""


@dataclass(frozen=True)
class RewriteRule:
    """Local multiset rewrite inside one membrane.

    ``at`` restricts the host membrane label; ``None`` matches any membrane.
    This is the target form of the timer-elimination compiler.
    """

    at: str | None
    lhs: Multiset
    rhs: tuple = ()
    name: str = ""

    @cached_property
    def active_slots(self) -> tuple:
        return tuple(self.lhs)


Rule = Union[EndoRule, ExoRule, RewriteRule]


def rule_name(rule: Rule, index: int) -> str:
    """``rule``'s name; an unnamed rule is ``r<index>``, its place in its rules."""
    return rule.name or f"r{index}"


class RuleTables:
    """A rule container that cannot change and owns the matcher tables
    derived from it: ``table(build)`` is ``build(self)``, worked out on
    first use and kept on the container, keyed by the builder. A table
    so lives exactly as long as its rules. A rewrite with an empty left
    side, which a choice could take without end, gets no table: ``table``
    raises ``validate``'s message as a ``ValueError``. Threads that race
    on a first use may each build the table; every reader gets the one
    stored first. Subclasses list their rules as ``parts``, (flat index,
    rule) pairs, and hold the tables in ``_tables``."""

    __slots__ = ()

    def table(self, build: Callable):
        found = self._tables.get(build)
        if found is None:
            for base, rule in self.parts:
                if isinstance(rule, RewriteRule) and not rule.lhs:
                    raise ValueError(f"rule {rule_name(rule, base)}: rewrite left side is empty")
            found = self._tables.setdefault(build, build(self))
        return found


class RuleSet(tuple, RuleTables):
    """A tuple of rules that keeps its matcher tables (``RuleTables``).
    Equality, hashing, indexing and iteration are the tuple's; two equal
    rule sets each build their own tables."""

    def __new__(cls, rules=()):
        self = super().__new__(cls, rules)
        self._tables = {}
        return self

    @property
    def parts(self) -> tuple:
        return tuple(enumerate(self))


def rule_set(rules) -> RuleTables:
    """``rules`` as a container that keeps its tables: as it is when it
    already does, a fresh ``RuleSet`` otherwise. A run or an exploration
    wraps its rules once, so its matcher builds one table; a library
    caller that hands a matcher a list or tuple gets a table per call."""
    return rules if isinstance(rules, RuleTables) else RuleSet(rules)


# ---------------------------------------------------------------------------
# Canonicalization and readings

_SYMBOL_TEXT: dict = {}  # Symbol -> str(symbol), one entry per distinct symbol


def render_objects(content: Multiset, clock: int = 0) -> str:
    """The objects part of a node's canonical render, timers less
    ``clock``. Each symbol's text is read from a table that grows with
    the number of distinct symbols only."""
    objs = []
    for (sym, t), n in content.items():
        text = _SYMBOL_TEXT.get(sym)
        if text is None:
            text = _SYMBOL_TEXT[sym] = str(sym)
        objs.extend([f"{text}:{timer_str(t - clock)}"] * n)
    return ",".join(objs)


def render_node(label: str, timer: Timer, objects: str, kids: Iterable[str]) -> str:
    """A node's canonical render from its label, timer, objects part and
    the renders of its children."""
    return f"{label}:{timer_str(timer)}{{{objects}}}[{' '.join(sorted(kids)) if kids else ''}]"


def render_at(node: MembraneNode, clock: int) -> str:
    """The canonical render of ``node`` read at ``clock``, invariant under
    sibling and entry order: each finite timer printed as its deadline
    less the clock, so at clock 0 as stored. One fold, children first,
    on an explicit stack, with leaves rendered in their parent's pass,
    each distinct leaf content's objects once. A child's render is
    dropped once its parent has read it, so memory stays linear in depth;
    nothing is stored on the nodes."""
    order = []  # the membranes with children, parents first, children right to left
    stack = [node]
    while stack:
        n = stack.pop()
        order.append(n)
        stack.extend([c for c in n.children if c.children])
    # sorted (class, count) pairs -> their objects part at this clock; the
    # pairs hash and compare in C, unlike the multisets that hold them
    objects: dict = {}
    done: list = []  # renders of the inner membranes not yet read, in post-order
    for n in reversed(order):  # a post-order, children left to right
        kids = []
        inner = 0
        for c in n.children:
            if c.children:
                inner += 1
                continue
            items = c.content._items
            objs = objects.get(items)
            if objs is None:
                objs = objects[items] = render_objects(c.content, clock)
            t = c.timer  # ``render_node`` of a leaf, inlined on the hot path
            kids.append(f"{c.label}:{'inf' if t == INF else int(t - clock)}{{{objs}}}[]")
        if inner:  # the inner children's renders, the last ``inner`` made
            kids += done[-inner:]
            del done[-inner:]
        done.append(render_node(n.label, n.timer - clock, render_objects(n.content, clock), kids))
    return done[0]


def state_key(skin_render: str, output_label: str) -> str:
    """A configuration's key, timed or untimed, from its skin's canonical
    render and its output label."""
    return skin_render + "|out=" + output_label


def canonicalize(config: Configuration) -> str:
    """Canonical key: equal keys iff configurations are equal up to sibling
    membrane order and multiset entry order. uids are excluded, and
    timers print as remaining timers, so a configuration's key is the key
    of its ``at_rest`` form. Rendered on first read and kept in the
    configuration's ``_key`` slot."""
    if config._key is None:
        object.__setattr__(config, "_key", state_key(render_at(config.skin, config.clock), config.output_label))
    return config._key


def output_reading(config) -> Multiset:
    """Multiset of symbols (timers erased) held by output-labelled membranes,
    of a timed or an untimed configuration.

    Sums over all membranes carrying the output label; empty if none exists.
    """
    return Multiset([sym for _uid, syms in output_membranes(config)[1] for sym in syms])


def output_membranes(config) -> tuple:
    """``(membrane count, readings)`` of a timed or an untimed
    configuration, from one walk of its tree. ``readings`` holds one
    ``(uid, symbols)`` pair per output-labelled membrane, in uid order,
    which does not depend on sibling order; ``symbols`` lists the
    membrane's objects in symbol order, one per copy, timers erased."""
    label = config.output_label
    timed = isinstance(config, Configuration)
    count = 0
    outputs = []
    for node in config.skin.walk():
        count += 1
        if node.label == label:
            outputs.append((node.uid, tuple([e[0] if timed else e for e, n in node.content.items() for _ in range(n)])))
    outputs.sort()  # by uid, which no two membranes share
    return count, tuple(outputs)


# ---------------------------------------------------------------------------
# Validation

def _check_prods(side: str, prods: tuple, slots_of: Callable[[], tuple], out: list, name: str) -> None:
    """``slots_of`` builds the side's slot tuple, which sorts a multiset, so
    it is called only when a product carries a timer."""
    carried = [(sym, spec.slot) for sym, spec in prods if isinstance(spec, Carry)]
    slots = slots_of() if carried else ()
    for sym, slot in carried:
        if not 0 <= slot < len(slots):
            out.append(f"rule {name}: carry slot {slot} out of range in {side}")
        elif slots[slot] != sym:
            out.append(f"rule {name}: carry slot {slot} binds {slots[slot]}, not {sym}, in {side}")


#: A plain name, as the ``.mms`` lexer reads an identifier.
_NAME_RE = re.compile(r"^[A-Za-z_$][A-Za-z0-9_$]*$")


def validate(config: Configuration, rules: Iterable[Rule] = ()) -> list[str]:
    """Static well-formedness check; returns a list of violations (empty = ok).
    Untimed configurations are accepted too: their nodes have no timer and
    hold bare symbols, which count as timer ``inf`` here."""
    violations: list[str] = []
    if getattr(config.skin, "timer", INF) != INF:
        violations.append("skin membrane must have timer inf")
    seen_uids: set[int] = set()
    plain: set[str] = set()  # names seen to be plain
    for node in config.skin.walk():
        if node.uid in seen_uids:
            violations.append(f"duplicate membrane uid {node.uid}")
        seen_uids.add(node.uid)
        if node.label not in plain:
            if not node.label or not _NAME_RE.match(node.label):
                violations.append(f"membrane label {node.label!r} is not a plain name")
            else:
                plain.add(node.label)
        for entry, _n in node.content.items():
            sym, t = (entry, INF) if isinstance(entry, Symbol) else entry
            if sym.name not in plain:
                if not _NAME_RE.match(sym.name):
                    violations.append(f"object name {sym.name!r} is not a plain name")
                else:
                    plain.add(sym.name)
            if sym.name == DELTA_NAME:
                violations.append(f"dissolution marker at rest inside {node.label}")
            if t != INF and (not isinstance(t, int) or t < 0):
                violations.append(f"object {sym} has invalid timer {t!r}")
    for base, rule in enumerate(rules):
        name = rule_name(rule, base)
        if isinstance(rule, MoveRule):
            if not rule.u:
                violations.append(f"rule {name}: trigger multiset u is empty")
            _check_prods("w", rule.w, lambda: rule.active_slots, violations, name)
            _check_prods("w2", rule.w2, lambda: rule.passive_slots, violations, name)
        elif isinstance(rule, RewriteRule):
            if not rule.lhs:
                violations.append(f"rule {name}: rewrite left side is empty")
            _check_prods("rhs", rule.rhs, lambda: rule.active_slots, violations, name)
    return violations


def number_fresh(skin):
    """Give the nodes of a tree just built, and not yet shared, uids 1..n
    in pre-order; returns ``skin``."""
    for uid, node in enumerate(walk_tree(skin), 1):
        node.uid = uid
    return skin

