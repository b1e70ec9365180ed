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
which makes building a node and filling its memo slots two to three times
as slow, and a step builds every node it touches. Nobody assigns a field
of a node that may be shared; each memo slot (``memo_slot``) is written
once, by plain assignment, with a value worked out from the node alone,
and ``number_fresh`` numbers a tree just built, before anyone else holds
it. Rule containers cannot change either, and each owns the matcher
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
            pairs = items.items()
        else:
            pairs = ((x, 1) for x in items)
        for item, n in pairs:
            if n < 0:
                raise ValueError("negative multiplicity")
            if n:
                counts[item] = counts.get(item, 0) + n
        self._counts = counts
        self._items = tuple(sorted(counts.items()))
        self._hash = None  # computed on first use

    @classmethod
    def _from_counts(cls, counts: dict) -> "Multiset":
        ms = cls.__new__(cls)
        ms._counts = clean = {k: n for k, n in counts.items() if n}
        ms._items = tuple(sorted(clean.items()))
        ms._hash = None
        return ms

    @classmethod
    def _of_sorted(cls, items: tuple) -> "Multiset":
        """From ``(item, count)`` pairs already sorted, with distinct items
        and positive counts."""
        ms = cls.__new__(cls)
        ms._items = items
        ms._counts = dict(items)
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

    def add(self, item, n: int = 1) -> "Multiset":
        counts = dict(self._counts)
        counts[item] = counts.get(item, 0) + n
        return Multiset._from_counts(counts)

    def union(self, other: "Multiset") -> "Multiset":
        """Additive union (multiset sum)."""
        counts = dict(self._counts)
        for item, n in other._counts.items():
            counts[item] = counts.get(item, 0) + n
        return Multiset._from_counts(counts)

    def contains(self, other: "Multiset") -> bool:
        return all(self.count(i) >= n for i, n in other._counts.items())

    def difference(self, other: "Multiset") -> "Multiset":
        """Multiset difference; ``other`` must be contained in ``self``."""
        if not self.contains(other):
            raise ValueError("difference without containment")
        counts = dict(self._counts)
        for item, n in other._counts.items():
            counts[item] -= n
        return Multiset._from_counts(counts)


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


class FrozenTree:
    """Structural equality and hashing for immutable tree nodes, on explicit
    stacks, so nesting depth is not bounded by the recursion limit. Two
    nodes are equal when they have one type, equal ``_fields()`` (every
    compared field but the children) and pairwise equal ``children``; the
    hash folds a node's type and fields with its children's hashes. A
    subclass is a dataclass made with ``eq=False``, which keeps these."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a._fields() != b._fields() or len(a.children) != len(b.children):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __hash__(self) -> int:
        return rebuild_tree(self, _hash_one)


def _hash_one(node, built: tuple) -> int:
    return hash((type(node), node._fields(), built))


def memo_slot():
    """A dataclass field in which a tree node or configuration keeps a
    value worked out once from it (its render, say), filled on first use
    or by whoever builds it. A node's slot is written by plain assignment,
    at most once, and its value depends on the node alone, so the write
    keeps the node immutable by contract; a configuration is frozen, and
    its slot is written through ``object.__setattr__``."""
    return field(default=None, init=False, compare=False, repr=False)


def stored_render(node, render_one: Callable) -> str:
    """``node``'s render, computed once: ``render_one(n)`` builds one
    node's render from its own fields and its children's stored renders,
    and is stored in the ``_render`` slot of every node below ``node``
    that lacks it, children first, by plain assignment. Nodes never
    change once built, so the stored render stays valid and subtrees
    shared between configurations are rendered once."""
    if node._render is None:
        order = []
        stack = [node]
        while stack:
            n = stack.pop()
            order.append(n)
            stack.extend([c for c in n.children if c._render is None])
        for n in reversed(order):
            n._render = render_one(n)
    return node._render


@dataclass(slots=True, eq=False)
class MembraneNode(FrozenTree):
    """A membrane: label, lifetime, contents, child membranes. Timers are
    deadlines against the clock of the configuration that holds the node
    (see ``Configuration``).

    ``uid`` is an engine-assigned identity used by traces and rule
    instances; it is excluded from canonical keys. Labels need not be
    unique, and a node is elementary iff it has no children. ``_render``
    holds ``canonical_render(node)`` and ``_least`` holds
    ``least_timer(node)`` once they have been computed.
    """

    label: str
    timer: Timer
    content: Multiset
    children: tuple = ()
    uid: int = field(default_factory=fresh_uid)
    _render: str | None = memo_slot()
    _least: Timer | None = memo_slot()

    def _fields(self) -> tuple:
        return (self.label, self.timer, self.content, self.uid)

    @property
    def elementary(self) -> bool:
        return not self.children

    def with_children(self, children: tuple) -> "MembraneNode":
        """A copy holding ``children``, with a fresh uid."""
        return MembraneNode(self.label, self.timer, self.content, children)

    walk = walk_tree


def mem(label: str, timer: Timer, objects: Iterable = (), children: Iterable = ()) -> MembraneNode:
    """Convenience constructor; ``objects`` holds ``(Symbol, timer)`` pairs."""
    return MembraneNode(label, timer, Multiset(objects), tuple(children))


@dataclass(frozen=True)
class Configuration:
    """A membrane tree plus the output membrane label, at a step clock.

    A finite timer is stored as its deadline, the remaining timer plus
    ``clock``, so a step leaves whatever it does not touch as it is (see
    ``engine.step``). A configuration at rest is one at clock 0, where
    deadlines are remaining timers; ``at_rest`` turns any configuration
    into that form, and every key and every output reads remaining
    timers. ``_index`` holds the configuration's ``tree.Index``.
    """

    skin: MembraneNode
    output_label: str = "skin"
    clock: int = 0
    _index: object = memo_slot()


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


def shifted(content: Multiset, by: int) -> Multiset:
    """``content`` with every finite object timer moved by ``by``; ``INF``
    stays. Moving every finite timer alike keeps the sorted order."""
    return Multiset._of_sorted(tuple([((sym, t + by), n) for (sym, t), n in content.items()]))


def at_rest(config: Configuration) -> Configuration:
    """``config`` at clock 0: each finite timer less its clock. Subtrees
    with no finite timer are shared, uids are kept, equal contents are
    shifted once, and every node built gets its render, as the step's
    nodes do."""
    clock = config.clock
    if not clock:
        return config
    skin = config.skin
    if least_timer(skin) != INF:
        contents: dict = {}  # a clocked content's sorted pairs -> the content at rest

        def make(node: MembraneNode, children: tuple) -> MembraneNode:
            if node._least == INF:
                return node
            content = contents.get(node.content._items)
            if content is None:
                content = contents[node.content._items] = shifted(node.content, -clock)
            rest = MembraneNode(node.label, node.timer - clock, content, children, uid=node.uid)
            rest._least = node._least - clock
            rest._render = render_one(rest)
            return rest

        skin = rebuild_tree(skin, make, _timeless)
    return Configuration(skin, config.output_label)


def _timeless(node: MembraneNode) -> bool:
    """No finite timer in ``node``'s subtree, which reads the same at
    every clock; ``least_timer`` has been filled in below it."""
    return node._least == INF


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


Prod = tuple  # (Symbol, Fresh | Carry)


def _slot_tuple(u: Multiset, v: Multiset) -> tuple:
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
        return _slot_tuple(self.u, self.v)

    @cached_property
    def passive_slots(self) -> tuple:
        return _slot_tuple(self.u_bar, self.v2)


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


class RuleTables:
    """A rule container that cannot change and owns the matcher tables
    derived from it: ``table(build)`` is ``build(self)``, worked out on
    first use and kept on the container, keyed by the builder. A table
    so lives exactly as long as its rules. Threads that race on a first
    use may each build the table; every reader gets the one stored first.
    Subclasses list their rules as ``parts``, (flat index, rule) pairs,
    and hold the tables in ``_tables``."""

    __slots__ = ()

    def table(self, build: Callable):
        found = self._tables.get(build)
        if found is None:
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

def render_objects(content: Multiset, clock: int = 0) -> str:
    """The objects part of a node's canonical render, timers less
    ``clock``."""
    objs = []
    for (sym, t), n in content.items():
        objs.extend([f"{sym}:{timer_str(t - clock)}"] * n)
    return ",".join(objs)


def render_node(label: str, timer: Timer, objects: str, kids: Iterable[str]) -> str:
    """A node's canonical render from its label, timer, objects part and
    the renders of its children."""
    return f"{label}:{timer_str(timer)}{{{objects}}}[{' '.join(sorted(kids)) if kids else ''}]"


def render_one(node: MembraneNode) -> str:
    """One node's canonical render from its fields and the stored renders
    of its children, stored first where missing."""
    return render_node(node.label, node.timer, render_objects(node.content), [
        c._render or canonical_render(c) for c in node.children
    ])


def canonical_render(node: MembraneNode) -> str:
    """Deterministic rendering, invariant under sibling and entry order;
    stored in each node on first use (see ``stored_render``). Timers are
    printed as stored: remaining timers at clock 0."""
    return stored_render(node, render_one)


def render_at(node: MembraneNode, clock: int) -> str:
    """``canonical_render`` of ``node`` read at ``clock``: each finite
    timer printed as its deadline less the clock. A subtree with no finite
    timer prints the same at every clock and keeps its stored render; the
    others are rendered afresh, each distinct content's objects once."""
    if not clock or least_timer(node) == INF:
        return canonical_render(node)
    order = []  # the membranes with children to render afresh, parents first
    stack = [node]
    while stack:
        n = stack.pop()
        order.append(n)
        stack.extend([c for c in n.children if c.children and c._least != INF])
    # sorted (class, count) pairs -> their objects part at this clock; the
    # pairs hash and compare in C, unlike the multisets that hold them
    objects: dict = {}
    done: dict = {}  # id of a node in ``order`` -> its render
    for n in reversed(order):
        kids = []
        for c in n.children:
            if c._least == INF:
                kids.append(c._render or canonical_render(c))
            elif c.children:
                kids.append(done[id(c)])
            else:
                items = c.content._items
                objs = objects.get(items)
                if objs is None:
                    objs = objects[items] = render_objects(c.content, clock)
                t = c.timer  # ``render_node`` of a leaf, inlined on the hot path
                kids.append(f"{c.label}:{'inf' if t == INF else int(t - clock)}{{{objs}}}[]")
        done[id(n)] = render_node(n.label, n.timer - clock, render_objects(n.content, clock), kids)
    return done[id(node)]


def canonicalize(config: Configuration) -> str:
    """Canonical key: equal keys iff configurations are equal up to sibling
    membrane order and multiset entry order. uids are excluded, and
    timers print as remaining timers, so a configuration's key is the key
    of its ``at_rest`` form."""
    return render_at(config.skin, config.clock) + "|out=" + config.output_label


def output_reading(config) -> Multiset:
    """Multiset of symbols (timers erased) held by output-labelled membranes,
    of a timed or an untimed configuration.

    Sums over all membranes carrying the output label; empty if none exists.
    """
    return Multiset([sym for _uid, syms in per_membrane_readings(config) for sym in syms])


def per_membrane_readings(config) -> tuple:
    """One (uid, symbol multiset) pair per output-labelled membrane, in walk
    order. A timed membrane holds ``(symbol, timer)`` pairs, an untimed one
    bare ``Symbol``s."""
    return tuple(
        (node.uid, Multiset([entry if isinstance(entry, Symbol) else entry[0] for entry in node.content]))
        for node in config.skin.walk()
        if node.label == config.output_label
    )


# ---------------------------------------------------------------------------
# Validation

def _check_prods(side: str, prods: tuple, slots_of: Callable[[], tuple], out: list, rule_name: str) -> None:
    """``slots_of`` builds the side's slot tuple, which sorts a multiset, so
    it is called only when a product carries a timer."""
    carried = [(sym, spec.slot) for sym, spec in prods if isinstance(spec, Carry)]
    slots = slots_of() if carried else ()
    for sym, slot in carried:
        if not 0 <= slot < len(slots):
            out.append(f"rule {rule_name}: carry slot {slot} out of range in {side}")
        elif slots[slot] != sym:
            out.append(f"rule {rule_name}: carry slot {slot} binds {slots[slot]}, not {sym}, in {side}")


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
    for node in config.skin.walk():
        if node.uid in seen_uids:
            violations.append(f"duplicate membrane uid {node.uid}")
        seen_uids.add(node.uid)
        if not node.label or not _NAME_RE.match(node.label):
            violations.append(f"membrane label {node.label!r} is not a plain name")
        for entry, _n in node.content.items():
            sym, t = (entry, INF) if isinstance(entry, Symbol) else entry
            if not _NAME_RE.match(sym.name):
                violations.append(f"object name {sym.name!r} is not a plain name")
            if sym.name == DELTA_NAME:
                violations.append(f"dissolution marker at rest inside {node.label}")
            if t != INF and (not isinstance(t, int) or t < 0):
                violations.append(f"object {sym} has invalid timer {t!r}")
    for rule in rules:
        name = rule.name or type(rule).__name__
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


def renumber(config):
    """A copy of a timed or untimed configuration with uids 1..n in
    pre-order, the uids the parser and the translator give the trees they
    build (``number_fresh``), so that equal sources give byte-equal traces
    and graph labels within one process."""
    skin = rebuild_tree(config.skin, type(config.skin).with_children)
    return type(config)(number_fresh(skin), config.output_label)
