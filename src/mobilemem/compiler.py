"""Embedding untimed systems into timed ones, and compiling timers away.

``embed_infinite`` assigns timer INF to every membrane, object, and fresh
right-hand side: the untimed system and its embedding have the same
evolution and output.

``eliminate_timers`` replaces timers by counter objects ``b$base$count``
(one per object occurrence, one per finite-timer membrane) together with
generated rule families. Each object symbol and each finite-timer label
gets one tick/kill family: its counter ticks every step, and a kill rule
removes the counter's owner when the counter reaches the lifetime (an
object's kill consumes the object and produces nothing; a label's, hosted
at that label, produces the dissolution marker). Every endo/exo rule gets
one untimed rule per admissible counter vector. Such a family grows as
the product of the lifetimes involved, so it is kept as a ``MoveSchema``
whose members are built only when read. ``lifetime(a)`` is the maximum
timer with which ``a`` is ever created (initial configuration or fresh
right-hand sides). ``plan_elimination`` learns the lifetimes, the label
timers and every fault that puts a system outside the construction's
domain from one walk of the tree and one pass over the rules, and refuses
such a system naming its first fault in a fixed order. It counts the
compiled rules before it builds any, so a caller can refuse a system too
large to write without building it; ``eliminate_timers``
itself refuses one whose tick and kill rules, which it builds at once,
are over ``MAX_COMPILED_RULES``.

The construction is exact when every creation site of a symbol uses that
one characteristic timer, and when no two moves share a passive membrane in
a single step (each compiled move binds the passive membrane's counter).
Both caveats are inherited from the counter encoding itself; systems
outside that envelope still compile but may admit compiled runs with no
timed counterpart. Strict rules (``keep_active_timer``) are inside it:
their compiled mover keeps its counter, as the timed step keeps the
mover's timer.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from itertools import product
from math import prod
from typing import Iterator

from .core import (
    DELTA,
    DELTA_NAME,
    INF,
    Configuration,
    EndoRule,
    ExoRule,
    Fresh,
    MembraneNode,
    MoveRule,
    Multiset,
    RewriteRule,
    Rule,
    RuleSet,
    RuleTables,
    Symbol,
    Timer,
    at_rest,
    rebuild_tree,
)
from .untimed import UConfig, UNode


#: Most rules ``compile`` writes out, and most tick and kill rules
#: ``eliminate_timers`` builds. Every timed move rule expands to one untimed
#: rule per counter vector, about T^5 for a two-slot rule with lifetimes T
#: (ROADMAP W3: 248,897 rules at T=12); ``eliminate_timers`` keeps those
#: families compact and builds only the tick and kill rules, one per unit
#: of each lifetime and label timer. Both count the rules from the
#: lifetimes and refuse before they build any of them.
MAX_COMPILED_RULES = 100_000


class CompileError(ValueError):
    """The system is outside the timer-elimination construction's domain."""


class OversizedError(CompileError):
    """The tick and kill rules of a compiled system, ``needed`` of them,
    are over ``MAX_COMPILED_RULES``."""

    def __init__(self, needed: int):
        super().__init__(f"the compiled system needs {needed:,} tick and kill rules, over the {MAX_COMPILED_RULES:,} "
                         "eliminate_timers builds")
        self.needed = needed


#: The spec of every compiled product: untimed rules create all they make at ``INF``.
_FRESH = Fresh(INF)

_COUNTER_RE = re.compile(r"^b\$(.+)\$(\d+)$")


def make_counter(base: str, count: int) -> Symbol:
    """Counter object ``b$base$count``; a co-object base keeps its co bit
    on the counter itself (rendered ``~b$a$n``) so files stay parseable."""
    if base.startswith("~"):
        return Symbol(f"b${base[1:]}${count}", True)
    return Symbol(f"b${base}${count}")


def parse_counter(sym: Symbol) -> tuple[str, int] | None:
    m = _COUNTER_RE.match(sym.name)
    if not m:
        return None
    base = ("~" if sym.is_co else "") + m.group(1)
    return base, int(m.group(2))


@lru_cache(maxsize=1 << 12)
def _counter_of(sym: Symbol) -> tuple[str, int] | None:
    """``parse_counter(sym)``, worked out once per symbol: the lens below
    reads every symbol of every explored state, and a check's states
    hold a few dozen distinct symbols between them."""
    return parse_counter(sym)


def _survey(config: Configuration, rules: Sequence[Rule]) -> tuple:
    """What timer elimination reads of a timed system, from one walk of its
    tree and one pass over its rules: each label's timer; the first label
    met again with another timer; whether a rule is a rewrite; the first
    object held with timer INF and the first fresh product with timer INF;
    every symbol, as the keys of a dict in the order first met; and each
    created symbol's largest creation timer."""
    labels: dict[str, Timer] = {}
    symbols: dict[Symbol, None] = {}
    top: dict[Symbol, Timer] = {}
    clash = inf_object = inf_product = None
    for node in config.skin.walk():
        if labels.setdefault(node.label, node.timer) != node.timer and clash is None:
            clash = node.label
        for (s, t), _n in node.content.items():
            symbols[s] = None
            top[s] = max(t, top.get(s, t))
            if t == INF and inf_object is None:
                inf_object = s
    rewrites = False
    for rule in rules:
        if isinstance(rule, RewriteRule):
            rewrites, sides, prods = True, (rule.lhs,), rule.rhs
        else:
            sides, prods = (rule.u, rule.v, rule.u_bar, rule.v2), rule.w + rule.w2
        for side in sides:
            symbols.update(dict.fromkeys(side))
        for s, spec in prods:
            symbols[s] = None
            if isinstance(spec, Fresh):
                top[s] = max(spec.timer, top.get(s, spec.timer))
                if spec.timer == INF and inf_product is None:
                    inf_product = s
    return labels, clash, rewrites, inf_object, inf_product, symbols, top


def lifetime(sym: Symbol, config: Configuration, rules: Sequence[Rule]) -> int:
    """Maximum timer with which ``sym`` is ever created, reading the
    remaining timers of ``config`` at any clock (``core.at_rest``); errors
    when the maximum is infinite or the symbol is never created."""
    top = _survey(at_rest(config), rules)[-1].get(sym)
    if top is None:
        raise CompileError(f"lifetime({sym}) undefined: the symbol is never created")
    if top == INF:
        raise CompileError(f"infinite lifetime: {sym} is created with timer inf")
    return int(top)


def embed_infinite(config: UConfig, rules: Sequence[Rule]) -> tuple[Configuration, RuleSet]:
    """Timed twin of an untimed system: INF on every membrane, object, and
    fresh right-hand side; left sides match any timer."""

    def lift(node: UNode, kids: tuple) -> MembraneNode:
        content = Multiset({(sym, INF): n for sym, n in node.content.items()})
        return MembraneNode(node.label, INF, content, kids, uid=node.uid)

    def lift_prods(prods) -> tuple:
        return tuple((sym, Fresh(INF) if isinstance(spec, Fresh) else spec) for sym, spec in prods)

    lifted_rules = RuleSet(
        replace(rule, rhs=lift_prods(rule.rhs)) if isinstance(rule, RewriteRule)
        else replace(rule, w=lift_prods(rule.w), w2=lift_prods(rule.w2))
        for rule in rules
    )
    return Configuration(rebuild_tree(config.skin, lift), config.output_label), lifted_rules


# ---------------------------------------------------------------------------
# Timer elimination

def eliminate_timers(config: Configuration, rules: Sequence[Rule]) -> tuple[UConfig, CompiledRules]:
    """Untimed system with the same evolution and output, per the counter
    construction. The skin and any INF-timer membrane get no counter and no
    kill family. The rules come back as a ``CompiledRules`` container:
    each move family stays a schema until a member is read. Raises
    ``OversizedError``, before building any rule, where the tick and kill
    rules are over ``MAX_COMPILED_RULES``."""
    plan = plan_elimination(config, rules)
    if plan.family_size > MAX_COMPILED_RULES:
        raise OversizedError(plan.family_size)
    return plan.build()


def plan_elimination(config: Configuration, rules: Sequence[Rule]) -> Elimination:
    """What ``eliminate_timers`` builds for ``config`` and ``rules``, sized
    before any rule is built (``Elimination``), from one walk of the tree
    and one pass over the rules (``_survey``). Raises ``CompileError`` on a
    system outside the construction's domain, naming the first fault in
    this order: a label shared by membranes with different timers; a
    rewrite rule; an object with timer INF; then, for each symbol in the
    order first met (tree before rules), the counter spelling ``$``, the
    dissolution marker, a plain name equal to a finite-timer label; last,
    a fresh product with timer INF. ``config`` may be at any clock: the
    plan reads and holds its ``core.at_rest`` form."""
    config = at_rest(config)
    label_timers, clash, rewrites, inf_object, inf_product, symbols, top = _survey(config, rules)
    if clash is not None:
        raise CompileError(f"label {clash} is shared by membranes with different timers")
    if rewrites:
        raise CompileError("timer elimination covers endo/exo systems only")
    if inf_object is not None:
        raise CompileError(f"object {inf_object} has timer inf; only membranes may be untimed")
    for sym in symbols:
        if "$" in sym.name:
            raise CompileError(f"symbol {sym} collides with the counter spelling")
        if sym.name == DELTA_NAME:
            raise CompileError("the dissolution marker cannot be compiled")
        if not sym.is_co and label_timers.get(sym.name, INF) != INF:
            raise CompileError(f"object name {sym.name} collides with a finite-timer membrane label")
    if inf_product is not None:
        raise CompileError(f"rule creates {inf_product} with timer inf")
    # every creation timer is finite now; a symbol that is consumed but
    # never created has no lifetime, and the rules that need it can never
    # fire
    lifetimes = {sym: int(t) for sym, t in top.items()}
    families = [(str(sym), life, (sym,), None, ())
                for sym, life in sorted(lifetimes.items(), key=lambda kv: str(kv[0]))]
    families += [(label, int(timer), (), label, ((DELTA, Fresh(INF)),))
                 for label, timer in sorted(label_timers.items()) if timer != INF]
    schemas = [_move_schema(rule, lifetimes, label_timers) for rule in rules]
    plan = Elimination(config, tuple(families), tuple(schema for schema in schemas if schema is not None))
    if plan.size > sys.maxsize:
        raise CompileError(f"the compiled system would have {plan.size:,} rules, more than a sequence can index")
    return plan


@dataclass(frozen=True)
class Elimination:
    """The compiled system of one timed system, before it is built: one
    tick/kill family per object symbol and per finite-timer label, as
    ``(base, lifetime, kept, host, killed)`` (``_tick_family``), and the
    move schemas, whose members are built only when read. Its ``size`` is
    the number of rules ``build`` gives, and ``family_size`` the number of
    tick and kill rules among them, which ``build`` makes at once; both
    are worked out from the lifetimes and label timers alone, so a caller
    can refuse a system too large to write, or to check, before building
    any of it."""

    config: Configuration
    families: tuple
    schemas: tuple
    size: int = field(init=False, repr=False, compare=False)
    family_size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        family_size = sum(life + 1 for _base, life, *_rest in self.families)
        object.__setattr__(self, "family_size", family_size)
        object.__setattr__(self, "size", family_size + sum(s.size for s in self.schemas))

    def build(self) -> tuple[UConfig, CompiledRules]:
        """The untimed configuration, each object paired with its counter
        at 0 and each finite-timer membrane holding its own, and the
        rules: the tick/kill families, then the schemas."""

        def strip(node: MembraneNode, kids: tuple) -> UNode:
            counts: dict[Symbol, int] = {}
            for (sym, _t), n in node.content.items():
                counts[sym] = counts.get(sym, 0) + n
                counter = make_counter(str(sym), 0)
                counts[counter] = counts.get(counter, 0) + n
            if node.timer != INF:
                counts[make_counter(node.label, 0)] = 1
            return UNode(node.label, Multiset(counts), kids, uid=node.uid)

        config = self.config
        out = [rule for family in self.families for rule in _tick_family(*family)]
        return UConfig(rebuild_tree(config.skin, strip), config.output_label), CompiledRules(out + list(self.schemas))


def _tick_family(base: str, life: int, kept: tuple, at: str | None, killed: tuple) -> list[RewriteRule]:
    """Ticks ``tick:{base}:{t}`` advance ``base``'s counter for t < life;
    at ``life``, ``kill:{base}``, hosted at ``at``, consumes it and
    produces ``killed``. Every rule also consumes and gives back ``kept``."""
    keep = tuple((sym, Fresh(INF)) for sym in kept)
    family = [
        RewriteRule(
            None,
            Multiset([*kept, make_counter(base, t)]),
            (*keep, (make_counter(base, t + 1), Fresh(INF))),
            name=f"tick:{base}:{t}",
        )
        for t in range(life)
    ]
    family.append(RewriteRule(at, Multiset([*kept, make_counter(base, life)]), killed, name=f"kill:{base}"))
    return family


@dataclass(frozen=True)
class MoveSchema(Sequence):
    """The untimed family of one timed endo/exo rule, kept as the rule, the
    lifetimes of its active and passive slots and the timers of ``h`` and
    ``m`` (``None`` where the membrane has no counter).

    It reads as the sequence of its members, one per counter vector over
    the axes (active slots, passive slots, ``h``, ``m``), last axis
    fastest. Member ``i`` is built on demand by mixed-radix decoding of
    ``i``; ``size`` is their number, a plain int that may exceed what
    ``len`` can return. A member's two sides are built alike: a side
    consumes the rule's ``v`` (or ``v2``) with the counter of each of its
    slots and of its membrane at the vector's values, and produces each
    of the rule's products followed by its counter, at 0 when fresh and
    at its slot's value plus one when carried, then its membrane's next
    counter; the active membrane of a ``keep_active_timer`` rule keeps
    its counter, as the timed step keeps its timer. Binding the passive
    membrane's counter also enforces the "passive timer greater than 0"
    precondition."""

    rule: MoveRule
    active_lives: tuple
    passive_lives: tuple
    h_timer: int | None
    m_timer: int | None
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        timers = tuple(t for t in (self.h_timer, self.m_timer) if t is not None)
        object.__setattr__(self, "size", prod(self.active_lives + self.passive_lives + timers))

    @cached_property
    def _axes(self) -> tuple:
        """(side, counter for each value) per axis; side 0 reads the
        active membrane, side 1 the passive one. Built on first read, so
        that a schema's length costs no counter."""
        rule = self.rule
        axes = [(0, str(s), life) for s, life in zip(rule.active_slots, self.active_lives)]
        axes += [(1, str(s), life) for s, life in zip(rule.passive_slots, self.passive_lives)]
        if self.h_timer is not None:
            axes.append((0, rule.h, self.h_timer))
        if self.m_timer is not None:
            axes.append((1, rule.m, self.m_timer))
        return tuple((side, tuple(make_counter(base, j) for j in range(life))) for side, base, life in axes)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int) -> MoveRule:
        if i < 0:
            i += self.size
        if not 0 <= i < self.size:
            raise IndexError("move schema index out of range")
        vector = []
        for _side, counters in reversed(self._axes):
            i, j = divmod(i, len(counters))
            vector.append(j)
        return self._member(vector[::-1])

    def __iter__(self) -> Iterator[MoveRule]:
        for vector in product(*(range(len(counters)) for _side, counters in self._axes)):
            yield self._member(vector)

    def present(self, active: Multiset, passive: Multiset) -> Iterator[int]:
        """Indices of the members whose counters all occur in the two
        contents: every member whose left sides the two contents hold is
        among them."""
        contents = (active, passive)
        values = []
        for side, counters in self._axes:
            here = [j for j, counter in enumerate(counters) if counter in contents[side]]
            if not here:
                return
            values.append(here)
        radices = [len(counters) for _side, counters in self._axes]
        for vector in product(*values):
            i = 0
            for radix, j in zip(radices, vector):
                i = i * radix + j
            yield i

    def _member(self, vector) -> MoveRule:
        rule = self.rule
        axes = ([], [])  # per side: (counter, value) of its slots in order, then of its membrane
        for (side, counters), j in zip(self._axes, vector):
            axes[side].append((counters[j], j))
        sides = []  # consumed, produced; active side first
        for kept, prods, label, timer, held, tick in (
            (rule.v, rule.w, rule.h, self.h_timer, axes[0], 0 if rule.keep_active_timer else 1),
            (rule.v2, rule.w2, rule.m, self.m_timer, axes[1], 1),
        ):
            made = []
            for sym, spec in prods:
                count = 0 if isinstance(spec, Fresh) else held[spec.slot][1] + 1
                made += ((sym, _FRESH), (make_counter(str(sym), count), _FRESH))
            if timer is not None:
                made.append((make_counter(label, held[-1][1] + tick), _FRESH))
            sides += (Multiset([*kept, *[counter for counter, _j in held]]), tuple(made))
        v, w, v2, w2 = sides
        name = f"{rule.name or 'move'}:{','.join(map(str, vector))}"
        cls = EndoRule if isinstance(rule, EndoRule) else ExoRule
        return cls(rule.h, rule.m, rule.u, v, v2, w, w2, name=name)


class CompiledRules(RuleTables):
    """The rules of a compiled system: tick and kill rewrites as they are,
    and one ``MoveSchema`` per timed move rule. Its length and iteration
    are those of the flat expanded list, while ``parts`` gives each
    rewrite or schema with the flat index of its first rule, so a matcher
    can walk the schemas without expanding them. It keeps the matcher
    tables derived from it (``core.RuleTables``)."""

    __slots__ = ("_parts", "_len", "_tables")

    def __init__(self, items):
        parts, start = [], 0
        for item in items:
            parts.append((start, item))
            start += item.size if isinstance(item, MoveSchema) else 1
        self._parts = tuple(parts)
        self._len = start
        self._tables = {}

    @property
    def parts(self) -> tuple:
        return self._parts

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[Rule]:
        for _start, item in self._parts:
            if isinstance(item, MoveSchema):
                yield from item
            else:
                yield item


def _move_schema(rule, lifetimes, label_timers) -> MoveSchema | None:
    """The schema of one timed move rule, or None when its family is empty
    (a slot whose symbol never exists with a positive timer)."""

    def lives(slots):
        out = tuple(lifetimes.get(sym) for sym in slots)
        return None if None in out or 0 in out else out

    def mem_timer(label) -> int | None:
        t_mem = label_timers.get(label)
        return None if t_mem is None or t_mem == INF else int(t_mem)  # no counter

    active_lives, passive_lives = lives(rule.active_slots), lives(rule.passive_slots)
    if active_lives is None or passive_lives is None:
        return None
    schema = MoveSchema(rule, active_lives, passive_lives, mem_timer(rule.h), mem_timer(rule.m))
    return schema if schema.size else None


# ---------------------------------------------------------------------------
# Projection

def project(config) -> UConfig:
    """Comparison lens: erase all timers and all counter objects, keeping
    the bare (label, object multiset) tree. Idempotent; accepts timed and
    untimed configurations."""
    timed = isinstance(config, Configuration)

    def strip(node, kids: tuple) -> UNode:
        counts: dict[Symbol, int] = {}
        for entry, n in node.content.items():
            sym = entry[0] if timed else entry
            if _counter_of(sym) is None:
                counts[sym] = counts.get(sym, 0) + n
        return UNode(node.label, Multiset(counts), kids, uid=node.uid)

    return UConfig(rebuild_tree(config.skin, strip), config.output_label)


def counter_soundness_violations(config: UConfig, counter_labels: set[str]) -> list[str]:
    """Invariant of compiled reachable states: object counters pair up with
    their objects one-to-one, and every finite-lifetime membrane holds
    exactly one label counter."""
    problems = []
    for node in config.skin.walk():
        object_counts: dict[str, int] = {}
        counter_counts: dict[str, int] = {}
        label_counters = 0
        for sym, n in node.content.items():
            parsed = _counter_of(sym)
            if parsed is None:
                object_counts[str(sym)] = object_counts.get(str(sym), 0) + n
            elif parsed[0] == node.label and parsed[0] in counter_labels:
                label_counters += n
            else:
                counter_counts[parsed[0]] = counter_counts.get(parsed[0], 0) + n
        for base in sorted(set(object_counts) | set(counter_counts)):
            if object_counts.get(base, 0) != counter_counts.get(base, 0):
                problems.append(
                    f"membrane {node.label}: {object_counts.get(base, 0)} x {base} vs "
                    f"{counter_counts.get(base, 0)} counters"
                )
        if node.label in counter_labels and label_counters != 1:
            problems.append(f"membrane {node.label}: {label_counters} label counters")
    return problems
