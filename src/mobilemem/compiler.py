"""Embedding untimed systems into timed ones, and compiling timers away.

``embed_infinite`` assigns timer INF to every membrane, object, and fresh
right-hand side: the untimed system and its embedding have the same
evolution and output.

``eliminate_timers`` replaces timers by counter objects ``b$base$count``
(one per object occurrence, one per finite-timer membrane) together with
generated rule families: counter ticks, kill rules that remove an object
when its counter reaches the symbol's lifetime, membrane kill rules that
emit the dissolution marker, and for every endo/exo rule one untimed rule
per admissible counter vector. Each such family grows as the product of
the lifetimes involved, so it is kept as a ``MoveSchema`` whose members
are built only when read. ``lifetime(a)`` is the maximum timer with which
``a`` is ever created (initial configuration or fresh right-hand sides).

The construction is exact when every creation site of a symbol uses that
one characteristic timer, and when no two moves share a passive membrane in
a single step (each compiled move binds the passive membrane's counter).
Both caveats are inherited from the counter encoding itself; systems
outside that envelope still compile but may admit compiled runs with no
timed counterpart.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import lru_cache
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
    rebuild_tree,
)
from .untimed import UConfig, UNode


class CompileError(ValueError):
    """The system is outside the timer-elimination construction's domain."""


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


def _rule_products(rules: Sequence[Rule]):
    for rule in rules:
        if isinstance(rule, RewriteRule):
            yield from rule.rhs
        else:
            yield from rule.w
            yield from rule.w2


def lifetime(sym: Symbol, config: Configuration, rules: Sequence[Rule]) -> int:
    """Maximum timer with which ``sym`` is ever created; errors when the
    maximum is infinite or the symbol is never created."""
    top = _creation_timers(config, rules).get(sym)
    if top is None:
        raise CompileError(f"lifetime({sym}) undefined: the symbol is never created")
    if top == INF:
        raise CompileError(f"infinite lifetime: {sym} is created with timer inf")
    return int(top)


def _creation_timers(config: Configuration, rules: Sequence[Rule]) -> dict[Symbol, Timer]:
    """Every created symbol's largest creation timer, over the initial
    contents and the rules' fresh products, in one pass."""
    top: dict[Symbol, Timer] = {}
    created = [key for node in config.skin.walk() for key, _n in node.content.items()]
    created += [(s, spec.timer) for s, spec in _rule_products(rules) if isinstance(spec, Fresh)]
    for s, t in created:
        top[s] = max(t, top.get(s, t))
    return top


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

def _alphabet(config: Configuration, rules: Sequence[Rule]) -> set[Symbol]:
    syms: set[Symbol] = set()
    for node in config.skin.walk():
        for (s, _t), _n in node.content.items():
            syms.add(s)
    for rule in rules:
        for side in (rule.u, rule.v, rule.u_bar, rule.v2):
            syms.update(side)
        for s, _spec in rule.w + rule.w2:
            syms.add(s)
    return syms


def _label_timers(config: Configuration) -> dict[str, Timer]:
    timers: dict[str, Timer] = {}
    for node in config.skin.walk():
        if node.label in timers and timers[node.label] != node.timer:
            raise CompileError(
                f"label {node.label} is shared by membranes with different timers"
            )
        timers[node.label] = node.timer
    return timers


def _check_input(config: Configuration, rules: Sequence[Rule], label_timers: dict) -> None:
    for rule in rules:
        if isinstance(rule, RewriteRule):
            raise CompileError("timer elimination covers endo/exo systems only")
    for node in config.skin.walk():
        for (s, t), _n in node.content.items():
            if t == INF:
                raise CompileError(f"object {s} has timer inf; only membranes may be untimed")
    for sym in _alphabet(config, rules):
        if "$" in sym.name:
            raise CompileError(f"symbol {sym} collides with the counter spelling")
        if sym.name == DELTA_NAME:
            raise CompileError("the dissolution marker cannot be compiled")
        if not sym.is_co and sym.name in label_timers and label_timers[sym.name] != INF:
            raise CompileError(
                f"object name {sym.name} collides with a finite-timer membrane label"
            )
    for s, spec in _rule_products(rules):
        if isinstance(spec, Fresh) and spec.timer == INF:
            raise CompileError(f"rule creates {s} with timer inf")


def eliminate_timers(config: Configuration, rules: Sequence[Rule]) -> tuple[UConfig, CompiledRules]:
    """Untimed system with the same evolution and output, per the counter
    construction. The skin and any INF-timer membrane get no counter and no
    kill family. The rules come back as a ``CompiledRules`` container:
    each move family stays a schema until a member is read."""
    label_timers = _label_timers(config)
    _check_input(config, rules, label_timers)

    # _check_input has rejected every infinite creation timer; a symbol
    # that is consumed but never created has no lifetime, and the rules
    # that need it can never fire
    lifetimes = {sym: int(t) for sym, t in _creation_timers(config, rules).items()}

    def strip(node: MembraneNode, kids: tuple) -> UNode:
        counts: dict[Symbol, int] = {}
        for (sym, _t), n in node.content.items():
            counts[sym] = counts.get(sym, 0) + n
            counter = make_counter(str(sym), 0)
            counts[counter] = counts.get(counter, 0) + n
        if node.timer != INF:
            counts[make_counter(node.label, 0)] = 1
        return UNode(node.label, Multiset(counts), kids, uid=node.uid)

    uconfig = UConfig(rebuild_tree(config.skin, strip), config.output_label)

    out: list[Rule] = []
    for sym, life in sorted(lifetimes.items(), key=lambda kv: str(kv[0])):
        for t in range(life):
            out.append(RewriteRule(
                None,
                Multiset([sym, make_counter(str(sym), t)]),
                ((sym, Fresh(INF)), (make_counter(str(sym), t + 1), Fresh(INF))),
                name=f"tick:{sym}:{t}",
            ))
        out.append(RewriteRule(
            None,
            Multiset([sym, make_counter(str(sym), life)]),
            (),
            name=f"kill:{sym}",
        ))
    for label in sorted(label_timers):
        t_mem = label_timers[label]
        if t_mem == INF:
            continue
        t_mem = int(t_mem)
        for t in range(t_mem):
            out.append(RewriteRule(
                None,
                Multiset([make_counter(label, t)]),
                ((make_counter(label, t + 1), Fresh(INF)),),
                name=f"tick:{label}:{t}",
            ))
        out.append(RewriteRule(
            label,
            Multiset([make_counter(label, t_mem)]),
            ((DELTA, Fresh(INF)),),
            name=f"kill:{label}",
        ))

    for rule in rules:
        schema = _move_schema(rule, lifetimes, label_timers)
        if schema is not None:
            out.append(schema)
    return uconfig, CompiledRules(out)


@dataclass(frozen=True)
class MoveSchema(Sequence):
    """The untimed family of one timed endo/exo rule, kept as the rule, the
    lifetimes of its active and passive slots and the timers of ``h`` and
    ``m`` (``None`` where the membrane has no counter).

    It reads as the sequence of its members, one per counter vector over
    the axes (active slots, passive slots, ``h``, ``m``), last axis
    fastest. Member ``i`` is built on demand by mixed-radix decoding of
    ``i``. In a member, carried objects advance their counter by one, fresh
    objects start at 0, the active membrane's counter advances, and the
    passive membrane's counter is bound and advanced, which also enforces
    the "passive timer greater than 0" precondition."""

    rule: MoveRule
    active_lives: tuple
    passive_lives: tuple
    h_timer: int | None
    m_timer: int | None
    # (side, counter for each value) per axis; side 0 reads the active
    # membrane, side 1 the passive one
    _axes: tuple = field(init=False, repr=False, compare=False)
    _len: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rule = self.rule
        axes = [(0, str(s), life) for s, life in zip(rule.active_slots, self.active_lives)]
        axes += [(1, str(s), life) for s, life in zip(rule.passive_slots, self.passive_lives)]
        if self.h_timer is not None:
            axes.append((0, rule.h, self.h_timer))
        if self.m_timer is not None:
            axes.append((1, rule.m, self.m_timer))
        axes = tuple((side, tuple(make_counter(base, j) for j in range(life))) for side, base, life in axes)
        object.__setattr__(self, "_axes", axes)
        object.__setattr__(self, "_len", prod(len(counters) for _side, counters in axes))

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int) -> MoveRule:
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
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
        n_active, n_passive = len(self.active_lives), len(self.passive_lives)
        a_vec = vector[:n_active]
        p_vec = vector[n_active:n_active + n_passive]
        rest = list(vector[n_active + n_passive:])
        t3 = rest.pop(0) if self.h_timer is not None else None
        t6 = rest.pop(0) if self.m_timer is not None else None

        v = rule.v
        for sym, j in zip(rule.active_slots, a_vec):
            v = v.add(make_counter(str(sym), j))
        if t3 is not None:
            v = v.add(make_counter(rule.h, t3))
        v2 = rule.v2
        for sym, j in zip(rule.passive_slots, p_vec):
            v2 = v2.add(make_counter(str(sym), j))
        if t6 is not None:
            v2 = v2.add(make_counter(rule.m, t6))

        def compile_prods(prods, vec):
            compiled = []
            for sym, spec in prods:
                compiled.append((sym, Fresh(INF)))
                if isinstance(spec, Fresh):
                    compiled.append((make_counter(str(sym), 0), Fresh(INF)))
                else:
                    compiled.append((make_counter(str(sym), vec[spec.slot] + 1), Fresh(INF)))
            return compiled

        w = compile_prods(rule.w, a_vec)
        if t3 is not None:
            w.append((make_counter(rule.h, t3 + 1), Fresh(INF)))
        w2 = compile_prods(rule.w2, p_vec)
        if t6 is not None:
            w2.append((make_counter(rule.m, t6 + 1), Fresh(INF)))

        name = f"{rule.name or 'move'}:{','.join(map(str, vector))}"
        cls = EndoRule if isinstance(rule, EndoRule) else ExoRule
        return cls(rule.h, rule.m, rule.u, v, v2, tuple(w), tuple(w2), name=name)


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
            start += len(item) if isinstance(item, MoveSchema) else 1
        self._parts = tuple(parts)
        self._len = start
        self._tables = {}

    @property
    def parts(self) -> tuple:
        return self._parts

    def schemas(self) -> list[MoveSchema]:
        return [item for _start, item in self._parts if isinstance(item, MoveSchema)]

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
    return schema if len(schema) else None


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
