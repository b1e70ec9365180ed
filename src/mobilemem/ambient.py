"""Timed safe mobile ambients: syntax, time progress, and reduction.

Processes are inactivity ``0``, capability prefixes ``C:t n . P`` with C in
{in, out, ~in, ~out}, ambients ``n:t[P]``, and parallel composition. Every
capability and ambient carries a timer (``inf`` allowed). Ambients carry an
active/passive tag: a mover becomes passive for the rest of the time unit
and is re-activated by the global clock tick.

One reduction step either fires a nonempty set of independent movement
redexes (an entering ambient must be active and its target's body exactly
one matching co-prefix; an exiting ambient must be active next to the
co-prefix inside its parent), or, when no redex exists anywhere, applies
the global time progress function to the whole term: prefixes and ambients
at timer 0 release their continuation or body, everything else loses one
tick (``inf`` stays), and all tags become active. The released body of a
timer-0 ambient is not itself ticked; with a mover inside, its passive tag
can survive the tick. All four timers of a redex must be positive; an
expired capability never fires.

Parallel composition is kept in normal form (flattened, no ``0`` parts,
parts canonically sorted), which makes structural congruence a syntactic
equality check. Process nodes are frozen and list their immediate
subterms as ``children``, so each stores its canonical key on first use
(``core.stored_render``) and ``par`` sorts by keys computed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from .core import Timer, decrement, memo_slot, rebuild_tree, stored_render, timer_str, walk_tree
from .lexer import Cursor, PositionedError


@dataclass(frozen=True)
class Capability:
    kind: str  # "in" or "out"
    co: bool
    target: str
    timer: Timer

    def __str__(self) -> str:
        return f"{'~' if self.co else ''}{self.kind}:{timer_str(self.timer)} {self.target}"


@dataclass(frozen=True, slots=True)
class Zero:
    _render: str | None = memo_slot()

    children = ()

    def __str__(self) -> str:
        return "0"


ZERO = Zero()


@dataclass(frozen=True, slots=True)
class Prefix:
    cap: Capability
    cont: "Process" = ZERO
    _render: str | None = memo_slot()

    @property
    def children(self) -> tuple:
        return (self.cont,)


@dataclass(frozen=True, slots=True)
class Amb:
    name: str
    timer: Timer
    body: "Process" = ZERO
    tag: str = "a"  # "a" active, "p" passive
    _render: str | None = memo_slot()

    @property
    def children(self) -> tuple:
        return (self.body,)


@dataclass(frozen=True, slots=True)
class Par:
    parts: tuple
    _render: str | None = memo_slot()

    @property
    def children(self) -> tuple:
        return self.parts


Process = Union[Zero, Prefix, Amb, Par]


def _key_one(p: Process) -> str:
    if isinstance(p, Zero):
        return "0"
    if isinstance(p, Prefix):
        return f"{p.cap}.{p.cont._render}"
    if isinstance(p, Amb):
        return f"{p.name}:{timer_str(p.timer)}^{p.tag}[{p.body._render}]"
    return "(" + " | ".join([x._render for x in p.parts]) + ")"


def canonical_key(p: Process) -> str:
    """Deterministic rendering with tags; equal keys iff congruent. Stored
    in each node on first use."""
    return stored_render(p, _key_one)


def par(*parts: Process) -> Process:
    """Smart parallel composition: flatten, drop 0, sort canonically."""
    flat: list[Process] = []
    for p in parts:
        if isinstance(p, Par):
            flat.extend(p.parts)
        elif not isinstance(p, Zero):
            flat.append(p)
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Par(tuple(sorted(flat, key=canonical_key)))


def _rebuild(p: Process, tag: str | None) -> Process:
    """``p`` rebuilt bottom-up with every parallel composition through
    ``par``; ``tag``, when given, replaces every ambient's tag."""

    def make(q: Process, built: tuple) -> Process:
        if isinstance(q, Par):
            return par(*built)
        if isinstance(q, Amb):
            return Amb(q.name, q.timer, built[0], tag or q.tag)
        if isinstance(q, Prefix):
            return Prefix(q.cap, built[0])
        return q

    return rebuild_tree(p, make)


def _is_normal(p: Process) -> bool:
    """Whether ``p`` is already in normal form: every parallel composition
    holds two or more parts, none of them ``0`` or parallel, in key order.
    Reads the parts' keys, stored once computed, and builds no term."""
    for q in walk_tree(p):
        if isinstance(q, Par):
            if len(q.parts) < 2 or any(isinstance(x, (Par, Zero)) for x in q.parts):
                return False
            keys = [canonical_key(x) for x in q.parts]
            if any(keys[i] > keys[i + 1] for i in range(len(keys) - 1)):
                return False
    return True


def normalize(p: Process) -> Process:
    """The normal form of ``p``: ``p`` itself when it is normal already,
    as parsed terms, reducts and reach-graph states are, otherwise a copy
    rebuilt through ``par``."""
    return p if _is_normal(p) else _rebuild(p, None)


def congruent(p: Process, q: Process) -> bool:
    """Structural congruence: equality up to parallel reordering and 0."""
    return canonical_key(normalize(p)) == canonical_key(normalize(q))


def erase_tags(p: Process) -> Process:
    """The same process with every ambient re-tagged active."""
    return _rebuild(p, "a")


def soup(p: Process) -> list[Process]:
    """Parallel components of a normalized process."""
    if isinstance(p, Par):
        return list(p.parts)
    if isinstance(p, Zero):
        return []
    return [p]


def subterms(p: Process) -> Iterator[Process]:
    """Every subterm of ``p``, ``p`` first, in pre-order; iterative, so
    nesting depth is not bounded by the recursion limit."""
    return walk_tree(p)


# ---------------------------------------------------------------------------
# Global time progress

def phi_delta(p: Process) -> Process:
    """One tick of the universal clock over the whole term."""
    if isinstance(p, Zero):
        return p
    if isinstance(p, Prefix):
        if p.cap.timer == 0:
            return p.cont
        cap = Capability(p.cap.kind, p.cap.co, p.cap.target, decrement(p.cap.timer))
        return Prefix(cap, p.cont)
    if isinstance(p, Amb):
        if p.timer == 0:
            return p.body
        return Amb(p.name, decrement(p.timer), phi_delta(p.body), "a")
    return par(*(phi_delta(x) for x in p.parts))


# ---------------------------------------------------------------------------
# Redexes and reduction

@dataclass(frozen=True)
class Redex:
    """One movement opportunity: the path addresses the enclosing soup
    (indices of ambient components from the top), then the component
    slots taking part."""

    kind: str  # "in" or "out"
    path: tuple
    mover: str
    target: str
    slots: tuple  # component indices consumed at that soup

    def describe(self) -> str:
        where = "/".join(map(str, self.path)) or "top"
        return f"{self.kind}:{self.mover}->{self.target}@{where}"


def _prefix_slots(body_parts: list[Process], kind: str, target: str) -> list[int]:
    """Slots of live positive ``kind`` prefixes aimed at ``target``."""
    return [
        c for c, comp in enumerate(body_parts)
        if isinstance(comp, Prefix)
        and comp.cap.kind == kind
        and not comp.cap.co
        and comp.cap.target == target
        and comp.cap.timer > 0
    ]


def _local_redexes(parts: list[Process], path: tuple) -> list[tuple]:
    """(redex, firing data) pairs whose participants are components of this
    soup. R-In takes two sibling slots; R-Out takes one."""
    found = []
    for j, comp in enumerate(parts):
        if not isinstance(comp, Amb) or not comp.timer > 0:
            continue
        # R-In target: body is exactly one matching co-in prefix.
        body = soup(comp.body)
        if len(body) == 1 and isinstance(body[0], Prefix):
            cap = body[0].cap
            if cap.kind == "in" and cap.co and cap.target == comp.name and cap.timer > 0:
                for i, mover in enumerate(parts):
                    if i == j or not isinstance(mover, Amb):
                        continue
                    if mover.tag != "a" or not mover.timer > 0:
                        continue
                    for c in _prefix_slots(soup(mover.body), "in", comp.name):
                        redex = Redex("in", path, mover.name, comp.name, (i, j))
                        found.append((redex, ("in", i, j, c)))
        # R-Out: body is exactly the mover plus one matching co-out prefix.
        if len(body) == 2:
            for a_idx, co_idx in ((0, 1), (1, 0)):
                mover, co = body[a_idx], body[co_idx]
                if not isinstance(mover, Amb) or not isinstance(co, Prefix):
                    continue
                if mover.tag != "a" or not mover.timer > 0:
                    continue
                cap = co.cap
                if not (cap.kind == "out" and cap.co and cap.target == comp.name and cap.timer > 0):
                    continue
                for c in _prefix_slots(soup(mover.body), "out", comp.name):
                    redex = Redex("out", path, mover.name, comp.name, (j,))
                    found.append((redex, ("out", j, a_idx, co_idx, c)))
    return found


def redexes(p: Process) -> list[Redex]:
    """Every movement opportunity anywhere in the term."""
    p = normalize(p)
    found: list[Redex] = []

    def walk(parts: list[Process], path: tuple):
        found.extend(r for r, _f in _local_redexes(parts, path))
        for idx, comp in enumerate(parts):
            if isinstance(comp, Amb):
                walk(soup(comp.body), path + (idx,))

    walk(soup(p), ())
    return found


def _spend(mover: Amb, c: int) -> Amb:
    """The mover, now passive, with the prefix in body slot ``c`` fired."""
    mbody = soup(mover.body)
    return Amb(mover.name, mover.timer, par(*(mbody[:c] + mbody[c + 1:]), mbody[c].cont), "p")


def _fire_in(parts: list[Process], i: int, j: int, c: int) -> Amb:
    """The target with the mover inside; both leave the soup."""
    target = parts[j]
    co = soup(target.body)[0]
    return Amb(target.name, target.timer, par(_spend(parts[i], c), co.cont), target.tag)


def _fire_out(parts: list[Process], j: int, a_idx: int, co_idx: int, c: int) -> list[Process]:
    """The emptied parent and the mover beside it, replacing the parent."""
    parent = parts[j]
    body = soup(parent.body)
    return [Amb(parent.name, parent.timer, body[co_idx].cont, parent.tag), _spend(body[a_idx], c)]


def _soup_variants(parts: list[Process]) -> list[tuple[int, list[Process]]]:
    """All (fired count, components) results of firing an independent set
    of redexes within this soup and below. Count 0 is the unchanged soup."""
    local = _local_redexes(parts, ())

    def inner_variants(comp: Process) -> list[tuple[int, Process]]:
        if not isinstance(comp, Amb):
            return [(0, comp)]
        out = []
        for cnt, new_body in _soup_variants(soup(comp.body)):
            out.append((cnt, comp if cnt == 0 else Amb(comp.name, comp.timer, par(*new_body), comp.tag)))
        return out

    results: list[tuple[int, list[Process]]] = []

    def choose(rdx_idx: int, used: frozenset, fired: list):
        if rdx_idx == len(local):
            from itertools import product

            free = [k for k in range(len(parts)) if k not in used]
            options = [inner_variants(parts[k]) for k in free]
            for combo in product(*options) if options else [()]:
                count = sum(c for c, _x in combo)
                comps = [x for _c, x in combo]
                for _redex, data in fired:
                    if data[0] == "in":
                        comps.append(_fire_in(parts, *data[1:]))
                    else:
                        comps.extend(_fire_out(parts, *data[1:]))
                results.append((count + len(fired), comps))
            return
        choose(rdx_idx + 1, used, fired)
        redex, data = local[rdx_idx]
        if not used & set(redex.slots):
            choose(rdx_idx + 1, used | set(redex.slots), fired + [(redex, data)])

    choose(0, frozenset(), [])
    return results


class Reducts(list):
    """The one-step reducts of a process. ``moved`` tells movement reducts
    from the clock tick, so the caller need not search for redexes again."""

    __slots__ = ("moved",)

    def __init__(self, reducts, moved: bool):
        super().__init__(reducts)
        self.moved = moved


def reduce_step(p: Process) -> Reducts:
    """All one-step reducts: every nonempty independent redex set fired
    simultaneously, in key order, or the single clock tick when no redex
    exists."""
    p = normalize(p)
    seen: dict[str, Process] = {}
    for count, comps in _soup_variants(soup(p)):
        if count:
            result = par(*comps)
            seen.setdefault(canonical_key(result), result)
    if not seen:  # the tick of a normal term is normal
        return Reducts([phi_delta(p)], moved=False)
    return Reducts([seen[k] for k in sorted(seen)], moved=True)


# ---------------------------------------------------------------------------
# Concrete syntax

class AmbientSyntaxError(PositionedError):
    """Bad ``.amb`` syntax, at a ``line:col`` position."""


_PUNCT = {":", "[", "]", "(", ")", "|", ".", "~"}
_KEYWORDS = {"in", "out", "inf"}


class _Parser(Cursor):
    error = AmbientSyntaxError

    def parse(self) -> Process:
        p = self.process()
        if self.peek()[0] != "eof":
            self.fail(f"trailing input {self.peek()[1]!r}")
        return p

    def process(self) -> Process:
        parts = [self.term()]
        while self.peek()[0] == "|":
            self.next()
            parts.append(self.term())
        return par(*parts)

    def term(self) -> Process:
        tok = self.peek()
        kind, val = tok[0], tok[1]
        if kind == "int" and val == "0":
            self.next()
            return ZERO
        if kind == "(":
            self.next()
            p = self.process()
            self.expect(")")
            return p
        if kind == "~":
            self.next()
            word = self.expect("ident")
            if word[1] not in ("in", "out"):
                self.fail("expected in or out after ~", word)
            return self.prefix(word[1], co=True)
        if kind == "ident" and val in ("in", "out"):
            self.next()
            return self.prefix(val, co=False)
        if kind == "ident":
            self.next()
            if val in _KEYWORDS:
                self.fail(f"{val!r} is reserved", tok)
            self.expect(":")
            t = self.timer()
            self.expect("[")
            if self.peek()[0] == "]":
                self.next()
                return Amb(val, t, ZERO)
            body = self.process()
            self.expect("]")
            return Amb(val, t, body)
        self.fail(f"unexpected token {val!r}", tok)

    def prefix(self, kind: str, co: bool) -> Process:
        self.expect(":")
        t = self.timer()
        tok = self.expect("ident")
        if tok[1] in _KEYWORDS:
            self.fail(f"{tok[1]!r} cannot name an ambient", tok)
        cap = Capability(kind, co, tok[1], t)
        if self.peek()[0] == ".":
            self.next()
            return Prefix(cap, self.term())
        return Prefix(cap, ZERO)


def parse_ambient(text: str) -> Process:
    """Parse the concrete syntax into a normal-form process, all tags
    active. Raises AmbientSyntaxError with a position on bad input."""
    return _Parser(text, _PUNCT).parse()


def render_process(p: Process) -> str:
    """Source text for an initial (all-active) process; round-trips
    through parse_ambient. Built on ``core.rebuild_tree``, so nesting
    depth is not bounded by the recursion limit."""
    return rebuild_tree(p, _source_one)


def _source_one(p: Process, built: tuple) -> str:
    """One term's source text from its children's."""
    if isinstance(p, Zero):
        return "0"
    if isinstance(p, Prefix):
        if isinstance(p.cont, Zero):
            return str(p.cap)
        cont = f"({built[0]})" if isinstance(p.cont, Par) else built[0]
        return f"{p.cap} . {cont}"
    if isinstance(p, Amb):
        if p.tag != "a":
            raise ValueError("only initial (all-active) processes have a source form")
        if isinstance(p.body, Zero):
            return f"{p.name}:{timer_str(p.timer)}[]"
        return f"{p.name}:{timer_str(p.timer)}[ {built[0]} ]"
    return " | ".join(f"({text})" if isinstance(x, Par) else text for x, text in zip(p.parts, built))
