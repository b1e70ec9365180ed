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
equality check. Process nodes are immutable and list their immediate
subterms as ``children``, so each stores its canonical key on first use
(``canonical_key``) and ``par`` sorts by keys computed once; key memory
so grows with the square of the nesting depth.

No function here recurses, so nesting depth is not bounded by the
recursion limit. The tick is a ``core.rebuild_tree`` fold that enters no
prefix and no expiring ambient; ``redexes`` walks soups on a stack;
``reduce_step`` is one bottom-up fold that builds each ambient's reducts
once; the parser keeps its open terms on a stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Union

from .core import FrozenTree, Timer, decrement, memo_slot, rebuild_tree, timer_str, walk_tree
from .lexer import Cursor, PositionedError


@dataclass(frozen=True)
class Capability:
    kind: str  # "in" or "out"
    co: bool
    target: str
    timer: Timer

    def __str__(self) -> str:
        return f"{'~' if self.co else ''}{self.kind}:{timer_str(self.timer)} {self.target}"


@dataclass(slots=True, eq=False)
class Zero(FrozenTree):
    _render: str | None = memo_slot()

    children = ()

    def _fields(self) -> tuple:
        return ()

    def __str__(self) -> str:
        return "0"


ZERO = Zero()


@dataclass(slots=True, eq=False)
class Prefix(FrozenTree):
    cap: Capability
    cont: "Process" = ZERO
    _render: str | None = memo_slot()

    def _fields(self) -> tuple:
        return (self.cap,)

    @property
    def children(self) -> tuple:
        return (self.cont,)


@dataclass(slots=True, eq=False)
class Amb(FrozenTree):
    name: str
    timer: Timer
    body: "Process" = ZERO
    tag: str = "a"  # "a" active, "p" passive
    _render: str | None = memo_slot()

    def _fields(self) -> tuple:
        return (self.name, self.timer, self.tag)

    @property
    def children(self) -> tuple:
        return (self.body,)


@dataclass(slots=True, eq=False)
class Par(FrozenTree):
    parts: tuple
    _render: str | None = memo_slot()

    def _fields(self) -> tuple:
        return ()

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
    """Deterministic rendering with tags; equal keys iff congruent. Kept
    in the ``_render`` slot of ``p`` and of every subterm below it that
    lacks one, children first, by plain assignment: terms never change
    once built, so a subterm shared between processes is rendered once."""
    if p._render is None:
        order = []
        stack = [p]
        while stack:
            n = stack.pop()
            order.append(n)
            stack.extend([c for c in n.children if c._render is None])
        for n in reversed(order):
            n._render = _key_one(n)
    return p._render


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
    """One tick of the universal clock over the whole term: a fold that
    enters neither prefixes nor expiring ambients."""
    return rebuild_tree(p, _tick_one, _tick_whole)


def _tick_whole(p: Process) -> bool:
    """Whether the tick leaves what ``p`` holds untouched: a prefix's
    continuation, an expiring ambient's body."""
    return isinstance(p, Prefix) or isinstance(p, Amb) and p.timer == 0


def _tick_one(p: Process, built: tuple) -> Process:
    if isinstance(p, Prefix):
        if p.cap.timer == 0:
            return p.cont
        cap = Capability(p.cap.kind, p.cap.co, p.cap.target, decrement(p.cap.timer))
        return Prefix(cap, p.cont)
    if isinstance(p, Amb):
        return p.body if p.timer == 0 else Amb(p.name, decrement(p.timer), built[0], "a")
    if isinstance(p, Par):
        return par(*built)
    return p


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


def _live(p: Process, kind: str, co: bool, target: str) -> bool:
    """Whether ``p`` is a prefix ``kind target``, a co-capability when
    ``co``, with a positive timer."""
    return isinstance(p, Prefix) and p.cap.timer > 0 and (p.cap.kind, p.cap.co, p.cap.target) == (kind, co, target)


def _spent(mover: Process, kind: str, target: str) -> list[Amb]:
    """An active, live ambient made passive with one live ``kind target``
    prefix of its body fired: one result per such prefix, none for any
    other component."""
    if not isinstance(mover, Amb) or mover.tag != "a" or not mover.timer > 0:
        return []
    body = soup(mover.body)
    return [
        Amb(mover.name, mover.timer, par(*body[:c], *body[c + 1:], x.cont), "p")
        for c, x in enumerate(body) if _live(x, kind, False, target)
    ]


def _local_redexes(parts: list[Process], path: tuple) -> list[tuple[Redex, list[Process]]]:
    """The redexes whose participants are components of this soup, each
    with the components it leaves in place of its slots. R-In takes the
    mover's and the target's slots and leaves the target holding the
    spent mover; R-Out takes the parent's slot and leaves the emptied
    parent with the spent mover beside it."""
    found = []
    for j, comp in enumerate(parts):
        if not isinstance(comp, Amb) or not comp.timer > 0:
            continue
        # R-In target: body is exactly one matching co-in prefix, so the
        # target itself has no in-prefix to spend and never moves into itself.
        body = soup(comp.body)
        if len(body) == 1 and _live(body[0], "in", True, comp.name):
            for i, mover in enumerate(parts):
                for spent in _spent(mover, "in", comp.name):
                    left = Amb(comp.name, comp.timer, par(spent, body[0].cont), comp.tag)
                    found.append((Redex("in", path, mover.name, comp.name, (i, j)), [left]))
        # R-Out: body is exactly the mover plus one matching co-out prefix.
        if len(body) == 2:
            for mover, co in (body, body[::-1]):
                if _live(co, "out", True, comp.name):
                    for spent in _spent(mover, "out", comp.name):
                        left = [Amb(comp.name, comp.timer, co.cont, comp.tag), spent]
                        found.append((Redex("out", path, mover.name, comp.name, (j,)), left))
    return found


def redexes(p: Process) -> list[Redex]:
    """Every movement opportunity anywhere in the term, soup by soup in
    pre-order, on an explicit stack."""
    found: list[Redex] = []
    stack = [(soup(normalize(p)), ())]
    while stack:
        parts, path = stack.pop()
        found.extend(r for r, _left in _local_redexes(parts, path))
        stack.extend(reversed([
            (soup(comp.body), path + (i,)) for i, comp in enumerate(parts) if isinstance(comp, Amb)
        ]))
    return found


def _fired_soups(parts: list[Process], variants: tuple) -> list[list[Process]]:
    """The components of every result of firing a nonempty independent
    set of redexes within this soup and below. ``variants[k]`` lists
    component k unchanged first, then each result of firing inside it.
    The independent sets of local redexes are grown one redex at a time,
    each with the components its redexes leave and the slots they take."""
    sets: list[tuple[tuple, frozenset]] = [((), frozenset())]
    for redex, left in _local_redexes(parts, ()):
        slots = frozenset(redex.slots)
        sets += [(fired + tuple(left), used | slots) for fired, used in sets if not used & slots]
    out = []
    for fired, used in sets:
        combos = product(*[v for k, v in enumerate(variants) if k not in used])
        if not fired:
            next(combos)  # product starts with every component unchanged: nothing fired
        out.extend([*combo, *fired] for combo in combos)
    return out


def _variants_one(p: Process, built: tuple) -> tuple:
    """For each component of ``p`` as a soup, the list of that component
    unchanged and then each result of firing inside it. An ambient's
    results are built here once, from its body's soup."""
    if isinstance(p, Amb):
        inner = _fired_soups(soup(p.body), built[0])
        return ([p, *(Amb(p.name, p.timer, par(*comps), p.tag) for comps in inner)],)
    if isinstance(p, Par):
        return tuple(v for (v,) in built)
    return ([p],) if isinstance(p, Prefix) else ()


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
    for comps in _fired_soups(soup(p), rebuild_tree(p, _variants_one, lambda q: isinstance(q, Prefix))):
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
    """``process := term ('|' term)*``, ``term := 0 | '(' process ')' |
    ['~'] (in|out) ':' timer name ['.' term] | name ':' timer '[' [process]
    ']'``, read on one explicit stack instead of a descent. The stack holds
    open compositions, as (closing token, ambient head or None, parts so
    far), and prefixes waiting for their continuation, as their capability."""

    error = AmbientSyntaxError

    def parse(self) -> Process:
        stack: list = [("eof", None, [])]
        while True:
            term = self.term(stack)
            while term is not None:  # a finished term closes what it completes
                while isinstance(stack[-1], Capability):
                    term = Prefix(stack.pop(), term)
                closer, head, parts = stack[-1]
                parts.append(term)
                if self.peek()[0] == "|":
                    self.next()
                    term = None
                elif closer == "eof":
                    if self.peek()[0] != "eof":
                        self.fail(f"trailing input {self.peek()[1]!r}")
                    return par(*parts)
                else:
                    self.expect(closer)
                    stack.pop()
                    term = par(*parts) if head is None else Amb(*head, par(*parts))

    def term(self, stack: list) -> Process | None:
        """The next term when it is complete at once; ``None`` when it
        opened a composition or a prefix on ``stack`` instead."""
        tok = self.next()
        kind, val = tok[0], tok[1]
        if kind == "int" and val == "0":
            return ZERO
        if kind == "(":
            stack.append((")", None, []))
            return None
        if kind == "~":
            word = self.expect("ident")
            if word[1] not in ("in", "out"):
                self.fail("expected in or out after ~", word)
            val = word[1]
        elif kind != "ident":
            self.fail(f"unexpected token {val!r}", tok)
        elif val not in ("in", "out"):  # an ambient
            if val in _KEYWORDS:
                self.fail(f"{val!r} is reserved", tok)
            self.expect(":")
            t = self.timer()
            self.expect("[")
            if self.peek()[0] == "]":
                self.next()
                return Amb(val, t, ZERO)
            stack.append(("]", (val, t), []))
            return None
        self.expect(":")  # a prefix
        t = self.timer()
        name = self.expect("ident")
        if name[1] in _KEYWORDS:
            self.fail(f"{name[1]!r} cannot name an ambient", name)
        cap = Capability(val, kind == "~", name[1], t)
        if self.peek()[0] != ".":
            return Prefix(cap, ZERO)
        self.next()
        stack.append(cap)
        return None


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
