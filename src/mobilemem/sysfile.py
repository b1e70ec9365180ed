"""The .mms membrane-system file format.

::

    mms 1 timed            # or: untimed, optionally followed by
    output skin            # "compiled" and/or "strict"

    skin:inf[ a:2, ~b:3 ; h:3[ x:1 ] m:inf[] ]

    endo h m : a | b , ~a | x => c:+7 a:- | x:-
    exo  h m : a |   , ~a |   =>      |
    rw   h   : a a => b:+3
    rw   *   : a => delta

Membranes are ``label:timer[ objects ; children ]``; objects are comma
separated, co-objects carry ``~``. Rule sides are space-separated symbol
lists; in right-hand sides ``sym:+t`` creates a fresh timer, ``sym:-``
carries the timer of the matching left occurrence (the k-th ``sym:-``
carries the k-th left occurrence of ``sym``), and bare ``delta`` marks the
host for dissolution. Untimed files omit every ``:timer`` and write bare
symbols on both rule sides. ``inf`` is the only spelling of infinity.
``strict`` in the header sets ``keep_active_timer`` on each movement rule
as it is read: the moving membrane keeps its timer. Rule names are
positional (``r0``, ``r1``, ...) and not serialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NoReturn, Union

from .core import (
    DELTA_NAME,
    INF,
    Carry,
    Configuration,
    EndoRule,
    ExoRule,
    Fresh,
    MembraneNode,
    Multiset,
    RewriteRule,
    Rule,
    RuleSet,
    Symbol,
    at_rest,
    number_fresh,
    rebuild_tree,
    rule_name,
    slot_tuple,
    timer_str,
    validate,
)
from .lexer import Cursor, PositionedError
from .untimed import UConfig, UNode


class ParseError(PositionedError):
    """Bad ``.mms`` syntax, at a ``line:col`` position."""


class InvalidSystemError(ValueError):
    """A file that parses but describes an ill-formed system; carries every
    violation ``core.validate`` found."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid system: " + "; ".join(violations))
        self.violations = violations


@dataclass
class SystemFile:
    timed: bool
    output: str
    config: Union[Configuration, UConfig]
    rules: tuple
    compiled: bool = False
    strict: bool = False


_PUNCT = {"[", "]", ";", ",", "|", ":", "+", "-", "*", "~"}
_KEYWORDS = frozenset(("endo", "exo", "rw"))


class _Made(dict):
    """Values made once per parse: ``self[key]`` is ``make(key)``, made
    on first use."""

    __slots__ = ("make",)

    def __init__(self, make, *args):
        super().__init__(*args)
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _timer_value(value: str):
    """The timer a token's text spells, ``None`` if it spells none; the
    text of an ``int`` token is ASCII digits and no other token's is."""
    return int(value) if value.isdigit() else None


class _Parser(Cursor):
    """The ``.mms`` reader. Membrane heads, objects and the symbols of
    rule sides are read straight off the token lists in one pass, and each
    symbol, timer and ``Fresh`` spec is made once per parse (``_Made``).
    The first token the grammar refuses raises the error ``expect`` or
    ``timer`` would raise there (``refuse``, ``refuse_timer``)."""

    error = ParseError

    def __init__(self, text: str):
        super().__init__(text, _PUNCT, ("=>",), "_$")
        self.plain = _Made(Symbol)
        self.co = _Made(lambda name: Symbol(name, True))
        self.timers = _Made(_timer_value, {"inf": INF})
        self.fresh = _Made(Fresh)

    def ident(self, what: str = "identifier") -> str:
        return self.expect("ident", what)[1]

    def refuse_timer(self, p: int) -> NoReturn:
        """Raise ``timer``'s error at token ``p``, which spells no timer."""
        self.pos = p
        self.timer()

    # -- header ------------------------------------------------------------
    def header(self) -> None:
        """Read the header and keep its flags: ``timed``, ``compiled``, ``strict``."""
        tok = self.expect("ident", "mms header")
        if tok[1] != "mms":
            self.fail("file must start with 'mms'", tok)
        version = self.expect("int", "format version")
        if version[1] != "1":
            self.fail(f"unsupported version {version[1]}", version)
        mode = self.ident("'timed' or 'untimed'")
        if mode not in ("timed", "untimed"):
            self.fail("expected 'timed' or 'untimed'")
        self.timed = mode == "timed"
        self.compiled = self.strict = False
        while self.peek()[0] == "ident" and self.peek()[1] in ("compiled", "strict"):
            setattr(self, self.next()[1], True)

    # -- membranes ----------------------------------------------------------
    def membrane(self):
        """One membrane and all it holds. Open membranes wait on an
        explicit stack, so nesting depth is not bounded by the recursion
        limit."""
        stack: list[tuple] = []  # open membranes: (label, timer, objects, children)
        kinds = self.kinds
        while True:
            label, timer = self.head()
            objects = self.objects()
            if kinds[self.pos] == ";":
                self.pos += 1
            stack.append((label, timer, objects, []))
            while kinds[self.pos] == "]":
                self.pos += 1
                label, timer, objects, children = stack.pop()
                if self.timed:
                    node = MembraneNode(label, timer, Multiset(objects), tuple(children))
                else:
                    node = UNode(label, Multiset(objects), tuple(children))
                if not stack:
                    return node
                stack[-1][3].append(node)

    def head(self) -> tuple:
        """A membrane's label and timer, from ``label:timer[``
        (``label[`` untimed)."""
        kinds, values, p = self.kinds, self.values, self.pos
        if kinds[p] != "ident":
            self.refuse(p, "membrane label")
        q, timer = p + 1, INF
        if self.timed:
            if kinds[q] != ":":
                self.refuse(q, "':timer'")
            timer = self.timers[values[q + 1]]
            if timer is None:
                self.refuse_timer(q + 1)
            q += 2
        if kinds[q] != "[":
            self.refuse(q, "[")
        self.pos = q + 1
        return values[p], timer

    def objects(self) -> list:
        """A membrane's comma-separated objects, each ``[~]name:timer``
        (``[~]name`` untimed); none unless the next token starts one."""
        kinds, values, p = self.kinds, self.values, self.pos
        if kinds[p] not in ("~", "ident"):
            return []
        plain, co, timers, timed = self.plain, self.co, self.timers, self.timed
        out = []
        while True:
            names = plain
            if kinds[p] == "~":
                names, p = co, p + 1
            if kinds[p] != "ident":
                self.refuse(p, "object name")
            if timed:
                if kinds[p + 1] != ":":
                    self.refuse(p + 1, "':timer'")
                timer = timers[values[p + 2]]
                if timer is None:
                    self.refuse_timer(p + 2)
                out.append((names[values[p]], timer))
                p += 3
            else:
                out.append(names[values[p]])
                p += 1
            if kinds[p] != ",":
                self.pos = p
                return out
            p += 1

    # -- rules --------------------------------------------------------------
    def next_symbol(self, stops: set) -> Symbol | None:
        """The symbol of a rule side that the next token starts, ``None``
        at the side's end: a stop, eof or a rule keyword."""
        kinds, p = self.kinds, self.pos
        kind = kinds[p]
        if kind == "ident":
            name = self.values[p]
            if name in _KEYWORDS:
                return None
            self.pos = p + 1
            return self.plain[name]
        if kind == "~":
            if kinds[p + 1] != "ident":
                self.refuse(p + 1, "object name")
            self.pos = p + 2
            return self.co[self.values[p + 1]]
        if kind in stops or kind == "eof":
            return None
        self.refuse(p, "object name")

    def symbols_until(self, stops: set) -> list[Symbol]:
        out = []
        sym = self.next_symbol(stops)
        while sym is not None:
            out.append(sym)
            sym = self.next_symbol(stops)
        return out

    def products_until(self, stops: set, slots: tuple) -> tuple:
        """A right side; the k-th ``sym:-`` carries the k-th slot of ``sym``."""
        free: dict[Symbol, list[int]] = {}  # symbol -> its slots not yet carried
        for idx, sym in enumerate(slots):
            free.setdefault(sym, []).append(idx)
        prods = []
        sym = self.next_symbol(stops)
        while sym is not None:
            prods.append(self.product(sym, free) if self.timed else (sym, self.fresh[INF]))
            sym = self.next_symbol(stops)
        return tuple(prods)

    def product(self, sym: Symbol, free: dict) -> tuple:
        """A timed product of ``sym``, read: ``:+timer``, ``:-``, or
        nothing after a bare ``delta``."""
        if self.peek()[0] != ":":
            if sym.name == DELTA_NAME and not sym.is_co:
                return (sym, self.fresh[INF])
            self.fail(f"product {sym} needs ':+timer' or ':-'")
        self.next()
        tok = self.peek()
        if tok[0] == "+":
            self.next()
            return (sym, self.fresh[self.timer()])
        if tok[0] == "-":
            self.next()
            if not free.get(sym):
                self.fail(f"no left occurrence of {sym} left to carry", tok)
            return (sym, Carry(free[sym].pop(0)))
        self.fail("expected '+timer' or '-' after ':'")

    def move_rule(self, keyword: str, index: int) -> Rule:
        h = self.ident("active label")
        m = self.ident("passive label")
        self.expect(":")
        u = Multiset(self.symbols_until({"|"}))
        self.expect("|")
        v = Multiset(self.symbols_until({","}))
        self.expect(",")
        u_bar_listed = Multiset(self.symbols_until({"|"}))
        self.expect("|")
        v2 = Multiset(self.symbols_until({"=>"}))
        self.expect("=>")
        cls = EndoRule if keyword == "endo" else ExoRule
        u_bar = Multiset([(self.plain if sym.is_co else self.co)[sym.name] for sym in u])
        w = self.products_until({"|"}, slot_tuple(u, v))
        self.expect("|")
        w2 = self.products_until(set(), slot_tuple(u_bar, v2))
        rule = cls(h, m, u, v, v2, w, w2, name=f"r{index}", keep_active_timer=self.strict)
        if u_bar_listed != u_bar:
            self.fail(f"passive trigger must be the duals of u ({'/'.join(map(str, rule.u_bar))})")
        return rule

    def rw_rule(self, index: int) -> Rule:
        if self.peek()[0] == "*":
            self.next()
            at = None
        else:
            at = self.ident("host label or *")
        self.expect(":")
        lhs = Multiset(self.symbols_until({"=>"}))
        self.expect("=>")
        rhs = self.products_until(set(), tuple(lhs))
        return RewriteRule(at, lhs, rhs, name=f"r{index}")

    def rules(self) -> RuleSet:
        out = []
        while self.peek()[0] != "eof":
            tok = self.expect("ident", "rule keyword")
            if tok[1] == "endo" or tok[1] == "exo":
                out.append(self.move_rule(tok[1], len(out)))
            elif tok[1] == "rw":
                out.append(self.rw_rule(len(out)))
            else:
                self.fail(f"expected a rule keyword, found {tok[1]!r}", tok)
        return RuleSet(out)

    def system(self) -> SystemFile:
        self.header()
        tok = self.expect("ident", "'output'")
        if tok[1] != "output":
            self.fail("expected 'output <label>'", tok)
        output = self.ident("output label")
        skin = self.membrane()
        if self.timed and skin.timer != INF:
            self.fail("the outermost membrane must have timer inf")
        rules = self.rules()
        config = (Configuration if self.timed else UConfig)(number_fresh(skin), output)
        return SystemFile(self.timed, output, config, rules, self.compiled, self.strict)


def parse_system(text: str) -> SystemFile:
    """Parse an .mms file; positioned ParseError on bad syntax,
    InvalidSystemError listing every violation of ``core.validate``."""
    sf = _Parser(text).system()
    violations = validate(sf.config, sf.rules)
    if violations:
        raise InvalidSystemError(violations)
    return sf


# ---------------------------------------------------------------------------
# Rendering

def _render_membrane(node, timed: bool) -> str:
    def render(n, kids: tuple) -> str:
        head = f"{n.label}:{timer_str(n.timer)}" if timed else n.label
        objs = []
        for entry, count in n.content.items():
            objs.extend([f"{entry[0]}:{timer_str(entry[1])}" if timed else str(entry)] * count)
        if not objs and not kids:
            return head + "[]"
        inner = ", ".join(sorted(objs))
        if kids:
            inner += " ; " + " ".join(sorted(kids))
        return f"{head}[ {inner} ]"

    return rebuild_tree(node, render)


def _render_prods(prods, timed: bool) -> str:
    if not timed:
        return " ".join(str(sym) for sym, _spec in prods)
    parts = []
    for sym, spec in prods:
        if isinstance(spec, Carry):
            parts.append(f"{sym}:-")
        elif sym.name == DELTA_NAME and not sym.is_co:
            parts.append(str(sym))
        else:
            parts.append(f"{sym}:+{timer_str(spec.timer)}")
    return " ".join(parts)


def _render_rule(rule: Rule, index: int, sf: SystemFile) -> str:
    if isinstance(rule, RewriteRule):
        lhs = " ".join(str(s) for s in rule.lhs)
        return f"rw {rule.at if rule.at is not None else '*'} : {lhs} => {_render_prods(rule.rhs, sf.timed)}"
    if rule.keep_active_timer != sf.strict:
        raise ValueError(f"rule {rule_name(rule, index)}: keep_active_timer {rule.keep_active_timer},"
                         f" strict {sf.strict}")
    kw = "endo" if isinstance(rule, EndoRule) else "exo"
    u = " ".join(str(s) for s in rule.u)
    v = " ".join(str(s) for s in rule.v)
    ub = " ".join(str(s) for s in rule.u_bar)
    v2 = " ".join(str(s) for s in rule.v2)
    w = _render_prods(rule.w, sf.timed)
    w2 = _render_prods(rule.w2, sf.timed)
    return f"{kw} {rule.h} {rule.m} : {u} | {v} , {ub} | {v2} => {w} | {w2}"


def render_system(sf: SystemFile) -> str:
    """Canonical source text; parse(render(x)) reproduces x with
    positional rule names. The header's ``strict`` sets every movement
    rule's ``keep_active_timer`` when the text is read, so a movement rule
    whose flag differs from ``sf.strict`` raises ``ValueError``: its text
    would read back as another system. The configuration may be at any
    clock; its ``core.at_rest`` form is written, remaining timers."""
    flags = ("timed" if sf.timed else "untimed")
    if sf.compiled:
        flags += " compiled"
    if sf.strict:
        flags += " strict"
    lines = [f"mms 1 {flags}", f"output {sf.output}", ""]
    lines.append(_render_membrane(at_rest(sf.config).skin, sf.timed))
    if sf.rules:
        lines.append("")
        lines.extend(_render_rule(rule, index, sf) for index, rule in enumerate(sf.rules))
    return "\n".join(lines) + "\n"
