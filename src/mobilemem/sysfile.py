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
``strict`` in the header makes movement rules keep the moving membrane's
timer. Rule names are positional (``r0``, ``r1``, ...) and not serialized.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

from .core import (
    DELTA_NAME,
    INF,
    Carry,
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
    Symbol,
    dual,
    number_fresh,
    rebuild_tree,
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


class _Parser(Cursor):
    error = ParseError

    def ident(self, what: str = "identifier") -> str:
        return self.expect("ident", what)[1]

    # -- header ------------------------------------------------------------
    def header(self) -> tuple[bool, bool, bool]:
        tok = self.expect("ident", "mms header")
        if tok[1] != "mms":
            self.fail("file must start with 'mms'", tok)
        version = self.expect("int", "format version")
        if version[1] != "1":
            self.fail(f"unsupported version {version[1]}", version)
        mode = self.ident("'timed' or 'untimed'")
        if mode not in ("timed", "untimed"):
            self.fail("expected 'timed' or 'untimed'")
        compiled = strict = False
        while self.peek()[0] == "ident" and self.peek()[1] in ("compiled", "strict"):
            flag = self.next()[1]
            compiled = compiled or flag == "compiled"
            strict = strict or flag == "strict"
        return mode == "timed", compiled, strict

    def symbol(self) -> Symbol:
        co = False
        if self.peek()[0] == "~":
            self.next()
            co = True
        return Symbol(self.ident("object name"), co)

    # -- membranes ----------------------------------------------------------
    def membrane(self, timed: bool):
        """One membrane and all it holds. Open membranes wait on an
        explicit stack, so nesting depth is not bounded by the recursion
        limit."""
        stack: list[tuple] = []  # open membranes: (label, timer, objects, children)
        while True:
            label = self.ident("membrane label")
            timer = INF
            if timed:
                self.expect(":", "':timer'")
                timer = self.timer()
            self.expect("[")
            objects = []
            if self.peek()[0] in ("~", "ident"):
                objects.append(self.obj(timed))
                while self.peek()[0] == ",":
                    self.next()
                    objects.append(self.obj(timed))
            if self.peek()[0] == ";":
                self.next()
            stack.append((label, timer, objects, []))
            while self.peek()[0] == "]":
                self.next()
                label, timer, objects, children = stack.pop()
                if timed:
                    node = MembraneNode(label, timer, Multiset(objects), tuple(children))
                else:
                    node = UNode(label, Multiset(objects), tuple(children))
                if not stack:
                    return node
                stack[-1][3].append(node)

    def obj(self, timed: bool):
        sym = self.symbol()
        if not timed:
            return sym
        self.expect(":", "':timer'")
        return (sym, self.timer())

    # -- rules --------------------------------------------------------------
    def symbols_until(self, stops: set) -> list[Symbol]:
        out = []
        while True:
            kind, val, _l, _c = self.peek()
            if kind in stops or kind == "eof":
                return out
            if kind == "ident" and val in ("endo", "exo", "rw"):
                return out
            out.append(self.symbol())

    def products_until(self, stops: set, timed: bool, slots: tuple) -> tuple:
        used: dict[Symbol, int] = {}
        prods = []
        while True:
            kind, val, line, col = self.peek()
            if kind in stops or kind == "eof":
                return tuple(prods)
            if kind == "ident" and val in ("endo", "exo", "rw"):
                return tuple(prods)
            sym = self.symbol()
            if not timed:
                prods.append((sym, Fresh(INF)))
                continue
            if self.peek()[0] != ":":
                if sym.name == DELTA_NAME and not sym.is_co:
                    prods.append((sym, Fresh(INF)))
                    continue
                self.fail(f"product {sym} needs ':+timer' or ':-'")
            self.next()
            tok = self.peek()
            if tok[0] == "+":
                self.next()
                prods.append((sym, Fresh(self.timer())))
            elif tok[0] == "-":
                self.next()
                skip = used.get(sym, 0)
                slot = None
                seen = 0
                for idx, slot_sym in enumerate(slots):
                    if slot_sym == sym:
                        if seen == skip:
                            slot = idx
                            break
                        seen += 1
                if slot is None:
                    self.fail(f"no left occurrence of {sym} left to carry", tok)
                used[sym] = skip + 1
                prods.append((sym, Carry(slot)))
            else:
                self.fail("expected '+timer' or '-' after ':'")

    def move_rule(self, keyword: str, timed: bool, index: int) -> Rule:
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
        active_slots = tuple(u) + tuple(v)
        passive_slots = tuple(Multiset([dual(s) for s in u])) + tuple(v2)
        w = self.products_until({"|"}, timed, active_slots)
        self.expect("|")
        w2 = self.products_until(set(), timed, passive_slots)
        rule = cls(h, m, u, v, v2, w, w2, name=f"r{index}")
        if u_bar_listed != rule.u_bar:
            self.fail(f"passive trigger must be the duals of u ({'/'.join(map(str, rule.u_bar))})")
        return rule

    def rw_rule(self, timed: bool, index: int) -> Rule:
        if self.peek()[0] == "*":
            self.next()
            at = None
        else:
            at = self.ident("host label or *")
        self.expect(":")
        lhs = Multiset(self.symbols_until({"=>"}))
        self.expect("=>")
        rhs = self.products_until(set(), timed, tuple(lhs))
        return RewriteRule(at, lhs, rhs, name=f"r{index}")

    def rules(self, timed: bool) -> RuleSet:
        out = []
        while self.peek()[0] != "eof":
            tok = self.expect("ident", "rule keyword")
            if tok[1] == "endo" or tok[1] == "exo":
                out.append(self.move_rule(tok[1], timed, len(out)))
            elif tok[1] == "rw":
                out.append(self.rw_rule(timed, len(out)))
            else:
                self.fail(f"expected a rule keyword, found {tok[1]!r}", tok)
        return RuleSet(out)

    def system(self) -> SystemFile:
        timed, compiled, strict = self.header()
        tok = self.expect("ident", "'output'")
        if tok[1] != "output":
            self.fail("expected 'output <label>'", tok)
        output = self.ident("output label")
        skin = self.membrane(timed)
        if timed and skin.timer != INF:
            self.fail("the outermost membrane must have timer inf")
        rules = self.rules(timed)
        if strict:
            rules = RuleSet(
                replace(r, keep_active_timer=True) if isinstance(r, MoveRule) else r
                for r in rules
            )
        config = (Configuration if timed else UConfig)(number_fresh(skin), output)
        return SystemFile(timed, output, config, rules, compiled, strict)


def parse_system(text: str) -> SystemFile:
    """Parse an .mms file; positioned ParseError on bad syntax,
    InvalidSystemError listing every violation of ``core.validate``."""
    sf = _Parser(text, _PUNCT, ("=>",), "_$").system()
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


def _render_rule(rule: Rule, timed: bool) -> str:
    if isinstance(rule, RewriteRule):
        lhs = " ".join(str(s) for s in rule.lhs)
        return f"rw {rule.at if rule.at is not None else '*'} : {lhs} => {_render_prods(rule.rhs, timed)}"
    kw = "endo" if isinstance(rule, EndoRule) else "exo"
    u = " ".join(str(s) for s in rule.u)
    v = " ".join(str(s) for s in rule.v)
    ub = " ".join(str(s) for s in rule.u_bar)
    v2 = " ".join(str(s) for s in rule.v2)
    w = _render_prods(rule.w, timed)
    w2 = _render_prods(rule.w2, timed)
    return f"{kw} {rule.h} {rule.m} : {u} | {v} , {ub} | {v2} => {w} | {w2}"


def render_system(sf: SystemFile) -> str:
    """Canonical source text; parse(render(x)) reproduces x with
    positional rule names."""
    flags = ("timed" if sf.timed else "untimed")
    if sf.compiled:
        flags += " compiled"
    if sf.strict:
        flags += " strict"
    lines = [f"mms 1 {flags}", f"output {sf.output}", ""]
    lines.append(_render_membrane(sf.config.skin, sf.timed))
    if sf.rules:
        lines.append("")
        lines.extend(_render_rule(r, sf.timed) for r in sf.rules)
    return "\n".join(lines) + "\n"
