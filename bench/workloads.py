"""Seeded inputs, operations and known answers for the benchmark workloads.

Every input is rendered to ``.mms`` or ``.amb`` text and loaded back
through the program's parsers; that loading is the benchmark's set-up.
Each operation's result is checked against a known answer that this file
works out from the workload's construction (closed forms for the
simulations, the paper's propositions and the deliberately broken inputs
for the checks), never against a recorded output of the program.

A workload is a ``Workload`` with two stages. ``make_inputs(rng)`` builds
the input texts and is not timed. ``load(inputs)`` parses them with the
program's parsers and returns the list of operations; it is what
``setup_s`` times. An operation is a callable returning ``(passed,
work)``: whether the output matched the known answer, and the work units
the program reported (steps taken, or reach-graph nodes in the verdict).
"""

from __future__ import annotations

import importlib
import math
import random
import re
import string
from dataclasses import dataclass
from typing import Callable

INF = math.inf

_RESERVED = {
    "skin", "delta", "inf", "in", "out", "endo", "exo", "rw", "mms",
    "output", "timed", "untimed", "compiled", "strict",
}


def _mod(name: str):
    # ``mobilemem.translate`` is shadowed by the function the package
    # re-exports under that name, so modules are looked up, not imported
    # as attributes.
    return importlib.import_module(f"mobilemem.{name}")


def fresh_names(rng: random.Random, count: int) -> list[str]:
    """Distinct four-letter names, in random order, none of them a keyword.

    A fixed length keeps canonical keys, and so the cost, the same across
    seeds."""
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < count:
        name = "".join(rng.choice(string.ascii_lowercase) for _ in range(4))
        if name not in seen and name not in _RESERVED:
            seen.add(name)
            names.append(name)
    return names


# ---------------------------------------------------------------------------
# Trees written by the benchmark: (label, timer, objects, children), with
# objects as (name, is_co, timer). Rendered both as .mms input text and as
# the canonical key the program documents for its traces.

def _timer(t) -> str:
    return "inf" if t == INF else str(int(t))


def _obj(name: str, co: bool, t) -> str:
    return f"{'~' if co else ''}{name}:{_timer(t)}"


def mms_membrane(node) -> str:
    label, timer, objs, kids = node
    inner = ", ".join(_obj(*o) for o in objs)
    if kids:
        inner += " ; " + " ".join(mms_membrane(k) for k in kids)
    return f"{label}:{_timer(timer)}[ {inner} ]"


def mms_timed(skin, rules: list[str]) -> str:
    return "mms 1 timed\noutput skin\n\n" + mms_membrane(skin) + "\n\n" + "\n".join(rules) + "\n"


def canonical_key(node) -> str:
    """Canonical key as documented for traces: objects in (name, co-bit,
    timer) order, children sorted by their own key, uids omitted."""
    label, timer, objs, kids = node
    body = ",".join(_obj(*o) for o in sorted(objs))
    inner = " ".join(sorted(canonical_key(k) for k in kids))
    return f"{label}:{_timer(timer)}{{{body}}}[{inner}]"


def config_key(skin) -> str:
    return canonical_key(skin) + "|out=skin"


# ---------------------------------------------------------------------------
# Simulations: independent INF endo/exo pairs that swap places every step.

@dataclass
class Pair:
    """``h`` holding ``a`` next to ``m`` holding ``~a`` (outside), or ``h``
    inside ``m`` with ``b`` / ``~b`` (inside). The endo rule takes the pair
    inside and the exo rule back out; every step flips every pair."""

    h: str
    m: str
    a: str
    b: str
    inside: bool

    def tree(self, flips: int):
        if self.inside != (flips % 2 == 1):
            h = (self.h, INF, [(self.b, False, INF)], [])
            return [(self.m, INF, [(self.b, True, INF)], [h])]
        return [(self.h, INF, [(self.a, False, INF)], []), (self.m, INF, [(self.a, True, INF)], [])]

    def rules(self) -> list[str]:
        return [
            f"endo {self.h} {self.m} : {self.a} | , ~{self.a} | => {self.b}:+inf | ~{self.b}:+inf",
            f"exo {self.h} {self.m} : {self.b} | , ~{self.b} | => {self.a}:+inf | ~{self.a}:+inf",
        ]


@dataclass
class SimInput:
    text: str
    steps: int
    expected_key: str


def _pairs(rng: random.Random, names: list[str], count: int) -> list[Pair]:
    return [Pair(*names[4 * i:4 * i + 4], rng.random() < 0.5) for i in range(count)]


DENSE_PAIRS = 12
DENSE_STEPS = 1
DENSE_VARIANTS = 8


def sim_dense_inputs(rng: random.Random) -> list[SimInput]:
    """ROADMAP W1: 12 independent INF pairs, each with one endo and one exo
    rule. Every step fires all 12 instances, which costs the parent's choice
    search 2^12 leaves."""
    out = []
    for _ in range(DENSE_VARIANTS):
        pairs = _pairs(rng, fresh_names(rng, 4 * DENSE_PAIRS), DENSE_PAIRS)

        def skin(flips: int):
            kids = [node for p in pairs for node in p.tree(flips)]
            rng.shuffle(kids)
            return ("skin", INF, [], kids)

        rules = [r for p in pairs for r in p.rules()]
        rng.shuffle(rules)
        out.append(SimInput(mms_timed(skin(0), rules), DENSE_STEPS, config_key(skin(DENSE_STEPS))))
    return out


WIDE_BYSTANDERS = 400
WIDE_LABELS = 7
WIDE_OBJECTS = 5
WIDE_ABSENT_RULES = 8
WIDE_STEPS = 11
WIDE_VARIANTS = 2


def sim_wide_inputs(rng: random.Random) -> list[SimInput]:
    """ROADMAP W2: one busy INF pair among 400 bystanders ``z{i mod 7}``,
    each holding 5 x ``x``, plus 8 rewrite rules on absent labels. Every
    bystander and object timer exceeds the run, so after S steps each reads
    ``t - S``; the pair has flipped S times."""
    out = []
    for _ in range(WIDE_VARIANTS):
        names = fresh_names(rng, 4 + WIDE_LABELS + 2 + WIDE_ABSENT_RULES)
        pair = _pairs(rng, names[:4], 1)[0]
        labels = names[4:4 + WIDE_LABELS]
        x, y = names[4 + WIDE_LABELS:6 + WIDE_LABELS]
        absent = names[6 + WIDE_LABELS:]
        S = WIDE_STEPS
        bystanders = []
        for i in range(WIDE_BYSTANDERS):
            t_mem = rng.randint(S + 1, S + 99)
            t_obj = rng.randint(S + 1, S + 99)
            bystanders.append((labels[i % WIDE_LABELS], t_mem, t_obj))

        def skin(flips: int):
            kids = pair.tree(flips) + [
                (label, t_mem - flips, [(x, False, t_obj - flips)] * WIDE_OBJECTS, [])
                for label, t_mem, t_obj in bystanders
            ]
            return ("skin", INF, [], kids)

        rules = pair.rules() + [f"rw {lab} : {x} => {y}:+5" for lab in absent]
        rng.shuffle(rules)
        out.append(SimInput(mms_timed(skin(0), rules), S, config_key(skin(S))))
    return out


def load_sims(inputs: list[SimInput]) -> list[Callable]:
    parse_system = _mod("sysfile").parse_system
    engine = _mod("engine")
    ops = []
    for item in inputs:
        sf = parse_system(item.text)

        def op(sf=sf, item=item):
            trace = engine.run(sf.config, sf.rules, item.steps, selector="first")
            final = trace.records[-1].key if trace.records else trace.initial_key
            steps = len(trace.records)
            return final == item.expected_key and steps == item.steps, steps

        ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# Checks

# ROADMAP W5's fixed slices. Corpus costs are heavy-tailed (at depth 6 a
# few untimed systems in a hundred cost a thousand times the median: seed
# 260 of random_untimed_system takes seconds), so a slice at a seeded
# offset would swing the workload's cost by several times between seeds.
# The seed renames every label and symbol and orders the checks instead.
CORPUS_SLICE = 40          # timed and untimed systems
CORPUS_REDUCIBLE = 10      # ambient processes
CORPUS_DEPTH = 6
TRANSLATION_DEPTH = 4
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _verdict_nodes(verdict) -> int:
    d = verdict.details
    if verdict.check == "prop2":
        return d.get("timed_nodes", 0) + d.get("compiled_nodes", 0)
    if verdict.check == "prop1":
        return d.get("untimed_nodes", 0) + d.get("embedded_nodes", 0)
    return d.get("mn", {}).get("nodes", 0)


def _known_fail_texts(rng: random.Random) -> list[tuple[str, str, str | None, int]]:
    """The deliberately broken inputs of the explorer's tests, renamed:
    (check, system text, embedding text or None, depth). Each one's known
    answer is ``fail``."""
    h, k, m, a, c = fresh_names(rng, 5)
    shared = mms_timed(
        ("skin", INF, [], [
            (h, 3, [(a, False, 2)], []), (k, 3, [(a, False, 2)], []),
            (m, 2, [(a, True, 2), (a, True, 2)], []),
        ]),
        [f"endo {h} {m} : {a} | , ~{a} | => |", f"endo {k} {m} : {a} | , ~{a} | => |"],
    )
    nonuniform = mms_timed(
        ("skin", INF, [], [(h, 5, [(a, False, 1)], []), (m, INF, [(a, True, 3)], [])]),
        [f"endo {h} {m} : {a} | , ~{a} | => {a}:+3 |"],
    )
    untimed = (
        f"mms 1 untimed\noutput skin\n\nskin[ ; {h}[ {a} ] {m}[ ~{a} ] ]\n\n"
        f"endo {h} {m} : {a} | , ~{a} | => {c} |\n"
    )
    dropped_inf = mms_timed(
        ("skin", INF, [], [(h, 5, [(a, False, INF)], []), (m, INF, [(a, True, INF)], [])]),
        [f"endo {h} {m} : {a} | , ~{a} | => {c}:+inf |"],
    )
    return [
        ("prop2", shared, None, 3),
        ("prop2", nonuniform, None, 4),
        ("prop1", untimed, dropped_inf, 4),
    ]


def _renamed(texts: list[str], rng: random.Random) -> list[str]:
    """The texts with every name except keywords and ``skin`` replaced,
    consistently, by a fresh one."""
    names = sorted({n for t in texts for n in _IDENT.findall(t)} - _RESERVED)
    mapping = dict(zip(names, fresh_names(rng, len(names))))
    return [_IDENT.sub(lambda m: mapping.get(m.group(0), m.group(0)), t) for t in texts]


@dataclass
class CorpusInputs:
    timed: list[str]
    untimed: list[str]
    processes: list[str]
    known_fail: list
    order: list[int]


def check_corpus_inputs(rng: random.Random) -> CorpusInputs:
    """ROADMAP W5 plus the prop45 side of W4: prop2, prop1 and prop45 on
    fixed corpus slices, renamed and ordered by the seed, and the three
    known-``fail`` inputs."""
    corpus, sysfile, ambient = _mod("corpus"), _mod("sysfile"), _mod("ambient")

    def mms(system, timed: bool) -> str:
        config, rules = system
        return sysfile.render_system(sysfile.SystemFile(timed, config.output_label, config, tuple(rules)))

    timed = [mms(corpus.random_timed_system(i), True) for i in range(CORPUS_SLICE)]
    untimed = [mms(corpus.random_untimed_system(i), False) for i in range(CORPUS_SLICE)]
    processes = [ambient.render_process(corpus.random_reducible_process(i)) for i in range(CORPUS_REDUCIBLE)]
    texts = _renamed(timed + untimed + processes, rng)
    order = list(range(2 * CORPUS_SLICE + CORPUS_REDUCIBLE))
    rng.shuffle(order)
    return CorpusInputs(
        texts[:CORPUS_SLICE], texts[CORPUS_SLICE:2 * CORPUS_SLICE], texts[2 * CORPUS_SLICE:],
        _known_fail_texts(rng), order,
    )


def _check_op(check, args: tuple, expect_ok: bool) -> Callable:
    def op():
        verdict = check(*args)
        return verdict.ok is expect_ok, _verdict_nodes(verdict)
    return op


def load_corpus(inputs: CorpusInputs) -> list[Callable]:
    """The known-``fail`` checks, then the corpus checks in the seeded
    order."""
    sysfile, ambient, explore = _mod("sysfile"), _mod("ambient"), _mod("explore")
    ops = []
    for check, text, embedded_text, depth in inputs.known_fail:
        sf = sysfile.parse_system(text)
        if check == "prop2":
            ops.append(_check_op(explore.check_timer_elimination, (sf.config, sf.rules, depth), False))
        else:
            emb = sysfile.parse_system(embedded_text)
            ops.append(_check_op(
                lambda cfg, rules, d, e: explore.check_embedding(cfg, rules, d, embedded=e),
                (sf.config, sf.rules, depth, (emb.config, emb.rules)), False,
            ))
    corpus_ops = []
    for text in inputs.timed:
        sf = sysfile.parse_system(text)
        corpus_ops.append(_check_op(explore.check_timer_elimination, (sf.config, sf.rules, CORPUS_DEPTH), True))
    for text in inputs.untimed:
        sf = sysfile.parse_system(text)
        corpus_ops.append(_check_op(explore.check_embedding, (sf.config, sf.rules, CORPUS_DEPTH), True))
    for text in inputs.processes:
        corpus_ops.append(_check_op(explore.check_translation, (ambient.parse_ambient(text), TRANSLATION_DEPTH), True))
    return ops + [corpus_ops[i] for i in inputs.order]


DEEP_T = 4
DEEP_VARIANTS = 4


def deep_rule_count(T: int) -> int:
    """Size of the compiled family: one move rule per counter vector over
    five axes (a, c, ~a, h, m), plus T ticks and one kill for each of the
    three symbols and two membranes."""
    return T ** 5 + 5 * (T + 1)


def compile_deep_inputs(rng: random.Random) -> list[str]:
    """ROADMAP W3 at T=4: the one rule whose compiled family (1,049 rules)
    dominates the check. The seed renames labels and symbols only."""
    T = DEEP_T
    out = []
    for _ in range(DEEP_VARIANTS):
        h, m, a, c = fresh_names(rng, 4)
        skin = ("skin", INF, [], [(h, T, [(a, False, T), (c, False, T)], []), (m, T, [(a, True, T)], [])])
        out.append(mms_timed(skin, [f"endo {h} {m} : {a} | {c} , ~{a} | => {c}:+{T} |"]))
    return out


def load_deep(inputs: list[str]) -> list[Callable]:
    sysfile, explore = _mod("sysfile"), _mod("explore")
    ops = []
    for text in inputs:
        sf = sysfile.parse_system(text)
        ops.append(_check_op(explore.check_timer_elimination, (sf.config, sf.rules, DEEP_T + 2), True))
    return ops


def verify_deep(inputs: list[str]) -> bool:
    """Counts the compiled rules on the rendered .mms text, so that a
    compact in-memory representation still has to expand to the same
    family on output."""
    sysfile, compiler = _mod("sysfile"), _mod("compiler")
    sf = sysfile.parse_system(inputs[0])
    uconfig, rules = compiler.eliminate_timers(sf.config, sf.rules)
    text = sysfile.render_system(sysfile.SystemFile(False, uconfig.output_label, uconfig, rules, compiled=True))
    lines = [ln for ln in text.splitlines() if ln.split(" ", 1)[0] in ("endo", "exo", "rw")]
    return len(lines) == deep_rule_count(DEEP_T)


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable      # rng -> inputs (not timed)
    load: Callable             # inputs -> operations (timed as set-up)
    unit: str                  # what one work unit is
    tail_pct: float            # highest percentile leaving >= 10 samples at the parent
    traced_passes: int         # passes over the operations in a traced run
    verify: Callable | None = None  # inputs -> bool, a check outside the timed loop


WORKLOADS = {
    w.name: w for w in (
        Workload("sim-dense", sim_dense_inputs, load_sims, "step", 95, 3),
        Workload("sim-wide", sim_wide_inputs, load_sims, "step", 90, 4),
        Workload("check-corpus", check_corpus_inputs, load_corpus, "node", 99, 1),
        Workload("compile-deep", compile_deep_inputs, load_deep, "node", 75, 1, verify_deep),
    )
}
