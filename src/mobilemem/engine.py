"""One global step of the timed semantics.

A step applies a chosen multiset of endo/exo/rewrite instances and then the
clock phases, in this order:

1. All chosen instances fire simultaneously against the original tree:
   bound objects are consumed, right-hand sides are produced (carried
   objects lose one tick, fresh objects get the rule's timer), moved
   membranes are re-parented with their whole contents, and each active
   membrane's timer is decremented. A membrane moved outside the skin is
   detached, frozen, and archived in the step record.
2. Every unbound pre-existing object with timer 0 is deleted.
3. Every remaining unbound pre-existing object is ticked (``INF`` stays).
   Objects produced in phase 1 already took their rule for this step and
   are left alone.
4. Every non-skin membrane that was not active this step and has timer 0
   receives the dissolution marker; then every marker-holding membrane is
   dissolved bottom-up, spilling objects and children (with their own
   timers) into its parent. The skin swallows markers without dissolving.
5. Every surviving membrane that was not active this step is ticked.

Choice selection comes in two strengths. ``maximal_choices`` returns the
saturated choices: no applicable instance can be added at all. This is what
``run`` executes. ``step_choices`` additionally admits choices in which an
object with a *finite* timer sits out an enabled move and simply ticks —
objects are chosen nondeterministically with no priority among rules, and a
finite-timer object always has the tick to fall back on. An instance all of
whose bound objects carry timer ``INF`` has no such fallback and is never
refusable, so on systems with only infinite timers the two notions agree.
``successors`` and the explorer enumerate ``step_choices``; this is what
makes the timer-elimination equivalence checkable. Both come from
``choices.enumerate_choices``, which holds the one conflict rule and its
three modes (saturated, forced-only, any) for every relation. Moves,
dissolution and the rebuilt tree come from ``tree.Tree``, which the
untimed step and the literal relation use too.

Every configuration carries a step clock (``core.Configuration``): a
finite timer is stored as a deadline, its remaining timer plus the
clock, so the tick of phases 3 and 5 changes nothing stored; at clock 0,
at rest, the two coincide. A step takes a configuration at clock c to
one at clock c + 1, for ``run``, the explorer and the checks alike. It
loads, as work nodes of ``tree.Tree``, only the membranes its choice
names, their ancestors, and the subtrees in which some timer reaches 0
at this clock, since there an object expires or a membrane dissolves.
Each frozen node keeps the least timer of its subtree
(``core.least_timer``), and ``Tree``'s keep-or-load test reads it. Every
other subtree keeps its deadlines and is carried into the next
configuration as the same object, so a step costs what it touches, not
the size of the tree. So is the membrane index (``tree.index_of``) from
which matching, availability and the work tree read membranes, by uid
and by label: a step's result derives its index from its source's by the
step's own edits, on first read (``tree.carry_index``). The least timer
of the children a loaded membrane keeps is read from its source's slot
where it can be (``_kept_lows``), so a step reads no membrane it does
not touch. ``simulate`` drops the index of each state it steps to once
the next one has its own, so a run's records keep none. Work nodes keep
deadlines from load to freeze. An instance binds remaining timers, and
the choice's bindings are turned into deadline keys in one pass over
each instance's bound classes (``_deadline_usage``); a product is stored
at its remaining timer plus the next clock; phases 2 and 3 only drop the
objects whose deadline is the clock, since a tick leaves every other
deadline as it was. The one remaining-timer form inside a step is the
archive of a membrane that exits the skin. Keys and traces read
remaining timers (``core.render_at``); readers of raw timers read
``core.at_rest``, as ``Trace.final`` does.

The matcher's rule table (moves by active label, rewrites by host label)
depends on the rules alone, so it is built once per rule container, not
once per state, and the container owns it (``core.RuleSet``): it lives
exactly as long as its rules. A plain list or tuple handed to the
matcher gets a fresh table per call; ``run`` and the explorers wrap
their rules once (``core.rule_set``), so each builds at most one table.

A run renders a key only where it is read. The trace's initial key is
rendered at once; each ``StepRecord`` holds its configuration and renders
its key on first read. A step halts the run when it had the only choice
and reproduced the configuration before it. Equal configurations have
equal least remaining timers, and a timed configuration keeps its least
timer in the skin's slot, so ``simulate`` compares those first: when they
differ the step does not halt and no key is rendered; when they agree,
as they always do when every timer is ``INF``, the two keys decide.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import partial
from itertools import product
from operator import attrgetter
from typing import Callable, Iterable, Sequence

from .choices import addable, availability, enumerate_choices
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
    Timer,
    at_rest,
    canonicalize,
    canonical_render,
    decrement,
    least_timer,
    render_one,
    rule_set,
    timer_str,
)
from .tree import Tree, carry_index, drop_index, index_of


class StaleChoiceError(ValueError):
    """The choice refers to membranes or objects this configuration lacks."""


class Instance:
    """One applicable rule occurrence with its object bindings, never
    changed once made.

    ``active_classes``/``passive_classes`` give the bound ``(symbol, timer)``
    occurrence class per left-hand-side slot. Rewrites bind only the active
    side (their host membrane) and have no passive membrane. ``is_move`` is
    worked out once, when the instance is made.

    Two instances of one class are equal when their rule indexes, rules,
    uids and classes are. The hash covers the binding fields only: rule
    index, uids and classes. Within one rule list the index names the rule,
    so leaving the rule out makes only instances of different rule lists
    collide, and it spares every set of instances a hash of the rule, a
    dataclass whose fields are multisets and product tuples.
    """

    __slots__ = ("rule_index", "rule", "active_uid", "passive_uid", "active_classes", "passive_classes", "is_move")

    def __init__(
        self,
        rule_index: int,
        rule: Rule,
        active_uid: int,
        passive_uid: int | None,
        active_classes: tuple,
        passive_classes: tuple = (),
    ):
        self.rule_index = rule_index
        self.rule = rule
        self.active_uid = active_uid
        self.passive_uid = passive_uid
        self.active_classes = active_classes
        self.passive_classes = passive_classes
        self.is_move = isinstance(rule, MoveRule)

    def _binding(self) -> tuple:
        return (self.rule_index, self.active_uid, self.passive_uid, self.active_classes, self.passive_classes)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._binding() == other._binding() and self.rule == other.rule

    def __hash__(self) -> int:
        return hash(self._binding())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"

    def needs(self) -> dict:
        """``(uid, class) -> count`` of the objects this instance binds."""
        need: dict = {}
        for uid, classes in ((self.active_uid, self.active_classes), (self.passive_uid, self.passive_classes)):
            for cls in classes:
                key = (uid, cls)
                need[key] = need.get(key, 0) + 1
        return need

    def forced(self) -> bool:
        """No bound object could tick instead: all bound timers are INF."""
        classes = self.active_classes + self.passive_classes
        return all(t == INF for (_s, t) in classes)

    def sort_key(self):
        """Rule index, uids, then the bound classes. The instances of one
        rule index bind the same symbol in each slot, so among those with
        equal uids only the timers decide the order, and the classes are
        compared as they are."""
        return (
            self.rule_index,
            self.active_uid,
            -1 if self.passive_uid is None else self.passive_uid,
            self.active_classes,
            self.passive_classes,
        )

    def describe(self) -> str:
        name = self.rule.name or f"r{self.rule_index}"
        binds = ",".join(f"{s}:{timer_str(t)}" for s, t in self.active_classes)
        if self.passive_uid is None:
            return f"{name}@{self.active_uid}{{{binds}}}"
        pbinds = ",".join(f"{s}:{timer_str(t)}" for s, t in self.passive_classes)
        return f"{name}@{self.active_uid}->{self.passive_uid}{{{binds}|{pbinds}}}"

    def to_json(self) -> dict:
        return {
            "rule": self.rule.name or f"r{self.rule_index}",
            "active": self.active_uid,
            "passive": self.passive_uid,
            "active_bindings": [[str(s), timer_str(t)] for s, t in self.active_classes],
            "passive_bindings": [[str(s), timer_str(t)] for s, t in self.passive_classes],
        }


StepChoice = tuple  # sorted tuple of Instance, repeated for multiplicity


def choice_describe(choice: StepChoice) -> str:
    return " + ".join(i.describe() for i in choice) if choice else "(empty)"


# ---------------------------------------------------------------------------
# Instance matching

def _slot_bindings(slots: tuple, content: Multiset, clock: int) -> list[tuple]:
    """Every way to bind ``slots`` to classes of ``content``, a content
    stored at ``clock``, whose deadline is after it, each class named by
    its remaining timer, in slot order: the product of each slot's
    classes. Where a symbol fills two slots, only the bindings that
    ``content`` holds enough objects for are kept."""
    items = content.items()
    per_slot = []
    for sym in slots:
        classes = [(s, t - clock) for (s, t), _n in items if s == sym and t > clock]
        if not classes:
            return []
        per_slot.append(classes)
    bindings = list(product(*per_slot))
    if len(set(slots)) == len(slots):
        return bindings
    held = {(s, t - clock): n for (s, t), n in items}
    return [binding for binding in bindings if all(held[cls] >= binding.count(cls) for cls in binding)]


_NONE: dict = {}  # an empty bucket, never written


def _timed_table(rules: Sequence[Rule]) -> tuple:
    """``find_instances``' rule table: (moves by active label, rewrites by
    host label with the ``rw *`` rewrites merged into every label's list,
    the ``rw *`` rewrites alone). A move is kept as (index, rule, whether
    it is an exo rule); a rewrite as (index, rule)."""
    moves: dict = {}
    rewrites: dict = {}
    for idx, rule in enumerate(rules):
        if isinstance(rule, MoveRule):
            moves.setdefault(rule.h, []).append((idx, rule, isinstance(rule, ExoRule)))
        elif isinstance(rule, RewriteRule):
            rewrites.setdefault(rule.at, []).append((idx, rule))
    everywhere = rewrites.pop(None, [])
    for at in rewrites.values():
        at.extend(everywhere)
    return moves, rewrites, everywhere


def find_instances(config: Configuration, rules: Sequence[Rule]) -> list[Instance]:
    """Every applicable rule instance, exhaustive up to binding equivalence.

    Moves need an elementary active membrane in the stated position, and
    every bound timer (objects and both membranes) greater than 0. The
    rules are indexed by the label they dispatch on (``_timed_table``):
    moves by their active label, rewrites by their host label (``rw *``
    rewrites under every label, and alone for labels no rewrite names).
    That table is built once per rule container, which keeps it
    (``core.RuleSet``); a plain list or tuple gets a fresh one per call.
    Membranes are read from the configuration's index (``tree.index_of``):
    actives, their passive siblings and rewrite hosts from the buckets of
    the labels rules name, so a membrane no rule can bind is not visited,
    unless an ``rw *`` rule makes every membrane a host. Contents hold deadlines, and bindings
    name remaining timers at any clock (``_slot_bindings``). Each
    instance is built once, so the list is sorted, not deduplicated.
    """
    clock = config.clock
    skin = config.skin
    index = index_of(config)
    kids = index.kids
    moves, rewrites, everywhere = rule_set(rules).table(_timed_table)
    found: list[Instance] = []

    def pair(idx, rule, active, passive):
        for ac in _slot_bindings(rule.active_slots, active.content, clock):
            for pc in _slot_bindings(rule.passive_slots, passive.content, clock):
                found.append(Instance(idx, rule, active.uid, passive.uid, ac, pc))

    def host(node, hosted):
        for idx, rule in hosted:
            for ac in _slot_bindings(rule.active_slots, node.content, clock):
                found.append(Instance(idx, rule, node.uid, None, ac))

    if everywhere:
        host(skin, rewrites.get(skin.label, everywhere))
        for node in index.node.values():
            host(node, rewrites.get(node.label, everywhere))
    else:
        if skin.label in rewrites:
            host(skin, rewrites[skin.label])
        for label, hosted in rewrites.items():
            for members in kids.get(label, _NONE).values():
                for node in members.values():
                    host(node, hosted)
    for label, movers in moves.items():
        for at, actives in kids.get(label, _NONE).items():
            parent = skin if at == skin.uid else index.node[at]
            for active in actives.values():
                if active.children or not active.timer > clock:
                    continue
                for idx, rule, exo in movers:
                    if exo:
                        if parent.label == rule.m and parent.timer > clock:
                            pair(idx, rule, active, parent)
                        continue
                    for passive in kids.get(rule.m, _NONE).get(at, _NONE).values():
                        if passive is not active and passive.timer > clock:
                            pair(idx, rule, active, passive)
    return sorted(found, key=Instance.sort_key)


# ---------------------------------------------------------------------------
# Choice enumeration

def maximal_choices(config: Configuration, rules: Sequence[Rule]) -> list[StepChoice]:
    """Saturated choices: conflict-free and no further instance applies to
    the unused residue. When nothing applies, the single empty choice."""
    return enumerate_choices(config, find_instances(config, rules), lambda inst: True)


def step_choices(config: Configuration, rules: Sequence[Rule]) -> list[StepChoice]:
    """All legal choices of the timed semantics: conflict-free sets whose
    residue admits no instance binding only INF-timer objects. Superset of
    ``maximal_choices``; the difference is finite-timer objects ticking
    instead of joining an enabled move."""
    return enumerate_choices(config, find_instances(config, rules), Instance.forced)


# ---------------------------------------------------------------------------
# Step application

@dataclass(frozen=True)
class StepStats:
    consumed: int = 0
    produced: int = 0
    expired: int = 0
    delta_consumed: int = 0
    detached_objects: int = 0


@dataclass(frozen=True)
class StepResult:
    config: Configuration
    detached: tuple = ()  # (uid, label, canonical render) per archived membrane
    stats: StepStats = StepStats()


def _is_delta(cls: tuple) -> bool:
    sym = cls[0]
    return sym.name == DELTA_NAME and not sym.is_co


def _deadline_usage(choice: StepChoice, clock: int) -> dict:
    """``(uid, deadline class) -> count`` of the objects ``choice`` binds,
    at ``clock``: one pass over each instance's bound classes, which name
    remaining timers."""
    usage: dict = {}
    for inst in choice:
        for uid, classes in ((inst.active_uid, inst.active_classes), (inst.passive_uid, inst.passive_classes)):
            for sym, t in classes:
                key = (uid, (sym, t + clock))
                usage[key] = usage.get(key, 0) + 1
    return usage


def _validate_choice(choice: StepChoice, usage: dict, nodes: dict, clock: int) -> None:
    """Raise ``StaleChoiceError`` unless ``choice``, whose instances bind
    ``usage`` (``_deadline_usage``), fits the loaded work nodes."""
    actives: set = set()
    passives: set = set()
    for inst in choice:
        active = nodes.get(inst.active_uid)
        if active is None:
            raise StaleChoiceError(f"no membrane with uid {inst.active_uid}")
        if inst.is_move:
            passive = nodes.get(inst.passive_uid)
            if isinstance(inst.rule, EndoRule):
                if passive is None or active.parent != passive.parent or active.parent is None:
                    raise StaleChoiceError("endo participants are not siblings here")
            elif passive is None or active.parent != inst.passive_uid:
                raise StaleChoiceError("exo active is not a child of its passive")
            if active.children or not active.src.timer > clock or not passive.src.timer > clock:
                raise StaleChoiceError("move structural precondition fails")
            if inst.active_uid in actives or inst.active_uid in passives or inst.passive_uid in actives:
                raise StaleChoiceError("conflicting membrane roles in choice")
            actives.add(inst.active_uid)
            passives.add(inst.passive_uid)
    for (uid, cls), n in usage.items():
        node = nodes.get(uid)
        if node is None or node.content.get(cls, 0) < n:
            bound = (cls[0], cls[1] - clock)  # as the instance names it
            raise StaleChoiceError(f"binding {bound} x{n} unavailable in membrane {uid}")


_least_of = attrgetter("_least")


def _unexpired(clock: int, node: MembraneNode) -> bool:
    """``Tree``'s keep test: no timer in ``node``'s subtree reaches
    ``clock``. Monotone, as ``Tree`` needs: a child's least timer is never
    below its parent's."""
    return node._least > clock


def _kept_lows(nodes: dict) -> dict:
    """uid -> the least timer among the children a work node keeps as they
    are, for each work node of a just-loaded tree where the source's
    ``_least`` slot tells it: that least is below the source's own timer
    and objects (or ``INF``), so a child holds it, and no child loaded as
    a work node holds it, so a kept one does."""
    keeping = [(uid, work) for uid, work in nodes.items() if len(work.children) > len(work.sub)]
    if not keeping:
        return {}
    lost: dict = {}  # uid -> the least timer among its children loaded
    for work in nodes.values():
        if work.parent is not None and work.src._least < lost.get(work.parent, INF):
            lost[work.parent] = work.src._least
    lows = {}
    for uid, work in keeping:
        src = work.src
        low = src._least
        if low == INF or (
            low < src.timer and lost.get(uid, INF) > low
            and all(t > low for (_sym, t), _n in src.content.items())
        ):
            lows[uid] = low
    return lows


def step(config: Configuration, choice: StepChoice) -> StepResult:
    """Apply one chosen step and the clock phases; see the module docstring
    for the phase order. Raises StaleChoiceError on a choice that was not
    produced for this configuration. The result is at the next clock and
    shares every subtree that the choice does not touch and in which no
    timer reaches 0; its index is derived from ``config``'s. Work nodes
    hold deadlines from load to freeze: each instance's bindings are read
    as deadline keys, products join at their remaining timer plus the
    next clock, and an object whose deadline is the clock expires."""
    clock = config.clock
    later = clock + 1
    least_timer(config.skin)  # filled below the skin for the keep test
    tree = Tree(config, choice, partial(_unexpired, clock))
    nodes = tree.nodes
    lows = _kept_lows(nodes)
    usage = _deadline_usage(choice, clock)
    _validate_choice(choice, usage, nodes, clock)

    consumed = produced = 0
    timers: dict = {}  # active uid -> its remaining timer after the step

    # Phase 1: consume, produce, move, decrement actives.
    for (uid, cls), n in usage.items():
        content = nodes[uid].content
        content[cls] -= n
        if not content[cls]:
            del content[cls]
        consumed += n
    # A membrane that exits the skin (the only passive that is the skin)
    # is archived as phase 1 leaves it: its objects at their remaining
    # timers, its products at their own.
    leaving = {inst.active_uid for inst in choice if inst.passive_uid == config.skin.uid}
    for uid in leaving:
        work = nodes[uid]
        work.content = {(sym, t - clock): n for (sym, t), n in work.content.items()}

    def give(uid: int, prods: tuple, slot_classes: tuple) -> None:
        nonlocal produced
        content = nodes[uid].content
        at = 0 if uid in leaving else later
        for sym, spec in prods:
            t = spec.timer if isinstance(spec, Fresh) else decrement(slot_classes[spec.slot][1])
            cls = (sym, t + at)
            content[cls] = content.get(cls, 0) + 1
        produced += len(prods)

    for inst in choice:
        rule = inst.rule
        if isinstance(rule, RewriteRule):
            give(inst.active_uid, rule.rhs, inst.active_classes)
        else:
            give(inst.active_uid, rule.w, inst.active_classes)
            give(inst.passive_uid, rule.w2, inst.passive_classes)
            timer = nodes[inst.active_uid].src.timer - clock
            timers[inst.active_uid] = timer if rule.keep_active_timer else decrement(timer)

    detached: list[tuple[int, str, str]] = []
    detached_objects = 0
    for inst in choice:
        if isinstance(inst.rule, EndoRule):
            tree.endo(inst.active_uid, inst.passive_uid)
        elif isinstance(inst.rule, ExoRule):
            gone = tree.exo(inst.active_uid)
            if gone is not None:
                label = gone.src.label
                frozen = MembraneNode(
                    label, timers[inst.active_uid], Multiset(gone.content), (), uid=inst.active_uid
                )
                detached.append((inst.active_uid, label, canonical_render(frozen)))
                detached_objects += sum(gone.content.values())

    # Phases 2 and 3: an unbound pre-existing object whose deadline is the
    # clock expires, and every other one ticks, which keeps its deadline;
    # no product's deadline is the clock. Only nodes whose source holds a
    # timer at the clock are read. Then the phase-4 marker on every
    # non-skin, non-active membrane at timer 0.
    expired = 0
    marker = (DELTA, INF)
    for uid, node in nodes.items():
        if node.src._least > clock:
            continue
        content = node.content
        for cls in [cls for cls in content if cls[1] == clock]:
            expired += content.pop(cls)
        if node.parent is not None and uid not in timers and node.src.timer == clock:
            content[marker] = content.get(marker, 0) + 1

    # Phase 4: bottom-up dissolution.
    delta_consumed = tree.dissolve(_is_delta)
    if delta_consumed:  # released children are read where they land
        lows.clear()

    # Phase 5, while freezing: every surviving non-active membrane ticks,
    # which keeps its deadline; the skin and the actives get their new
    # remaining timer plus the next clock.
    def make(node, children: tuple) -> MembraneNode:
        src = node.src
        if src.uid in timers:
            timer = timers[src.uid] + later
        elif node.parent is None:
            timer = src.timer + 1  # the skin does not tick
        elif src.timer > clock:
            timer = src.timer
        else:  # pragma: no cover - timer-0 non-actives dissolved in phase 4
            raise AssertionError("undissolved timer-0 membrane")
        # ``core.least_timer`` worked out in the same pass: every child's
        # is known, kept from below the skin or built here, and the kept
        # children's least is read from ``lows`` where it is known
        items = sorted(node.content.items())
        least = timer
        for (_sym, t), _n in items:
            if t < least:
                least = t
        if children:
            low = lows.get(src.uid)
            if low is None:
                low = min(map(_least_of, children))
            else:
                for kid in node.sub.values():
                    low = min(low, kid.frozen._least)
            least = min(least, low)
        built = MembraneNode(src.label, timer, Multiset._of_sorted(tuple(items)), children, uid=src.uid)
        built._least = least
        if least == INF:  # no finite timer below: its render holds at every clock
            built._render = render_one(built)
        return built

    new_config = Configuration(tree.freeze(make), config.output_label, later)
    carry_index(new_config, tree)
    stats = StepStats(consumed, produced, expired, delta_consumed, detached_objects)
    return StepResult(new_config, tuple(detached), stats)


def apply_step(config: Configuration, choice: StepChoice) -> Configuration:
    """Configuration after one full step (see ``step`` for the record)."""
    return step(config, choice).config


def successors(config: Configuration, rules: Sequence[Rule]) -> list[tuple[StepChoice, Configuration, str]]:
    """Distinct next configurations over all legal choices, deduplicated by
    canonical key (one representative choice per key), as ``(choice,
    configuration, key)``."""
    return distinct_successors(
        config, step_choices(config, rules), lambda c, ch: step(c, ch).config, canonicalize
    )


def distinct_successors(config, choices: Iterable, apply: Callable, key: Callable) -> list[tuple]:
    """``(choice, apply(config, choice), key)`` for the first choice
    reaching each ``key``, in key order; shared by every successor
    relation, whose callers reuse the key instead of computing it again."""
    seen: dict = {}
    for choice in choices:
        result = apply(config, choice)
        k = key(result)
        if k not in seen:
            seen[k] = (choice, result, k)
    drop_index(config)  # an explored state is expanded once
    return [seen[k] for k in sorted(seen)]


# ---------------------------------------------------------------------------
# Simulation runs and traces

class StepRecord:
    """One step of a trace: its index, the choice fired, the canonical key
    of the configuration reached, whether the run halted there, and the
    membranes it archived. A record made by ``simulate`` holds its
    configuration and the run's key function instead of the key, renders
    ``key`` on first read, keeps the string and drops the configuration."""

    __slots__ = ("index", "choice", "halted", "detached", "_key", "_unread")

    def __init__(self, index: int, choice: StepChoice, key: str, halted: bool, detached: tuple):
        self.index = index
        self.choice = choice
        self.halted = halted
        self.detached = detached
        self._key = key
        self._unread = None  # (key function, configuration) until ``key`` is read

    @classmethod
    def unread(cls, index: int, choice: StepChoice, config, key: Callable, detached: tuple) -> "StepRecord":
        """A record, not halted, whose key is ``key(config)`` when read."""
        record = cls(index, choice, None, False, detached)
        record._unread = (key, config)
        return record

    @property
    def key(self) -> str:
        if self._unread is not None:
            key, config = self._unread
            self._key, self._unread = key(config), None
        return self._key

    def to_json(self) -> dict:
        return {
            "step": self.index,
            "instances": [inst.to_json() for inst in self.choice],
            "key": self.key,
            "halt": self.halted,
            "detached": [{"uid": u, "label": l, "render": r} for u, l, r in self.detached],
        }


@dataclass
class Trace:
    initial_key: str
    selector: str
    seed: int | None
    steps_requested: int
    reached: object = None  # the last configuration reached, at its clock in a timed run
    records: list = field(default_factory=list)

    @property
    def final(self):
        """The last configuration reached, at rest: a timed one is turned
        back to clock 0 (``core.at_rest``) once, on first read."""
        if getattr(self.reached, "clock", 0):
            self.reached = at_rest(self.reached)
        return self.reached

    @property
    def halted(self) -> bool:
        return bool(self.records) and self.records[-1].halted

    def to_jsonl(self) -> str:
        header = {
            "initial": self.initial_key,
            "selector": self.selector,
            "seed": self.seed,
            "steps_requested": self.steps_requested,
        }
        lines = [json.dumps(header, sort_keys=True)]
        lines.extend(json.dumps(r.to_json(), sort_keys=True) for r in self.records)
        return "\n".join(lines) + "\n"


def run(
    config: Configuration,
    rules: Sequence[Rule],
    steps: int,
    selector: str = "first",
    seed: int | None = None,
) -> Trace:
    """Repeatedly pick one saturated choice and apply it.

    ``selector`` is ``first`` (canonically least choice) or ``random``
    (seeded); identical seeds give identical traces. Stops early, flagging
    halt, when the only choice reproduces the current configuration. The
    run steps from ``config`` at its clock; records and keys read
    remaining timers, and ``Trace.final`` is at rest.
    Record keys are rendered on first read, through ``canonicalize`` as
    this module holds it when ``run`` is called. The rules are wrapped
    once (``core.rule_set``), so the run builds at most one rule table.
    """
    rules = rule_set(rules)

    def apply(current, choice):
        result = step(current, choice)
        return result.config, result.detached

    return simulate(
        config, steps, selector, seed, lambda c: maximal_choices(c, rules), apply, canonicalize
    )


def simulate(config, steps: int, selector: str, seed, choices: Callable, apply: Callable, key: Callable) -> Trace:
    """The simulation loop of ``run`` and ``untimed.u_run``: ``choices(c)``
    lists the choices, ``apply(c, choice)`` gives (next configuration,
    detached archive) and ``key(c)`` the canonical key. The initial key is
    rendered at once, each record's key when it is read. A step halts the
    run when it had the only choice and its key equals the one before;
    keys are compared only when the two least remaining timers agree
    (``_least_remaining``), as those of equal configurations do. Every
    state's index but ``config``'s is dropped once the next state exists."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if selector not in ("first", "random"):
        raise ValueError(f"unknown selector {selector!r}")
    rng = random.Random(seed) if selector == "random" else None
    trace = Trace(key(config), selector, seed, steps)
    current, least = config, _least_remaining(config)
    for index in range(1, steps + 1):
        options = choices(current)
        choice = options[0] if rng is None else rng.choice(options)
        previous = current
        current, detached = apply(current, choice)
        if previous is not config:
            drop_index(previous)  # records keep no index
        record = StepRecord.unread(index, choice, current, key, detached)
        before, least = least, _least_remaining(current)
        if len(options) == 1 and least == before:
            record.halted = record.key == (trace.records[-1].key if trace.records else trace.initial_key)
        trace.records.append(record)
        if record.halted:
            break
    trace.reached = current
    return trace


def _least_remaining(config) -> Timer | None:
    """The least remaining timer in a timed configuration, read from the
    skin's ``_least`` slot, which ``step`` fills; ``None`` for an untimed
    one, whose keys are always compared."""
    if isinstance(config, Configuration):
        return least_timer(config.skin) - config.clock
    return None


# ---------------------------------------------------------------------------
# Maximality audit

def residual_instances(
    config: Configuration,
    choice: StepChoice,
    rules: Sequence[Rule],
    forced_only: bool = False,
) -> list[Instance]:
    """Instances still applicable after setting aside the choice's bound
    objects and membrane roles. Empty on every saturated choice; with
    ``forced_only`` empty on every legal choice."""
    found = find_instances(config, rules)
    avail = availability(config, found)
    usage: dict = {}
    actives: set = set()
    passives: set = set()
    for inst in choice:
        for key, n in inst.needs().items():
            usage[key] = usage.get(key, 0) + n
        if inst.is_move:
            actives.add(inst.active_uid)
            passives.add(inst.passive_uid)
    return [
        inst for inst in found
        if (not forced_only or inst.forced())
        and addable(inst, inst.needs(), avail, usage, actives, passives)
    ]
