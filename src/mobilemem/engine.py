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
``run`` executes: it draws one of them with ``selector="random"``, and
takes the least with ``selector="first"``, found without listing them
(``choices.least_choice``). ``step_choices`` additionally admits choices
in which an object with a *finite* timer sits out an enabled move and
simply ticks — objects are chosen nondeterministically with no priority
among rules, and a finite-timer object always has the tick to fall back
on. An instance all of whose bound objects carry timer ``INF`` has no such
fallback and is never refusable, so on systems with only infinite timers
the two notions agree.
``successors`` and the explorer enumerate ``step_choices``; this is what
makes the timer-elimination equivalence checkable. Both come from
``choices.enumerate_choices``, which holds the one conflict rule and its
three modes (saturated, forced-only, any) for every relation. The
choice's structural check, the take of its bound objects, checked as a
whole before anything is produced, the moves, dissolution and the
rebuilt tree come from ``tree.Tree``, which the untimed step and the
literal relation use too. Where a state's skin splits into two or more
parts that no instance relates, ``successors`` steps each part on its
own through ``step`` and composes every successor from the parts'
outcomes (see its docstring).

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
the next one has its own, so a run's records keep none; the successor
relations leave their argument's index in place, and the explorer drops
it once the state is expanded. Work nodes keep
deadlines from load to freeze. An instance binds remaining timers, and
the choice's bindings are turned into deadline keys in one pass over
each instance's bound classes (``_deadline_usage``); a product is stored
at its remaining timer plus the next clock, or plus this clock in a
membrane that exits the skin, which is archived as phase 1 leaves it;
phases 2 and 3 only drop the objects whose deadline is the clock, since
a tick leaves every other deadline as it was. Keys, traces and archives
read remaining timers (``core.render_at``); readers of raw timers read
``core.at_rest``, as ``Trace.final`` does.

The matcher's rule table (moves by active label, rewrites by host label)
depends on the rules alone, so it is built once per rule container, not
once per state, and the container owns it (``core.RuleSet``): it lives
exactly as long as its rules. A plain list or tuple handed to the
matcher gets a fresh table per call; ``run`` and the explorers wrap
their rules once (``core.rule_set``), so each builds at most one table.

A run renders a key only where it is read, and a configuration keeps
its key once rendered (``core.canonicalize``). The trace's initial key
is read at once, so a run started again from one configuration renders
it once; each ``StepRecord`` holds its configuration and renders its key
on first read. A step halts the run when it had the only choice
and reproduced the configuration before it. Equal configurations have
equal least remaining timers, and a timed configuration keeps its least
timer in the skin's slot, so ``simulate`` compares those first: when they
differ the step does not halt and no key is rendered; when they agree,
as they always do when every timer is ``INF``, the two keys decide. A
``first`` step has listed no choices, so only where the keys are equal
does it ask whether a second choice exists, by a search that stops at its
second finished choice.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import partial
from itertools import product
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Sequence

from .choices import enumerate_choices, every, expanded, least_choice
from .core import (
    DELTA,
    DELTA_NAME,
    INF,
    Configuration,
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
    decrement,
    least_timer,
    render_at,
    render_node,
    render_objects,
    rule_name,
    rule_set,
    state_key,
    timer_str,
)
from .tree import StaleChoiceError, Tree, carry_index, drop_index, index_of, usage


class Instance:
    """One applicable rule occurrence with its object bindings, never
    changed once made.

    ``active_classes``/``passive_classes`` give the bound ``(symbol, timer)``
    occurrence class per left-hand-side slot. Rewrites bind only the active
    side (their host membrane) and have no passive membrane. ``is_move`` is
    worked out once, when the instance is made.
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

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"

    def needs(self) -> dict:
        """``(uid, class) -> count`` of the objects this instance binds
        (``tree.usage`` of it alone)."""
        return usage(((self, 1),))

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
        name = rule_name(self.rule, self.rule_index)
        binds = ",".join(f"{s}:{timer_str(t)}" for s, t in self.active_classes)
        if self.passive_uid is None:
            return f"{name}@{self.active_uid}{{{binds}}}"
        pbinds = ",".join(f"{s}:{timer_str(t)}" for s, t in self.passive_classes)
        return f"{name}@{self.active_uid}->{self.passive_uid}{{{binds}|{pbinds}}}"

    def to_json(self) -> dict:
        return {
            "rule": rule_name(self.rule, self.rule_index),
            "active": self.active_uid,
            "passive": self.passive_uid,
            "active_bindings": [[str(s), timer_str(t)] for s, t in self.active_classes],
            "passive_bindings": [[str(s), timer_str(t)] for s, t in self.passive_classes],
        }


StepChoice = tuple  # (Instance, count) pairs, one per distinct instance, sorted; a move's count is 1


def choice_describe(choice: StepChoice) -> str:
    """The instances of ``choice`` joined by `` + ``, each written out
    once per copy."""
    return " + ".join([text for inst, n in choice for text in [inst.describe()] * n]) if choice else "(empty)"


# ---------------------------------------------------------------------------
# Instance matching

def _slot_bindings(slots: tuple, content: Multiset, clock: int) -> list[tuple]:
    """Every way to bind ``slots`` to classes of ``content``, a content
    stored at ``clock``, whose deadline is after it, each class named by
    its remaining timer, in slot order: the product of each slot's
    classes. Where a symbol fills two slots, only the bindings that
    ``content`` holds enough objects for are kept."""
    items = content.items()
    if len(slots) == 1:
        sym = slots[0]
        return [((s, t - clock),) for (s, t), _n in items if s == sym and t > clock]
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
    the unused residue. When nothing applies, the single empty choice.
    Each is a ``StepChoice``: ``(instance, count)`` pairs."""
    return enumerate_choices(config, find_instances(config, rules), every)


def step_choices(config: Configuration, rules: Sequence[Rule], instances: list | None = None) -> list[StepChoice]:
    """All legal choices of the timed semantics: conflict-free sets whose
    residue admits no instance binding only INF-timer objects. Superset of
    ``maximal_choices``; the difference is finite-timer objects ticking
    instead of joining an enabled move. The choices are made of
    ``instances`` when given (a caller that has matched them already,
    or one part of them that shares nothing with the rest), else of every
    instance ``find_instances`` finds."""
    if instances is None:
        instances = find_instances(config, rules)
    return enumerate_choices(config, instances, Instance.forced)


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
    at ``clock``: one pass over each distinct instance's bound classes,
    which name remaining timers, each counted as often as it fires."""
    usage: dict = {}
    for inst, n in choice:
        for uid, classes in ((inst.active_uid, inst.active_classes), (inst.passive_uid, inst.passive_classes)):
            for sym, t in classes:
                key = (uid, (sym, t + clock))
                usage[key] = usage.get(key, 0) + n
    return usage


def _validate_choice(choice: StepChoice, tree: Tree, clock: int) -> None:
    """Raise ``StaleChoiceError`` unless every move of ``choice`` finds
    both its membranes' timers above 0 in the loaded work tree, which has
    checked its structure."""
    nodes = tree.nodes
    for inst, _n in choice:
        if inst.is_move and min(nodes[inst.active_uid].src.timer, nodes[inst.passive_uid].src.timer) <= clock:
            raise StaleChoiceError("move structural precondition fails")


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
    for the phase order. The objects the choice binds are checked as a
    whole and taken (``Tree.take``) before any right side is produced, so
    no instance binds what another one of the choice produces. Raises
    StaleChoiceError on a choice that was not produced for this
    configuration, and leaves ``config`` as it is. The result is at the
    next clock and shares every subtree that the choice does not touch
    and in which no timer reaches 0; its index is derived from
    ``config``'s. Work nodes hold deadlines from load to freeze: each
    instance's bindings are read as deadline keys
    (``_deadline_usage``), products join at their remaining timer plus
    the next clock, and an object whose deadline is the clock expires."""
    clock = config.clock
    later = clock + 1
    least_timer(config.skin)  # filled below the skin for the keep test
    tree = Tree(config, choice, partial(_unexpired, clock))
    nodes = tree.nodes
    lows = _kept_lows(nodes)
    _validate_choice(choice, tree, clock)

    # Phase 1: consume, produce, move, decrement actives.
    consumed = tree.take(_deadline_usage(choice, clock))
    produced = 0
    timers: dict = {}  # active uid -> its remaining timer after the step
    # A membrane that exits the skin (the only passive that is the skin)
    # is archived as phase 1 leaves it, read at this clock: its products
    # are stored at their remaining timer plus the clock.
    leaving = {inst.active_uid for inst, _n in choice if inst.passive_uid == config.skin.uid}
    marked = False  # whether some work node got a dissolution marker

    def give(uid: int, prods: tuple, slot_classes: tuple, n: int) -> None:
        nonlocal produced, marked
        content = nodes[uid].content
        at = clock if uid in leaving else later
        for sym, spec in prods:
            t = spec.timer if isinstance(spec, Fresh) else decrement(slot_classes[spec.slot][1])
            cls = (sym, t + at)
            content[cls] = content.get(cls, 0) + n
            if sym == DELTA:
                marked = True
        produced += n * len(prods)

    for inst, n in choice:
        rule = inst.rule
        if isinstance(rule, RewriteRule):
            give(inst.active_uid, rule.rhs, inst.active_classes, n)
        else:
            give(inst.active_uid, rule.w, inst.active_classes, n)
            give(inst.passive_uid, rule.w2, inst.passive_classes, n)
            timer = nodes[inst.active_uid].src.timer - clock
            timers[inst.active_uid] = timer if rule.keep_active_timer else decrement(timer)

    detached: list[tuple[int, str, str]] = []
    detached_objects = 0
    for inst, gone in tree.move(choice):
        uid, label = inst.active_uid, gone.src.label
        frozen = MembraneNode(label, timers[uid] + clock, Multiset(gone.content), (), uid=uid)
        detached.append((uid, label, render_at(frozen, clock)))
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
            marked = True

    # Phase 4: bottom-up dissolution, where a marker was placed: none rests
    # in a configuration (``core.validate``).
    delta_consumed = tree.dissolve(_is_delta) if marked else 0
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
            timer = _skin_timer(src)
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
        return _frozen(src, timer, Multiset._of_sorted(tuple(items), node.content), children, least)

    new_config = Configuration(tree.freeze(make), config.output_label, later)
    carry_index(new_config, tree)
    stats = StepStats(consumed, produced, expired, delta_consumed, detached_objects)
    return StepResult(new_config, tuple(detached), stats)


def _skin_timer(skin: MembraneNode) -> int:
    """The skin's timer, a deadline, after a step: the skin does not tick."""
    return skin.timer + 1


def _frozen(src: MembraneNode, timer, content: Multiset, children: tuple, least) -> MembraneNode:
    """``src`` as a step freezes it, with its new ``timer``, ``content``
    and ``children``, and ``least`` its ``core.least_timer``. It keeps no
    render: keys are folded when read (``core.canonicalize``)."""
    built = MembraneNode(src.label, timer, content, children, uid=src.uid)
    built._least = least
    return built


def apply_step(config: Configuration, choice: StepChoice) -> Configuration:
    """Configuration after one full step (see ``step`` for the record)."""
    return step(config, choice).config


def successors(
    config: Configuration, rules: Sequence[Rule], memo: dict | None = None
) -> list[tuple[StepChoice, Configuration, str]]:
    """Distinct next configurations over all legal choices, deduplicated by
    canonical key (one representative choice, the first in choice order,
    per key), as ``(choice, configuration, key)`` in key order.

    The skin is split into parts (``_split``): its top-level children and
    its own contents, two of them joined when one instance binds
    membranes or skin objects in both. Parts share no membrane and no
    object, so a legal choice is one legal choice per part, and a step of
    the whole tree is its parts' steps side by side. With two or more
    parts holding instances, each part is stepped once per choice of its
    own, by ``step`` on a sub-configuration whose skin holds only that
    part's children (and the skin's contents if the part binds them); the
    children and contents no instance binds form one more part, stepped
    with the empty choice where a timer in it reaches the clock and kept
    as it is elsewhere (``_part_outcomes``). Every combination of part
    outcomes is then composed into a successor and its key
    (``_composed_key``, ``_compose``). The key is the one ``canonicalize``
    gives for the merged choice's step, and the successor is that step's
    up to sibling order, which is not part of a state: it lists the skin's
    children part by part, and keeps the key. Of combinations with one
    key, the first in choice order wins. ``memo`` holds part outcomes,
    keyed by all they depend on: the rules, the skin's label and uid, the
    clock, the skin's contents when the part holds them and the identity
    of the part's members; it holds the rules and members alive, so the
    identities stay theirs. An exploration keeps one for its whole search,
    so that a part shared by many states is stepped once. A state with
    fewer than two parts holding instances is stepped whole, once per
    choice."""
    found = find_instances(config, rules)
    split = _split(config, found)
    if split is None:
        return distinct_successors(config, step_choices(config, rules, found), apply_step, canonicalize)
    memo = {} if memo is None else memo
    outcomes = [_part_outcomes(config, rules, *part, memo) for part in split]
    seen: dict = {}  # key -> the combination first in choice order
    for combo in product(*outcomes):
        key = _composed_key(config, combo)
        first = seen.get(key)
        if first is None or _choice_order(combo) < _choice_order(first):
            seen[key] = combo
    found = []
    for key in sorted(seen):
        combo = seen[key]
        choice = tuple([(inst, n) for _k, inst, n in sorted([t for part in combo for t in part.keyed], key=_first)])
        successor = _compose(config, combo)
        object.__setattr__(successor, "_key", key)
        found.append((choice, successor, key))
    return found


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
    return [seen[k] for k in sorted(seen)]


# ---------------------------------------------------------------------------
# Successors by parts of the skin

def _split(config: Configuration, instances: list) -> list | None:
    """The parts of ``config``'s skin under ``instances``, as ``(members,
    with_skin, instances)``: the part's top-level children in child
    order, whether it holds the skin's contents, and its instances in
    their order. A top-level child and the skin's contents (named by the
    skin's uid) start alone; an instance joins the parts of its two
    membranes, each read as its top-level ancestor, the skin as itself.
    The parts holding instances come first, then, unless empty, the part
    of the children and contents no instance binds. ``None`` when fewer
    than two parts hold instances."""
    if len(instances) < 2:
        return None
    skin = config.skin
    skin_uid = skin.uid
    up = index_of(config).up
    tops = {skin_uid: skin_uid}
    link: dict = {}  # a part's uid -> the part it was joined to

    def part(uid):
        top = tops.get(uid)
        if top is None:
            top = uid
            while up[top] != skin_uid:
                top = up[top]
            tops[uid] = top
        while top in link:
            top = link[top]
        return top

    for inst in instances:
        if inst.passive_uid is not None:
            active, passive = part(inst.active_uid), part(inst.passive_uid)
            if active != passive:
                link[passive] = active
    groups: dict = {}
    for inst in instances:
        groups.setdefault(part(inst.active_uid), []).append(inst)
    if len(groups) < 2:
        return None
    members: dict = {top: [] for top in groups}
    inert = []
    for child in skin.children:
        members.get(part(child.uid), inert).append(child)
    skin_part = part(skin_uid)
    split = [(tuple(members[top]), top == skin_part, insts) for top, insts in groups.items()]
    unbound = skin_part not in groups
    if inert or (unbound and skin.content):
        split.append((tuple(inert), unbound, []))
    return split


_EMPTY = Multiset()
_first = itemgetter(0)


class _Outcome:
    """One part stepped by one of its choices: its instances as (sort
    key, instance, count), in choice order; the skin's children after the
    step and their renders at the next clock;
    the skin's contents after the step (``None`` when empty) and their
    objects part at that clock; the least timer among those children
    and contents."""

    __slots__ = ("keyed", "children", "renders", "content", "objects", "low")


def _part_outcomes(config: Configuration, rules: Sequence[Rule], members: tuple, with_skin: bool,
                   instances: list, memo: dict) -> list:
    """The outcomes of one part of ``config`` (``_split``), one per legal
    choice of its ``instances``, in choice order, read from ``memo`` or
    else made and kept there. Each choice is stepped by ``step`` on the
    skin holding only the part's ``members``, and the skin's contents when
    the part holds them (``with_skin``). A part without instances in which
    no timer reaches the clock is one outcome, the part as it is: ``step``
    would keep it so (``tree.Tree``'s keep test), objects and all. The
    memo key is the rules' identity, the skin's label and uid, the clock,
    the skin's contents when the part holds them, and the members'
    identities; the memo keeps the rules and members with the outcomes,
    so that those identities stay theirs."""
    skin = config.skin
    clock = config.clock
    content = skin.content if with_skin else _EMPTY
    key = (id(rules), skin.label, skin.uid, clock, content._items if with_skin else None, tuple(map(id, members)))
    got = memo.get(key)
    if got is not None:
        return got[2]
    later = clock + 1
    if not instances and all(least_timer(m) > clock for m in members) and all(
            t > clock for (_sym, t), _n in content.items()):
        outcomes = [_outcome((), members, content, later)]
    else:
        sub = Configuration(MembraneNode(skin.label, skin.timer, content, members, uid=skin.uid),
                            config.output_label, clock)
        outcomes = []
        for choice in step_choices(config, rules, instances) if instances else [()]:
            made = step(sub, choice).config
            outcomes.append(_outcome(choice, made.skin.children, made.skin.content, later))
    memo[key] = (rules, members, outcomes)
    return outcomes


def _outcome(choice: StepChoice, children: tuple, content: Multiset, later: int) -> _Outcome:
    """A part's outcome (``_Outcome``) from its skin's children and
    contents after ``choice``."""
    out = _Outcome()
    out.keyed = [(inst.sort_key(), inst, n) for inst, n in choice]
    out.children = children
    out.renders = [render_at(child, later) for child in children]
    out.content = content if content else None
    out.objects = render_objects(content, later)
    out.low = min([child._least for child in children] + [t for (_sym, t), _n in content.items()], default=INF)
    return out


def _choice_order(combo: tuple) -> list:
    """The merged choice of a combination of part outcomes as its
    instances' sort keys, in order, each written out once per copy
    (``choices.expanded``): ``step_choices`` lists choices in this order,
    since instance order is sort key order."""
    return expanded(sorted([(k, n) for part in combo for k, _inst, n in part.keyed]))


def _summed(contents: list) -> Multiset:
    counts: dict = {}
    for content in contents:
        for cls, n in content.items():
            counts[cls] = counts.get(cls, 0) + n
    return Multiset._of_sorted(tuple(sorted(counts.items())), counts)


def _composed_key(config: Configuration, combo: tuple) -> str:
    """``canonicalize`` of ``_compose(config, combo, ...)``, from the
    parts' child renders and objects: the children's renders are sorted
    together, and the skin's contents are the sum of the parts'."""
    kids = []
    held = []
    for part in combo:
        kids += part.renders
        if part.content is not None:
            held.append(part)
    skin = config.skin
    if len(held) == 1:
        objects = held[0].objects
    else:
        objects = render_objects(_summed([part.content for part in held]), config.clock + 1) if held else ""
    return state_key(render_node(skin.label, skin.timer - config.clock, objects, kids), config.output_label)


def _compose(config: Configuration, combo: tuple) -> Configuration:
    """The successor of ``config`` whose parts stepped as ``combo`` says:
    what ``step`` builds for the merged choice, up to the order of the
    skin's children, which are listed part by part. The skin's contents
    are the sum of the parts', and its timer and ``_least`` are filled as
    ``step``'s ``make`` fills them."""
    skin = config.skin
    held = [part.content for part in combo if part.content is not None]
    content = held[0] if len(held) == 1 else _summed(held) if held else _EMPTY
    timer = _skin_timer(skin)
    least = min(timer, *[part.low for part in combo])
    built = _frozen(skin, timer, content, tuple([child for part in combo for child in part.children]), least)
    return Configuration(built, config.output_label, config.clock + 1)


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
            "instances": [data for inst, n in self.choice for data in [inst.to_json()] * n],
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
        """The last configuration reached, at rest (``core.at_rest``),
        turned back to clock 0 once, on first read."""
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

    ``selector`` is ``first`` (canonically least choice, found greedily by
    ``choices.least_choice``) or ``random`` (seeded, over every saturated
    choice); identical seeds give identical traces. Stops early, flagging
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

    return simulate(config, steps, selector, seed, lambda c: find_instances(c, rules), apply, canonicalize)


def simulate(config, steps: int, selector: str, seed, instances: Callable, apply: Callable, key: Callable) -> Trace:
    """The simulation loop of ``run`` and ``untimed.u_run``:
    ``instances(c)`` lists the rule instances of ``c`` in sort-key order,
    ``apply(c, choice)`` gives (next configuration, detached archive) and
    ``key(c)`` the canonical key. ``first`` takes ``least_choice``;
    ``random`` draws from every saturated choice. The initial key is
    rendered at once, each record's key when it is read. A step halts the
    run when it had the only choice and its key equals the one before;
    keys are compared only when the two least remaining timers agree
    (``_least_remaining``), as those of equal configurations do. A
    ``first`` step lists no choices, so only a step whose key equals the
    one before asks whether it had a second choice: a search that stops
    at its second finished choice. Every state's index but ``config``'s is
    dropped once the next state exists and the step is decided."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if selector not in ("first", "random"):
        raise ValueError(f"unknown selector {selector!r}")
    rng = random.Random(seed) if selector == "random" else None
    trace = Trace(key(config), selector, seed, steps)
    current, least = config, _least_remaining(config)
    for index in range(1, steps + 1):
        found = instances(current)
        if rng is None:
            options, choice = None, least_choice(current, found)
        else:
            options = enumerate_choices(current, found, every)
            choice = rng.choice(options)
        previous = current
        current, detached = apply(current, choice)
        record = StepRecord.unread(index, choice, current, key, detached)
        before, least = least, _least_remaining(current)
        if least == before and (options is None or len(options) == 1):
            record.halted = record.key == (trace.records[-1].key if trace.records else trace.initial_key) and (
                options is not None or len(enumerate_choices(previous, found, every, limit=2)) == 1
            )
        if previous is not config:
            drop_index(previous)  # records keep no index
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

