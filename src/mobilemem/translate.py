"""Translating timed mobile ambients into membrane systems.

Capabilities become timed objects (``in:2 m`` becomes the object
``in_m:2``; co-capabilities become co-objects), ambients become membranes
with the same name and timer, parallel composition becomes multiset and
child union, and prefix order is erased: a continuation's objects appear
immediately next to the guarding capability. Tags are dropped. The result
is wrapped in a synthetic ``skin`` membrane with timer ``inf``, which is
also the default output membrane.

Rule generation pairs every ambient name n with every ambient name m that
a positive capability targets: one endo rule consuming ``in_m``/``~in_m``
and one exo rule consuming ``out_m``/``~out_m``. n is m only where two or
more ambients are named m, since an ambient moves into or out of another
one, never itself.

Because prefix order is erased the translation is not injective: a
membrane configuration reached by one movement step can be the image of a
process the ambient semantics cannot reach (its capabilities reordered).
``check_preimage_reordering`` demonstrates this on a given process.
``preimage_processes`` and ``some_preimage`` are one fold over the
membrane tree that differ only in how a membrane's capabilities are
arranged into prefix chains: in every way, each multiset of chains once
(``_arrangements``), or one chain per capability. A membrane keeps at
most ``PREIMAGE_CAP`` bodies; the list says ``truncated`` when more exist.

Two membrane-side transition relations are used by the correspondence
checks. The literal relation fires any nonempty conflict-free set of
generated movement instances at once (``literal_successors``), as an
ambient step may compose independent movements, and changes nothing else
(no timer decrements, no clock phases), mirroring the generated rules'
right-hand sides; against it the translation commutes with reduction on
the nose. The default engine relation (full steps) matches only after
erasing timers, since the engine ticks bystanders and decrements the
moving membrane.

``check_correspondence_PQ`` does not explore: it walks the movement edges
of an ambient reach graph built by ``explore.explore_ambients``, the same
graph ``explore.check_translation`` uses for its timer-erased pass, and
there both passes read one map of the states' images (``_Images``).
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from typing import Iterator, Sequence

from .core import (
    INF,
    Configuration,
    EndoRule,
    ExoRule,
    Fresh,
    MembraneNode,
    Multiset,
    Rule,
    RuleSet,
    Symbol,
    Timer,
    at_rest,
    canonicalize,
    number_fresh,
    rebuild_tree,
)
from . import ambient as amb
from .ambient import Amb, Capability, Prefix, Process
from .choices import enumerate_choices
from .engine import distinct_successors, find_instances
from .tree import StaleChoiceError, Tree

SKIN_LABEL = "skin"


class TranslateError(ValueError):
    pass


def cap_symbol(cap: Capability) -> Symbol:
    return Symbol(f"{cap.kind}_{cap.target}", cap.co)


def cap_from_symbol(sym: Symbol, timer: Timer) -> Capability | None:
    for kind in ("in", "out"):
        if sym.name.startswith(kind + "_"):
            return Capability(kind, sym.is_co, sym.name[len(kind) + 1:], timer)
    return None


def translate(p: Process) -> Configuration:
    """Membrane image of a process, wrapped in the synthetic skin."""
    return _image(amb.normalize(p))


def _image(p: Process) -> Configuration:
    """``translate`` of a process already in normal form, as every state of
    an ambient reach graph is; uids are 1..n in pre-order."""
    if any(isinstance(q, Amb) and q.name == SKIN_LABEL for q in amb.subterms(p)):
        raise TranslateError(f"ambient name {SKIN_LABEL!r} is reserved for the synthetic skin")

    def region(q: Process, built: tuple) -> tuple[list, list]:
        """(objects, child membranes) of ``q``'s image; ``built`` holds
        the pair of each immediate subterm, in fresh lists this call may
        extend."""
        if isinstance(q, Amb):
            objs, kids = built[0]
            return [], [MembraneNode(q.name, q.timer, Multiset(objs), tuple(kids))]
        objs, kids = built[0] if built else ([], [])
        for more_objs, more_kids in built[1:]:
            objs.extend(more_objs)
            kids.extend(more_kids)
        if isinstance(q, Prefix):
            objs.append((cap_symbol(q.cap), q.cap.timer))
        return objs, kids

    objs, kids = rebuild_tree(p, region)
    skin = MembraneNode(SKIN_LABEL, INF, Multiset(objs), tuple(kids))
    return Configuration(number_fresh(skin), SKIN_LABEL)


def generate_rules(p: Process, strict: bool = False) -> RuleSet:
    """Movement rules for every (mover, target) name pair with a positive
    capability aimed at the target; a name is paired with itself only when
    two or more ambients bear it. ``strict`` keeps the moving membrane's
    timer unchanged, matching the generated rules' literal right sides."""
    named = Counter(q.name for q in amb.subterms(p) if isinstance(q, Amb))
    names = sorted(named)
    targets = sorted({q.cap.target for q in amb.subterms(p) if isinstance(q, Prefix) and not q.cap.co})
    rules: list[Rule] = []
    for m in targets:
        if m not in named:
            continue
        for n in names:
            if n == m and named[m] < 2:
                continue
            in_sym = Symbol(f"in_{m}")
            out_sym = Symbol(f"out_{m}")
            rules.append(EndoRule(
                n, m, Multiset([in_sym]), name=f"in:{n}>{m}", keep_active_timer=strict,
            ))
            rules.append(ExoRule(
                n, m, Multiset([out_sym]), name=f"out:{n}<{m}", keep_active_timer=strict,
            ))
    return RuleSet(rules)


# ---------------------------------------------------------------------------
# Literal transition relation

def _literal_apply(config: Configuration, choice: tuple) -> Configuration:
    """Fire the moves of ``choice``, each once, simultaneously and change
    nothing else: consumed objects are replaced by the right-hand sides
    (carried timers unchanged), active membranes move, and no timer
    anywhere is touched. No clock phases, no dissolution. Subtrees no
    instance touches are shared with ``config``. A choice whose
    membranes or bound objects are gone raises ``StaleChoiceError``, as
    ``engine.step`` does, and leaves ``config`` as it is."""
    tree = Tree(config, choice)

    def swap(uid, classes, prods):
        content = tree.nodes[uid].content
        for cls in classes:
            if not content.get(cls):
                raise StaleChoiceError(f"stale literal choice: {cls} missing in {uid}")
            content[cls] -= 1
            if not content[cls]:
                del content[cls]
        for sym, spec in prods:
            cls = (sym, spec.timer if isinstance(spec, Fresh) else classes[spec.slot][1])
            content[cls] = content.get(cls, 0) + 1

    for inst, _n in choice:  # a move fires once (``tree.Tree``)
        swap(inst.active_uid, inst.active_classes, inst.rule.w)
        swap(inst.passive_uid, inst.passive_classes, inst.rule.w2)
    tree.move(choice)  # a membrane out of the skin is dropped

    def make(node, children):
        src = node.src
        return MembraneNode(src.label, src.timer, Multiset(node.content), children, uid=src.uid)

    return Configuration(tree.freeze(make), config.output_label)


def literal_successors(
    config: Configuration, rules: Sequence[Rule]
) -> list[tuple[tuple, Configuration, str]]:
    """The translation-level reduction: any nonempty conflict-free set of
    movement instances fires simultaneously (matching a reduction step that
    composes independent movements), with no clock. Deduplicated by
    canonical key. ``config`` may be at any clock: the relation starts
    from its ``core.at_rest`` form, so its successors are at rest."""
    config = at_rest(config)
    instances = [i for i in find_instances(config, rules) if i.is_move]
    choices = enumerate_choices(config, instances, lambda inst: False)
    return distinct_successors(config, [ch for ch in choices if ch], _literal_apply, canonicalize)


# ---------------------------------------------------------------------------
# Correspondence: ambient reductions map to membrane reductions

class _Images(dict):
    """Canonical key -> ``_image`` of that state of an ambient reach graph,
    each state translated on first lookup only; shared by the passes of
    one check over the graph, with what they all read: the movement edges
    (``moves``: state key -> reduct keys) and each image's literal
    successors under ``rules``, the root's generated rules, worked out
    once. The literal relation reads no rule's ``keep_active_timer``, so
    either mode of ``generate_rules`` serves. A depth-0 graph has no
    edges, so its root is reduced here."""

    def __init__(self, graph, rules: RuleSet):
        super().__init__()
        self.states = graph.objects  # key -> process
        root = self.states[graph.root]
        self.rules = rules
        self.moves: dict[str, list[str]] = {}
        for src, label, dst in graph.edges:
            if label == "move":
                self.moves.setdefault(src, []).append(dst)
        if graph.depth == 0 and (reducts := amb.reduce_step(root)).moved:
            self.states = dict(self.states)
            for succ in reducts:
                key = amb.canonical_key(succ)
                self.states.setdefault(key, succ)
                self.moves.setdefault(graph.root, []).append(key)
        self._literal: dict = {}

    def __missing__(self, key: str) -> Configuration:
        image = self[key] = _image(self.states[key])
        return image

    def literal(self, key: str) -> list:
        """``literal_successors`` of the image of state ``key``."""
        found = self._literal.get(key)
        if found is None:
            found = self._literal[key] = literal_successors(self[key], self.rules)
        return found


def check_correspondence_PQ(graph) -> dict:
    """For every non-time ambient reduction P' -> Q' from a state of the
    complete ambient reach ``graph`` (an ``explore.ReachGraph``) at depth
    at most max(graph.depth - 1, 0), the literal membrane relation takes
    translate(P') to a configuration with the same canonical key as
    translate(Q'). The graph's recorded ``move`` edges are the reductions;
    a depth-0 graph has none, so its root is reduced here. Each state is
    translated once."""
    return _correspondence(_Images(graph, generate_rules(graph.objects[graph.root])))


def _correspondence(images: _Images) -> dict:
    """``check_correspondence_PQ`` over the graph of ``images``, which
    the caller may go on using."""
    edges = 0
    misses: list[dict] = []
    for key in sorted(images.moves):
        membrane_keys = {k for _i, _cfg, k in images.literal(key)}
        for dst in images.moves[key]:
            edges += 1
            want = canonicalize(images[dst])
            if want not in membrane_keys:
                misses.append({"process": key, "reduct": dst, "wanted": want})
    return {"edges": edges, "misses": misses, "ok": not misses}


# ---------------------------------------------------------------------------
# Preimages and the reordering phenomenon

#: Most distinct bodies the preimage search keeps for one membrane; when a
#: membrane has more, its list and every list above it are ``truncated``.
PREIMAGE_CAP = 2000


class Preimages(list):
    """Preimage bodies in canonical-key order. ``truncated`` tells that the
    search stopped at ``PREIMAGE_CAP`` here or below, so more exist."""

    __slots__ = ("truncated",)

    def __init__(self, bodies, truncated: bool):
        super().__init__(bodies)
        self.truncated = truncated


def _arrangements(caps: Counter) -> Iterator[list[Process]]:
    """Every multiset of prefix chains that uses up ``caps``, exactly once
    each. The chains of one arrangement come out in nondecreasing order
    of their capabilities' ranks, each drawn from what the earlier ones
    left. A search state (chains closed, the last closed chain's ranks,
    the ranks drawn so far, counts left) either closes the chain being
    drawn, if it is no smaller than the last one, or draws once more."""
    if not caps:
        yield []
        return
    kinds = sorted(caps, key=str)
    stack = [((), (), (), tuple(caps[c] for c in kinds))]
    while stack:
        closed, floor, chain, left = stack.pop()
        # ``chain`` is still a proper prefix of ``floor``: it may not close,
        # and its next rank may not be below ``floor``'s
        short = len(chain) < len(floor) and chain == floor[:len(chain)]
        nxt = []
        if chain and not short:
            proc = amb.ZERO
            for rank in reversed(chain):
                proc = Prefix(kinds[rank], proc)
            if not any(left):
                yield [*closed, proc]
                continue
            nxt.append(((*closed, proc), chain, (), left))
        for rank in range(floor[len(chain)] if short else 0, len(kinds)):
            if left[rank]:
                nxt.append((closed, floor, (*chain, rank), (*left[:rank], left[rank] - 1, *left[rank + 1:])))
        stack.extend(reversed(nxt))


def _preimages(config: Configuration, arrange) -> Preimages:
    """The distinct bodies Q with translate(Q) equal to ``config``
    (children stay parallel, never nested under a prefix): ``arrange``
    turns one membrane's capability ``Counter`` into lists of prefix
    chains, and each child takes every body found for it. Empty when
    some object is not capability-shaped. A configuration at a step
    clock is read as it stands: each timer is its deadline less the
    clock, so no copy at rest is made. This reads the clock itself, not
    through ``core.at_rest``, on purpose: prop45 calls ``some_preimage``
    on every membrane state while it has fewer than five notes."""
    clock = config.clock

    def bodies(node: MembraneNode, built: tuple) -> Preimages:
        caps: Counter = Counter()
        for (sym, t), count in node.content.items():
            caps[cap_from_symbol(sym, t - clock)] += count
        if None in caps or not all(built):
            return Preimages([], False)
        kids = [
            [Amb(child.label, child.timer - clock, body) for body in b]
            for child, b in zip(node.children, built)
        ]
        found: dict[str, Process] = {}
        truncated = any(b.truncated for b in built)
        for body in (amb.par(*chains, *parts) for chains in arrange(caps) for parts in product(*kids)):
            key = amb.canonical_key(body)
            if key not in found:
                if len(found) == PREIMAGE_CAP:
                    truncated = True
                    break
                found[key] = body
        return Preimages([found[k] for k in sorted(found)], truncated)

    return rebuild_tree(config.skin, bodies)


def preimage_processes(config: Configuration) -> Preimages:
    """Processes Q with translate(Q) equal to ``config``, over every
    arrangement of each membrane's capabilities into prefix chains.
    Empty when some object is not capability-shaped."""
    return _preimages(config, _arrangements)


def some_preimage(config: Configuration) -> Process | None:
    """One canonical preimage: every capability its own parallel prefix."""
    found = _preimages(config, lambda caps: [[Prefix(cap, amb.ZERO) for cap in caps.elements()]])
    return found[0] if found else None


def has_preimage(config: Configuration) -> bool:
    """``some_preimage(config) is not None``: every object is a capability."""
    objects = (sym for node in config.skin.walk() for (sym, _t), _n in node.content.items())
    return all(cap_from_symbol(sym, 0) is not None for sym in objects)


def check_preimage_reordering(
    p: Process, *, targets: list | None = None, moves: list | None = None
) -> dict:
    """Demonstrates non-injectivity of the translation on prefix order: a
    membrane reduct N of translate(p) has a preimage Q (capabilities
    reordered) that is not among p's one-step reducts. A caller that
    holds them may hand over ``targets``, the literal successors of
    translate(p) under its generated rules, and ``moves``, p's movement
    reducts (none when p can only tick)."""
    p = amb.normalize(p)
    if targets is None:
        targets = literal_successors(_image(p), generate_rules(p))
    if moves is None:
        reducts = amb.reduce_step(p)
        moves = reducts if reducts.moved else []
    # tag-erased comparison: the phenomenon is about prefix order, and a
    # preimage differing from a reduct only in tags is not a reordering;
    # preimages are built with every ambient active already
    reduct_keys = {amb.canonical_key(amb.erase_tags(q)) for q in moves}
    report: dict = {"targets": [], "reordering_found": False, "degenerate": False}
    if not targets:
        report["degenerate"] = True
        return report
    for _inst, n_config, n_key in targets:
        preimages = preimage_processes(n_config)
        fresh = [key for key in map(amb.canonical_key, preimages) if key not in reduct_keys]
        entry = {"n_key": n_key, "preimages": len(preimages), "unreachable_preimages": fresh}
        if preimages.truncated:
            entry["truncated"] = True
        report["targets"].append(entry)
        if fresh:
            report["reordering_found"] = True
    if all(t["preimages"] <= 1 for t in report["targets"]):
        report["degenerate"] = True
    return report
