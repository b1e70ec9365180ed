"""Bounded exhaustive exploration and the equivalence checkers.

Reach graphs are built breadth-first with canonical-key deduplication, so
recorded depths are minimal and the graph is deterministic for a given
system and bound; a search also ends at the first level that adds no
state, so a bound past the last new state costs nothing. A configurable
node cap aborts exploration with the partial graph; checks over
truncated graphs report ``inconclusive``.

Three checks constitute the toolkit's oracle:

* ``check_embedding`` (CLI token ``prop1``): an untimed system and its
  all-INF embedding have canonically equal reach graphs (after erasing
  timers) and equal per-depth output readings.
* ``check_timer_elimination`` (CLI token ``prop2``): the timed system and
  its compiled untimed twin reach the same projected configuration sets
  within every depth bound, as read from each projection's least depths,
  preserve membrane counts, and the compiled states keep counters sound.
* ``check_translation`` (CLI token ``prop45``): every non-time ambient
  reduction is matched by a membrane reduction with the same translated
  image (timer-erased against full engine steps, by erased keys of the
  stepped states, exact against the literal relation, which fires any
  nonempty conflict-free set of movement instances), and every reachable
  membrane state has some ambient preimage. Preimages the ambient side
  cannot reach are reported as informative, not failing; preimage terms
  are built only until the listed ones are found. The ambient side is
  explored once, within the node cap; both forward passes walk that
  graph's ``move`` edges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

from .core import Configuration, RewriteRule, Rule, canonicalize, output_membranes, rule_set
from .engine import choice_describe, successors
from .untimed import (
    UConfig,
    erased_key,
    u_canonicalize,
    u_successors,
)
from .compiler import (
    MAX_COMPILED_RULES,
    OversizedError,
    counter_soundness_violations,
    eliminate_timers,
    embed_infinite,
    _counter_of,
)
from . import ambient as amb
from .tree import drop_index
from .translate import (
    check_preimage_reordering,
    generate_rules as _generate_rules,
    has_preimage,
    some_preimage,
    _correspondence,
    _Images,
)

DEFAULT_NODE_CAP = 100_000

#: Most membrane states without a reachable preimage that prop45 lists.
PREIMAGE_NOTES = 5


class BudgetExceeded(Exception):
    """Node cap hit; carries the partial graph, the ``depth`` whose states
    were being expanded and the ``frontier``, how many states that depth
    holds."""

    def __init__(self, graph: "ReachGraph", depth: int, frontier: int):
        super().__init__(
            f"exploration exceeded {len(graph.nodes)} nodes while expanding depth {depth}"
            f" (frontier of {frontier} states)"
        )
        self.graph = graph
        self.depth = depth
        self.frontier = frontier


@dataclass
class NodeRecord:
    key: str
    depth: int
    halted: bool
    membranes: int
    output: tuple
    per_membrane: tuple = ()

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "depth": self.depth,
            "halted": self.halted,
            "membranes": self.membranes,
            "output": list(self.output),
            "per_membrane": [[uid, list(syms)] for uid, syms in self.per_membrane],
        }


@dataclass
class ReachGraph:
    """``objects`` maps a node's key to its state. A timed state stays at
    its step clock, the root's plus its depth, so its nodes hold
    deadlines. Each state may be handed as it is to any function of the
    package, which reads its remaining timers (``core.at_rest``); a
    caller that reads raw timers itself reads its ``at_rest`` form."""

    root: str
    depth: int
    nodes: dict = field(default_factory=dict)      # key -> NodeRecord
    edges: list = field(default_factory=list)      # (src key, label, dst key)
    objects: dict = field(default_factory=dict)    # key -> state object
    truncated: bool = False

    def to_json(self) -> dict:
        return {
            "root": self.root,
            "depth": self.depth,
            "truncated": self.truncated,
            "nodes": [self.nodes[k].to_json() for k in sorted(self.nodes)],
            "edges": [{"src": s, "label": l, "dst": d} for s, l, d in self.edges],
            "stats": {"nodes": len(self.nodes), "edges": len(self.edges)},
        }


def _bfs(root, root_key: str, succ_fn: Callable, meta_fn: Callable, depth: int, max_nodes: int) -> ReachGraph:
    """``succ_fn(state)`` lists ``(edge label, successor, its key)``. The
    search stops at ``depth`` or at the first level that adds no state,
    and lists nodes by depth, level by level. A membrane state drops its
    index as soon as it is expanded, once each; the states never
    expanded, the last level's or those left when the node cap stops the
    search, drop the work tree their step left them (``_drop_indexes``)."""
    graph = ReachGraph(root=root_key, depth=depth)
    graph.nodes[root_key] = meta_fn(root, root_key, 0)
    graph.objects[root_key] = root
    frontier = deque([root_key])
    for level in range(depth):
        if not frontier:
            break
        width = len(frontier)
        next_frontier: deque = deque()
        while frontier:
            key = frontier.popleft()
            state = graph.objects[key]
            succ = succ_fn(state)
            _drop_indexes(graph, (key,))
            dst_keys = []
            for label, nxt, nxt_key in succ:
                dst_keys.append(nxt_key)
                graph.edges.append((key, label, nxt_key))
                if nxt_key not in graph.nodes:
                    if len(graph.nodes) >= max_nodes:
                        graph.truncated = True
                        _drop_indexes(graph, [*frontier, *next_frontier])
                        raise BudgetExceeded(graph, level, width)
                    graph.nodes[nxt_key] = meta_fn(nxt, nxt_key, level + 1)
                    graph.objects[nxt_key] = nxt
                    next_frontier.append(nxt_key)
            if succ and all(k == key for k in dst_keys):
                graph.nodes[key].halted = True
        frontier = next_frontier
    _drop_indexes(graph, frontier)
    return graph


def _drop_indexes(graph: ReachGraph, keys) -> None:
    """Drop the index of each membrane state at ``keys``: an expanded
    state is not read again, and one never expanded still holds its
    step's work tree, and through it its source's whole index."""
    for key in keys:
        state = graph.objects[key]
        if isinstance(state, (Configuration, UConfig)):
            drop_index(state)


def _node_record(state, key: str, depth: int) -> NodeRecord:
    """A membrane state's record, read from ``core.output_membranes``: the
    membrane count, the output reading (the symbols of every
    output-labelled membrane, sorted by render) and, for a timed state,
    the rendered symbols of each output membrane in uid order."""
    count, outputs = output_membranes(state)
    per_mem = tuple((uid, tuple(sorted(map(str, syms)))) for uid, syms in outputs)
    reading = tuple(sorted([sym for _uid, syms in per_mem for sym in syms]))
    return NodeRecord(key, depth, False, count, reading, per_mem if isinstance(state, Configuration) else ())


def _view(graph: ReachGraph, lens: Callable) -> tuple[dict, dict]:
    """``graph`` through ``lens``: each key's projection ``lens(state)``, and
    each projection's least depth, its first node's (``_bfs`` lists by depth)."""
    projection: dict = {}
    least: dict = {}
    for key, record in graph.nodes.items():
        projection[key] = seen = lens(graph.objects[key])
        least.setdefault(seen, record.depth)
    return projection, least


def _explore_system(config, rules: Sequence[Rule], depth: int, max_nodes: int,
                    successors_of: Callable, key_of: Callable) -> ReachGraph:
    """BFS over ``successors_of(state, rules)``, keyed by ``key_of``, with
    the rules wrapped once (``core.rule_set``), so the search builds at
    most one rule table, which the rules keep. The explorers pass what
    their module names hold when called, so a wrapper bound to those
    names (``bench/tracing.py``) sees every call."""
    rules = rule_set(rules)

    def succ(state):
        return [(choice_describe(choice), cfg, key) for choice, cfg, key in successors_of(state, rules)]

    return _bfs(config, key_of(config), succ, _node_record, depth, max_nodes)


def explore_membranes(
    config: Configuration,
    rules: Sequence[Rule],
    depth: int,
    max_nodes: int = DEFAULT_NODE_CAP,
) -> ReachGraph:
    """BFS over the timed engine's legal step choices, on clocked states.
    The search keeps one memo of part outcomes (``engine.successors``),
    dropped with it, so a part shared by many states is stepped once."""
    return _explore_system(config, rules, depth, max_nodes, partial(successors, memo={}), canonicalize)


def explore_untimed(
    config: UConfig,
    rules: Sequence[Rule],
    depth: int,
    max_nodes: int = DEFAULT_NODE_CAP,
) -> ReachGraph:
    """BFS over the untimed engine's maximal choices."""
    return _explore_system(config, rules, depth, max_nodes, u_successors, u_canonicalize)


def explore_ambients(p, depth: int, max_nodes: int = DEFAULT_NODE_CAP) -> ReachGraph:
    """BFS over ambient reduction; edges are movement steps or the clock."""
    p = amb.normalize(p)

    def succ(state):
        reducts = amb.reduce_step(state)
        label = "move" if reducts.moved else "time"
        return [(label, q, amb.canonical_key(q)) for q in reducts]

    def meta(state, key, d):
        count = sum(isinstance(q, amb.Amb) for q in amb.subterms(state))
        return NodeRecord(key, d, False, count, ())

    return _bfs(p, amb.canonical_key(p), succ, meta, depth, max_nodes)


# ---------------------------------------------------------------------------
# Verdicts

@dataclass
class Verdict:
    check: str
    ok: bool | None  # None = inconclusive (budget exceeded)
    details: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        if self.ok is True:
            return 0
        if self.ok is None:
            return 2
        return 1

    def to_json(self) -> dict:
        status = "pass" if self.ok else ("inconclusive" if self.ok is None else "fail")
        return {"check": self.check, "verdict": status, "details": self.details}


def check_embedding(
    config: UConfig,
    rules: Sequence[Rule],
    depth: int,
    max_nodes: int = DEFAULT_NODE_CAP,
    embedded: tuple | None = None,
) -> Verdict:
    """Untimed system vs its all-INF embedding: keyed graphs must be equal
    after erasing timers, and output readings must match at every depth.
    ``embedded`` overrides the embedding (used to mutation-test the check
    itself)."""
    try:
        untimed_graph = explore_untimed(config, rules, depth, max_nodes)
        timed_config, timed_rules = embedded or embed_infinite(config, rules)
        timed_graph = explore_membranes(timed_config, timed_rules, depth, max_nodes)
    except BudgetExceeded as err:
        return Verdict("prop1", None, {"reason": str(err)})

    mapping, depths_t = _view(timed_graph, erased_key)
    nodes_u = set(untimed_graph.nodes)
    nodes_t = set(depths_t)
    details: dict = {
        "untimed_nodes": len(nodes_u),
        "embedded_nodes": len(timed_graph.nodes),
    }
    witnesses = []
    if nodes_u != nodes_t:
        witnesses.append({
            "missing_in_embedding": sorted(nodes_u - nodes_t)[:3],
            "extra_in_embedding": sorted(nodes_t - nodes_u)[:3],
        })
    depths_u = {k: r.depth for k, r in untimed_graph.nodes.items()}
    if not witnesses and depths_u != depths_t:
        diff = [k for k in depths_u if depths_u[k] != depths_t.get(k)]
        witnesses.append({"depth_mismatch": sorted(diff)[:3]})
    edges_u = {(s, d) for s, _l, d in untimed_graph.edges}
    edges_t = {(mapping[s], mapping[d]) for s, _l, d in timed_graph.edges}
    if edges_u != edges_t:
        witnesses.append({
            "missing_edges": sorted(edges_u - edges_t)[:3],
            "extra_edges": sorted(edges_t - edges_u)[:3],
        })
    outputs_u: dict[int, set] = {}
    outputs_t: dict[int, set] = {}
    for graph, outputs in ((untimed_graph, outputs_u), (timed_graph, outputs_t)):
        for record in graph.nodes.values():
            outputs.setdefault(record.depth, set()).add(record.output)
    if outputs_u != outputs_t:
        witnesses.append({"output_mismatch_depths": sorted(
            d for d in set(outputs_u) | set(outputs_t) if outputs_u.get(d) != outputs_t.get(d)
        )})
    details["witnesses"] = witnesses
    details["isomorphic"] = not witnesses
    return Verdict("prop1", not witnesses, details)


def check_timer_elimination(
    config: Configuration,
    rules: Sequence[Rule],
    depth: int,
    max_nodes: int = DEFAULT_NODE_CAP,
) -> Verdict:
    """Timed system vs its compiled untimed twin: equal projected reachable
    sets within every k <= depth, preserved membrane counts, sound
    counters. A projection is keyed by ``erased_key`` less counters and
    drops no membrane, so its count is the state's ``NodeRecord``'s. The
    sets within bound k first differ at the least depth one side gives a
    projection and the other does not. Inconclusive, before any rule is
    built, where the compiled system's tick and kill rules are over
    ``compiler.MAX_COMPILED_RULES``."""
    try:
        compiled_config, compiled_rules = eliminate_timers(config, rules)
    except OversizedError as err:
        reason = (f"the compiled system needs {err.needed:,} tick and kill rules, "
                  f"over the {MAX_COMPILED_RULES:,} check prop2 builds")
        return Verdict("prop2", None, {"reason": reason})
    # a finite-timer label is one that a kill rule is hosted at
    counter_labels = {rule.at for _start, rule in compiled_rules.parts
                      if isinstance(rule, RewriteRule) and rule.at is not None}
    try:
        timed_graph = explore_membranes(config, rules, depth, max_nodes)
        compiled_graph = explore_untimed(compiled_config, compiled_rules, depth, max_nodes)
    except BudgetExceeded as err:
        return Verdict("prop2", None, {"reason": str(err)})

    details: dict = {
        "timed_nodes": len(timed_graph.nodes),
        "compiled_nodes": len(compiled_graph.nodes),
        "initial_membranes_equal":
            timed_graph.nodes[timed_graph.root].membranes == compiled_graph.nodes[compiled_graph.root].membranes,
    }
    witnesses = []

    soundness = []
    for key in compiled_graph.nodes:
        problems = counter_soundness_violations(compiled_graph.objects[key], counter_labels)
        if problems:
            soundness.append({"state": key, "problems": problems})
    if soundness:
        witnesses.append({"counter_soundness": soundness[:3]})

    (timed_proj, timed_least), (compiled_proj, compiled_least) = (
        _view(g, partial(erased_key, drop=_counter_of)) for g in (timed_graph, compiled_graph)
    )
    split = timed_least.items() ^ compiled_least.items()  # (projection, least depth) on one side only
    if split:
        k = min(d for _pk, d in split)
        timed_set = {pk for pk, d in timed_least.items() if d <= k}
        compiled_set = {pk for pk, d in compiled_least.items() if d <= k}
        witnesses.append({
            "depth": k,
            "only_timed": sorted(timed_set - compiled_set)[:3],
            "only_compiled": sorted(compiled_set - timed_set)[:3],
        })
    counts_timed = {timed_proj[key]: r.membranes for key, r in timed_graph.nodes.items()}
    for key, record in compiled_graph.nodes.items():  # in graph order, so the witness is deterministic
        if counts_timed.get(compiled_proj[key], record.membranes) != record.membranes:
            witnesses.append({"membrane_count_mismatch": compiled_proj[key]})
            break
    details["witnesses"] = witnesses
    return Verdict("prop2", not witnesses, details)


def check_translation(p, depth: int, max_nodes: int = DEFAULT_NODE_CAP) -> Verdict:
    """Both correspondence directions for the ambient translation, plus the
    reordered-preimage phenomenon as an informative note. One ambient graph
    serves both forward passes, which walk its ``move`` edges: those from
    states at depth below ``depth`` (the root alone at depth 0 for the
    exact pass, none for the erased one). The erased pass erases the keys
    of each image's ``successors``, the root's read from the membrane
    graph, which has stepped it. ``has_preimage`` decides for every state;
    a preimage term is built only while fewer than ``PREIMAGE_NOTES``
    notes are listed. Every pass reads the default rules."""
    p = amb.normalize(p)
    default_rules = _generate_rules(p)
    try:
        ambient_graph = explore_ambients(p, depth, max_nodes)
        images = _Images(ambient_graph, default_rules)  # each state translated once, for every pass
        membrane_graph = explore_membranes(images[ambient_graph.root], default_rules, depth, max_nodes)
    except BudgetExceeded as err:
        return Verdict("prop45", None, {"reason": str(err)})
    strict_report = _correspondence(images)

    pq_misses = []
    pq_edges = 0
    # the membrane graph has stepped the root's image already (no edge is
    # checked at depth 0, where it has not)
    stepped = [membrane_graph.objects[dst] for src, _l, dst in membrane_graph.edges if src == membrane_graph.root]
    erased_successors = {ambient_graph.root: {erased_key(cfg) for cfg in stepped}}
    for state_key, label, reduct_key in ambient_graph.edges:
        if label != "move":
            continue  # only movement reductions are matched
        if state_key not in erased_successors:
            erased_successors[state_key] = {
                erased_key(cfg) for _c, cfg, _key in successors(images[state_key], default_rules)
            }
        pq_edges += 1
        if erased_key(images[reduct_key]) not in erased_successors[state_key]:
            pq_misses.append({"state": state_key, "reduct": reduct_key})

    mn_misses = []
    preimage_notes = []
    for key, state in membrane_graph.objects.items():
        if not has_preimage(state):
            mn_misses.append({"state": key})
        elif len(preimage_notes) < PREIMAGE_NOTES:
            preimage = amb.canonical_key(some_preimage(state))
            if preimage not in ambient_graph.nodes:
                preimage_notes.append({"state": key, "preimage": preimage})

    root = ambient_graph.root
    reordering = check_preimage_reordering(
        p, targets=images.literal(root), moves=[images.states[k] for k in images.moves.get(root, [])],
    )
    ok = strict_report["ok"] and not pq_misses and not mn_misses
    details = {
        "pq_exact": strict_report,
        "pq_erased": {"edges": pq_edges, "misses": pq_misses},
        "mn": {"nodes": len(membrane_graph.nodes), "misses": mn_misses},
        "preimages_not_in_ambient_graph": preimage_notes,
        "reordering": reordering,
    }
    return Verdict("prop45", ok, details)
