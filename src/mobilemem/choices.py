"""Conflict-free choices of rule instances, shared by every relation.

A choice is a multiset of instances that fire together. It is
conflict-free when its bound objects fit the membranes that hold them,
each active membrane moves at most once, and no membrane is both active
and passive; passive membranes may be shared. The timed step, the untimed
step and the literal relation of the ambient translation all use this one
condition. They differ only in which instances must no longer fit beside
a finished choice, the ``blocks`` predicate of ``enumerate_choices``:

* every instance: saturated choices (``engine.maximal_choices`` and
  ``untimed.u_maximal_choices``);
* the ``forced`` instances, whose bound objects all have timer INF: the
  legal timed choices (``engine.step_choices``);
* none: every conflict-free choice (``translate.literal_successors``,
  which drops the empty one).

The search decides the count of each instance in turn: the moves first,
then the other instances, each group in table order. Instance *j* can
displace instance *k* when it binds a ``(uid, class)`` key that *k*
binds, or when both are moves and *j*'s active membrane is *k*'s active
or passive one, or *j*'s passive membrane is *k*'s active one. When a
blocking instance *k* still fits and no later instance can displace it
(*k* is *settled*), the search does not stop adding *k*: later instances
only take objects and roles *k* does not need, so *k* would still fit at
every leaf below, and none of them is a finished choice. Independent
instances therefore cost one branch each, not a subset each (the pruning
used to list maximal independent sets, Tsukiyama et al. 1977, here over
multisets). For the same reason a settled blocker is not tested at the
leaves: it is added until it no longer fits, and since nothing decided
after it takes its keys or roles, it fits at no leaf below. Only the
unsettled blockers are tested there.

An instance is *isolated* when it blocks, binds some object, and no
other instance names one of its keys or, if it moves, one of its
membranes. Nothing else in any choice then reads or takes what it needs,
so a finished choice holds it exactly as often as it fits on its own:
the least ``avail // need`` over its keys, at most once for a move; one
copy fewer would leave it addable, one more would not fit. Its count is
decided before the search, which never sees it and so spends no branch,
no frame and no fit test on it; at each leaf it is merged back into
the instances' order with the rest. Non-blocking instances (the
finite-timer ones of ``engine.step_choices``, every instance of the
literal relation) and instances that bind nothing stay in the search.

Moves go first because they are the most constraining (Haralick & Elliott
1980): a move takes membrane roles as well as objects, and once every
move is decided a rewrite is displaced only by a later rewrite that binds
one of its keys. In a compiled system the counter ticks come before the
moves in table order and share objects with them: decided first, each
tick doubles the leaves; decided after the moves, each settles in one
branch. The order changes which branches are walked, not which count
vectors are finished choices: each finished choice is put back into table
order, and the list is sorted, so the result is the same in any order.
The search keeps one mutable state and an explicit stack, so its depth
is not bounded by Python's recursion limit.

The instances must come sorted, by distinct keys, as both matchers
return them (rule index, uids, then bound classes). A finished choice is
kept as the sorted positions of its instances, and the list of choices
is sorted by those position tuples: position order is key order, so
this is the order of the choices' key tuples, without building one.

Instances are seen only through ``active_uid``, ``passive_uid``,
``is_move`` (stored on the instance) and the needs map ``(uid, class) ->
count`` that the caller computes, once per instance, so the timed and
untimed interpreters share no matching or application code through this
module.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .tree import index_of


def availability(config, instances: Sequence) -> dict:
    """``(uid, class) -> count`` over the membranes the instances bind,
    active and passive: the only keys ``addable`` reads for them, each
    membrane read by uid from the configuration's index. A configuration
    at a clock (a timed one past clock 0) stores deadlines, and its
    classes are named here by remaining timers, as instances bind them;
    an untimed one is always at clock 0."""
    clock = config.clock
    wanted = {inst.active_uid for inst in instances}
    wanted.update([inst.passive_uid for inst in instances])
    skin = config.skin
    node = index_of(config).node
    avail: dict = {}
    for uid in wanted:  # None is a rewrite's passive membrane
        membrane = skin if uid == skin.uid else node.get(uid)
        if membrane is not None:
            for cls, n in membrane.content.items():
                if clock:
                    cls = (cls[0], cls[1] - clock)
                avail[(uid, cls)] = n
    return avail


def addable(inst, need: dict, avail: dict, usage: dict, actives, passives) -> bool:
    """Whether ``inst``, binding ``need``, still fits beside a choice that
    binds ``usage`` and holds the membrane roles ``actives``/``passives``."""
    if inst.is_move and (
        inst.active_uid in actives or inst.active_uid in passives or inst.passive_uid in actives
    ):
        return False
    return all(avail.get(key, 0) - usage.get(key, 0) >= n for key, n in need.items())


def _settled(table: list, blocking: list) -> list[bool]:
    """Per instance: it blocks and no later instance can displace it. One
    backward pass over the keys and roles of the instances seen so far."""
    later_keys: set = set()
    later_actives: set = set()
    later_passives: set = set()
    out = [False] * len(table)
    for k in range(len(table) - 1, -1, -1):
        inst, need = table[k]
        displaced = any(key in later_keys for key in need) or inst.is_move and (
            inst.active_uid in later_actives
            or inst.passive_uid in later_actives
            or inst.active_uid in later_passives
        )
        out[k] = blocking[k] and not displaced
        later_keys.update(need)
        if inst.is_move:
            later_actives.add(inst.active_uid)
            later_passives.add(inst.passive_uid)
    return out


def _isolated(rows: list, blocking: list) -> list[bool]:
    """Per instance: it blocks, binds something, and no other instance
    names one of its keys or, if it moves, one of its membranes. One pass
    finds the keys, and the uids of moved membranes, named more than once
    (a move's active and passive membranes always differ)."""
    seen: set = set()
    shared: set = set()
    for inst, need in rows:
        named = [*need, inst.active_uid, inst.passive_uid] if inst.is_move else need
        for key in named:
            if key in seen:
                shared.add(key)
            else:
                seen.add(key)
    return [
        b and bool(need) and shared.isdisjoint(need)
        and not (inst.is_move and (inst.active_uid in shared or inst.passive_uid in shared))
        for (inst, need), b in zip(rows, blocking)
    ]


def enumerate_choices(
    instances: Sequence, needs: Callable, avail: dict, blocks: Callable
) -> list[tuple]:
    """Every conflict-free choice after which no blocking instance fits,
    in the order of the instances' sort keys, given ``instances`` sorted
    by them. Moves join at most once; other instances as often as their
    objects allow."""
    rows = [(inst, needs(inst)) for inst in instances]
    blocking = [bool(blocks(inst)) for inst in instances]
    chosen: list = []  # positions in ``instances`` of the instances added
    searched: list = []
    for i, alone in enumerate(_isolated(rows, blocking)):
        if alone:  # its count is fixed, and no other instance reads its keys
            inst, need = rows[i]
            copies = min([avail.get(key, 0) // n for key, n in need.items()])
            chosen += [i] * (min(copies, 1) if inst.is_move else copies)
        else:
            searched.append(i)
    if not searched:  # nothing contested: one choice, already in position order
        return [tuple([instances[i] for i in chosen])]
    # positions in ``instances``, in the order the search decides them
    order = [i for i in searched if instances[i].is_move]
    order += [i for i in searched if not instances[i].is_move]
    table = [rows[i] for i in order]
    blocking = [blocking[i] for i in order]
    settled = _settled(table, blocking)
    # a settled blocker no longer fits once the search has decided it, so
    # only the unsettled ones are tested at the leaves
    blockers = [row for row, b, s in zip(table, blocking, settled) if b and not s]
    usage: dict = {}
    actives: set = set()
    passives: dict = {}  # uid -> number of chosen moves it is passive in
    results: list[tuple] = []

    def add(inst, need: dict, sign: int) -> None:
        for key, n in need.items():
            usage[key] = usage.get(key, 0) + sign * n
        if inst.is_move:
            p = inst.passive_uid
            if sign > 0:
                actives.add(inst.active_uid)
                passives[p] = passives.get(p, 0) + 1
            else:
                actives.remove(inst.active_uid)
                passives[p] -= 1
                if not passives[p]:
                    del passives[p]

    # A frame is [k, copies of instance k added, whether k fits beside them
    # or None before that is known]; with k == len(table) every count is
    # decided and the frame is a leaf.
    stack = [[0, 0, None]]
    while stack:
        frame = stack[-1]
        k, copies, fits = frame
        if k == len(table):
            if not any(addable(i, n, avail, usage, actives, passives) for i, n in blockers):
                results.append(tuple(sorted(chosen)))
            stack.pop()
            continue
        inst, need = table[k]
        if fits is None:
            fits = frame[2] = addable(inst, need, avail, usage, actives, passives)
            if not (fits and settled[k]):
                stack.append([k + 1, 0, None])  # stop at this many copies
                continue
        if fits:
            add(inst, need, 1)
            chosen.append(order[k])
            frame[1], frame[2] = copies + 1, None
            continue
        for _ in range(copies):
            add(inst, need, -1)
            chosen.pop()
        stack.pop()
    results.sort()
    return [tuple([instances[i] for i in positions]) for positions in results]
