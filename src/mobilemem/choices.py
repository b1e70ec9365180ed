"""Conflict-free choices of rule instances, shared by every relation.

A choice is a multiset of instances that fire together, held as a tuple
of ``(instance, count)`` pairs, one per distinct instance, in the
instances' order; a move's count is always 1. Copies are written out
only where text leaves the program (``engine.choice_describe``,
``engine.StepRecord.to_json``) and in the order of choices
(``expanded``). A choice is conflict-free when its bound objects fit the
membranes that hold them, each active membrane moves at most once, and
no membrane is both active and passive; passive membranes may be shared.
The timed step, the untimed step and the literal relation of the ambient
translation all use this one condition. They differ only in which
instances must no longer fit beside a finished choice, the ``blocks``
predicate of ``enumerate_choices``:

* every instance (``every``): saturated choices (``engine.maximal_choices``
  and ``untimed.u_maximal_choices``), the least of which ``least_choice``
  finds in one greedy pass;
* the ``forced`` instances, whose bound objects all have timer INF: the
  legal timed choices (``engine.step_choices``);
* none: every conflict-free choice (``translate.literal_successors``,
  which drops the empty one).

The search decides the count of each instance in turn, the moves first,
then the other instances, each group in table order: it works out once
how many copies still fit (``addable``) and tries each count from 0 up
to that many, adding and taking away copies in one step each. Instance
*j* can displace instance *k* when it binds a ``(uid, class)`` key that
*k* binds, or when both are moves and *j*'s active membrane is *k*'s
active or passive one, or *j*'s passive membrane is *k*'s active one.
When a blocking instance *k* still fits and no later instance can
displace it (*k* is *settled*), the search tries *k* only at the most
copies that fit: later instances only take objects and roles *k* does
not need, so with fewer copies *k* would still fit at every leaf below,
and none of them would be a finished choice. Independent instances
therefore cost one branch each, not a subset each (the pruning used to
list maximal independent sets, Tsukiyama et al. 1977, here over
multisets). For the same reason a settled blocker is not tested at the
leaves: it is added as often as it fits, and since nothing decided after
it takes its keys or roles, it fits at no leaf below. Only the unsettled
blockers are tested there.

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
return them (rule index, uids, then bound classes). The search decides a
count per instance, and a finished choice is kept as ``(position,
count)`` pairs in position order. The list of choices is sorted by
those positions written out once per copy (``expanded``): position order
is key order, so this is the order of the choices' key tuples, copy by
copy, without building one.

Instances are seen only through ``active_uid``, ``passive_uid``,
``is_move`` (stored on the instance) and each instance's ``needs()``, the
map ``(uid, class) -> count`` of the objects it binds, read once per
instance. ``enumerate_choices(config, instances, blocks)`` reads the
objects ``config`` holds for them itself (``availability``), so the timed
and untimed interpreters share no matching or application code through
this module.
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
    an untimed one is always at clock 0. The clock is read here, not
    through ``core.at_rest``, on purpose: the choice search is the hot
    path, and a copy at rest per search would cost a tree per state."""
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


def addable(inst, need: dict, avail: dict, usage: dict, actives, passives) -> int:
    """How many more copies of ``inst``, binding ``need``, still fit beside
    a choice that binds ``usage`` and holds the membrane roles
    ``actives``/``passives``: at most one of a move, which alone may bind
    nothing."""
    move = inst.is_move
    if move and (inst.active_uid in actives or inst.active_uid in passives or inst.passive_uid in actives):
        return 0
    copies = min([(avail.get(key, 0) - usage.get(key, 0)) // n for key, n in need.items()], default=1)
    return min(copies, 1) if move else copies


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


def every(inst) -> bool:
    """The ``blocks`` predicate of saturated choices: every instance."""
    return True


def expanded(pairs) -> list:
    """The keys of ``(key, count)`` pairs, in order, each written out
    ``count`` times: the order of choices is that of these lists, for
    positions or sort keys alike. No key per pair gives it: one copy of
    an instance is a prefix of two and sorts first, yet two copies of it
    sort before one copy followed by a later instance."""
    return [key for key, n in pairs for _ in range(n)]


def least_choice(config, instances: Sequence) -> tuple:
    """``enumerate_choices(config, instances, every)[0]``, the least
    saturated choice, in one greedy pass: each instance in sort-key order
    joins with the count that still fits beside those already taken, a
    move at most once. Greedy takes as many copies of the earliest
    instance as any saturated choice holds, and then of each next one
    given those, and a saturated choice is no proper sub-multiset of
    another; so the first position at which another saturated choice
    differs holds a later instance there, and its expanded positions
    sort after this one's (the lexicographically first maximal
    independent set, Cook 1985, here over multisets). The count is worked
    out as for an isolated instance, so no ``addable`` test is made; a
    move that binds no object fits once where its membranes are free."""
    avail = availability(config, instances)
    usage: dict = {}
    actives: set = set()
    passives: set = set()
    chosen: list = []
    for inst in instances:
        move = inst.is_move
        if move and (inst.active_uid in actives or inst.active_uid in passives or inst.passive_uid in actives):
            continue
        need = inst.needs()
        copies = min([(avail.get(key, 0) - usage.get(key, 0)) // n for key, n in need.items()], default=1)
        if copies <= 0:
            continue
        if move:
            copies = 1
            actives.add(inst.active_uid)
            passives.add(inst.passive_uid)
        for key, n in need.items():
            usage[key] = usage.get(key, 0) + copies * n
        chosen.append((inst, copies))
    return tuple(chosen)


def enumerate_choices(config, instances: Sequence, blocks: Callable, limit: int | None = None) -> list[tuple]:
    """Every conflict-free choice of ``instances``, found in ``config``,
    after which no blocking instance fits, as ``(instance, count)`` pairs
    in the instances' order, the list in the order of the choices'
    expanded sort keys (``expanded``), given ``instances`` sorted by
    them. Moves join at most once; other instances as often as their
    objects allow. With ``limit``, the search stops at that many finished
    choices, which are then the first it found, not the least:
    ``simulate`` asks so whether a step had a second choice."""
    avail = availability(config, instances)
    rows = [(inst, inst.needs()) for inst in instances]
    blocking = [bool(blocks(inst)) for inst in instances]
    chosen: list = []  # (position in ``instances``, count) per isolated instance
    searched: list = []
    for i, alone in enumerate(_isolated(rows, blocking)):
        if alone:  # its count is fixed, and no other instance reads its keys
            inst, need = rows[i]
            copies = min([avail.get(key, 0) // n for key, n in need.items()])
            if copies:
                chosen.append((i, 1 if inst.is_move else copies))
        else:
            searched.append(i)
    if not searched:  # nothing contested: one choice, already in position order
        return [tuple([(instances[i], n) for i, n in chosen])]
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
    actives: dict = {}  # uid -> number of chosen moves it is active in
    passives: dict = {}  # uid -> number of chosen moves it is passive in
    results: list[tuple] = []

    def add(inst, need: dict, count: int) -> None:
        """Add ``count`` copies of ``inst``, or take them away if negative."""
        for key, n in need.items():
            usage[key] = usage.get(key, 0) + count * n
        if inst.is_move:
            for roles, uid in ((actives, inst.active_uid), (passives, inst.passive_uid)):
                roles[uid] = roles.get(uid, 0) + count
                if not roles[uid]:
                    del roles[uid]

    # A frame is [k, copies of instance k added or None before the first
    # visit, the most copies that fit]; with k == len(table) every count is
    # decided and the frame is a leaf. Instance k is tried at 0, 1, ...,
    # the most copies that fit, or only at the most if settled. ``path``
    # holds the frames, in search order, of the instances added at all.
    stack = [[0, None, 0]]
    path: list = []
    while stack:
        frame = stack[-1]
        k, copies, most = frame
        if k == len(table):
            if not any(addable(i, n, avail, usage, actives, passives) for i, n in blockers):
                results.append(tuple(sorted(chosen + [(order[f[0]], f[1]) for f in path])))
                if len(results) == limit:
                    break
            stack.pop()
            continue
        inst, need = table[k]
        if copies is None:
            most = frame[2] = addable(inst, need, avail, usage, actives, passives)
            more = copies = most if settled[k] else 0
        elif copies < most:
            more, copies = 1, copies + 1
        else:
            if copies:
                add(inst, need, -copies)
                path.pop()
            stack.pop()
            continue
        if more:
            add(inst, need, more)
            if copies == more:
                path.append(frame)
        frame[1] = copies
        stack.append([k + 1, None, 0])
    results.sort(key=expanded)
    return [tuple([(instances[i], n) for i, n in pairs]) for pairs in results]
