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

Instances are seen only through ``active_uid``, ``passive_uid``,
``is_move``, ``sort_key`` and the needs map ``(uid, class) -> count``
that the caller computes, so the timed and untimed interpreters share no
matching or application code through this module.
"""

from __future__ import annotations

from typing import Callable, Sequence


def availability(config) -> dict:
    """``(uid, class) -> count`` over every membrane of the tree."""
    avail: dict = {}
    for node in config.skin.walk():
        for cls, n in node.content.items():
            avail[(node.uid, cls)] = n
    return avail


def addable(inst, need: dict, avail: dict, usage: dict, actives, passives) -> bool:
    """Whether ``inst``, binding ``need``, still fits beside a choice that
    binds ``usage`` and holds the membrane roles ``actives``/``passives``."""
    if inst.is_move and (
        inst.active_uid in actives or inst.active_uid in passives or inst.passive_uid in actives
    ):
        return False
    return all(avail.get(key, 0) - usage.get(key, 0) >= n for key, n in need.items())


def enumerate_choices(
    instances: Sequence, needs: Callable, avail: dict, blocks: Callable
) -> list[tuple]:
    """Every conflict-free choice after which no blocking instance fits,
    sorted by the instances' sort keys. Moves join at most once; other
    instances as often as their objects allow."""
    table = [(inst, needs(inst)) for inst in instances]
    blockers = [(inst, need) for inst, need in table if blocks(inst)]
    results: list[tuple] = []

    def dfs(k: int, usage: dict, actives: frozenset, passives: frozenset, chosen: tuple):
        if k == len(table):
            if not any(addable(i, n, avail, usage, actives, passives) for i, n in blockers):
                results.append(chosen)
            return
        inst, need = table[k]
        dfs(k + 1, usage, actives, passives, chosen)
        while addable(inst, need, avail, usage, actives, passives):
            usage = dict(usage)
            for key, n in need.items():
                usage[key] = usage.get(key, 0) + n
            chosen = chosen + (inst,)
            if inst.is_move:
                dfs(k + 1, usage, actives | {inst.active_uid}, passives | {inst.passive_uid}, chosen)
                break  # an active membrane moves at most once
            dfs(k + 1, usage, actives, passives, chosen)

    dfs(0, {}, frozenset(), frozenset(), ())
    return sorted(results, key=lambda ch: tuple(i.sort_key() for i in ch))
