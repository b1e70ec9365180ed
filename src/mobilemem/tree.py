"""The mutable work tree on which one step edits a membrane configuration,
and the membrane index every step reads.

Mutual endocytosis, mutual exocytosis and dissolution move membranes the
same way with or without timers, so the timed step, the untimed step and
the literal relation of the ambient translation all edit the tree here:

* ``index_of(config)`` is the configuration's ``Index``: each membrane
  by uid, its parent's uid, and each parent's children, in order and by
  label. It is kept in the configuration's ``_index`` slot and built by
  one walk where missing; a timed or untimed step instead leaves its
  work tree there (``carry_index``), and the next index is derived from
  its source's by that tree's edits when first read (``Tree.next_index``);
* ``Tree(config, choice, keep)`` loads the work tree for a choice of
  ``(instance, count)`` pairs (``choices.py``). Work nodes are made only
  for the skin, the membranes the choice names (active, passive or
  rewrite host) and their ancestors, which the index's parent map gives
  without a walk; a choice whose counts are below 1 (above 1 for a
  move), or whose membranes are missing or placed so that its moves
  cannot fire, raises ``StaleChoiceError`` there, before any relation
  consumes anything. Every other child subtree is kept as the
  frozen node it is, unless the caller's ``keep(node)`` says no: then that
  membrane is loaded as a work node too, and its children are tested in
  turn. ``keep`` must be monotone (a child of a node it keeps is kept),
  so the children of a loaded node that ``keep`` itself keeps are not
  tested. A work node's contents become a dict, its children an
  insertion-ordered dict of work nodes and kept frozen nodes, built in C,
  and ``src`` keeps the frozen node it was loaded from;
* ``move(choice)`` re-parents every move's active membrane, in choice
  order; one moved out of the skin is handed back to be archived;
* ``dissolve`` empties every marker-holding work node into its parent,
  bottom-up; a kept subtree holds no marker;
* ``freeze`` rebuilds the work nodes through the caller's node
  constructor, with kept subtrees in place. It, ``dissolve`` and the
  work-node order behind both visit work nodes only.

A moved or released membrane goes to the end of its new parent's
children. Sibling order is not part of a state: keys sort siblings, and
reach graphs list output membranes by uid, so no reader depends on the
order in which edits or dissolutions append children. Consuming and producing
objects, timers and rendering stay with the caller, which sees a work
node only through ``src``, ``content``, ``parent`` and ``children``.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .core import EndoRule

_NONE: dict = {}  # no children, never written


class StaleChoiceError(ValueError):
    """The choice refers to membranes or objects this configuration lacks."""


class Index:
    """The membranes of one frozen tree below its skin, keyed by uid:
    ``node`` maps a uid to its frozen node and ``up`` to its parent's uid
    (the skin's own is ``None``); ``children`` maps the uid of a membrane
    with children, the skin's included, to a dict of them, uid -> child in
    child order; ``kids[label][parent uid]`` holds the part of that dict
    with that label. An index is never changed once made, so a derived
    one shares whatever its edits leave alone."""

    __slots__ = ("node", "up", "children", "kids")

    def __init__(self, node: dict, up: dict, children: dict, kids: dict):
        self.node = node
        self.up = up
        self.children = children
        self.kids = kids


def index_of(config) -> Index:
    """``config``'s index, from its ``_index`` slot, or built by one walk
    and kept there. A slot holding the work tree that froze the skin
    (``carry_index``) gives the index derived from that tree's edits."""
    index = config._index
    if type(index) is Tree:
        index = index.next_index()
        object.__setattr__(config, "_index", index)
    elif index is None:
        skin = config.skin
        node: dict = {}
        up = {skin.uid: None}
        children: dict = {}
        kids: dict = {}
        stack = [skin] if skin.children else []
        while stack:
            parent = stack.pop()
            at = parent.uid
            mine = children[at] = {}
            for child in parent.children:
                uid = child.uid
                node[uid] = mine[uid] = child
                up[uid] = at
                by_parent = kids.get(child.label)
                if by_parent is None:
                    kids[child.label] = {at: {uid: child}}
                elif at in by_parent:
                    by_parent[at][uid] = child
                else:
                    by_parent[at] = {uid: child}
                if child.children:
                    stack.append(child)
        index = Index(node, up, children, kids)
        object.__setattr__(config, "_index", index)
    return index


def carry_index(config, tree: "Tree") -> None:
    """Give ``config`` the index ``tree.next_index`` derives from its
    source's, worked out when first read; ``tree`` froze its skin."""
    object.__setattr__(config, "_index", tree)


def drop_index(config) -> None:
    """Forget the index kept in ``config``; it is built again if needed."""
    object.__setattr__(config, "_index", None)


class Work:
    """``parent`` is the parent's uid, ``None`` for the skin and for a
    membrane gone out of the skin; no work node refers back up, so a work
    tree holds no reference cycle and is freed as soon as it is dropped.
    ``sub`` holds the work nodes among ``children``, and ``frozen`` the
    node ``freeze`` built from it."""

    __slots__ = ("src", "content", "children", "sub", "parent", "frozen")

    def __init__(self, src, parent: int | None, children: dict):
        self.src = src
        self.content = dict(src.content._counts)
        self.children = dict(children)
        self.sub: dict = {}
        self.parent = parent


class Tree:
    def __init__(self, config, choice: Iterable, keep: Callable | None = None):
        self.index = index = index_of(config)
        skin = config.skin
        self.root = Work(skin, None, index.children.get(skin.uid, _NONE))
        self.nodes = {skin.uid: self.root}  # uid -> work node, skin included
        # (uid, label, membrane, old parent uid, new parent uid or None)
        # per re-parenting or removal, in the order made
        self.moves: list = []
        touched = {inst.active_uid for inst, _n in choice}
        touched.update([inst.passive_uid for inst, _n in choice])
        nodes, node_of, up = self.nodes, index.node, index.up
        for uid in touched:
            if uid in nodes or uid not in node_of:  # None, or stale: the caller reports it
                continue
            path = [uid]
            uid = up[uid]
            while uid not in nodes:
                path.append(uid)
                uid = up[uid]
            for child in reversed(path):
                self._load(node_of[child], nodes[uid])
                uid = child
        self._check(choice)
        if keep is None:
            return
        stack = [work for work in nodes.values() if work.children and not keep(work.src)]
        while stack:
            work = stack.pop()
            for kid in work.children.values():
                if type(kid) is not Work and not keep(kid):
                    stack.append(self._load(kid, work))

    def _check(self, choice: Iterable) -> None:
        """Raise ``StaleChoiceError`` unless each instance fires at least
        once, a move exactly once, and its membranes are loaded here and
        placed as its rule needs: an endo's active and passive are siblings
        below the skin, an exo's active is a child of its passive, a moving
        membrane is elementary, and no membrane moves twice or both moves
        and is a passive."""
        nodes = self.nodes
        actives: set = set()
        passives: set = set()
        for inst, n in choice:
            if n < 1 or n > 1 and inst.is_move:
                raise StaleChoiceError(f"{inst.describe()} fires {n} times")
            active = nodes.get(inst.active_uid)
            if active is None:
                raise StaleChoiceError(f"no membrane with uid {inst.active_uid}")
            if not inst.is_move:
                continue
            passive = nodes.get(inst.passive_uid)
            if isinstance(inst.rule, EndoRule):
                if passive is None or active.parent != passive.parent or active.parent is None:
                    raise StaleChoiceError("endo participants are not siblings here")
            elif passive is None or active.parent != inst.passive_uid:
                raise StaleChoiceError("exo active is not a child of its passive")
            if active.children:
                raise StaleChoiceError("move structural precondition fails")
            if inst.active_uid in actives or inst.active_uid in passives or inst.passive_uid in actives:
                raise StaleChoiceError("conflicting membrane roles in choice")
            actives.add(inst.active_uid)
            passives.add(inst.passive_uid)

    def _load(self, src, parent: Work) -> Work:
        uid = src.uid
        work = Work(src, parent.src.uid, self.index.children.get(uid, _NONE))
        self.nodes[uid] = parent.children[uid] = parent.sub[uid] = work
        return work

    def _move(self, work: Work, to: int | None) -> None:
        uid = work.src.uid
        old = self.nodes[work.parent]
        del old.children[uid], old.sub[uid]
        self.moves.append((uid, work.src.label, work, work.parent, to))
        work.parent = to
        if to is None:
            del self.nodes[uid]
        else:
            new = self.nodes[to]
            new.children[uid] = new.sub[uid] = work

    def move(self, choice: Iterable) -> list:
        """Re-parent the active membrane of every move in ``choice``, in
        choice order: an endo's into its passive, an exo's out of its
        passive. Returns ``(instance, work node)`` for each membrane that
        left the skin, and so the tree."""
        nodes = self.nodes
        gone = []
        for inst, _n in choice:
            if inst.is_move:
                to = inst.passive_uid if isinstance(inst.rule, EndoRule) else nodes[inst.passive_uid].parent
                work = nodes[inst.active_uid]
                self._move(work, to)
                if to is None:
                    gone.append((inst, work))
        return gone

    def _order(self) -> list[Work]:
        """Every work node, the root first, in pre-order, on an explicit
        stack; reversed, each node follows all of its children."""
        order = []
        stack = [self.root]
        while stack:
            work = stack.pop()
            order.append(work)
            if work.sub:
                stack.extend(work.sub.values())
        return order

    def dissolve(self, is_marker: Callable) -> int:
        """Bottom-up, drop the markers of every work node that holds one and
        release its contents and children into its parent; the skin keeps
        everything but its markers. Returns the number of markers dropped.
        It visits every work node, so a step calls it only where it placed
        or produced a marker."""
        dropped = 0
        for work in reversed(self._order()):  # every node after its children
            markers = [key for key in work.content if is_marker(key)]
            if not markers:
                continue
            for key in markers:
                dropped += work.content.pop(key)
            if work.parent is None:
                continue
            parent = self.nodes[work.parent]
            for key, n in work.content.items():
                parent.content[key] = parent.content.get(key, 0) + n
            uid = work.src.uid
            for kid_uid, kid in work.children.items():
                if type(kid) is Work:
                    kid.parent = work.parent
                    parent.sub[kid_uid] = kid
                    label = kid.src.label
                else:
                    label = kid.label
                parent.children[kid_uid] = kid
                self.moves.append((kid_uid, label, kid, uid, work.parent))
            self._move(work, None)
        return dropped

    def freeze(self, make: Callable):
        """The tree rebuilt bottom-up as ``make(work, children)``; kept
        subtrees are passed through unchanged. Iterative: in reversed
        pre-order every work node comes after its children."""
        for work in reversed(self._order()):
            kids = work.children
            for uid, kid in work.sub.items():
                kids[uid] = kid.frozen
            work.frozen = make(work, tuple(kids.values()) if kids else ())
        return self.root.frozen

    def next_index(self) -> Index:
        """The index of the tree ``freeze`` built, derived from the source's
        by this tree's own edits: the moves and removals in the order made,
        then every rebuilt node in place. Only the entries these touch are
        copied; the dicts around them are copied in C."""
        old = self.index
        node, up, kids = dict(old.node), dict(old.up), dict(old.kids)
        children = dict(old.children)
        copied: dict = {}  # (label, parent uid) -> its entry, copied once
        labels: set = set()  # labels whose parent map is copied

        def entry(label, parent) -> dict:
            got = copied.get((label, parent))
            if got is None:
                if label not in labels:
                    labels.add(label)
                    kids[label] = dict(kids.get(label, ()))
                by_parent = kids[label]
                got = copied[label, parent] = by_parent[parent] = dict(by_parent.get(parent, ()))
            return got

        for uid, label, kid, was, to in self.moves:
            del entry(label, was)[uid]
            if to is None:
                del node[uid], up[uid]
                children.pop(uid, None)
            else:
                entry(label, to)[uid] = kid  # a work node is replaced below
                up[uid] = to
        for uid, work in self.nodes.items():
            if work.parent is not None:  # the root is the skin
                built = node[uid] = work.frozen
                entry(built.label, work.parent)[uid] = built
            if work.children:  # its children as ``freeze`` left them
                children[uid] = work.children
            else:
                children.pop(uid, None)
        for (label, parent), got in copied.items():
            if not got:
                by_parent = kids[label]
                del by_parent[parent]
                if not by_parent:
                    del kids[label]
        return Index(node, up, children, kids)
