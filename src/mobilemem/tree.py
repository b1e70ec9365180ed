"""The mutable work tree on which one step edits a membrane configuration.

Mutual endocytosis, mutual exocytosis and dissolution move membranes the
same way with or without timers, so the timed step, the untimed step and
the literal relation of the ambient translation all edit the tree here:

* ``Tree(skin, choice, keep)`` loads it. Work nodes are made only for
  the skin, the membranes the choice names (active, passive or rewrite
  host; an instance is seen only through ``active_uid`` and
  ``passive_uid``) and their ancestors. Every other child subtree is
  kept as the frozen node it is, unless the caller's ``keep(node)``
  says no: then that membrane is loaded as a work node too, and its
  children are tested in turn. A work node's contents become a dict,
  its children an insertion-ordered dict of work nodes and kept frozen
  nodes, and ``src`` keeps the frozen node it was loaded from;
* ``endo`` and ``exo`` re-parent one membrane (exo through the skin
  removes it and hands it back to be archived);
* ``dissolve`` empties every marker-holding work node into its parent,
  bottom-up; a kept subtree holds no marker;
* ``freeze`` rebuilds the work nodes through the caller's node
  constructor, with kept subtrees in place.

A moved or released membrane goes to the end of its new parent's
children, so child order, which reach graphs show, is the order of edits.
Consuming and producing objects, timers and rendering stay with the
caller, which sees a work node only through these four fields.
"""

from __future__ import annotations

from typing import Callable, Iterable


class Work:
    """``parent`` is the parent's uid, ``None`` for the skin and for a
    membrane gone out of the skin; no work node refers back up, so a work
    tree holds no reference cycle and is freed as soon as it is dropped.
    ``frozen`` holds the node ``freeze`` built from it."""

    __slots__ = ("src", "content", "children", "parent", "frozen")

    def __init__(self, src, parent: int | None):
        self.src = src
        self.content = dict(src.content.items())
        self.children: dict = {}
        self.parent = parent


def _named(skin, choice) -> set:
    """The uids of the skin, of the membranes the choice names (each
    instance's active membrane, the host for a rewrite, and its passive
    one) and of all their ancestors. One pass over the frozen tree, which
    records the parent only of membranes that have children."""
    found = {skin.uid}
    touched = {inst.active_uid for inst in choice}
    touched.update(inst.passive_uid for inst in choice if inst.passive_uid is not None)
    touched.discard(skin.uid)
    if not touched:
        return found
    up: dict = {}  # uid of a membrane with children -> its parent's uid
    left = len(touched)
    stack = [skin]
    while stack and left:
        node = stack.pop()
        for child in node.children:
            if child.children:
                up[child.uid] = node.uid
                stack.append(child)
            if child.uid in touched:
                left -= 1
                found.add(child.uid)
                uid = node.uid
                while uid not in found:
                    found.add(uid)
                    uid = up[uid]
    return found


class Tree:
    def __init__(self, skin, choice: Iterable, keep: Callable | None = None):
        self.root = Work(skin, None)
        self.nodes = {skin.uid: self.root}  # uid -> work node, skin included
        load = _named(skin, choice)
        stack = [self.root]
        while stack:
            work = stack.pop()
            for child in work.src.children:
                kid = child
                if child.uid in load or keep is not None and not keep(child):
                    kid = self.nodes[child.uid] = Work(child, work.src.uid)
                    stack.append(kid)
                work.children[child.uid] = kid

    def endo(self, uid: int, into: int) -> None:
        """Move membrane ``uid`` into membrane ``into``."""
        work = self.nodes[uid]
        del self.nodes[work.parent].children[uid]
        work.parent = into
        self.nodes[into].children[uid] = work

    def exo(self, uid: int) -> Work | None:
        """Move membrane ``uid`` out of its parent. Out of the skin it
        leaves the tree, and its work node is returned."""
        work = self.nodes[uid]
        parent = self.nodes[work.parent]
        del parent.children[uid]
        work.parent = parent.parent
        if work.parent is None:
            del self.nodes[uid]
            return work
        self.nodes[work.parent].children[uid] = work
        return None

    def _order(self) -> list[Work]:
        """Every work node, the root first, in pre-order (children right to
        left), on an explicit stack; reversed, each node follows all of its
        children."""
        order = []
        stack = [self.root]
        while stack:
            work = stack.pop()
            order.append(work)
            if work.children:
                stack.extend([kid for kid in work.children.values() if type(kid) is Work])
        return order

    def dissolve(self, is_marker: Callable) -> int:
        """Bottom-up, drop the markers of every work node that holds one and
        release its contents and children into its parent; the skin keeps
        everything but its markers. Returns the number of markers dropped."""
        dropped = 0
        for work in reversed(self._order()):  # post-order, children left to right
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
            for uid, child in work.children.items():
                if type(child) is Work:
                    child.parent = work.parent
                parent.children[uid] = child
            del parent.children[work.src.uid]
            del self.nodes[work.src.uid]
        return dropped

    def freeze(self, make: Callable):
        """The tree rebuilt bottom-up as ``make(work, children)``; kept
        subtrees are passed through unchanged. Iterative: in reversed
        pre-order every work node comes after its children."""
        for work in reversed(self._order()):
            kids = work.children
            work.frozen = make(work, tuple([
                kid.frozen if type(kid) is Work else kid for kid in kids.values()
            ]) if kids else ())
        return self.root.frozen
