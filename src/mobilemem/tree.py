"""The mutable work tree on which one step edits a membrane configuration.

Mutual endocytosis, mutual exocytosis and dissolution move membranes the
same way with or without timers, so the timed step, the untimed step and
the literal relation of the ambient translation all edit the tree here:

* ``Tree(skin)`` loads it: each membrane's contents become a dict, its
  children an insertion-ordered dict of work nodes, and ``src`` keeps the
  frozen node it was loaded from;
* ``endo`` and ``exo`` re-parent one membrane (exo through the skin
  removes it and hands it back to be archived);
* ``dissolve`` empties every marker-holding membrane into its parent,
  bottom-up;
* ``freeze`` rebuilds the tree through the caller's node constructor.

A moved or released membrane goes to the end of its new parent's
children, so child order, which reach graphs show, is the order of edits.
Consuming and producing objects, timers and rendering stay with the
caller, which sees a node only through these four fields.
"""

from __future__ import annotations

from typing import Callable


class Work:
    __slots__ = ("src", "content", "children", "parent")

    def __init__(self, src, parent: Work | None):
        self.src = src
        self.content = dict(src.content.items())
        self.children: dict = {}
        self.parent = parent


class Tree:
    def __init__(self, skin):
        self.root = Work(skin, None)
        self.nodes = {skin.uid: self.root}  # uid -> work node, skin included
        stack = [self.root]
        while stack:
            work = stack.pop()
            for child in work.src.children:
                kid = Work(child, work)
                work.children[child.uid] = self.nodes[child.uid] = kid
                stack.append(kid)

    def endo(self, uid: int, into: int) -> None:
        """Move membrane ``uid`` into membrane ``into``."""
        work = self.nodes[uid]
        del work.parent.children[uid]
        work.parent = self.nodes[into]
        work.parent.children[uid] = work

    def exo(self, uid: int) -> Work | None:
        """Move membrane ``uid`` out of its parent. Out of the skin it
        leaves the tree, and its work node is returned."""
        work = self.nodes[uid]
        del work.parent.children[uid]
        work.parent = work.parent.parent
        if work.parent is None:
            del self.nodes[uid]
            return work
        work.parent.children[uid] = work
        return None

    def dissolve(self, is_marker: Callable) -> int:
        """Bottom-up, drop the markers of every membrane that holds one and
        release its contents and children into its parent; the skin keeps
        everything but its markers. Returns the number of markers dropped."""
        order = []
        stack = [self.root]
        while stack:
            work = stack.pop()
            order.append(work)
            stack.extend(work.children.values())
        dropped = 0
        for work in reversed(order):  # post-order, children left to right
            markers = [key for key in work.content if is_marker(key)]
            if not markers:
                continue
            for key in markers:
                dropped += work.content.pop(key)
            parent = work.parent
            if parent is None:
                continue
            for key, n in work.content.items():
                parent.content[key] = parent.content.get(key, 0) + n
            for uid, child in work.children.items():
                child.parent = parent
                parent.children[uid] = child
            del parent.children[work.src.uid]
            del self.nodes[work.src.uid]
        return dropped

    def freeze(self, make: Callable):
        """The tree rebuilt bottom-up as ``make(work, children)``."""

        def build(work: Work):
            return make(work, tuple(map(build, work.children.values())))

        return build(self.root)
