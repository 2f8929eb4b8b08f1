"""Finite index trees.

A shape is the finite tree that indexes the sorts of a fragment: one
root, a parent map, and optional labels.  Two canonical families are
provided: binary shapes (labels are binary strings) and chain shapes
(labels are naturals).  The empty shape (no indices) is permitted; it
is the degenerate base case of the extension-rank recursion.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import BadArgument, TreedeskError


class UnknownIndex(TreedeskError, KeyError):
    pass


@dataclass(frozen=True)
class ShapeTree:
    """`parent` and `labels` are read-only views of copies; a shape
    hashes by its indices and root, so equal shapes hash equal."""

    indices: tuple[str, ...]
    root: str | None
    parent: Mapping[str, str] = field(default_factory=dict, hash=False)
    labels: Mapping[str, str] = field(default_factory=dict, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(sorted(self.indices)))
        object.__setattr__(self, "parent", MappingProxyType(dict(self.parent)))
        object.__setattr__(self, "labels", MappingProxyType(dict(self.labels)))

    # -- structure queries -------------------------------------------

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, idx: str) -> bool:
        return idx in self.indices

    def children(self, idx: str) -> list[str]:
        return sorted(i for i, p in self.parent.items() if p == idx)

    def suc_pairs(self) -> list[tuple[str, str]]:
        """All (parent, child) pairs, sorted."""
        return sorted((p, i) for i, p in self.parent.items())

    def ancestors(self, idx: str) -> list[str]:
        """Path from idx down to the root, inclusive."""
        if idx not in self:
            raise UnknownIndex(idx)
        out = [idx]
        seen = {idx}
        while out[-1] in self.parent:
            nxt = self.parent[out[-1]]
            if nxt in seen:
                raise BadArgument("parent cycle at %r" % idx)
            out.append(nxt)
            seen.add(nxt)
        return out

    def r_of(self, idx: str) -> int:
        """Number of indices <= idx (depth counted from 1 at the root)."""
        return len(self.ancestors(idx))

    def longest_branch(self) -> int:
        if not self.indices:
            return 0
        return max(self.r_of(i) for i in self.indices)

    def is_chain(self) -> bool:
        return all(len(self.children(i)) <= 1 for i in self.indices)


def validate_shape(s: ShapeTree) -> list[str]:
    """Empty report iff s is a well-formed rooted tree (or empty)."""
    report: list[str] = []
    idxset = set(s.indices)
    if not idxset:
        if s.root is not None:
            report.append("shape-root: root %r but no indices" % s.root)
        return report
    roots = [i for i in s.indices if i not in s.parent]
    if s.root not in idxset:
        report.append("shape-root: root %r not an index" % s.root)
    # no parentless index means a cycle or an unknown parent, reported below
    if len(roots) > 1:
        report.append("shape-multiple-roots: parentless indices %r" % (roots,))
    elif roots and roots[0] != s.root:
        report.append("shape-root: declared root %r, parentless index %r" % (s.root, roots[0]))
    for i, p in s.parent.items():
        if i not in idxset:
            report.append("shape-unknown-index: %r" % i)
        if p not in idxset:
            report.append("shape-unknown-index: parent %r of %r" % (p, i))
    # cycle check via ancestors
    for i in s.indices:
        try:
            s.ancestors(i)
        except ValueError:
            report.append("shape-cycle: at %r" % i)
        except UnknownIndex:
            pass
    return report


def decompose(s: ShapeTree) -> tuple[str, list[ShapeTree]]:
    """The root together with the component subtrees above it."""
    if s.root is None:
        raise BadArgument("empty shape has no root")
    comps = []
    for child in s.children(s.root):
        idxs = [i for i in s.indices if child in s.ancestors(i)]
        parent = {i: s.parent[i] for i in idxs if i != child}
        labels = {i: s.labels[i] for i in idxs if i in s.labels}
        comps.append(ShapeTree(tuple(idxs), child, parent, labels))
    return s.root, comps


EMPTY_SHAPE = ShapeTree((), None)
POINT_SHAPE = ShapeTree(("r",), "r")


def chain_shape(n: int) -> ShapeTree:
    """The chain 0 < 1 < ... < n-1 as a shape."""
    idxs = tuple(str(i) for i in range(n))
    parent = {str(i): str(i - 1) for i in range(1, n)}
    labels = {str(i): str(i) for i in range(n)}
    return ShapeTree(idxs, "0" if n else None, parent, labels)


def binary_shape(depth: int) -> ShapeTree:
    """All binary strings of length <= depth; root id "r", child ids r0, r1, ..."""
    idxs = ["r"]
    parent: dict[str, str] = {}
    labels = {"r": ""}
    frontier = ["r"]
    for _ in range(depth):
        nxt = []
        for p in frontier:
            for bit in "01":
                c = p + bit
                idxs.append(c)
                parent[c] = p
                labels[c] = labels[p] + bit
                nxt.append(c)
        frontier = nxt
    return ShapeTree(tuple(idxs), "r", parent, labels)
