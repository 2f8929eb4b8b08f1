"""Finite partial models of the tree theories ("fragments").

A fragment holds finitely many nodes spread over the sorts of a shape,
with partially declared tables for the meet, directed successor,
predecessor, greatest-limit-below and regressive level maps, plus an
optional family of named constants.  Everything downstream (closures,
type codes, one-point extensions, indiscernible analysis) works on
fragments.

Tables are partial: a fragment only promises that its *declared*
values satisfy the axioms.  `complete` materializes the finitely
generated superstructure on which the closure operators are total.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType

from .errors import BadArgument, TreedeskError, UnknownNode
from .ordinal import Ordinal
from .shape import ShapeTree

INF = math.inf


class InvalidTree(TreedeskError, ValueError):
    pass


class CannotComplete(TreedeskError, RuntimeError):
    pass


class NotClosed(TreedeskError, RuntimeError):
    pass


class SortError(TreedeskError, TypeError):
    pass


class Incomparable(TreedeskError, ValueError):
    pass


class UndefinedTerm(TreedeskError, LookupError):
    """A term has no value under the fragment's declared tables."""


def _mk(x: str, y: str) -> tuple[str, str]:
    """Unordered pair key."""
    return (x, y) if x <= y else (y, x)


class _OrderQueries:
    """Order and sort queries over `nodes`, `sort`, `lim` and the strict
    down-sets `_below`.  Fragment and FragmentBuilder both answer them
    here, so the two can never disagree."""

    __slots__ = ()

    def lt(self, x: str, y: str) -> bool:
        return x in self._below.get(y, ())

    def leq(self, x: str, y: str) -> bool:
        return x == y or self.lt(x, y)

    def comparable(self, x: str, y: str) -> bool:
        return self.leq(x, y) or self.lt(y, x)

    def strictly_below(self, y: str) -> set[str]:
        return set(self._below.get(y, ()))

    def nodes_of_sort(self, eta: str) -> list[str]:
        """Nodes of sort eta, in the order of `nodes`."""
        return [n for n in self.nodes if self.sort.get(n) == eta]

    def is_successor(self, x: str) -> bool:
        """Declared successor: lim(x) is declared and strictly below x."""
        l = self.lim.get(x)
        return l is not None and l != x

    def suc_members(self, eta: str) -> list[str]:
        return [n for n in self.nodes_of_sort(eta) if self.is_successor(n)]


class Fragment(_OrderQueries):
    """Read-only partial model: each table, and each G table in `gmap`,
    is a read-only view of a copy taken here, each down-set is a
    frozenset, and no attribute can be rebound once `__init__` is done.
    Edits go through a `FragmentBuilder`."""

    __slots__ = ("shape", "nodes", "sort", "level", "order", "meet", "suc",
                 "pre", "lim", "gmap", "constants", "mode", "_below")

    def __init__(
        self,
        shape: ShapeTree,
        nodes,
        sort: dict[str, str] | None = None,
        level: dict[str, Ordinal] | None = None,
        order: set[tuple[str, str]] | None = None,
        meet: dict[tuple[str, str], str] | None = None,
        suc: dict[tuple[str, str], str] | None = None,
        pre: dict[str, str] | None = None,
        lim: dict[str, str] | None = None,
        gmap: dict[tuple[str, str], dict[str, str]] | None = None,
        constants: dict[tuple[str, int], str] | None = None,
        mode: str = "base",
    ):
        nodes = tuple(sorted(nodes))
        order = frozenset(order or ())
        self._seal(shape, nodes, sort, level, order, meet, suc, pre, lim,
                   gmap, constants, mode, _down_sets(nodes, order))

    def _seal(self, shape, nodes, sort, level, order, meet, suc, pre, lim,
              gmap, constants, mode, below) -> None:
        """Bind every slot once, past the refusing __setattr__.  nodes is
        sorted, order a frozenset and below maps each node to its strict
        down-set under order, as a frozenset: the caller vouches for all
        three.  The tables are copied, with each meet key ordered."""
        put = object.__setattr__
        put(self, "shape", shape)
        put(self, "nodes", nodes)
        put(self, "sort", _frozen(sort))
        put(self, "level", _frozen(level))
        put(self, "order", order)
        meet = meet or {}
        # a plain copy when every key is ordered already, as a builder's are
        put(self, "meet", MappingProxyType(
            dict(meet) if all(x <= y for x, y in meet) else
            {((x, y) if x <= y else (y, x)): v for (x, y), v in meet.items()}))
        put(self, "suc", _frozen(suc))
        put(self, "pre", _frozen(pre))
        put(self, "lim", _frozen(lim))
        put(self, "gmap", MappingProxyType(
            {e: _frozen(m) for e, m in (gmap or {}).items()}))
        put(self, "constants", _frozen(constants))
        put(self, "mode", mode)
        put(self, "_below", below)

    def __setattr__(self, name, value):
        raise AttributeError("cannot set %r: fragments are read-only" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete %r: fragments are read-only"
                             % name)

    # -- accessors ---------------------------------------------------

    def meet_of(self, x: str, y: str) -> str | None:
        return self.meet.get(_mk(x, y))

    def g_of(self, edge: tuple[str, str], x: str) -> str | None:
        return self.gmap.get(edge, {}).get(x)

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return "Fragment(%d nodes, %d sorts, mode=%s)" % (
            len(self.nodes), len(self.shape), self.mode)


def _frozen(table) -> MappingProxyType:
    """A read-only view of a copy of table (None is empty)."""
    return MappingProxyType(dict(table or {}))


def _down_sets(nodes, order) -> dict[str, frozenset[str]]:
    """Strict down-set of each node under the transitive closure of the
    edges `order`; edges into a node outside `nodes` are dropped."""
    below = {n: set() for n in nodes}
    for a, b in order:
        if b in below:
            below[b].add(a)
    changed = True
    while changed:
        changed = False
        for b in nodes:
            extra = set()
            for a in below[b]:
                extra |= below.get(a, set())
            if not extra <= below[b]:
                below[b] |= extra
                changed = True
    return {n: frozenset(d) for n, d in below.items()}


class FragmentBuilder(_OrderQueries):
    """Mutable working copy of the fragment tables, with the strict
    down-set of each node in `_below`.

    Callers edit the tables directly and `freeze` them into a new
    Fragment, which takes over the down-sets; the builder is the one
    place that copies or merges all the tables of a fragment.  Order
    edges go in only through `mint`, `relate`, `absorb` and rebinding
    `order`, which keep the down-sets exact; `order` itself is a
    read-only snapshot.  An edge naming an id that is no node when it
    goes in (only an invalid fragment has one) leaves the down-sets
    inexact, so `freeze` then computes them from the edges, as
    `Fragment` does.
    """

    def __init__(self, f: Fragment | None = None):
        self.nodes: set[str] = set()
        self.sort: dict[str, str] = {}
        self.level: dict[str, Ordinal] = {}
        self.meet: dict[tuple[str, str], str] = {}
        self.suc: dict[tuple[str, str], str] = {}
        self.pre: dict[str, str] = {}
        self.lim: dict[str, str] = {}
        self.gmap: dict[tuple[str, str], dict[str, str]] = {}
        self.constants: dict[tuple[str, int], str] = {}
        self._order: set[tuple[str, str]] = set()
        self._below: dict[str, set[str]] = {}
        self._stale = False
        if f is not None:
            self.absorb(f, lambda eta: eta)

    @property
    def order(self) -> frozenset[tuple[str, str]]:
        return frozenset(self._order)

    @order.setter
    def order(self, edges) -> None:
        """Replace the order edges; every down-set is computed anew."""
        self._order = set(edges)
        self._recompute()

    def _recompute(self) -> None:
        """Every down-set from the edges, over the present nodes."""
        self._below = {n: set(d) for n, d in
                       _down_sets(self.nodes, self._order).items()}
        self._stale |= _names_outside(self._order, self._below)

    def absorb(self, f: Fragment, sort_of) -> None:
        """Add f's tables, renaming its sorts, level-map edges and
        constant keys through sort_of; f's entries win on clashes.  The
        builder takes over f's down-sets when f shares no node with it,
        and else computes them all again from the merged edges."""
        shared = not self.nodes.isdisjoint(f.nodes)
        self.nodes.update(f.nodes)
        for n, eta in f.sort.items():
            self.sort[n] = sort_of(eta)
        # a view's copy() is a dict, which update merges in bulk; from
        # the view itself it reads entry by entry, many times slower
        self.level.update(f.level.copy())
        self._order |= f.order
        self.meet.update(f.meet.copy())
        self.suc.update(f.suc.copy())
        self.pre.update(f.pre.copy())
        self.lim.update(f.lim.copy())
        for (e1, e2), table in f.gmap.items():
            self.gmap[(sort_of(e1), sort_of(e2))] = table.copy()
        for (eta, i), c in f.constants.items():
            self.constants[(sort_of(eta), i)] = c
        if shared:
            self._recompute()
        else:
            for n, d in f._below.items():
                self._below[n] = set(d)
            self._stale |= _names_outside(f.order, f._below)

    def add_node(self, n: str, sort: str | None = None,
                 level: Ordinal | None = None) -> None:
        """Add node n, related to no other node, with its sort and level
        when they are given."""
        self.nodes.add(n)
        if sort is not None:
            self.sort[n] = sort
        if level is not None:
            self.level[n] = level
        self._below.setdefault(n, set())

    def mint(self, n: str, sort: str, level: Ordinal, below=(),
             above=()) -> list[str]:
        """Add node n with order edges from each node of `below`, which
        must be closed downwards, and to each node of `above`.  Returns
        the nodes whose down-sets gained n: those of `above` and the
        nodes above them."""
        self.add_node(n, sort, level)
        down = set(below)
        self._order.update((u, n) for u in down)
        above = set(above)
        self._order.update((n, u) for u in above)
        gain = down | {n}
        up = []
        if above:
            for y, d in self._below.items():
                if y in above or not d.isdisjoint(above):
                    d |= gain
                    up.append(y)
        self._below[n] = down
        self._stale |= not (down | above) <= self._below.keys()
        return up

    def relate(self, lo: str, hi: str) -> None:
        """Add the order edge lo < hi between two present nodes."""
        self._order.add((lo, hi))
        self._stale |= hi not in self._below
        gain = self._below[lo] | {lo}
        for y, d in self._below.items():
            if y == hi or hi in d:
                d |= gain

    def freeze(self, shape: ShapeTree, mode: str) -> Fragment:
        """A Fragment of copies of the tables, taking over the exact
        down-sets (as frozensets); they are computed from the edges only
        when an edge named no node, or `nodes` was edited directly."""
        nodes = tuple(sorted(self.nodes))
        order = frozenset(self._order)
        below = self._below
        if self._stale or below.keys() != self.nodes:
            down = _down_sets(nodes, order)
        else:
            down = {n: frozenset(below[n]) for n in nodes}
        f = object.__new__(Fragment)
        f._seal(shape, nodes, self.sort, self.level, order, self.meet,
                self.suc, self.pre, self.lim, self.gmap, self.constants,
                mode, down)
        return f


def _names_outside(edges, below) -> bool:
    """Whether an edge of edges names an id that is not a key of the
    down-sets below."""
    return not set(itertools.chain.from_iterable(edges)) <= below.keys()


# ---------------------------------------------------------------------------
# the values a tree's chains hold, and construction from a plain
# level-labelled tree


class _PerNode(dict):
    """op(level[x]) for each node x, built on first use: a node's level
    never changes."""

    def __init__(self, level, op):
        super().__init__()
        self.level, self.op = level, op

    def __missing__(self, x):
        v = self[x] = self.op(self.level[x])
        return v


def _declare_lim_pre(b: FragmentBuilder, ns, limb,
                     pred) -> tuple[list[str], list[str]]:
    """Fill each missing lim and pre of the nodes ns that their chains
    hold: lim(x) is x at a limit level, else the node below x at
    level(x)'s limb, and pre(x) the node below x at level(x)'s
    predecessor (`limb` and `pred` map each node to those two levels).
    Returns the nodes of ns left without a lim, in the order of ns, and
    those left without a pre."""
    level, lim, pre = b.level, b.lim, b.pre
    no_lim, no_pre = [], []
    for x in ns:
        if level[x].is_limit:
            lim.setdefault(x, x)
            continue
        if x in lim and x in pre:
            continue
        # compared as term tuples, which is much cheaper than as Ordinals
        lam, lp = limb[x].terms, pred[x].terms
        for u in b._below[x]:
            lu = level[u].terms
            if lu == lam:
                lim.setdefault(x, u)
            if lu == lp:
                pre.setdefault(x, u)
        if x not in lim:
            no_lim.append(x)
        if x not in pre:
            no_pre.append(x)
    return no_lim, no_pre


def _declare_meet(b: FragmentBuilder, pairs) -> list[tuple[str, str]]:
    """Fill each missing meet of the same-sort pairs (x, y), x <= y, that
    their chains hold: x when x == y, the smaller node of a comparable
    pair, else the largest common lower bound.  Returns the pairs
    without a common lower bound, in the order of pairs."""
    meet, below = b.meet, b._below
    chains = {}
    gaps = []
    for x, y in pairs:
        if (x, y) in meet:
            continue
        bx, by = below[x], below[y]
        if x == y or x in by:
            meet[(x, y)] = x
        elif y in bx:
            meet[(x, y)] = y
        elif k := len(bx & by):
            # the common lower bounds are the k lowest nodes of x's chain,
            # whose down-sets have sizes 0, 1, ..., k - 1
            if (chain := chains.get(x)) is None:
                chain = chains[x] = {len(below[c]): c for c in bx}
            meet[(x, y)] = chain[k - 1]
        else:
            gaps.append((x, y))
    return gaps


def _declare_suc(b: FragmentBuilder, tops) -> None:
    """Fill each missing suc(x, y), x < y with y in tops, that y's chain
    holds: the node z of the chain with pre(z) = x, which lies right
    above x at level(x) + 1.  The entries go in in the order of (x, y).
    Run it after `_declare_lim_pre`, which declares the pre of each such
    z."""
    suc, pre, below = b.suc, b.pre, b._below
    found = []
    for y in tops:
        for z in (y, *below[y]):
            x = pre.get(z)
            if x is not None and (x, y) not in suc:
                found.append((x, y, z))
    for x, y, z in sorted(found):
        suc[(x, y)] = z


def from_standard_tree(levels: dict[str, Ordinal], edges, index: str = "r",
                       shape: ShapeTree | None = None,
                       mode: str = "base") -> Fragment:
    """Single-sort fragment induced by a level-labelled tree order.

    `edges` generates the strict order.  lim, pre, suc and meet are read
    off each node's chain (its down-set and itself) by the `_declare_*`
    helpers that completion runs too: each value the tree already holds
    is declared.
    """
    order = {(a, b) for a, b in edges}
    if unknown := {n for edge in order for n in edge} - levels.keys():
        raise InvalidTree("order names unknown node %r" % min(unknown))
    if shape is None:
        shape = ShapeTree((index,), index)
    if index not in shape:
        raise InvalidTree("index %r not in shape" % index)
    nodes = sorted(levels)
    b = FragmentBuilder()
    for n in nodes:
        b.add_node(n, index)
    b.level.update(levels)
    b.order = order
    below = b._below
    if any(n in below[n] for n in nodes):
        raise InvalidTree("order contains a cycle")
    for y in nodes:
        down = sorted(below[y])
        # a chain iff its members' down-sets differ in size (see validate)
        if len({len(below[a]) for a in down}) < len(down):
            raise InvalidTree("down-set of %r is not a chain" % y)
        for a in down:
            if not levels[a] < levels[y]:
                raise InvalidTree(
                    "levels not strictly increasing on %r < %r" % (a, y))
    _declare_lim_pre(b, nodes, _PerNode(levels, Ordinal.limb),
                     _PerNode(levels, Ordinal.predecessor))
    _declare_suc(b, nodes)
    _declare_meet(b, itertools.chain(itertools.combinations(nodes, 2),
                                     zip(nodes, nodes)))
    return b.freeze(shape, mode)


# ---------------------------------------------------------------------------
# validation


def validate(f: Fragment) -> list[str]:
    """Empty report iff every declared value satisfies every axiom of
    f's mode.  Entries are "axiom-name: witnesses".

    One pass per table: each loop walks its table once, unsorted, and
    tests each axiom of an entry once with membership and size tests on
    the down-sets; a failed test builds its witnesses on the spot, under
    the entry's key.  Each loop then lists its failing keys in sorted
    order, so the report runs table by table and, within a table, by
    key, whatever the order the tables were built in.
    """
    mode = f.mode
    rep: list[str] = []
    nodeset = set(f.nodes)
    # plain dicts: .get on a read-only view costs twice a dict's
    sort, level, lim = f.sort.copy(), f.level.copy(), f.lim.copy()
    below = f._below
    indices = set(f.shape.indices)
    fails: dict = {}

    def fail(key, line):
        fails.setdefault(key, []).append(line)

    def flush():
        if fails:
            for key in sorted(fails):
                rep.extend(fails[key])
            fails.clear()

    for n in sorted(sort.keys() - nodeset):
        rep.append("sort-unknown-node: %r" % n)
    for n in sorted(level.keys() - nodeset):
        rep.append("level-unknown-node: %r" % n)
    # the rest needs a strict partial order inside each sort, and a
    # level on every node in it
    stop = False
    for n, s in sort.items():
        if s not in indices:
            rep.append("sort-unknown-index: node %r sort %r" % (n, s))
        if n not in level:
            rep.append("level-missing: node %r" % n)
            stop = True
    for a, b in sorted((a, b) for a, b in f.order
                       if not (a in nodeset and b in nodeset
                               and (sa := sort.get(a)) is not None
                               and sort.get(b) == sa)):
        if a not in nodeset or b not in nodeset:
            rep.append("order-unknown-node: (%r,%r)" % (a, b))
        else:
            rep.append("order-cross-sort: (%r,%r)" % (a, b))
        stop = True
    for n in f.nodes:
        if n in below[n]:
            rep.append("order-cycle: at %r" % n)
            stop = True
    if stop:
        return rep

    for y in f.nodes:
        down = below[y]
        if not down:
            continue
        # down is a chain iff its members' down-sets (inside down, as the
        # order is transitive and acyclic) differ in size
        if len({len(below[a]) for a in down}) < len(down):
            for a, b in itertools.combinations(sorted(down), 2):
                if not f.comparable(a, b):
                    rep.append("order-downset-chain: %r,%r below %r"
                               % (a, b, y))
        ly = level[y]
        low = [a for a in down if not level[a] < ly]
        for a in sorted(low):
            rep.append("order-level: %r < %r but levels %s >= %s"
                       % (a, y, level[a], ly))

    for key, m in f.meet.items():
        x, y = key
        sx = sort.get(x)
        if sx is None or sort.get(y) != sx or sort.get(m) != sx:
            fail(key, "meet-sort: (%r,%r)->%r" % (x, y, m))
            continue
        bx, by = below.get(x, ()), below.get(y, ())
        if not ((m == x or m in bx) and (m == y or m in by)):
            fail(key, "meet-lower-bound: (%r,%r)->%r" % (x, y, m))
        # x or y misses nothing.  Else m < x, m < y: then down(m)+m lies
        # in down(x)+x & down(y)+y, which is down(x) & down(y) for an
        # incomparable pair, so no common lower bound misses m iff the
        # sizes agree
        elif m == x or m == y or (
                x != y and x not in by and y not in bx
                and len(bx & by) == len(below[m]) + 1):
            continue
        missed = ({x, *bx} & {y, *by}) - {m, *below.get(m, ())}
        for z in sorted(missed & nodeset):
            fail(key, "meet-not-max: (%r,%r)->%r misses %r" % (x, y, m, z))
    flush()

    # level + 1 of each node that the suc and pre tests read, built once
    step = _PerNode(level, Ordinal.successor)
    for key, s in f.suc.items():
        x, y = key
        sx = sort.get(x)
        if sx is None or sort.get(y) != sx or sort.get(s) != sx:
            fail(key, "suc-sort: (%r,%r)->%r" % (x, y, s))
            continue
        bs = below.get(s, ())
        # x < s <= y, so x < y
        if x not in bs or not (s == y or s in below.get(y, ())):
            fail(key, "suc-bounds: (%r,%r)->%r" % (x, y, s))
            continue
        if level[s] != step[x]:
            fail(key, "suc-level: (%r,%r)->%r at %s" % (x, y, s, level[s]))
        # down(x)+x lies in down(s), so nothing lies strictly between x
        # and s iff the sizes agree
        if len(bs) != len(below[x]) + 1:
            for z in sorted(z for z in bs if x in below[z]):
                fail(key, "suc-between: %r inside (%r,%r]" % (z, x, s))
        lx, ls = lim.get(x), lim.get(s)
        if lx is not None and ls is not None and lx != ls:
            fail(key, "lim-of-suc: lim(%r)=%r but lim(suc)=%r" % (x, lx, ls))
    flush()

    for x, l in lim.items():
        sx = sort.get(x)
        if sx is None or sort.get(l) != sx:
            fail(x, "lim-sort: %r->%r" % (x, l))
            continue
        if l != x and l not in below.get(x, ()):
            fail(x, "lim-bound: %r->%r" % (x, l))
            continue
        if level[l] != level[x].limb():
            fail(x, "lim-level: lim(%r)=%r at %s, expected %s"
                 % (x, l, level[l], level[x].limb()))
        if lim.get(l) not in (None, l):
            fail(x, "lim-idempotent: lim(%r)=%r, lim(%r)=%r"
                 % (x, l, l, lim[l]))
    flush()
    for y, ly in lim.items():
        up = below.get(ly, ())
        for x in below.get(y, ()):
            lx = lim.get(x, ly)
            if lx != ly and lx not in up:
                fail((x, y), "lim-monotone: %r < %r" % (x, y))
    flush()

    for x, p in f.pre.items():
        sx = sort.get(x)
        if sx is None or sort.get(p) != sx:
            fail(x, "pre-sort: %r->%r" % (x, p))
            continue
        if p not in below.get(x, ()):
            fail(x, "pre-bound: %r->%r" % (x, p))
            continue
        if step[p] != level[x]:
            fail(x, "pre-level: pre(%r)=%r at %s" % (x, p, level[p]))
        s = f.suc.get((p, x), x)
        if s != x:
            fail(x, "pre-suc: suc(pre(%r),%r)=%r" % (x, x, s))
    flush()

    shape_edges = set(f.shape.suc_pairs())
    classT = mode == "classT"
    for edge, table in sorted(f.gmap.items()):
        if edge not in shape_edges:
            rep.append("gmap-edge: %r" % (edge,))
            continue
        e1, e2 = edge
        table = table.copy()
        for x, y in table.items():
            if sort.get(x) != e1 or sort.get(y) != e2:
                fail(x, "gmap-sort: G%r(%r)=%r" % (edge, x, y))
                continue
            if lim.get(x) == x:
                fail(x, "gmap-domain: %r is not a successor" % x)
            if classT and not level[y] <= level[x]:
                fail(x, "classT-level: G%r(%r)=%r" % (edge, x, y))
            if classT and lim.get(y) == y:
                fail(x, "classT-successor-image: G%r(%r)=%r" % (edge, x, y))
        flush()
        # pairs x < y of successors over one limit with different images
        for y, gy in table.items():
            ly = lim.get(y)
            if ly is None or ly == y:
                continue
            for x in below.get(y, ()):
                if x != ly and lim.get(x) == ly and table.get(x, gy) != gy:
                    pair = _mk(x, y)
                    fail(pair, "regressive: G%r differs on %r,%r"
                         % (edge, *pair))
        flush()

    if mode == "theta":
        rep.extend(_validate_theta(f))
    if mode == "classT" and not f.shape.is_chain():
        rep.append("classT-shape: shape is not a chain")
    return rep


def _validate_theta(f: Fragment) -> list[str]:
    rep: list[str] = []
    for (eta, i), c in sorted(f.constants.items()):
        if f.sort.get(c) != eta:
            rep.append("constants-sort: c(%r,%d)=%r" % (eta, i, c))
    by_sort: dict[str, dict[int, str]] = {}
    for (eta, i), c in f.constants.items():
        by_sort.setdefault(eta, {})[i] = c
    for eta, cs in sorted(by_sort.items()):
        items = sorted(cs.items())
        for (i, ci), (j, cj) in itertools.combinations(items, 2):
            if ci == cj:
                rep.append("constants-distinct: c(%r,%d)=c(%r,%d)"
                           % (eta, i, eta, j))
        meets = set()
        for (i, ci), (j, cj) in itertools.combinations(items, 2):
            m = f.meet_of(ci, cj)
            if m is None:
                continue
            meets.add(m)
            if f.lim.get(m) not in (None, m):
                rep.append("constants-limit-meet: c%d^c%d=%r" % (i, j, m))
            s = f.suc.get((m, ci))
            if s is not None and s != ci:
                rep.append("constants-suc-meet: suc(c%d^c%d,c%d)=%r"
                           % (i, j, i, s))
        if len(meets) > 1:
            rep.append("constants-meet: meets of %r constants not all equal"
                       % eta)
    for (e1, e2) in f.shape.suc_pairs():
        for i, c1 in by_sort.get(e1, {}).items():
            img = f.g_of((e1, e2), c1)
            c2 = f.constants.get((e2, i))
            if img is not None and c2 is not None and img != c2:
                rep.append("constants-gmap: G(c(%r,%d))=%r != c(%r,%d)"
                           % (e1, i, img, e2, i))
    return rep


# ---------------------------------------------------------------------------
# completion


def complete(f: Fragment, budget_nodes: int = 2000) -> Fragment:
    """Smallest extension (under the fixed materialization policy) on
    which all tables are total over their intended domains.

    Raises CannotComplete when f fails `validate` ("fragment invalid"),
    when the working fragment grows past budget_nodes nodes ("node
    budget exceeded"), when a meet would have to be minted below a
    level-0 node, and when the result fails `validate` ("completion
    produced invalid fragment").
    """
    rep = validate(f)
    if rep:
        raise CannotComplete("fragment invalid: %s" % rep[0])
    return _complete_valid(f, budget_nodes)


def _complete_valid(f: Fragment, budget_nodes: int) -> Fragment:
    """complete for an f that already passed `validate`: passes of
    `_Gaps.mint_next` until one mints nothing, with the node budget
    checked before each pass."""
    w = FragmentBuilder(f)
    # the ids _c000, _c001, ... that no node has yet
    ids = ("_c%03d" % i for i in itertools.count())
    fresh = (n for n in ids if n not in w.nodes).__next__
    gaps = _Gaps(w, f.shape)
    while True:
        if len(w.nodes) > budget_nodes:
            raise CannotComplete("node budget %d exceeded" % budget_nodes)
        if not gaps.mint_next(fresh):
            break
    out = w.freeze(f.shape, f.mode)
    if rep := validate(out):
        raise CannotComplete("completion produced invalid fragment: %s"
                             % rep[0])
    return out


class _Gaps:
    """The entries that completion still has to fill in the builder w,
    kept from one mint to the next.

    Each pass of `mint_next` takes the first missing entry in priority
    order (lim, pre, the meets of each sort, then G, after the suc
    values are declared) and mints one node for it, or two for a G
    value into an empty sort.  A mint changes only the down-sets of the
    nodes above the new one, so the values that the chains of the other
    nodes hold stay as they were: after a mint the `_declare_*` helpers
    run again only for the new node and the nodes above it, for lim and
    pre at once, and for the meet and suc pairs that contain one of
    them when their phase comes round.  Each table thus gets the entries
    of a from-scratch declaration at the same moments and in the same
    order.  A mint never adds a level that a chain already holds, nor a
    common lower bound above the largest one, so every declared value
    stays right, and the mints and fresh ids are those of a scan that
    fixes one entry at a time.  By the suc phase pre is total, so y's chain
    holds level(x) + 1 for every finite-gap pair x < y, and
    `_declare_suc` finds it as the node whose pre is x.
    """

    def __init__(self, w: FragmentBuilder, shape: ShapeTree):
        self.w, self.shape = w, shape
        self.limb = _PerNode(w.level, Ordinal.limb)
        self.pred = _PerNode(w.level, Ordinal.predecessor)
        ns = sorted(n for n in w.nodes if n in w.sort)
        # each sort's nodes in order
        self.by_sort = {eta: [] for eta in shape.indices}
        for n in ns:
            self.by_sort[w.sort[n]].append(n)
        no_lim, no_pre = _declare_lim_pre(w, ns, self.limb, self.pred)
        self.no_lim, self.no_pre = set(no_lim), set(no_pre)
        # per sort: the pairs without a common lower bound at the last
        # meet declaration, the nodes new since then, and the nodes new
        # or with a larger down-set since the last meet or suc one
        self.meet_gaps = {eta: set() for eta in shape.indices}
        self.meet_new = {eta: set(self.by_sort[eta]) for eta in shape.indices}
        self.meet_moved = {eta: set(self.by_sort[eta])
                           for eta in shape.indices}
        self.suc_moved = {eta: set(self.by_sort[eta])
                          for eta in shape.indices}

    def mint_next(self, fresh) -> list[str]:
        """Mint the nodes for the first missing entry and declare what
        they make available; returns them, or [] when nothing is
        missing."""
        w, level = self.w, self.w.level
        if self.no_lim or self.no_pre:
            if self.no_lim:
                x = min(self.no_lim)
                lv = self.limb[x]
            else:
                x = min(self.no_pre)
                lv = self.pred[x]
            down = w._below[x]
            new = [fresh()]
            up = w.mint(new[0], w.sort[x], lv,
                        below=[u for u in down if level[u] < lv],
                        above=[x, *(u for u in down if lv < level[u])])
        elif gap := self._meet_gap():
            eta, pair = gap
            roots = [min(w._below[v] | {v}, key=lambda c: len(w._below[c]))
                     for v in pair]
            if any(level[r].is_zero for r in roots):
                raise CannotComplete(
                    "meet of %r,%r forced below a level-0 node" % pair)
            new = [fresh()]
            up = w.mint(new[0], eta, Ordinal(), above=roots)
        else:
            for eta, moved in self.suc_moved.items():
                _declare_suc(w, moved)
                moved.clear()
            # a G mint puts nothing above an older node
            new, up = self._mint_g(fresh), []
        if new:
            self._declare_above(new, up)
        return new

    def _meet_gap(self):
        """Declare the meets that the chains hold now, sort by sort, up
        to the first sort with a pair that has no common lower bound;
        return that sort and its first such pair, or None."""
        for eta, gaps in self.meet_gaps.items():
            new, moved = self.meet_new[eta], self.meet_moved[eta]
            if moved:
                ns = self.by_sort[eta]
                if len(new) == len(ns):
                    # the sort's first declaration: every pair
                    pairs = itertools.combinations(ns, 2)
                else:
                    pairs = {p for p in gaps
                             if p[0] in moved or p[1] in moved}
                    pairs.update(_mk(n, y) for n in new for y in ns
                                 if y != n)
                    gaps.difference_update(pairs)
                    pairs = sorted(pairs)
                gaps.update(_declare_meet(self.w, itertools.chain(
                    pairs, ((n, n) for n in sorted(new)))))
                new.clear()
                moved.clear()
            if gaps:
                return eta, min(gaps)
        return None

    def _mint_g(self, fresh) -> list[str]:
        """Fill G on the declared successors along each shape edge from
        values their regressive class holds, up to the first class that
        holds none; mint a node for that class and return the nodes
        minted ([] when G is total)."""
        w, level = self.w, self.w.level
        for edge in self.shape.suc_pairs():
            e1, e2 = edge
            table = w.gmap.setdefault(edge, {})
            sucs = [x for x in self.by_sort[e1] if w.is_successor(x)]
            for x in sucs:
                if x in table:
                    continue
                cls = _regressive_class(w, sucs, x)
                declared = sorted({table[y] for y in cls if y in table})
                if declared:
                    for y in cls:
                        table.setdefault(y, declared[0])
                    continue
                new = []
                if not self.by_sort[e2]:
                    new.append(fresh())
                    w.mint(new[0], e2, Ordinal())
                    parent = new[0]
                else:
                    # meets are total by now, so e2 has one minimal node
                    parent, = [n for n in self.by_sort[e2]
                               if not w._below[n]]
                t = fresh()
                w.mint(t, e2, level[parent].plus(1),
                       below=[parent, *w._below[parent]])
                for y in cls:
                    table[y] = t
                return new + [t]
        return []

    def _declare_above(self, new, up) -> None:
        """After the mint of the nodes new, all of one sort, under the
        older nodes up (what `mint` returned): declare the lim and pre
        of the nodes of both, and mark them for the next meet and suc
        declarations."""
        w = self.w
        eta = w.sort[new[0]]
        for n in new:
            bisect.insort(self.by_sort[eta], n)
        self.meet_new[eta].update(new)
        moved = set(new)
        moved.update(up)
        # a node above that is in no gap list has its lim and pre already
        todo = moved & (self.no_lim | self.no_pre)
        todo.update(new)
        no_lim, no_pre = _declare_lim_pre(w, sorted(todo), self.limb,
                                          self.pred)
        self.no_lim -= todo
        self.no_lim.update(no_lim)
        self.no_pre -= todo
        self.no_pre.update(no_pre)
        self.meet_moved[eta] |= moved
        self.suc_moved[eta] |= moved


def _regressive_class(f: _OrderQueries, sucs, x: str) -> list[str]:
    """Connected component of x under "comparable successors sharing
    lim" among the successors sucs of x's sort."""
    members = {x}
    frontier = [x]
    while frontier:
        a = frontier.pop()
        la = f.lim[a]
        for b in sucs:
            if (b not in members and f.lim[b] == la
                    and f.comparable(a, b)):
                members.add(b)
                frontier.append(b)
    return sorted(members)


def is_closed(f: Fragment) -> bool:
    """All tables total over their intended desk-scale domains."""
    # each sort's nodes, in the sorted order of f.nodes, and its classes:
    # nodes of one limb, the limb being a level's terms without a final
    # finite term as a tuple.  Two levels have a finite gap iff their
    # limbs agree, so only x < y inside one class needs suc(x, y).
    by_sort: dict[str, tuple[list[str], dict[tuple, set[str]]]] = {}
    sort, lim, pre, level = f.sort, f.lim, f.pre, f.level
    for x in f.nodes:
        if (eta := sort.get(x)) is None:
            continue
        if x not in lim:
            return False
        terms = level[x].terms
        if terms and terms[-1][0] == 0:
            if x not in pre:
                return False
            terms = terms[:-1]
        ns, classes = by_sort.setdefault(eta, ([], {}))
        ns.append(x)
        classes.setdefault(terms, set()).add(x)
    meet, suc, below = f.meet, f.suc, f._below
    for eta in f.shape.indices:
        ns, classes = by_sort.get(eta, ((), {}))
        # meet keys are ordered, and ns is sorted
        if not all(map(meet.__contains__,
                       itertools.combinations_with_replacement(ns, 2))):
            return False
        for cls in classes.values():
            if len(cls) > 1:
                for y in cls:
                    for x in below[y].intersection(cls):
                        # x == y only on a cyclic order
                        if x != y and (x, y) not in suc:
                            return False
    for edge in f.shape.suc_pairs():
        table = f.gmap.get(edge, {})
        for x in f.suc_members(edge[0]):
            if x not in table:
                return False
    return True


# ---------------------------------------------------------------------------
# closure operators


def _cl_wedge(f: Fragment, s: frozenset[str],
              done: frozenset[str] = frozenset()) -> frozenset[str]:
    """s plus the meets of its same-sort pairs with a member outside
    done.  The caller vouches that the meets of pairs inside done are
    in s already, so the default pairs all of s."""
    sort = f.sort
    by_sort: dict[str, tuple[list[str], list[str]]] = {}
    for x in sorted(s - done):
        if (eta := sort.get(x)) is not None:
            by_sort.setdefault(eta, ([], []))[0].append(x)
    if not by_sort:
        return s
    for y in s & done:
        if (pair := by_sort.get(sort.get(y))) is not None:
            pair[1].append(y)
    extra = set()
    meet = f.meet
    for new, old in by_sort.values():
        for i, x in enumerate(new):
            for y in new[i:]:
                extra.add(meet.get((x, y)))
            for y in old:
                extra.add(meet.get(_mk(x, y)))
    extra.discard(None)
    return s | extra


def _cl_g(f: Fragment, s: frozenset[str],
          done: frozenset[str] = frozenset()) -> frozenset[str]:
    """s plus the G images of its members outside done."""
    extra = set()
    new = s - done
    for edge in f.shape.suc_pairs():
        table = f.gmap.get(edge, {})
        for x in new:
            if x in table:
                extra.add(table[x])
    return s | extra


def _cl_lim(f: Fragment, s: frozenset[str],
            done: frozenset[str] = frozenset()) -> frozenset[str]:
    """s plus the lim values of its members outside done."""
    return s | {f.lim[x] for x in s - done if x in f.lim}


def _cl_suc(f: Fragment, s: frozenset[str],
            done: frozenset[str] = frozenset()) -> frozenset[str]:
    """s plus the successors of its ordered pairs with a member outside
    done and the predecessors of its members outside done.  The caller
    vouches for the values of pairs and members inside done."""
    suc, new = f.suc, s - done
    extra = {f.pre[x] for x in new if x in f.pre}
    for x in new:
        for y in s:
            if y != x:
                extra.add(suc.get((x, y)))
                if y in done:
                    extra.add(suc.get((y, x)))
    extra.discard(None)
    return s | extra


def _cl_zero(f: Fragment, s: frozenset[str],
             done: frozenset[str] = frozenset()) -> frozenset[str]:
    """Rank-0 closure: the constants, then longest_branch() rounds of
    meets, lim and G, each round pairing, and taking the lim and G
    images of, only what the round before added.  The caller vouches
    that done is rank-0 closed: the meets of its pairs and its lim and G
    images are in s already."""
    s = s | frozenset(f.constants.values())
    for _ in range(f.shape.longest_branch()):
        s, done = _cl_g(f, _cl_lim(f, _cl_wedge(f, s, done), done), done), s
    return s


def closure(f: Fragment, a, k: int = 0) -> frozenset[str]:
    """Rank-k closure of the node set `a`: the rank-0 closure (the
    constants, meets, lim and G images) with k rank steps (successors and
    predecessors, then rank 0 again) on top, so it contains every term
    value of successor rank at most k over the generators.  Each rank
    step, and each round of meets, lim and G inside the rank-0 closure,
    takes the meets and successors only of pairs with a member new since
    the step before: the older pairs' values are already in the set.

    Raises NotClosed unless f is closed, then BadArgument unless k is a
    natural number, then UnknownNode for a node of `a` that is not in f.
    """
    _require_closed(f)
    return _chain(f, a, k)[-1]


def _require_closed(f: Fragment) -> None:
    """Raise NotClosed unless f is closed (see `is_closed`)."""
    if not is_closed(f):
        raise NotClosed("closure requires a completed fragment")


def _known(f: Fragment, a) -> frozenset[str]:
    """The node set a, or UnknownNode naming the least node of a that is
    not in f."""
    s = frozenset(a)
    for x in s:
        if x not in f._below:
            raise UnknownNode("unknown node %r" % min(s - f._below.keys()))
    return s


def _chain(f: Fragment, a, k: int) -> list[frozenset[str]]:
    """The rank-i closures of the node set a, for a closed f, from i = 0
    up to k or to the first rank that adds nothing, whichever comes
    first: the last entry is the rank-k closure, and so is every rank
    past it.  Each rank step takes the successors of the pairs with a
    member outside the rank before last, and the predecessors of those
    members, as the last rank holds the others' values already; its
    rank-0 rounds then pair only the members outside the last rank,
    which is rank-0 closed.  So each rank pays only for the members that
    the rank before it added.  Raises BadArgument unless k is a natural
    number, then UnknownNode for a node of a that is not in f.
    """
    if not isinstance(k, int) or k < 0:
        raise BadArgument("closure rank %r is not a natural number" % (k,))
    empty = frozenset()
    tops = [_cl_zero(f, _known(f, a))]
    for i in range(k):
        b, b1 = tops[i - 1] if i else empty, tops[i]
        nxt = _cl_zero(f, _cl_suc(f, tops[i], b) | b1, b1)
        if nxt == tops[i]:
            break
        tops.append(nxt)
    return tops


class _Continuation:
    """The continuation of a parameter set's chain tops = _chain(f, P, k)
    by a tuple abar, keeping only N_i, the members that abar's rank-i
    closure S_i adds to B_i = tops[i] (B_i = B, the last entry, past the
    end):
        S_0     = zero(B_0 + abar)
        S_{i+1} = zero(suc(S_i) + B_{i+1})
    Each operator pays only for the pairs and members with a member in
    N_i, and no set the size of B is built per tuple.  This is exact
    because B_i's successors and predecessors lie in B_{i+1}, and
    B_{i+1} is closed under the rank-0 operators, as every rank-0
    closure is.  The steps are those of `_chain`, `_cl_suc` and
    `_cl_zero` restricted to N_i, so a change to an operator there
    belongs here too.  Built once per chain: the members of each B_i by
    sort, the G tables along the shape's edges and the number of rank-0
    rounds."""

    def __init__(self, f: Fragment, tops: list[frozenset[str]], k: int):
        self.f, self.tops, self.k = f, tops, k
        self.by_sort = []
        for top in tops:
            groups: dict[str, list[str]] = {}
            for y in top:
                if (eta := f.sort.get(y)) is not None:
                    groups.setdefault(eta, []).append(y)
            self.by_sort.append(groups)
        self.gtables = [f.gmap[e] for e in f.shape.suc_pairs()
                        if e in f.gmap]
        self.rounds = f.shape.longest_branch()

    def added(self, abar) -> set[str]:
        """N = C - B, what the rank-k closure C of abar and P adds to B.
        S only grows, so the ranks stop at the first that adds no
        member; the last N_i then drops the members of B."""
        tops = self.tops
        last = len(tops) - 1
        b = tops[0]
        n = {x for x in abar if x not in b}
        self._zero(0, n)
        suc, pre = self.f.suc.get, self.f.pre
        for i in range(self.k):
            b, j = tops[min(i, last)], min(i + 1, last)
            size = len(b) + len(n)
            extra = {pre[x] for x in n if x in pre}
            for x in n:
                for y in n:
                    if y != x:
                        extra.add(suc((x, y)))
                for y in b:
                    extra.add(suc((x, y)))
                    extra.add(suc((y, x)))
            extra.discard(None)
            b = tops[j]
            n = {x for x in n | extra if x not in b}
            self._zero(j, n)
            if len(b) + len(n) == size:
                break
        return n - tops[-1]

    def _zero(self, j: int, n: set[str]) -> None:
        """Add to n, in place, what the rank-0 closure of B_j + n adds to
        B_j, for an n disjoint from B_j: the rounds of `_cl_zero`, each
        pairing only the members of n that the round before added (all
        of n in the first) with each other, with the older members of n
        and with the members of B_j of their sort, then taking the lim
        and G images of those members and of the meets found.  Values
        in B_j are dropped."""
        f, b, by_sort = self.f, self.tops[j], self.by_sort[j]
        sort, meet, lim = f.sort, f.meet.get, f.lim
        new = set(n)
        for _ in range(self.rounds):
            if not new:
                return
            groups: dict[str, list[str]] = {}
            for x in sorted(new):
                if (eta := sort.get(x)) is not None:
                    groups.setdefault(eta, []).append(x)
            found = set()
            for eta, xs in groups.items():
                old = [y for y in n if y not in new and sort.get(y) == eta]
                old += by_sort.get(eta, ())
                for i, x in enumerate(xs):
                    for y in xs[i:]:
                        found.add(meet((x, y)))
                    for y in old:
                        found.add(meet((x, y) if x <= y else (y, x)))
            found.discard(None)
            # lim and G take what lies neither in B_j nor among the older
            # members of n: the new members, then such meets, then such
            # lims
            step = new | {m for m in found
                          if m not in b and (m not in n or m in new)}
            for x in list(step):
                if x in lim:
                    l = lim[x]
                    found.add(l)
                    if l not in b and (l not in n or l in new):
                        step.add(l)
            for table in self.gtables:
                found.update([table[x] for x in step if x in table])
            new = {x for x in found if x not in b and x not in n}
            n |= new


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Term:
    op: str                      # var | const | wedge | suc | pre | lim | g
    args: tuple["Term", ...] = ()
    data: object = None          # var index / constant key / g edge

    @staticmethod
    def var(i: int) -> "Term":
        return Term("var", (), i)

    @staticmethod
    def const(eta: str, i: int) -> "Term":
        return Term("const", (), (eta, i))

    @staticmethod
    def wedge(t1: "Term", t2: "Term") -> "Term":
        return Term("wedge", (t1, t2))

    @staticmethod
    def suc(t1: "Term", t2: "Term") -> "Term":
        return Term("suc", (t1, t2))

    @staticmethod
    def pre(t: "Term") -> "Term":
        return Term("pre", (t,))

    @staticmethod
    def lim(t: "Term") -> "Term":
        return Term("lim", (t,))

    @staticmethod
    def g(t: "Term", edge: tuple[str, str] | None = None) -> "Term":
        return Term("g", (t,), edge)

    def __str__(self) -> str:
        if self.op == "var":
            return "x%d" % self.data
        if self.op == "const":
            return "c(%s,%d)" % self.data
        if self.op == "wedge":
            return "(%s^%s)" % self.args
        if self.op == "suc":
            return "suc(%s,%s)" % self.args
        if self.op == "g":
            return "G(%s)" % self.args
        return "%s(%s)" % (self.op, self.args[0])


def r_suc(t: Term) -> int:
    """Successor rank: suc/pre add one, the other operators carry the max."""
    if t.op in ("var", "const"):
        return 0
    ranks = [r_suc(a) for a in t.args]
    if t.op in ("suc", "pre"):
        return max(ranks) + 1
    return max(ranks)


def eval_term(f: Fragment, t: Term, assignment) -> str:
    """Value of t under the fragment's declared tables.

    assignment: sequence or map from variable index to node id.
    Raises SortError on ill-sorted arguments, UndefinedTerm when a
    required table entry is missing (including arguments outside an
    operator's intended domain).  Arguments are evaluated in order, so
    the first failing argument's error is the one raised.
    """
    return term_step(f, t, [eval_term(f, a, assignment) for a in t.args],
                     assignment)


def term_step(f: Fragment, t: Term, vals, assignment) -> str:
    """Value of t given the values of its arguments, in argument order:
    one step of eval_term, raising as it does."""
    if t.op == "var":
        try:
            return assignment[t.data]
        except (KeyError, IndexError):
            raise SortError("unbound variable x%d" % t.data)
    if t.op == "const":
        v = f.constants.get(t.data)
        if v is None:
            raise UndefinedTerm("constant %r not declared" % (t.data,))
        return v
    sorts = [f.sort.get(v) for v in vals]
    if any(s is None for s in sorts):
        raise SortError("unsorted argument in %s" % t)
    if t.op == "wedge":
        if sorts[0] != sorts[1]:
            raise SortError("meet across sorts in %s" % t)
        m = f.meet_of(vals[0], vals[1])
        if m is None:
            raise UndefinedTerm("meet(%r,%r) not declared" % tuple(vals))
        return m
    if t.op == "suc":
        if sorts[0] != sorts[1]:
            raise SortError("suc across sorts in %s" % t)
        if not f.lt(vals[0], vals[1]):
            raise UndefinedTerm("suc outside domain: %r !< %r" % tuple(vals))
        s = f.suc.get((vals[0], vals[1]))
        if s is None:
            raise UndefinedTerm("suc(%r,%r) not declared" % tuple(vals))
        return s
    if t.op == "pre":
        p = f.pre.get(vals[0])
        if p is None:
            raise UndefinedTerm("pre(%r) not declared" % vals[0])
        return p
    if t.op == "lim":
        l = f.lim.get(vals[0])
        if l is None:
            raise UndefinedTerm("lim(%r) not declared" % vals[0])
        return l
    if t.op == "g":
        edge = t.data
        if edge is None:
            kids = f.shape.children(sorts[0])
            if len(kids) != 1:
                raise SortError("ambiguous level-map edge in %s" % t)
            edge = (sorts[0], kids[0])
        if edge not in set(f.shape.suc_pairs()) or sorts[0] != edge[0]:
            raise SortError("bad level-map edge %r in %s" % (edge, t))
        v = f.g_of(edge, vals[0])
        if v is None:
            raise UndefinedTerm("G%r(%r) not declared" % (edge, vals[0]))
        return v
    raise BadArgument("unknown operator %r" % t.op)


# ---------------------------------------------------------------------------
# distance


def distance(f: Fragment, x: str, y: str):
    """Number of successor steps between comparable same-sort nodes,
    math.inf when the level gap is infinite or the intermediate chain
    is not materialized."""
    if f.sort.get(x) is None or f.sort.get(x) != f.sort.get(y):
        raise Incomparable("nodes %r,%r not in one sort" % (x, y))
    if x == y:
        return 0
    if f.lt(y, x):
        x, y = y, x
    elif not f.lt(x, y):
        raise Incomparable("nodes %r,%r incomparable" % (x, y))
    lx, ly = f.level[x], f.level[y]
    if lx.limb() != ly.limb():
        return INF
    n = ly.mod_omega() - lx.mod_omega()
    for j in range(1, n):
        step = lx.plus(j)
        if not any(f.lt(x, z) and f.lt(z, y) and f.level[z] == step
                   for z in f.nodes_of_sort(f.sort[x])):
            return INF
    return n
