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

import itertools
import math
from dataclasses import dataclass, field

from .ordinal import Ordinal
from .shape import ShapeTree

INF = math.inf


class InvalidTree(ValueError):
    pass


class CannotComplete(RuntimeError):
    pass


class NotClosed(RuntimeError):
    pass


class SortError(TypeError):
    pass


class Incomparable(ValueError):
    pass


class UndefinedTerm(LookupError):
    """A term has no value under the fragment's declared tables."""


def _mk(x: str, y: str) -> tuple[str, str]:
    """Unordered pair key."""
    return (x, y) if x <= y else (y, x)


class _OrderQueries:
    """Order and sort queries over `nodes`, `sort`, `lim` and the strict
    down-sets `_below`.  Fragment and completion's working state both
    answer them here, so the two can never disagree."""

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

    def minimal_nodes(self, eta: str) -> list[str]:
        ns = set(self.nodes_of_sort(eta))
        return sorted(n for n in ns if not (self._below[n] & ns))


class Fragment(_OrderQueries):
    """Immutable-by-convention partial model.  Build once, then query."""

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
        self.shape = shape
        self.nodes = tuple(sorted(nodes))
        self.sort = dict(sort or {})
        self.level = dict(level or {})
        self.order = frozenset(order or ())
        self.meet = {_mk(*k): v for k, v in (meet or {}).items()}
        self.suc = dict(suc or {})
        self.pre = dict(pre or {})
        self.lim = dict(lim or {})
        self.gmap = {e: dict(m) for e, m in (gmap or {}).items()}
        self.constants = dict(constants or {})
        self.mode = mode
        self._below = self._transitive_closure()

    # -- derived order -----------------------------------------------

    def _transitive_closure(self) -> dict[str, set[str]]:
        below = {n: set() for n in self.nodes}
        for a, b in self.order:
            if b in below:
                below[b].add(a)
        changed = True
        while changed:
            changed = False
            for b in self.nodes:
                extra = set()
                for a in below[b]:
                    extra |= below.get(a, set())
                if not extra <= below[b]:
                    below[b] |= extra
                    changed = True
        return below

    def has_cycle(self) -> bool:
        return any(n in self._below[n] for n in self.nodes)

    # -- accessors ---------------------------------------------------

    def sort_of(self, x: str) -> str | None:
        return self.sort.get(x)

    def level_of(self, x: str) -> Ordinal | None:
        return self.level.get(x)

    def meet_of(self, x: str, y: str) -> str | None:
        return self.meet.get(_mk(x, y))

    def suc_of(self, x: str, y: str) -> str | None:
        return self.suc.get((x, y))

    def pre_of(self, x: str) -> str | None:
        return self.pre.get(x)

    def lim_of(self, x: str) -> str | None:
        return self.lim.get(x)

    def g_of(self, edge: tuple[str, str], x: str) -> str | None:
        return self.gmap.get(edge, {}).get(x)

    def replace(self, **kw) -> "Fragment":
        args = dict(
            shape=self.shape, nodes=self.nodes, sort=self.sort,
            level=self.level, order=self.order, meet=self.meet,
            suc=self.suc, pre=self.pre, lim=self.lim, gmap=self.gmap,
            constants=self.constants, mode=self.mode,
        )
        args.update(kw)
        return Fragment(**args)

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return "Fragment(%d nodes, %d sorts, mode=%s)" % (
            len(self.nodes), len(self.shape), self.mode)


class FragmentBuilder:
    """Mutable working copy of the fragment tables.

    Callers edit the tables directly and `freeze` them into a new
    Fragment; the builder is the one place that copies or merges all
    the tables of a fragment.
    """

    def __init__(self, f: Fragment | None = None):
        self.nodes: set[str] = set()
        self.sort: dict[str, str] = {}
        self.level: dict[str, Ordinal] = {}
        self.order: set[tuple[str, str]] = set()
        self.meet: dict[tuple[str, str], str] = {}
        self.suc: dict[tuple[str, str], str] = {}
        self.pre: dict[str, str] = {}
        self.lim: dict[str, str] = {}
        self.gmap: dict[tuple[str, str], dict[str, str]] = {}
        self.constants: dict[tuple[str, int], str] = {}
        if f is not None:
            self.absorb(f, lambda eta: eta)

    def absorb(self, f: Fragment, sort_of) -> None:
        """Add f's tables, renaming its sorts, level-map edges and
        constant keys through sort_of; f's entries win on clashes."""
        self.nodes.update(f.nodes)
        for n, eta in f.sort.items():
            self.sort[n] = sort_of(eta)
        self.level.update(f.level)
        self.order |= f.order
        self.meet.update(f.meet)
        self.suc.update(f.suc)
        self.pre.update(f.pre)
        self.lim.update(f.lim)
        for (e1, e2), table in f.gmap.items():
            self.gmap[(sort_of(e1), sort_of(e2))] = dict(table)
        for (eta, i), c in f.constants.items():
            self.constants[(sort_of(eta), i)] = c

    def add_node(self, n: str, sort: str, level: Ordinal) -> None:
        self.nodes.add(n)
        self.sort[n] = sort
        self.level[n] = level

    def freeze(self, shape: ShapeTree, mode: str) -> Fragment:
        return Fragment(shape, self.nodes, self.sort, self.level, self.order,
                        self.meet, self.suc, self.pre, self.lim, self.gmap,
                        self.constants, mode)


# ---------------------------------------------------------------------------
# construction from a plain level-labelled tree


def from_standard_tree(levels: dict[str, Ordinal], edges, index: str = "r",
                       shape: ShapeTree | None = None,
                       mode: str = "base") -> Fragment:
    """Single-sort fragment induced by a level-labelled tree order.

    `edges` generates the strict order; lim/pre/suc/meet are declared
    wherever the labelled tree already contains the required node.
    """
    if shape is None:
        shape = ShapeTree((index,), index)
    if index not in shape:
        raise InvalidTree("index %r not in shape" % index)
    nodes = sorted(levels)
    f = Fragment(shape, nodes, {n: index for n in nodes}, dict(levels),
                 {(a, b) for a, b in edges}, mode=mode)
    if f.has_cycle():
        raise InvalidTree("order contains a cycle")
    for y in nodes:
        down = sorted(f.strictly_below(y))
        for a, b in itertools.combinations(down, 2):
            if not f.comparable(a, b):
                raise InvalidTree("down-set of %r is not a chain" % y)
        for a in down:
            if not levels[a] < levels[y]:
                raise InvalidTree(
                    "levels not strictly increasing on %r < %r" % (a, y))
    lim: dict[str, str] = {}
    pre: dict[str, str] = {}
    suc: dict[tuple[str, str], str] = {}
    meet: dict[tuple[str, str], str] = {}
    by_level = {}
    for x in nodes:
        lx = levels[x]
        anc = f.strictly_below(x)
        if lx.is_limit:
            lim[x] = x
        else:
            lam = lx.limb()
            for u in anc:
                if levels[u] == lam:
                    lim[x] = u
            for u in anc:
                if levels[u] == lx.predecessor():
                    pre[x] = u
    for x, y in itertools.permutations(nodes, 2):
        if not f.lt(x, y):
            continue
        target = levels[x].plus(1)
        for z in nodes:
            if levels[z] == target and f.lt(x, z) and f.leq(z, y):
                suc[(x, y)] = z
    for x, y in itertools.combinations(nodes, 2):
        if f.leq(x, y):
            meet[_mk(x, y)] = x
        elif f.leq(y, x):
            meet[_mk(x, y)] = y
        else:
            common = (f.strictly_below(x)) & (f.strictly_below(y))
            if common:
                meet[_mk(x, y)] = max(common, key=lambda c: sum(
                    1 for d in common if f.leq(d, c)))
    for x in nodes:
        meet[_mk(x, x)] = x
    return f.replace(meet=meet, suc=suc, pre=pre, lim=lim)


# ---------------------------------------------------------------------------
# validation


def validate(f: Fragment, mode: str | None = None) -> list[str]:
    """Empty report iff every declared value satisfies every axiom of
    the chosen mode.  Entries are "axiom-name: witnesses"."""
    mode = mode or f.mode
    rep: list[str] = []
    nodeset = set(f.nodes)

    for n, s in f.sort.items():
        if s not in f.shape:
            rep.append("sort-unknown-index: node %r sort %r" % (n, s))
        if n not in f.level:
            rep.append("level-missing: node %r" % n)
    for a, b in sorted(f.order):
        if a not in nodeset or b not in nodeset:
            rep.append("order-unknown-node: (%r,%r)" % (a, b))
        elif f.sort.get(a) != f.sort.get(b) or f.sort.get(a) is None:
            rep.append("order-cross-sort: (%r,%r)" % (a, b))
    for n in f.nodes:
        if f.lt(n, n):
            rep.append("order-cycle: at %r" % n)
    if any("order-cycle" in r or "order-unknown-node" in r or
           "order-cross-sort" in r or "level-missing" in r for r in rep):
        return rep

    for y in f.nodes:
        down = sorted(f.strictly_below(y))
        # down is a chain iff its members' down-sets (inside down, as the
        # order is transitive and acyclic) differ in size
        if len({len(f._below[a]) for a in down}) < len(down):
            for a, b in itertools.combinations(down, 2):
                if not f.comparable(a, b):
                    rep.append("order-downset-chain: %r,%r below %r"
                               % (a, b, y))
        for a in down:
            if not f.level[a] < f.level[y]:
                rep.append("order-level: %r < %r but levels %s >= %s"
                           % (a, y, f.level[a], f.level[y]))

    def downset(v):
        return f.strictly_below(v) | {v}

    for (x, y), m in sorted(f.meet.items()):
        sx = f.sort.get(x)
        if sx is None or f.sort.get(y) != sx or f.sort.get(m) != sx:
            rep.append("meet-sort: (%r,%r)->%r" % (x, y, m))
            continue
        if not (f.leq(m, x) and f.leq(m, y)):
            rep.append("meet-lower-bound: (%r,%r)->%r" % (x, y, m))
        missed = () if m in (x, y) else downset(x) & downset(y) - downset(m)
        for z in sorted(missed):
            if z in nodeset:
                rep.append("meet-not-max: (%r,%r)->%r misses %r" % (x, y, m, z))

    for (x, y), s in sorted(f.suc.items()):
        sx = f.sort.get(x)
        if sx is None or f.sort.get(y) != sx or f.sort.get(s) != sx:
            rep.append("suc-sort: (%r,%r)->%r" % (x, y, s))
            continue
        if not (f.lt(x, y) and f.lt(x, s) and f.leq(s, y)):
            rep.append("suc-bounds: (%r,%r)->%r" % (x, y, s))
            continue
        if f.level[s] != f.level[x].plus(1):
            rep.append("suc-level: (%r,%r)->%r at %s" % (x, y, s, f.level[s]))
        for z in sorted(z for z in f._below[s] if f.lt(x, z)):
            rep.append("suc-between: %r inside (%r,%r]" % (z, x, s))
        lx, ls = f.lim.get(x), f.lim.get(s)
        if lx is not None and ls is not None and lx != ls:
            rep.append("lim-of-suc: lim(%r)=%r but lim(suc)=%r" % (x, lx, ls))

    for x, l in sorted(f.lim.items()):
        if f.sort.get(l) != f.sort.get(x) or f.sort.get(x) is None:
            rep.append("lim-sort: %r->%r" % (x, l))
            continue
        if not f.leq(l, x):
            rep.append("lim-bound: %r->%r" % (x, l))
            continue
        if f.level[l] != f.level[x].limb():
            rep.append("lim-level: lim(%r)=%r at %s, expected %s"
                       % (x, l, f.level[l], f.level[x].limb()))
        if f.lim.get(l) not in (None, l):
            rep.append("lim-idempotent: lim(%r)=%r, lim(%r)=%r"
                       % (x, l, l, f.lim[l]))
    for x, y in sorted((x, y) for y in f.lim for x in f._below.get(y, ())
                       if x in f.lim and not f.leq(f.lim[x], f.lim[y])):
        rep.append("lim-monotone: %r < %r" % (x, y))

    for x, p in sorted(f.pre.items()):
        if f.sort.get(p) != f.sort.get(x) or f.sort.get(x) is None:
            rep.append("pre-sort: %r->%r" % (x, p))
            continue
        if not f.lt(p, x):
            rep.append("pre-bound: %r->%r" % (x, p))
            continue
        if f.level[p].plus(1) != f.level[x]:
            rep.append("pre-level: pre(%r)=%r at %s" % (x, p, f.level[p]))
        s = f.suc.get((p, x))
        if s is not None and s != x:
            rep.append("pre-suc: suc(pre(%r),%r)=%r" % (x, x, s))

    shape_edges = set(f.shape.suc_pairs())
    for edge, table in sorted(f.gmap.items()):
        if edge not in shape_edges:
            rep.append("gmap-edge: %r" % (edge,))
            continue
        e1, e2 = edge
        for x, y in sorted(table.items()):
            if f.sort.get(x) != e1 or f.sort.get(y) != e2:
                rep.append("gmap-sort: G%r(%r)=%r" % (edge, x, y))
                continue
            if f.lim.get(x) == x:
                rep.append("gmap-domain: %r is not a successor" % x)
            if f.mode == "classT" or mode == "classT":
                if not f.level[y] <= f.level[x]:
                    rep.append("classT-level: G%r(%r)=%r" % (edge, x, y))
                if f.lim.get(y) == y:
                    rep.append("classT-successor-image: G%r(%r)=%r"
                               % (edge, x, y))
        for x, y in sorted(_mk(x, y) for y in table
                           for x in f._below.get(y, ()) if x in table
                           and f.is_successor(x) and f.is_successor(y)
                           and f.lim.get(x) == f.lim.get(y)
                           and table[x] != table[y]):
            rep.append("regressive: G%r differs on %r,%r" % (edge, x, y))

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


def _finite_gap(lx: Ordinal, ly: Ordinal) -> bool:
    return lx.limb() == ly.limb()


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


class _Completion(FragmentBuilder, _OrderQueries):
    """complete's working state: f's tables in a builder, plus down-sets
    that `mint` and `relate` keep exact.  Completion adds order edges
    only through `mint`, and every such edge touches the node being
    minted; the one-point extension builds with `relate`."""

    def __init__(self, f: Fragment):
        super().__init__(f)
        self.shape = f.shape
        self._below = {n: set(d) for n, d in f._below.items()}

    def mint(self, n: str, sort: str, level: Ordinal, below=(),
             above=()) -> None:
        """Add node n with order edges from each node of `below`, which
        must be closed downwards, and to each node of `above`."""
        self.add_node(n, sort, level)
        down = set(below)
        self.order.update((u, n) for u in down)
        above = set(above)
        self.order.update((n, u) for u in above)
        gain = down | {n}
        for y, d in self._below.items():
            if y in above or not d.isdisjoint(above):
                d |= gain
        self._below[n] = down

    def relate(self, lo: str, hi: str) -> None:
        """Add the order edge lo < hi between two present nodes."""
        self.order.add((lo, hi))
        gain = self._below[lo] | {lo}
        for y, d in self._below.items():
            if y == hi or hi in d:
                d |= gain


def _complete_valid(f: Fragment, budget_nodes: int) -> Fragment:
    """complete for an f that already passed `validate`: scans of
    `_fixes`, a new one after each fix that mints, with the node budget
    checked before each scan."""
    w = _Completion(f)
    counter = itertools.count()

    def fresh() -> str:
        while True:
            n = "_c%03d" % next(counter)
            if n not in w.nodes:
                return n

    while True:
        if len(w.nodes) > budget_nodes:
            raise CannotComplete("node budget %d exceeded" % budget_nodes)
        if not any(_fixes(w, fresh)):
            break
    out = w.freeze(f.shape, f.mode)
    rep = validate(out)
    if rep:
        raise CannotComplete("completion produced invalid fragment: %s"
                             % rep[0])
    return out


def _mint_below(w: _Completion, fresh, x: str, lv: Ordinal) -> str:
    """New node at level lv on the chain below x."""
    down = w.strictly_below(x)
    n = fresh()
    w.mint(n, w.sort[x], lv, below=[u for u in down if w.level[u] < lv],
           above=[x] + [u for u in down if lv < w.level[u]])
    return n


def _fixes(w: _Completion, fresh):
    """Scan w once in priority order (lim, pre, meet, suc, G), fixing
    each deficiency in place and yielding after each fix whether it
    minted a node.

    The scan resumes after a fix that mints nothing.  Such a fix only
    fills missing table entries, so it makes no deficiency in an earlier
    phase or at an earlier position.  The scan's inputs (the sorted
    nodes, `lt`, the suc candidates, the minimal nodes of each sort)
    change only by a mint.  After a mint the scan is stale: it stops,
    and the caller starts a new one.  So the fixes, and the fresh ids,
    are those of a scan restarted from the lim phase after every fix.
    """
    level, meet, suc, pre, lim = w.level, w.meet, w.suc, w.pre, w.lim
    sorted_nodes = sorted(n for n in w.nodes if n in w.sort)

    # lim: total on sorted nodes
    for x in sorted_nodes:
        if x in lim:
            continue
        lam = level[x].limb()
        if level[x].is_limit:
            lim[x] = x
        elif anc := [u for u in w.strictly_below(x) if level[u] == lam]:
            lim[x] = anc[0]
        else:
            n = _mint_below(w, fresh, x, lam)
            lim[x] = n
            lim[n] = n
            yield True
            return
        yield False

    # pre: total on nodes at successor levels
    for x in sorted_nodes:
        if x in pre or level[x].is_limit:
            continue
        lp = level[x].predecessor()
        anc = [u for u in w.strictly_below(x) if level[u] == lp]
        pre[x] = p = anc[0] if anc else _mint_below(w, fresh, x, lp)
        suc.setdefault((p, x), x)
        yield not anc
        if not anc:
            return

    # meet: total on same-sort pairs
    for eta in w.shape.indices:
        ns = w.nodes_of_sort(eta)
        for x, y in itertools.combinations_with_replacement(sorted(ns), 2):
            if _mk(x, y) in meet:
                continue
            if w.leq(x, y):
                meet[_mk(x, y)] = x
            elif w.leq(y, x):
                meet[_mk(x, y)] = y
            elif common := w.strictly_below(x) & w.strictly_below(y):
                meet[_mk(x, y)] = max(
                    common, key=lambda c: len(w.strictly_below(c)))
            else:
                rx = min(w.strictly_below(x) | {x},
                         key=lambda c: len(w.strictly_below(c)))
                ry = min(w.strictly_below(y) | {y},
                         key=lambda c: len(w.strictly_below(c)))
                if level[rx].is_zero or level[ry].is_zero:
                    raise CannotComplete(
                        "meet of %r,%r forced below a level-0 node" % (x, y))
                z = fresh()
                w.mint(z, eta, Ordinal(), above=(rx, ry))
                meet[_mk(x, y)] = z
                lim[z] = z
                yield True
                return
            yield False

    # suc: declared on comparable pairs whenever the required node
    # exists, which makes it total on finite-gap pairs x < y: pre is
    # total by now, and y's pre chain passes through level(x)+1 above x
    for eta in w.shape.indices:
        ns = sorted(w.nodes_of_sort(eta))
        for x, y in itertools.permutations(ns, 2):
            if (x, y) in suc or not w.lt(x, y):
                continue
            # the candidates lie on the chain below(y) + y, and the
            # least id among them is the first in the sorted ns
            target = level[x].plus(1)
            cands = [z for z in w._below[y] | {y} if w.sort.get(z) == eta
                     and level[z] == target and w.lt(x, z)]
            if cands:
                suc[(x, y)] = min(cands)
                yield False

    # G: total on declared successors along each shape edge
    for edge in w.shape.suc_pairs():
        e1, e2 = edge
        table = w.gmap.setdefault(edge, {})
        for x in sorted(w.suc_members(e1)):
            if x in table:
                continue
            cls = _regressive_class(w, e1, x)
            declared = sorted({table[y] for y in cls if y in table})
            if declared:
                for y in cls:
                    table.setdefault(y, declared[0])
                yield False
                continue
            if not w.nodes_of_sort(e2):
                parent = fresh()
                w.mint(parent, e2, Ordinal())
                lim[parent] = parent
            else:
                # meets are total by now, so e2 has one minimal node
                parent, = w.minimal_nodes(e2)
            t = fresh()
            w.mint(t, e2, level[parent].plus(1),
                   below=[parent, *w.strictly_below(parent)])
            pre[t] = parent
            suc[(parent, t)] = t
            if level[parent].is_limit:
                lim[t] = parent
            for y in cls:
                table[y] = t
            yield True
            return


def _regressive_class(f: _OrderQueries, eta: str, x: str) -> list[str]:
    """Connected component of x under "comparable successors sharing lim"."""
    members = {x}
    frontier = [x]
    sucs = f.suc_members(eta)
    while frontier:
        a = frontier.pop()
        for b in sucs:
            if (b not in members and f.comparable(a, b)
                    and f.lim.get(a) == f.lim.get(b)):
                members.add(b)
                frontier.append(b)
    return sorted(members)


def is_closed(f: Fragment) -> bool:
    """All tables total over their intended desk-scale domains."""
    for x in f.nodes:
        if f.sort.get(x) is None:
            continue
        if x not in f.lim:
            return False
        if not f.level[x].is_limit and x not in f.pre:
            return False
    for eta in f.shape.indices:
        ns = sorted(f.nodes_of_sort(eta))
        for x, y in itertools.combinations_with_replacement(ns, 2):
            if _mk(x, y) not in f.meet:
                return False
        for x, y in itertools.permutations(ns, 2):
            if (f.lt(x, y) and _finite_gap(f.level[x], f.level[y])
                    and (x, y) not in f.suc):
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


def _cl_one(f: Fragment, s: frozenset[str]) -> frozenset[str]:
    """One rank step: successors and predecessors, then `_cl_zero`."""
    return _cl_zero(f, _cl_suc(f, s))


def closure(f: Fragment, a, variant="zero") -> frozenset[str]:
    """Closure of the node set `a` under the chosen operator family.

    variant: "wedge" | "g" | "lim" | "suc" | "zero" | "one" | natural k.
    The rank-k variant applies the one-step closure k times on top of
    the rank-0 closure, so it contains every term value of successor
    rank at most k over the generators.  Each rank step, and each round
    of meets, lim and G inside the rank-0 closure, takes the meets and
    successors only of pairs with a member new since the step before:
    the older pairs' values are already in the set.

    Raises NotClosed unless f is closed, then KeyError for a node of
    `a` that is not in f.
    """
    _require_closed(f)
    return _closure(f, a, variant)


def _require_closed(f: Fragment) -> None:
    """Raise NotClosed unless f is closed (see `is_closed`)."""
    if not is_closed(f):
        raise NotClosed("closure requires a completed fragment")


def _known(f: Fragment, a) -> frozenset[str]:
    """The node set a, or KeyError for a node that is not in f."""
    s = frozenset(a)
    for x in s:
        if x not in f._below:
            raise KeyError("unknown node %r" % x)
    return s


def _closure(f: Fragment, a, variant="zero") -> frozenset[str]:
    """`closure` for an f already known to be closed."""
    if isinstance(variant, int) and variant >= 0:
        return _chain(f, a, variant)[-1]
    s = _known(f, a)
    if variant == "wedge":
        return _cl_wedge(f, s)
    if variant == "g":
        return _cl_g(f, s)
    if variant == "lim":
        return _cl_lim(f, s)
    if variant == "suc":
        return _cl_suc(f, s)
    if variant == "zero":
        return _cl_zero(f, s)
    if variant == "one":
        return _cl_one(f, s)
    raise ValueError("unknown closure variant %r" % (variant,))


def _chain(f: Fragment, a, k: int, base=None) -> list[frozenset[str]]:
    """The rank-i closures of the node set a, for a closed f, from i = 0
    up to k or to the first rank that adds nothing, whichever comes
    first: the last entry is the rank-k closure, and so is every rank
    past it.

    With base, the chain of a parameter set P, the result is the chain
    of a | P, and each rank pays only for what a adds to P:
        S_0     = zero(B_0 | a)               pairing outside B_0
        S_{i+1} = zero(suc(S_i) | B_{i+1})    pairing outside B_{i+1}
    where suc(S_i) pairs only members outside B_i.  This is exact
    because B_i's successors and predecessors lie in B_{i+1}, and
    B_{i+1} is closed under the rank-0 operators, as every rank-0
    closure is.  Without base, a set's own rank i-1 and rank i closures
    serve as B_i and B_{i+1}, so each rank pairs only the members that
    the rank before it added.  Raises KeyError for a node of a that is
    not in f.
    """
    empty = frozenset()
    s = _known(f, a)
    if base is None:
        b0 = empty
    else:
        b0, last = base[0], len(base) - 1
    tops = [_cl_zero(f, b0 | s, b0)]
    for i in range(k):
        if base is None:
            b, b1 = tops[i - 1] if i else empty, tops[i]
        else:
            b, b1 = base[min(i, last)], base[min(i + 1, last)]
        nxt = _cl_zero(f, _cl_suc(f, tops[i], b) | b1, b1)
        if nxt == tops[i]:
            break
        tops.append(nxt)
    return tops


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
    raise ValueError("unknown operator %r" % t.op)


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
