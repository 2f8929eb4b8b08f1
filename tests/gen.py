"""Randomized instance generators shared by the test suite.

These sit next to the oracles: they produce inputs, the library is the
system under test, and `oracles` provides the independent ground truth.
"""

from __future__ import annotations

from treedesk.fixtures import (merge_fragments, random_closed_fragment,
                               random_standard_fragment)
from treedesk.ordinal import Ordinal
from treedesk.shape import EMPTY_SHAPE, ShapeTree, chain_shape
from treedesk.structure import Fragment, complete, from_standard_tree

TRIPOD = ShapeTree(("r", "r0", "r1"), "r", {"r0": "r", "r1": "r"},
                   {"r": "r", "r0": "0", "r1": "1"})


def rename(f: Fragment, pref: str, reverse: bool = False):
    """Isomorphic copy with every node id prefixed, plus the node map.
    With reverse, each id becomes pref and a number instead, numbered so
    that the sorted order of the ids is reversed."""
    if reverse:
        ns = sorted(f.nodes)
        r = {n: "%s%04d" % (pref, len(ns) - i) for i, n in enumerate(ns)}
    else:
        r = {n: pref + n for n in f.nodes}
    g = Fragment(
        f.shape, tuple(sorted(r.values())),
        {r[n]: s for n, s in f.sort.items()},
        {r[n]: l for n, l in f.level.items()},
        {(r[a], r[b]) for a, b in f.order},
        {tuple(sorted((r[x], r[y]))): r[m] for (x, y), m in f.meet.items()},
        {(r[x], r[y]): r[v] for (x, y), v in f.suc.items()},
        {r[x]: r[v] for x, v in f.pre.items()},
        {r[x]: r[v] for x, v in f.lim.items()},
        {e: {r[x]: r[v] for x, v in t.items()} for e, t in f.gmap.items()},
        {k: r[v] for k, v in f.constants.items()}, f.mode)
    return g, r


def random_tripod(rng) -> Fragment:
    """Closed fragment over a root with two children: three random
    single-sort trees joined by limit-keyed (hence regressive) maps."""
    parts = {}
    for idx in TRIPOD.indices:
        g = random_standard_fragment(rng, max_nodes=7)
        r = {n: idx.replace("r", "q") + "_" + n for n in g.nodes}
        parts[idx] = Fragment(
            ShapeTree((idx,), idx), tuple(sorted(r.values())),
            {r[n]: idx for n in g.nodes},
            {r[n]: l for n, l in g.level.items()},
            {(r[a], r[b]) for a, b in g.order},
            {tuple(sorted((r[x], r[y]))): r[m]
             for (x, y), m in g.meet.items()},
            {(r[x], r[y]): r[v] for (x, y), v in g.suc.items()},
            {r[x]: r[v] for x, v in g.pre.items()},
            {r[x]: r[v] for x, v in g.lim.items()})
    gmap = {}
    for child in ("r0", "r1"):
        targets = sorted(parts[child].nodes)
        table = {}
        by_lim = {}
        src = parts["r"]
        for x in sorted(src.nodes):
            if src.level[x].is_limit:
                continue
            key = src.lim.get(x)
            if key is None:
                continue
            if key not in by_lim:
                by_lim[key] = targets[rng.randrange(len(targets))]
            table[x] = by_lim[key]
        gmap[("r", child)] = table
    return complete(merge_fragments(TRIPOD, parts, gmap))


def theta_single_sort() -> Fragment:
    """Closed theta-mode tree whose three successors of a limit are the
    constants of sort r."""
    w = Ordinal.omega()
    g = from_standard_tree(
        {"r": Ordinal(), "L": w,
         "d0": w.plus(1), "d1": w.plus(1), "d2": w.plus(1)},
        {("r", "L"), ("r", "d0"), ("r", "d1"), ("r", "d2"),
         ("L", "d0"), ("L", "d1"), ("L", "d2")},
        mode="theta")
    return g.replace(constants={("r", 0): "d0", ("r", 1): "d1",
                                ("r", 2): "d2"})


def theta_two_sort() -> Fragment:
    """Closed theta-mode fragment over a two-sort chain: two such trees,
    the constants of each sort, and a G map between the constants."""
    w = Ordinal.omega()
    s0 = from_standard_tree(
        {"r": Ordinal(), "L": w, "d0": w.plus(1), "d1": w.plus(1)},
        {("r", "L"), ("r", "d0"), ("r", "d1"), ("L", "d0"), ("L", "d1")},
        index="0", shape=chain_shape(2))
    s1 = from_standard_tree(
        {"s": Ordinal(), "M": w, "e0": w.plus(1), "e1": w.plus(1)},
        {("s", "M"), ("s", "e0"), ("s", "e1"), ("M", "e0"), ("M", "e1")},
        index="1", shape=chain_shape(2))
    h = merge_fragments(chain_shape(2), {"0": s0, "1": s1},
                        gmap={("0", "1"): {"d0": "e0", "d1": "e1"}},
                        mode="theta")
    return h.replace(constants={("0", 0): "d0", ("0", 1): "d1",
                                ("1", 0): "e0", ("1", 1): "e1"})


def random_unsorted(rng, max_nodes: int = 6) -> Fragment:
    """Fragment over the empty shape: bare points, no structure."""
    n = rng.randint(2, max_nodes)
    return Fragment(EMPTY_SHAPE, tuple("x%d" % i for i in range(n)))


def transfer_instances(rng):
    """Criterion 05's one-point extensions: 80 point trees, 80 tripods of
    at most 40 nodes and 40 bare-point fragments, each extended against
    its renamed copy.  Yields (kind, fa, fb, a, b, c, m1)."""
    for kind, count in (("point", 80), ("tripod", 80), ("empty", 40)):
        done = 0
        while done < count:
            if kind == "point":
                fa = random_closed_fragment(rng)
            elif kind == "tripod":
                fa = random_tripod(rng)
                if len(fa.nodes) > 40:
                    continue
            else:
                fa = random_unsorted(rng)
            fb, r = rename(fa, "y")
            pool = sorted(fa.nodes)
            m1 = rng.choice((0, 1))
            a = tuple(rng.sample(pool, rng.randint(1, 2)))
            yield kind, fa, fb, a, tuple(r[x] for x in a), rng.choice(pool), m1
            done += 1


def top_sort_only(rng) -> Fragment:
    """Random tree in the top sort of a two-sort chain, lower sort
    empty: completing it mints the lower sort's root and a G image."""
    top = random_standard_fragment(rng, 12)
    return merge_fragments(chain_shape(2), {"0": top})


def two_root_forest() -> Fragment:
    """Two trees over limit roots in the top sort of a two-sort chain,
    lower sort empty: completing it mints a level-0 meet of the roots,
    then the lower sort's root and a G image."""
    w, w2 = Ordinal.omega(), Ordinal.omega(1, 2)
    levels = {"a": w, "a1": w.plus(2), "b": w2, "b1": w2.plus(1),
              "b2": w2.plus(3)}
    edges = {("a", "a1"), ("b", "b1"), ("b", "b2"), ("b1", "b2")}
    top = from_standard_tree(levels, edges, index="0", shape=chain_shape(2))
    return merge_fragments(chain_shape(2), {"0": top})


def corrupted_fragment(rng) -> Fragment:
    """Completed random tree with three random edits, each an order edge
    up the levels, a meet, lim or pre value redrawn, or a suc value
    moved to the top of its pair.  Usually invalid, with reports from
    every family of order and table axioms."""
    f = complete(random_standard_fragment(rng, 14))
    nodes = list(f.nodes)
    for _ in range(3):
        kind = rng.choice(("order", "meet", "suc", "lim", "pre"))
        if kind == "order":
            x, v = rng.sample(nodes, 2)
            if f.level[v] < f.level[x]:
                x, v = v, x
            f = f.replace(order=f.order | {(x, v)})
            continue
        table = dict(getattr(f, kind))
        key = rng.choice(sorted(table))
        table[key] = key[1] if kind == "suc" else rng.choice(nodes)
        f = f.replace(**{kind: table})
    return f
