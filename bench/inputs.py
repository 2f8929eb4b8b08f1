"""Seeded raw inputs for the benchmark workloads.

Everything here is generated from a `random.Random` the caller seeds:
level-labelled trees, multi-sort JSON documents, renamings, parameter
pools and sequences.  The program only ever sees the result through its
public constructors (`Fragment`, `from_standard_tree`, `Ordinal`,
`ShapeTree`) and the `fileio` dict loaders, so the benchmark does not
depend on the library's own fixture generators.
"""

from __future__ import annotations

import itertools
import random

from treedesk import fileio
from treedesk.ordinal import Ordinal
from treedesk.shape import ShapeTree
from treedesk.structure import Fragment, from_standard_tree

POINT = ShapeTree(("r",), "r")
TRIPOD = ShapeTree(("r", "r0", "r1"), "r", {"r0": "r", "r1": "r"},
                   {"r": "", "r0": "0", "r1": "1"})
TWO_SORT = ShapeTree(("0", "1"), "0", {"1": "0"}, {"0": "0", "1": "1"})
EMPTY = ShapeTree((), None)


def level(limbs: int, rest: int) -> Ordinal:
    """The ordinal w*limbs + rest."""
    if limbs == 0:
        return Ordinal.nat(rest)
    return Ordinal.omega(1, limbs).plus(rest)


def random_tree(rng: random.Random, n: int, prefix: str, max_limb: int = 3):
    """Level-labelled tree of n nodes with levels below w*(max_limb+1).

    Each new node hangs above a random earlier node, either one to three
    finite steps higher or just past the next limit.  Returns (levels,
    edges) with `edges` the full strict order (every ancestor pair).
    """
    names = ["%s%02d" % (prefix, i) for i in range(n)]
    coords = {names[0]: (0, 0)}
    parent = {}
    for i in range(1, n):
        p = names[rng.randrange(i)]
        limbs, rest = coords[p]
        if rng.random() < 0.35 and limbs < max_limb:
            coords[names[i]] = (limbs + 1, rng.randint(0, 2))
        else:
            coords[names[i]] = (limbs, rest + rng.randint(1, 3))
        parent[names[i]] = p
    edges = set()
    for x in names[1:]:
        a = parent[x]
        while True:
            edges.add((a, x))
            if a not in parent:
                break
            a = parent[a]
    return {x: level(*c) for x, c in coords.items()}, edges


def tree_doc(levels, edges, index: str, shape: ShapeTree) -> dict:
    """JSON document of the single-sort standard fragment of a tree."""
    f = from_standard_tree(levels, edges, index=index, shape=shape)
    return fileio.fragment_to_dict(f)


def merged_doc(shape: ShapeTree, parts: dict[str, dict],
               rng: random.Random) -> dict:
    """Join per-sort documents over `shape` and add a regressive level
    map along every shape edge: successors that share a limit go to one
    random target of the child sort."""
    doc = {"shape": fileio.shape_to_dict(shape), "nodes": [], "order": [],
           "meet": [], "suc": [], "pre": [], "lim": [], "g": [],
           "constants": [], "mode": "base"}
    for idx in sorted(parts):
        for key in ("nodes", "order", "meet", "suc", "pre", "lim"):
            doc[key].extend(parts[idx][key])
    for e1, e2 in shape.suc_pairs():
        src = parts[e1]
        lim = {x: v for x, v in src["lim"]}
        targets = sorted(n["id"] for n in parts[e2]["nodes"])
        by_lim = {}
        entries = []
        for node in src["nodes"]:
            x = node["id"]
            if Ordinal.parse(node["level"]).is_limit or x not in lim:
                continue
            if lim[x] not in by_lim:
                by_lim[lim[x]] = targets[rng.randrange(len(targets))]
            entries.append([x, by_lim[lim[x]]])
        doc["g"].append({"edge": [e1, e2], "entries": sorted(entries)})
    for key in ("nodes", "order", "meet", "suc", "pre", "lim"):
        doc[key].sort(key=lambda row: row["id"] if key == "nodes" else row)
    return doc


def raw_fragment_doc(kind: str, rng: random.Random, sizes) -> dict:
    """Uncompleted fragment document of one of the four extension shapes.

    `sizes` gives the node count of each sort's tree: one for "point",
    three for "tripod", two for "two-sort", the point count for "empty".
    """
    if kind == "point":
        levels, edges = random_tree(rng, sizes[0], "p")
        return tree_doc(levels, edges, "r", POINT)
    if kind == "tripod":
        parts = {}
        for idx, n in zip(TRIPOD.indices, sizes):
            levels, edges = random_tree(rng, n, idx + "_")
            parts[idx] = tree_doc(levels, edges, idx, TRIPOD)
        return merged_doc(TRIPOD, parts, rng)
    if kind == "two-sort":
        parts = {}
        for (idx, prefix), n in zip((("0", "a"), ("1", "z")), sizes):
            levels, edges = random_tree(rng, n, prefix)
            parts[idx] = tree_doc(levels, edges, idx, TWO_SORT)
        return merged_doc(TWO_SORT, parts, rng)
    if kind == "empty":
        names = ["x%d" % i for i in range(sizes[0])]
        return fileio.fragment_to_dict(
            Fragment(EMPTY, names, level={x: Ordinal() for x in names}))
    raise ValueError("unknown fragment kind %r" % kind)


def renamed(f: Fragment, prefix: str) -> tuple[Fragment, dict[str, str]]:
    """Isomorphic copy of f with every node id prefixed, and the map."""
    r = {n: prefix + n for n in f.nodes}
    g = Fragment(
        f.shape, [r[n] for n in f.nodes],
        {r[n]: s for n, s in f.sort.items()},
        {r[n]: l for n, l in f.level.items()},
        {(r[a], r[b]) for a, b in f.order},
        {(r[x], r[y]): r[m] for (x, y), m in f.meet.items()},
        {(r[x], r[y]): r[v] for (x, y), v in f.suc.items()},
        {r[x]: r[v] for x, v in f.pre.items()},
        {r[x]: r[v] for x, v in f.lim.items()},
        {e: {r[x]: r[v] for x, v in t.items()} for e, t in f.gmap.items()},
        {k: r[v] for k, v in f.constants.items()}, f.mode)
    return g, r


def random_ids(rng: random.Random, count: int, prefix: str) -> list[str]:
    """count distinct node ids in random order, so that a seed changes
    the sorted order the program walks its nodes in."""
    tags = rng.sample(range(10 * count, 100 * count), count)
    return ["%s%04d" % (prefix, t) for t in tags]


def rename_doc(doc: dict, ids: dict[str, str]) -> dict:
    """The fragment document with node x renamed ids[x] everywhere."""
    out = dict(doc)
    out["nodes"] = sorted(({**n, "id": ids[n["id"]]} for n in doc["nodes"]),
                          key=lambda n: n["id"])
    for key in ("order", "suc", "pre", "lim"):
        out[key] = sorted([ids[x] for x in row] for row in doc[key])
    out["meet"] = sorted(sorted((ids[x], ids[y])) + [ids[m]]
                         for x, y, m in doc["meet"])
    out["g"] = [{"edge": blk["edge"],
                 "entries": sorted([ids[x], ids[v]]
                                   for x, v in blk["entries"])}
                for blk in doc["g"]]
    out["constants"] = sorted([eta, i, ids[c]]
                              for eta, i, c in doc["constants"])
    return out


def relabel(levels, edges, ids):
    """The tree (levels, edges) with node x renamed ids[x]."""
    return ({ids[x]: l for x, l in levels.items()},
            {(ids[a], ids[b]) for a, b in edges})


def chain_family(size: int):
    """The chain family: levels 0,1,2,3 then w*q+r for the i-th node
    (q = i // 4, r = i % 4), every pair ordered.  Returns (levels, edges,
    pool) with node names n000... and the pool every chain node."""
    names = ["n%03d" % i for i in range(size)]
    levels = {n: level(i // 4 if i >= 4 else 0, i % 4 if i >= 4 else i)
              for i, n in enumerate(names)}
    return levels, set(itertools.combinations(names, 2)), names


def binary_family(size: int):
    """The binary family: the first `size` nodes of the complete binary
    tree in breadth-first order, node "b"+bits at level len(bits).
    Returns (levels, edges, pool) with the pool the leaves."""
    levels = {"b": Ordinal()}
    frontier = ["b"]
    while len(levels) < size:
        nxt = []
        for p in frontier:
            for bit in "01":
                if len(levels) < size:
                    levels[p + bit] = Ordinal.nat(len(p))
                    nxt.append(p + bit)
        frontier = nxt
    edges = {(c[:i], c) for c in levels for i in range(1, len(c))}
    leaves = sorted(n for n in levels
                    if not any(c != n and c.startswith(n) for c in levels))
    return levels, edges, leaves


def order_preserving_ids(rng: random.Random, names, prefix: str):
    """Seeded ids for `names` that sort in the same order as the names,
    so that sequences read off a sorted pool keep their shape."""
    names = sorted(names)
    tags = sorted(rng.sample(range(10 * len(names), 100 * len(names)),
                             len(names)))
    return {x: "%s%04d" % (prefix, t) for x, t in zip(names, tags)}


def spread_order(pool):
    """The pool in nested bit-reversal order, so that every prefix is an
    evenly spread subset."""
    bits = max(1, (len(pool) - 1).bit_length())
    order = sorted(range(len(pool)),
                   key=lambda i: int(format(i, "0%db" % bits)[::-1], 2))
    return [pool[i] for i in order]
