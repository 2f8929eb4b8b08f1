"""Named test fragments and randomized instance generators shared by
the test suite.

These sit next to the oracles: they produce inputs, the library is the
system under test, and `oracles` provides the independent ground truth.
The named builders are a chain, a three-sort step-map fixture,
exhaustive-window dichotomy fixtures and small colored-tree bases; the
seeded generators draw standard-tree fragments, tripods, transfer
instances and corrupted, near-valid or nearly closed fragments.
"""

from __future__ import annotations

import random

from treedesk.ordinal import Ordinal
from treedesk.partition import Coloring, PTriple, p_from_coloring, sub_tuples
from treedesk.shape import EMPTY_SHAPE, ShapeTree, chain_shape
from treedesk.structure import (Fragment, FragmentBuilder, complete,
                                from_standard_tree)

TRIPOD = ShapeTree(("r", "r0", "r1"), "r", {"r0": "r", "r1": "r"},
                   {"r": "r", "r0": "0", "r1": "1"})


def _o(m: int = 0, n: int = 0) -> Ordinal:
    """Ordinal w*m + n."""
    if m == 0:
        return Ordinal.nat(n)
    return Ordinal.omega(1, m).plus(n)


def merge_fragments(shape: ShapeTree, parts: dict[str, Fragment],
                    gmap=None, mode: str = "base") -> Fragment:
    """One fragment per shape index, merged over the given shape with
    the supplied cross-sort level-map tables."""
    b = FragmentBuilder()
    for idx, f in sorted(parts.items()):
        b.absorb(f, lambda eta, idx=idx: idx)
    b.gmap.update(gmap or {})
    return b.freeze(shape, mode)


def chain(n: int, prefix: str = "n") -> Fragment:
    """Chain of n nodes at the levels 0..n-1, named prefix00, prefix01..."""
    levels = {"%s%02d" % (prefix, i): Ordinal.nat(i) for i in range(n)}
    names = sorted(levels)
    edges = {(names[i], names[j]) for i in range(n) for j in range(i + 1, n)}
    return from_standard_tree(levels, edges)


# ---------------------------------------------------------------------------
# three-sort step-map fixture


def three_sort_step_fixture() -> tuple[Fragment, tuple[str, ...]]:
    """Fragment over a 3-sort chain and a length-4 window in the top
    sort whose step-map iteration descends: almost-increasing in sorts
    0 and 1, Fan in sort 2 after two steps."""
    shape = chain_shape(3)
    s0_levels = {
        "a_r": _o(), "a_m0": _o(1), "a_p0": _o(1, 1), "a_s0": _o(1, 1),
        "a_m1": _o(2), "a_p1": _o(2, 1), "a_s1": _o(2, 1),
        "a_m2": _o(3), "a_p2": _o(3, 1), "a_s2": _o(3, 1),
        "a_s3": _o(3, 2),
    }
    s0_edges = set()
    spine = ["a_r", "a_m0", "a_p0", "a_m1", "a_p1", "a_m2"]
    for i, x in enumerate(spine):
        for y in spine[i + 1:]:
            s0_edges.add((x, y))
    for tooth, below in (("a_s0", "a_m0"), ("a_s1", "a_m1"),
                         ("a_s2", "a_m2"), ("a_p2", "a_m2"),
                         ("a_s3", "a_p2")):
        anc = {below} | {x for x in spine
                         if (x, below) in s0_edges or x == below}
        for x in anc:
            s0_edges.add((x, tooth))
    f0 = from_standard_tree(s0_levels, s0_edges, index="0", shape=shape)

    s1_levels = {
        "b_r": _o(), "b_q0": _o(1), "b_w0": _o(1, 1), "b_v0": _o(1, 1),
        "b_q1": _o(2), "b_v1": _o(2, 1), "b_w1": _o(2, 1),
        "b_v2": _o(2, 2),
    }
    s1_edges = set()
    spine1 = ["b_r", "b_q0", "b_w0", "b_q1"]
    for i, x in enumerate(spine1):
        for y in spine1[i + 1:]:
            s1_edges.add((x, y))
    for tooth, below in (("b_v0", "b_q0"), ("b_v1", "b_q1"),
                         ("b_w1", "b_q1"), ("b_v2", "b_w1")):
        anc = {below} | {x for x in spine1
                         if (x, below) in s1_edges or x == below}
        for x in anc:
            s1_edges.add((x, tooth))
    f1 = from_standard_tree(s1_levels, s1_edges, index="1", shape=shape)

    s2_levels = {"c_r": _o(), "c_x0": _o(0, 1), "c_x1": _o(0, 1)}
    s2_edges = {("c_r", "c_x0"), ("c_r", "c_x1")}
    f2 = from_standard_tree(s2_levels, s2_edges, index="2", shape=shape)

    gmap = {
        ("0", "1"): {"a_p0": "b_v0", "a_p1": "b_v1", "a_p2": "b_v2"},
        ("1", "2"): {"b_w0": "c_x0", "b_w1": "c_x1"},
    }
    f = merge_fragments(shape, {"0": f0, "1": f1, "2": f2}, gmap)
    return f, ("a_s0", "a_s1", "a_s2", "a_s3")


# ---------------------------------------------------------------------------
# dichotomy fixtures: rich Fan and almost-increasing material


def fan_pair_fixture() -> Fragment:
    """Chain-mode fragment with two sibling fans over limit roots: the
    only indiscernible exhaustive windows are within a single fan."""
    levels = {"t_r": _o()}
    edges = set()
    for side, base in (("a", 1), ("b", 2)):
        top = "t_%s" % side
        levels[top] = _o(base)
        edges.add(("t_r", top))
        for i in range(6):
            leaf = "t_%s%d" % (side, i)
            levels[leaf] = _o(base, 1)
            edges.add(("t_r", leaf))
            edges.add((top, leaf))
    return from_standard_tree(levels, edges, mode="classT")


def comb_and_fan_fixture() -> Fragment:
    """Chain-mode fragment with a fan and an almost-increasing comb:
    exhaustive indiscernible windows classify Fan (within the fan) or
    AlmostIncreasing (comb teeth, spine chains)."""
    levels = {"u_r": _o()}
    edges = set()
    # fan over its own limit
    levels["u_f"] = _o(1)
    edges.add(("u_r", "u_f"))
    for i in range(5):
        leaf = "u_f%d" % i
        levels[leaf] = _o(1, 1)
        edges.add(("u_r", leaf))
        edges.add(("u_f", leaf))
    # comb: spine of limits with one tooth each
    spine = []
    for j in range(4):
        m = "u_m%d" % j
        levels[m] = _o(j + 1)
        for x in ["u_r"] + spine:
            edges.add((x, m))
        spine.append(m)
        tooth = "u_t%d" % j
        levels[tooth] = _o(j + 1, 1)
        for x in ["u_r"] + spine:
            edges.add((x, tooth))
    return from_standard_tree(levels, edges, mode="classT")


# ---------------------------------------------------------------------------
# colored-tree bases


def six_chain_base(d_table=None) -> PTriple:
    """Colored 6-node chain with three successor-of-limit nodes."""
    levels = [_o(1), _o(1, 1), _o(2), _o(2, 1), _o(3), _o(3, 1)]
    c = Coloring(len(levels), 2, {}, 0)
    p = p_from_coloring(c, levels)
    if d_table is not None:
        sl = p.suc_lim()
        d = {}
        for key, v in d_table.items():
            d[tuple(sl[i] for i in key)] = v
        for tup in sub_tuples(sl, 2):
            d.setdefault(tup, 0)
        p = PTriple(p.tree, d, p.e)
    return p


def hard_six() -> PTriple:
    """Six-node chain base that admits no increasing length-3 sequence
    with per-length-constant d."""
    return six_chain_base({(0,): 1})


# ---------------------------------------------------------------------------
# seeded random generators


def random_standard_fragment(rng: random.Random,
                             max_nodes: int = 40) -> Fragment:
    """Random level-labelled tree with levels below w*4."""
    n = rng.randint(5, max_nodes)
    names = ["n%03d" % i for i in range(n)]
    levels = {names[0]: Ordinal()}
    parents: dict[str, str] = {}
    for i in range(1, n):
        p = names[rng.randrange(i)]
        cur = levels[p]
        coeff = cur.terms[0][1] if cur.terms and cur.terms[0][0] == 1 else 0
        roll = rng.random()
        if roll < 0.35 and coeff < 3:
            lvl = Ordinal.omega(1, coeff + 1).plus(rng.randint(0, 2))
        else:
            lvl = cur.plus(rng.randint(1, 3))
        levels[names[i]] = lvl
        parents[names[i]] = p
    edges = set()
    for x in names[1:]:
        a = parents[x]
        while True:
            edges.add((a, x))
            if a not in parents:
                break
            a = parents[a]
    return from_standard_tree(levels, edges)


def random_closed_fragment(rng: random.Random,
                           max_nodes: int = 25) -> Fragment:
    """Completed random fragment with at most max_nodes nodes."""
    while True:
        f = random_standard_fragment(rng, max_nodes=max_nodes // 2)
        out = complete(f)
        if len(out.nodes) <= max_nodes:
            return out


def random_sequence_fixture(rng: random.Random):
    """Completed fragment plus a sorted same-sort sequence of length 8
    for round-trip coloring experiments."""
    while True:
        f = random_closed_fragment(rng, max_nodes=30)
        pool = sorted(n for n in f.nodes if f.sort.get(n) is not None)
        if len(pool) >= 8:
            start = rng.randrange(len(pool) - 7)
            return f, tuple(pool[start:start + 8])


# ---------------------------------------------------------------------------
# instance generators


def replace(f: Fragment, **tables) -> Fragment:
    """Copy of f with the given constructor arguments (tables, shape,
    nodes or mode) in place of f's own."""
    args = dict(shape=f.shape, nodes=f.nodes, sort=f.sort, level=f.level,
                order=f.order, meet=f.meet, suc=f.suc, pre=f.pre, lim=f.lim,
                gmap=f.gmap, constants=f.constants, mode=f.mode)
    args.update(tables)
    return Fragment(**args)


def tables_in_order(f: Fragment):
    """Every table of f, dicts as lists in their insertion order."""
    return (f.shape, f.nodes, f.mode, sorted(f.order),
            sorted(f._below.items()),
            *(list(t.items()) for t in (f.sort, f.level, f.lim, f.pre,
                                        f.suc, f.meet, f.gmap, f.constants)))


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
        parts[idx] = rename(g, idx.replace("r", "q") + "_")[0]
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
    return replace(g, constants={("r", 0): "d0", ("r", 1): "d1",
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
    return replace(h, constants={("0", 0): "d0", ("0", 1): "d1",
                                 ("1", 0): "e0", ("1", 1): "e1"})


def random_unsorted(rng, max_nodes: int = 6) -> Fragment:
    """Fragment over the empty shape: bare points, no structure."""
    n = rng.randint(2, max_nodes)
    return Fragment(EMPTY_SHAPE, tuple("x%d" % i for i in range(n)))


def transfer_instances(rng, counts=(("point", 80), ("tripod", 80),
                                    ("empty", 40))):
    """Criterion 05's one-point extensions: by default 80 point trees, 80
    tripods of at most 40 nodes and 40 bare-point fragments, each
    extended against its renamed copy.  counts gives the kinds and their
    numbers.  Yields (kind, fa, fb, a, b, c, m1)."""
    for kind, count in counts:
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
            f = replace(f, order=f.order | {(x, v)})
            continue
        table = dict(getattr(f, kind))
        key = rng.choice(sorted(table))
        table[key] = key[1] if kind == "suc" else rng.choice(nodes)
        f = replace(f, **{kind: table})
    return f


def _just_below(f: Fragment, v: str) -> str | None:
    """The node just below v, if any: the top of its down-set."""
    return max(f.strictly_below(v), key=lambda c: len(f.strictly_below(c)),
               default=None)


def _just_above(f: Fragment, v: str, top: str) -> str | None:
    """The node just above v on the chain up to top, if any."""
    ups = [z for z in f.strictly_below(top) | {top} if f.lt(v, z)]
    return min(ups, key=lambda c: len(f.strictly_below(c)), default=None)


def near_valid_fragments(rng) -> list[Fragment]:
    """Completed fragments, each with one meet, suc, pre, lim or G entry
    dropped or redirected to a node next to its value, or with the level
    of one leaf raised by one, so that most fail one axiom by one
    witness.  The meets include a self-pair (x, x), a pair x < y, a pair
    y < x and an incomparable pair (x, y) of each fragment, each sent to
    the node just below its value; a suc value moves one step up its
    chain or to a cover of x on another branch, a pre or lim value one
    step down, and a G value to another node of its sort."""
    bases = [complete(random_standard_fragment(rng, 14)) for _ in range(4)]
    bases += [random_tripod(rng) for _ in range(2)]
    out = []
    for f in bases:
        kinds = {"self": [], "up": [], "down": [], "incomparable": []}
        for (x, y), m in sorted(f.meet.items()):
            if _just_below(f, m) is not None:
                kinds["self" if x == y else "up" if f.lt(x, y) else "down"
                      if f.lt(y, x) else "incomparable"].append((x, y))
        for keys in kinds.values():
            if keys:
                key = rng.choice(keys)
                out.append(replace(f, meet={
                    **f.meet, key: _just_below(f, f.meet[key])}))
        (x, y), s = rng.choice(sorted(f.suc.items()))
        step = _just_above(f, s, y) if s != y else _just_below(f, s)
        out.append(replace(f, suc={**f.suc, (x, y): step}))
        covers = {}
        for (x, _), s in f.suc.items():
            covers.setdefault(x, set()).add(s)
        aside = [((x, y), z) for (x, y) in sorted(f.suc)
                 for z in sorted(covers[x]) if not f.leq(z, y)]
        if aside:
            key, z = rng.choice(aside)
            out.append(replace(f, suc={**f.suc, key: z}))
        leaves = [v for v in f.nodes if f.sort.get(v) is not None
                  and not f.level[v].is_limit
                  and not any(f.lt(v, w) for w in f.nodes)]
        v = rng.choice(leaves)
        out.append(replace(f, level={**f.level, v: f.level[v].plus(1)}))
        for kind in ("pre", "lim"):
            table = getattr(f, kind)
            keys = [x for x in sorted(table) if _just_below(f, table[x])]
            if keys:
                x = rng.choice(keys)
                out.append(replace(f, **{kind: {
                    **table, x: _just_below(f, table[x])}}))
        for edge, table in sorted(f.gmap.items()):
            x = rng.choice(sorted(table))
            others = [n for n in f.nodes
                      if f.sort.get(n) == edge[1] and n != table[x]]
            if others:
                out.append(replace(f, gmap={
                    **f.gmap, edge: {**table, x: rng.choice(others)}}))
        tables = ("meet", "suc", "pre", "lim") + (("gmap",) if f.gmap else ())
        kind = rng.choice(tables)
        if kind == "gmap":
            edge = rng.choice(sorted(f.gmap))
            table = dict(f.gmap[edge])
            del table[rng.choice(sorted(table))]
            out.append(replace(f, gmap={**f.gmap, edge: table}))
        else:
            table = dict(getattr(f, kind))
            del table[rng.choice(sorted(table))]
            out.append(replace(f, **{kind: table}))
    return out


def dropped_entry_fragments(rng) -> list[tuple[str, Fragment, Fragment]]:
    """Completed fragments, each as it is ("none") or with one entry
    dropped, tagged by the table it left: "lim", "pre", "meet", "suc"
    for a pair with a finite level gap, "suc-infinite" for one without,
    which leaves the fragment closed, or "G".  Each comes as (tag, the
    completed fragment, the fragment with the entry dropped)."""
    bases = [complete(random_standard_fragment(rng, 14)) for _ in range(4)]
    bases += [random_tripod(rng) for _ in range(2)]
    out = [("none", f, f) for f in bases]
    for f in bases:
        finite = {(x, y) for x, y in f.suc
                  if f.level[x].limb() == f.level[y].limb()}
        keys = {"lim": f.lim.keys(), "pre": f.pre.keys(),
                "meet": f.meet.keys(), "suc": finite,
                "suc-infinite": f.suc.keys() - finite}
        for kind, ks in keys.items():
            if ks:
                name = kind.split("-")[0]
                table = dict(getattr(f, name))
                del table[rng.choice(sorted(ks))]
                out.append((kind, f, replace(f, **{name: table})))
        for edge, table in sorted(f.gmap.items()):
            if table:
                table = dict(table)
                del table[rng.choice(sorted(table))]
                out.append(("G", f,
                            replace(f, gmap={**f.gmap, edge: table})))
    return out


def nested_formula(op, n):
    """An atom under n nested "and" lists, or one whose first term is
    a variable under n nested "pre" lists."""
    if op == "and":
        phi = ["atom", "=", ["var", 0], ["var", 0]]
        for _ in range(n):
            phi = ["and", phi]
        return phi
    t = ["var", 0]
    for _ in range(n):
        t = ["pre", t]
    return ["atom", "=", t, ["var", 0]]
