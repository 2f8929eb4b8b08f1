"""Shipped fixtures and seeded random generators.

Deterministic builders used by the test suite and the demos: a
three-sort step-map fixture, exhaustive-window dichotomy fixtures,
small colored-tree bases, seeded random standard-tree fragments, and
the chain and binary families of the type-growth experiment.
"""

from __future__ import annotations

import itertools
import random

from .ordinal import Ordinal
from .shape import ShapeTree, chain_shape
from .structure import (Fragment, FragmentBuilder, complete,
                        from_standard_tree)
from .partition import Coloring, PTriple, p_from_coloring, sub_tuples
from .types import count_type_classes, estimate_degree


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
    # make the fan limit incomparable with the comb spine
    edges.discard(("u_f", "u_m0"))
    return from_standard_tree(levels, edges, mode="classT")


# ---------------------------------------------------------------------------
# colored-tree bases


def six_chain_base(d_table=None, colors: int = 2) -> PTriple:
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


def random_standard_fragment(rng: random.Random, max_nodes: int = 40,
                             max_limb: int = 3) -> Fragment:
    """Random level-labelled tree with levels below w*(max_limb+1)."""
    n = rng.randint(5, max_nodes)
    names = ["n%03d" % i for i in range(n)]
    levels = {names[0]: Ordinal()}
    parents: dict[str, str] = {}
    for i in range(1, n):
        p = names[rng.randrange(i)]
        cur = levels[p]
        coeff = cur.terms[0][1] if cur.terms and cur.terms[0][0] == 1 else 0
        roll = rng.random()
        if roll < 0.35 and coeff < max_limb:
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
# type-growth families


def family_fragment(family: str, size: int) -> Fragment:
    """Completed fragment of the given size from a type-growth family:
    "chain" (one branch, four nodes at the levels w*q..w*q+3 for each q)
    or "binary" (complete binary branching)."""
    if family == "chain":
        names = ["n%03d" % i for i in range(size)]
        levels = {}
        for i, n in enumerate(names):
            levels[n] = Ordinal.omega(1, i // 4).plus(i % 4) \
                if i >= 4 else Ordinal.nat(i)
        edges = set(itertools.combinations(names, 2))
        return complete(from_standard_tree(levels, edges))
    levels = {"b": Ordinal()}
    edges = set()
    frontier = ["b"]
    while len(levels) < size:
        nxt = []
        for p in frontier:
            for bit in "01":
                c = p + bit
                if len(levels) >= size:
                    break
                levels[c] = Ordinal.nat(len(p))
                nxt.append(c)
        for c in nxt:
            for anc in range(1, len(c)):
                edges.add((c[:anc], c))
        frontier = nxt
    return complete(from_standard_tree(levels, edges))


def vc_degree_experiment(family: str, ks, budget_tuples: int = 250000):
    """Exact 1-variable type counts over growing parameter sets inside
    one large fragment of the family, with the fitted growth degree per
    rank."""
    rows = []
    degrees = {}
    f = family_fragment(family, 64)
    base = family_parameter_pool(f, family)
    for k in ks:
        series = []
        for m in range(1, 9):
            a_set = base[:m]
            cnt = count_type_classes(f, a_set, k, 1, budget_tuples)
            rows.append((m, k, 1, cnt))
            series.append((m, cnt))
        degrees[k] = estimate_degree(series)
    return rows, degrees


def family_parameter_pool(f: Fragment, family: str):
    """Parameter nodes in nested bit-reversal order, so every prefix of
    the pool is an evenly spread subset of the family's leaves/chain."""
    if family == "chain":
        pool = sorted(n for n in f.nodes if n.startswith("n"))
    else:
        named = [n for n in f.nodes
                 if n.startswith("b") and f.sort.get(n) is not None]
        pool = sorted(n for n in named
                      if not any(c != n and c.startswith(n) for c in named))
    bits = max(1, (len(pool) - 1).bit_length())
    order = sorted(range(len(pool)),
                   key=lambda i: int(format(i, "0%db" % bits)[::-1], 2))
    return [pool[i] for i in order]
