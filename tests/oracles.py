"""Independent oracles the library is cross-validated against.

Deliberately written from the definitions, not from the library code:
a fixpoint term-value closure, a backtracking isomorphism counter, and
small brute-force helpers.  The exceptions are reference copies of
five of the validator's loops and of the whole validator, of the
one-step closure operators, of the canonical ordering of a closure, of
the standard-tree builder, of the closedness check, of the
extension-rank recursion, of the one-point extension's propagation
and table copy, and of the derived colouring's basis scan, kept to
check their faster forms.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter

from treedesk.qe import K_BUDGET, M2_CAP, eval_formula
from treedesk.shape import ShapeTree, decompose
from treedesk.structure import (Fragment, FragmentBuilder, InvalidTree,
                                UndefinedTerm, _mk, _validate_theta,
                                eval_term)
from treedesk.types import BudgetExceeded, atomic_basis, tp_code


def closure_oracle(f, a, k):
    """All values of terms of successor-rank <= k over the generators:
    plain fixpoint iteration, one relation at a time."""
    vals = set(a) | set(f.constants.values())

    def zero_fix(vals):
        vals = set(vals)
        while True:
            new = set()
            for x, y in itertools.product(sorted(vals), repeat=2):
                if (f.sort.get(x) is not None
                        and f.sort.get(x) == f.sort.get(y)):
                    m = f.meet_of(x, y)
                    if m is not None:
                        new.add(m)
            for x in vals:
                if x in f.lim:
                    new.add(f.lim[x])
                for edge in f.shape.suc_pairs():
                    v = f.gmap.get(edge, {}).get(x)
                    if v is not None:
                        new.add(v)
            if new <= vals:
                return vals
            vals |= new

    vals = zero_fix(vals)
    for _ in range(k):
        new = set(vals)
        for x, y in itertools.permutations(sorted(vals), 2):
            v = f.suc.get((x, y))
            if v is not None:
                new.add(v)
        for x in vals:
            if x in f.pre:
                new.add(f.pre[x])
        new = zero_fix(new)
        if new == vals:
            break
        vals = new
    return frozenset(vals)


def closure_step_reference(f, s, variant):
    """The "wedge", "suc", "zero" and "one" closure operators as the
    library defined them before its rounds paired only new members:
    each step pairs the whole set."""
    s = frozenset(s)

    def wedge(s):
        extra = set()
        for x, y in itertools.combinations_with_replacement(sorted(s), 2):
            if f.sort.get(x) is not None and f.sort.get(x) == f.sort.get(y):
                m = f.meet_of(x, y)
                if m is not None:
                    extra.add(m)
        return s | extra

    def suc(s):
        extra = {f.suc[p] for p in itertools.permutations(sorted(s), 2)
                 if p in f.suc}
        return s | extra | {f.pre[x] for x in s if x in f.pre}

    def zero(s):
        s = s | frozenset(f.constants.values())
        for _ in range(f.shape.longest_branch()):
            s = wedge(s)
            s = s | {f.lim[x] for x in s if x in f.lim}
            s = s | {f.gmap.get(e, {})[x] for e in f.shape.suc_pairs()
                     for x in s if x in f.gmap.get(e, {})}
        return s

    return {"wedge": wedge, "suc": suc, "zero": zero,
            "one": lambda s: zero(suc(s))}[variant](s)


def canon_reference(f, c, gens, colors=None):
    """(listing, record) of the closure c with generators gens, by the
    refinement, individualization and record the library used when each
    refinement round and each branch rebuilt its own index of c and
    every element's signature was built in full.  colors, when given,
    replaces the initial colours."""
    elems = sorted(c)
    meets = [(x, y, m) for i, x in enumerate(elems) for y in elems[i:]
             if (m := f.meet.get((x, y))) in c]
    if colors is None:
        colors = {x: (_sort_key(f.sort.get(x)),
                      tuple(i for i, g in enumerate(gens) if g == x),
                      tuple(sorted(k for k, v in f.constants.items()
                                   if v == x)))
                  for x in elems}
    listed = _canon_order_reference(f, elems, meets, colors)
    return listed, _record_reference(f, listed, meets)


def _sort_key(s):
    return ("s", s) if s is not None else ("n",)


def _ranks(colors):
    order = sorted(set(colors.values()))
    idx = {c: i for i, c in enumerate(order)}
    return {x: idx[c] for x, c in colors.items()}


def _refine_reference(f, elems, meets, colors):
    es = set(elems)
    below = {x: f.strictly_below(x) & es for x in elems}
    above = {x: [] for x in elems}
    lim_from = {x: [] for x in elems}
    marg = {x: [] for x in elems}
    mval = {x: [] for x in elems}
    garg = {x: [] for x in elems}
    gval = {x: [] for x in elems}
    for y in elems:
        for x in below[y]:
            above[x].append(y)
        if (l := f.lim.get(y)) in es:
            lim_from[l].append(y)
    for a, b, m in meets:
        marg[a].append((b, m))
        if b != a:
            marg[b].append((a, m))
        mval[m].append((a, b))
    for e, table in f.gmap.items():
        for x in elems:
            if (y := table.get(x)) in es:
                garg[x].append((e, y))
                gval[y].append((e, x))
    ranks = _ranks(colors)
    while True:
        size = Counter(ranks.values())
        if len(size) == len(elems):
            return ranks
        new = {}
        for x in elems:
            if size[ranks[x]] == 1:
                new[x] = (ranks[x],)
                continue
            l = f.lim.get(x)
            new[x] = (
                ranks[x],
                tuple(sorted(ranks[y] for y in below[x])),
                tuple(sorted(ranks[y] for y in above[x])),
                ranks[l] if l in es else -1,
                tuple(sorted(ranks[y] for y in lim_from[x])),
                tuple(sorted((ranks[y], ranks[m]) for y, m in marg[x])),
                tuple(sorted((ranks[a], ranks[b]) for a, b in mval[x])),
                tuple(sorted((e, ranks[y]) for e, y in garg[x])),
                tuple(sorted((e, ranks[a]) for e, a in gval[x])))
        nr = _ranks(new)
        if nr == ranks:
            return ranks
        ranks = nr


def _record_reference(f, listed, meets):
    pos = {x: i for i, x in enumerate(listed)}
    n = len(listed)
    order = tuple(sorted((pos[x], j) for j, y in enumerate(listed)
                         for x in f.strictly_below(y) & pos.keys()))
    meet = tuple(sorted(
        (min(pos[x], pos[y]), max(pos[x], pos[y]), pos[m])
        for x, y, m in meets))
    lim = tuple(sorted(
        (pos[x], pos[l]) for x in listed if (l := f.lim.get(x)) in pos))
    g = tuple(sorted(
        (edge, pos[x], pos[y])
        for edge, table in f.gmap.items()
        for x in listed if (y := table.get(x)) in pos))
    consts = tuple(sorted(
        (key, pos[v]) for key, v in f.constants.items() if v in pos))
    sorts = tuple(_sort_key(f.sort.get(x)) for x in listed)
    return (n, sorts, order, meet, lim, g, consts)


def _canon_order_reference(f, elems, meets, colors):
    ranks = _refine_reference(f, elems, meets, colors)
    classes = {}
    for x in elems:
        classes.setdefault(ranks[x], []).append(x)
    tied = sorted(r for r, xs in classes.items() if len(xs) > 1)
    if not tied:
        return sorted(elems, key=lambda x: ranks[x])
    r = tied[0]
    best = None
    for x in sorted(classes[r]):
        c2 = {y: (ranks[y], 1 if y == x else 0) for y in elems}
        order = _canon_order_reference(f, elems, meets, c2)
        rec = _record_reference(f, order, meets)
        if best is None or rec < best[0]:
            best = (rec, order)
    return best[1]


def _induced(f, elems):
    """Relational facts over a node set, for isomorphism checking."""
    s = set(elems)
    order = {(x, y) for x in s for y in s if f.lt(x, y)}
    meet = {(min(x, y), max(x, y)): m for (x, y), m in f.meet.items()
            if x in s and y in s and m in s}
    lim = {x: v for x, v in f.lim.items() if x in s and v in s}
    g = {(e, x): y for e, t in f.gmap.items()
         for x, y in t.items() if x in s and y in s}
    consts = {key: v for key, v in f.constants.items() if v in s}
    return order, meet, lim, g, consts


def count_isomorphisms(fa, ca, fb, cb, base, cap: int = 2) -> int:
    """Number (capped) of bijections ca -> cb extending `base` that
    preserve sorts, order, meets, lim, the level maps and constants in
    both directions."""
    ca, cb = sorted(ca), sorted(cb)
    if len(ca) != len(cb):
        return 0
    oa = _induced(fa, ca)
    ob = _induced(fb, cb)

    def compatible(m):
        inv = {v: k for k, v in m.items()}
        if len(inv) != len(m):
            return False
        for x, y in m.items():
            if fa.sort.get(x) != fb.sort.get(y):
                return False
        dom = set(m)
        # order both ways
        for x, y in itertools.permutations(dom, 2):
            if ((x, y) in oa[0]) != ((m[x], m[y]) in ob[0]):
                return False
        # meets
        for (x, y), v in oa[1].items():
            if x in dom and y in dom and v in dom:
                if ob[1].get((min(m[x], m[y]), max(m[x], m[y]))) != m[v]:
                    return False
        for (x, y), v in ob[1].items():
            xs = [k for k, w in m.items() if w == x]
            ys = [k for k, w in m.items() if w == y]
            if xs and ys and v in inv:
                if oa[1].get((min(xs[0], ys[0]), max(xs[0], ys[0]))) \
                        != inv[v]:
                    return False
        # lim and g
        for x, v in oa[2].items():
            if x in dom and v in dom and ob[2].get(m[x]) != m[v]:
                return False
        for y, v in ob[2].items():
            if y in inv and v in inv and oa[2].get(inv[y]) != inv[v]:
                return False
        for (e, x), v in oa[3].items():
            if x in dom and v in dom and ob[3].get((e, m[x])) != m[v]:
                return False
        for (e, y), v in ob[3].items():
            if y in inv and v in inv and oa[3].get((e, inv[y])) != inv[v]:
                return False
        for key, v in oa[4].items():
            if v in dom:
                w = ob[4].get(key)
                if w is not None and w != m[v]:
                    return False
        return True

    if not compatible(dict(base)):
        return 0
    rest_a = [x for x in ca if x not in base]
    rest_b = [y for y in cb if y not in set(base.values())]
    if len(rest_a) != len(rest_b):
        return 0
    found = [0]

    def rec(m, i):
        if found[0] >= cap:
            return
        if i == len(rest_a):
            found[0] += 1
            return
        x = rest_a[i]
        for y in rest_b:
            if y in m.values():
                continue
            m2 = dict(m)
            m2[x] = y
            if compatible(m2):
                rec(m2, i + 1)

    rec(dict(base), 0)
    return found[0]


SET_CHECKED = ("order-downset-chain", "meet-not-max", "suc-between",
               "lim-monotone", "regressive")


def set_checked_reports(f):
    """The reports of the SET_CHECKED axioms that `validate` makes, in
    its order, by the pairwise and cubic loops it used before it checked
    them with set operations on the down-sets.  Empty when validate
    stops at the order checks: an unknown node or a cross-sort edge in
    the order, a cycle, or a sorted node without a level."""
    nodes = set(f.nodes)
    if (any(n not in f.level for n in f.sort)
            or any(a not in nodes or b not in nodes or f.sort.get(a) is None
                   or f.sort.get(a) != f.sort.get(b) for a, b in f.order)
            or any(f.lt(n, n) for n in f.nodes)):
        return []
    rep = []
    for y in f.nodes:
        down = sorted(f.strictly_below(y))
        for a, b in itertools.combinations(down, 2):
            if not f.comparable(a, b):
                rep.append("order-downset-chain: %r,%r below %r" % (a, b, y))
    of_sort = {}
    for n in f.nodes:
        of_sort.setdefault(f.sort.get(n), []).append(n)
    for (x, y), m in sorted(f.meet.items()):
        sx = f.sort.get(x)
        if sx is None or f.sort.get(y) != sx or f.sort.get(m) != sx:
            continue
        for z in of_sort.get(sx, ()):
            if f.leq(z, x) and f.leq(z, y) and not f.leq(z, m):
                rep.append("meet-not-max: (%r,%r)->%r misses %r" % (x, y, m, z))
    for (x, y), s in sorted(f.suc.items()):
        sx = f.sort.get(x)
        if sx is None or f.sort.get(y) != sx or f.sort.get(s) != sx:
            continue
        if not (f.lt(x, y) and f.lt(x, s) and f.leq(s, y)):
            continue
        for z in of_sort.get(sx, ()):
            if f.lt(x, z) and f.lt(z, s):
                rep.append("suc-between: %r inside (%r,%r]" % (z, x, s))
    for x, y in itertools.permutations(sorted(f.lim), 2):
        if f.lt(x, y) and not f.leq(f.lim[x], f.lim[y]):
            rep.append("lim-monotone: %r < %r" % (x, y))
    shape_edges = set(f.shape.suc_pairs())
    for edge, table in sorted(f.gmap.items()):
        if edge not in shape_edges:
            continue
        for x, y in itertools.combinations(sorted(table), 2):
            if (f.comparable(x, y) and f.is_successor(x) and f.is_successor(y)
                    and f.lim.get(x) == f.lim.get(y)
                    and table[x] != table[y]):
                rep.append("regressive: G%r differs on %r,%r" % (edge, x, y))
    return rep


def validate_reference(f):
    """`structure.validate` as it was before it decided each axiom with a
    set or size test first: every table walked in sorted order, and the
    witnesses of every entry built."""
    mode = f.mode
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
            if mode == "classT":
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


def from_standard_tree_reference(levels, edges, index="r", shape=None,
                                 mode="base"):
    """`structure.from_standard_tree` as it was before it read its
    tables off level-indexed chains: successors by a search over every
    node for each comparable pair, meets by a nested count."""
    if shape is None:
        shape = ShapeTree((index,), index)
    if index not in shape:
        raise InvalidTree("index %r not in shape" % index)
    nodes = sorted(levels)
    f = Fragment(shape, nodes, {n: index for n in nodes}, dict(levels),
                 {(a, b) for a, b in edges}, mode=mode)
    if any(f.lt(n, n) for n in nodes):
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
    lim, pre, suc, meet = {}, {}, {}, {}
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
    return Fragment(f.shape, f.nodes, f.sort, f.level, f.order, meet, suc,
                    pre, lim, mode=f.mode)


def propagate_reference(fa, fb, x_set, image):
    """`qe._propagate` as it was before it filtered fa's tables while
    reading them: an entry tuple for every entry of every table, then
    the ones inside x_set kept."""
    image = dict(image)
    owner = {v: x for x, v in image.items()}
    if len(owner) < len(image):
        return None

    def holder(x):
        if x in image or not fa.is_successor(x):
            return image.get(x)
        l = image.get(fa.lim[x])
        return min((s for y in x_set if y in image and fa.lt(x, y)
                    for s in fb.strictly_below(image[y]) | {image[y]}
                    if s != l and fb.lim.get(s) == l), default=None)

    def suc_of(x, y):
        return fb.suc.get((x, y))

    entries = [((x, y), v, fb.meet_of, image.get)
               for (x, y), v in fa.meet.items()]
    entries += [((x, y), v, suc_of, image.get)
                for (x, y), v in fa.suc.items()]
    entries += [((x,), v, fb.pre.get, image.get) for x, v in fa.pre.items()]
    entries += [((x,), v, fb.lim.get, image.get) for x, v in fa.lim.items()]
    for edge, table in fa.gmap.items():
        entries += [((x,), v, functools.partial(fb.g_of, edge), holder)
                    for x, v in table.items()]
    entries = [e for e in entries
               if e[1] in x_set and all(x in x_set for x in e[0])]

    changed = True
    while changed:
        changed = False
        for args, v, look, key in entries:
            keys = [key(x) for x in args]
            t = None if None in keys else look(*keys)
            if t is None:
                continue
            if v in image:
                if image[v] != t:
                    return None
            elif t in owner:
                return None
            else:
                image[v] = t
                owner[t] = v
                changed = True
    if any(fa.lt(x, y) != fb.lt(image[x], image[y])
           for x, y in itertools.permutations(image, 2)):
        return None
    return image


def build_extension_reference(fa, fb, x_set, im, fresh, level):
    """`qe._build_extension` as it was before it tested x_set
    membership: every entry of every fa table is tested against the
    image map im."""
    w = FragmentBuilder(fb)
    old = set(fb.nodes)
    for x, nid in fresh:
        if x in level:
            w.add_node(nid, fa.sort[x], level[x])
        else:
            w.add_node(nid)
    for x, y in itertools.permutations(sorted(x_set), 2):
        if fa.lt(x, y) and not (im[x] in old and im[y] in old):
            w.relate(im[x], im[y])
    for x, nid in fresh:
        if x not in level:
            continue
        mates = set().union(*(fb.strictly_below(z) for z in fb.nodes
                              if w.lt(nid, z)))
        for u in [u for u in mates if not w.comparable(nid, u)]:
            w.relate(*((u, nid) if w.level[u] < w.level[nid]
                       else (nid, u)))
    for (x, y), v in fa.meet.items():
        if x in im and y in im and v in im:
            w.meet.setdefault(_mk(im[x], im[y]), im[v])
    for (x, y), v in fa.suc.items():
        if x in im and y in im and v in im:
            w.suc.setdefault((im[x], im[y]), im[v])
    for table, mine in ((fa.pre, w.pre), (fa.lim, w.lim)):
        for x, v in table.items():
            if x in im and v in im:
                mine.setdefault(im[x], im[v])
    for edge, table in fa.gmap.items():
        for x, v in table.items():
            if x in im and v in im:
                w.gmap.setdefault(edge, {}).setdefault(im[x], im[v])
    return w.freeze(fb.shape, fb.mode)


def is_closed_reference(f):
    """`structure.is_closed` as it was before any faster form: every
    ordered same-sort pair is tested for a finite-gap suc."""
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


def _finite_gap(lx, ly):
    return lx.limb() == ly.limb()


def m2_reference(m1, k, s):
    """`qe.m2` as it was before it looped: one recursion per step of k
    and one per component of the shape."""
    if m1 < 0 or k < 0:
        raise ValueError("naturals expected")
    if k == 0 or len(s) == 0:
        return m1
    if k == 1:
        _, comps = decompose(s)
        best = max((2 * m2_reference(m1, K_BUDGET, comp) for comp in comps),
                   default=0)
        v = best + 2 * m1 + 1
    else:
        v = m2_reference(m2_reference(m1, k - 1, s), 1, s)
    if v > M2_CAP:
        raise BudgetExceeded("extension rank %d exceeds cap %d"
                             % (v, M2_CAP), v, M2_CAP)
    return v


def basis_scan(f, basis, left, right):
    """1 plus the index of the first atom of the basis on which the two
    halves differ under `qe.eval_formula`, or 1 plus the basis length;
    and how many atoms before that one read an undefined term, counted
    once per half.  An ill-sorted atom raises eval_formula's SortError,
    on the left half first."""
    undefined = 0
    for i, (rel, t1, t2) in enumerate(basis):
        phi = ("atom", rel, t1, t2)
        if eval_formula(f, phi, left) != eval_formula(f, phi, right):
            return 1 + i, undefined
        for half in (left, right):
            try:
                eval_term(f, t1, half), eval_term(f, t2, half)
            except UndefinedTerm:
                undefined += 1
    return 1 + len(basis), undefined


def coloring_reference(f, seq, k, arity):
    """The table of `partition.coloring_from_sequence(f, seq, k, arity)`
    as it was before rows: each index tuple of even length 2m whose
    halves have distinct `tp_code`s is scanned by `basis_scan` over the
    whole `atomic_basis` of m variables, built on the sorts of the
    first left half that needs it."""
    seq = list(seq)
    table = {}
    bases = {}
    for m in range(1, arity // 2 + 1):
        for idxs in itertools.combinations(range(len(seq)), 2 * m):
            left = tuple(seq[i] for i in idxs[:m])
            right = tuple(seq[i] for i in idxs[m:])
            if tp_code(f, left, (), k) == tp_code(f, right, (), k):
                continue
            if m not in bases:
                sorts = tuple(f.sort[x] for x in left)
                bases[m] = atomic_basis(m, k, f.shape, sorts)
            table[idxs] = basis_scan(f, bases[m], left, right)[0]
    return table
