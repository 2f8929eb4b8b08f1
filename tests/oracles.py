"""Independent oracles the library is cross-validated against.

Deliberately written from the definitions, not from the library code:
a fixpoint term-value closure, a backtracking isomorphism counter, and
small brute-force helpers.  The exceptions are reference copies of
five of the validator's loops and of the one-step closure operators,
kept to check their faster forms.
"""

from __future__ import annotations

import itertools


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
