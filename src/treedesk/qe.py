"""Quantifier elimination at desk scale.

Three pieces: the extension-rank recursion m2, the one-point extension
procedure (given tuples equivalent at rank m2, extend the second
fragment by one matching point so the extended tuples are equivalent
at rank m1), and corpus-based quantifier-free equivalents for
existential formulas.

The one-point extension is a transfer construction: the rank-m1
closure of the source tuple with the new point is mapped into the
target fragment, reusing target structure wherever the declared tables
force it and minting fresh nodes for the genuinely new part.  Levels
for fresh nodes are fitted into the target's level geometry, choosing
the minimal admissible distance from the lower endpoint.  The result
is verified post-hoc by the independent equivalence checker.
"""

from __future__ import annotations

import itertools

from .ordinal import Ordinal
from .shape import ShapeTree, decompose
from .structure import (Fragment, FragmentBuilder, Term, closure, complete,
                        eval_term, validate, CannotComplete, SortError,
                        UndefinedTerm, _complete_valid, _mk)
from .types import BudgetExceeded, equiv_k, tp_code

K_BUDGET = 8


class RankTooLow(RuntimeError):
    def __init__(self, required: int):
        super().__init__("tuples must be equivalent at rank %d" % required)
        self.required = required


# ---------------------------------------------------------------------------
# the extension-rank recursion


def m2(m1: int, k: int, s: ShapeTree, cap: int = 10 ** 9) -> int:
    """Rank needed on the given tuples so that k new points can be
    matched at rank m1 over the given shape."""
    if m1 < 0 or k < 0:
        raise ValueError("naturals expected")
    if k == 0 or len(s) == 0:
        return m1
    if k == 1:
        _, comps = decompose(s)
        best = max((2 * m2(m1, K_BUDGET, comp, cap) for comp in comps),
                   default=0)
        v = best + 2 * m1 + 1
    else:
        v = m2(m2(m1, k - 1, s, cap), 1, s, cap)
    if v > cap:
        raise BudgetExceeded("extension rank %d exceeds cap %d" % (v, cap))
    return v


# ---------------------------------------------------------------------------
# one-point extension


def extend_one_point(fa: Fragment, abar, c: str, fb: Fragment, bbar,
                     m1: int, budget_nodes: int = 4000):
    """Extend fb by one point d matching c, so that the tuple c·ā in fa
    and d·b̄ in the extension are equivalent at rank m1.

    Requires ā and b̄ equivalent at rank m2(m1,1,shape).  Returns
    (extension, d); the extension restricted to fb's nodes is fb.
    """
    abar, bbar = tuple(abar), tuple(bbar)
    if fa.shape.indices != fb.shape.indices:
        raise SortError("fragments must share a shape")
    req = m2(m1, 1, fa.shape)
    w = equiv_k(fa, abar, fb, bbar, req)
    if w is None:
        raise RankTooLow(req)
    x_set = closure(fa, set(abar) | {c}, m1)
    # Two nested searches.  Inner: a fresh copy that lands below an
    # existing node at an occupied level must coincide with the occupant
    # (below any node the order is a chain); such forced identifications
    # are pinned and the build retried until the mapping stabilizes.
    # Outer: the level shift of each fresh chain is a free choice, and
    # the minimal shift can force the *wrong* identification (a chain
    # aligned too low coincides with the wrong occupants), so shifts are
    # tried smallest-first until the transfer verifies.
    last_err: Exception | None = None
    for bias in range(len(fb.nodes) + 2):
        pins: dict[str, str] = {}
        ext = None
        for _ in range(len(x_set) + 1):
            mapping = {x: w[x] for x in x_set if x in w}
            mapping.update(pins)
            try:
                mapping = _derive_images(fa, fb, x_set, mapping)
                fresh_ids = _mint_fresh(fa, fb, x_set, mapping)
                ext = _build_extension(fa, fb, x_set, mapping, fresh_ids,
                                       budget_nodes, bias)
                break
            except _ForcedReuse as pin:
                pins[pin.source] = pin.target
            except CannotComplete as err:
                last_err = err
                break
        else:
            last_err = CannotComplete(
                "forced identifications did not stabilize")
        if ext is None:
            continue
        d = mapping[c]
        rep = validate(ext)
        if rep:
            last_err = CannotComplete("extension invalid: %s" % rep[0])
            continue
        try:
            done = _complete_valid(ext, budget_nodes)
        except CannotComplete as err:
            last_err = err
            continue
        if equiv_k(fa, (c,) + abar, done, (d,) + bbar, m1) is not None:
            return done, d
        last_err = CannotComplete(
            "transfer verification failed at rank %d" % m1)
    raise last_err or CannotComplete("no admissible placement found")


class _ForcedReuse(Exception):
    def __init__(self, source: str, target: str):
        super().__init__(source, target)
        self.source = source
        self.target = target


def _derive_images(fa, fb, x_set, mapping):
    """Images forced by fb's declared tables, propagated to fixpoint."""
    derived = dict(mapping)
    used = set(derived.values())

    def put(x, v):
        if x in derived:
            if derived[x] != v:
                raise CannotComplete("conflicting forced images for %r" % x)
            return False
        if v in used:
            raise CannotComplete("forced image %r already taken" % v)
        derived[x] = v
        used.add(v)
        return True

    changed = True
    while changed:
        changed = False
        for x in sorted(x_set):
            if x in derived:
                continue
            for y in sorted(x_set):
                if fa.lim.get(y) == x and y in derived:
                    v = fb.lim.get(derived[y])
                    if v is not None:
                        changed |= put(x, v)
                        break
                if fa.pre.get(y) == x and y in derived:
                    v = fb.pre.get(derived[y])
                    if v is not None:
                        changed |= put(x, v)
                        break
            if x in derived:
                continue
            for (u, v2), val in fa.suc.items():
                if val == x and u in derived and v2 in derived:
                    tv = fb.suc.get((derived[u], derived[v2]))
                    if tv is not None:
                        changed |= put(x, tv)
                        break
            if x in derived:
                continue
            for (u, v2), val in fa.meet.items():
                if val == x and u in derived and v2 in derived:
                    tv = fb.meet_of(derived[u], derived[v2])
                    if tv is not None:
                        changed |= put(x, tv)
                        break
            if x in derived:
                continue
            for edge, table in fa.gmap.items():
                for u, val in table.items():
                    if val == x and u in derived:
                        tv = fb.g_of(edge, derived[u])
                        if tv is not None:
                            changed |= put(x, tv)
                            break
                if x in derived:
                    break
    return derived


def _mint_fresh(fa, fb, x_set, mapping):
    taken = set(fb.nodes) | set(mapping.values())
    counter = itertools.count()
    fresh = []
    for x in sorted(x_set, key=lambda n: (str(fa.level.get(n, Ordinal())), n)):
        if x in mapping:
            continue
        while True:
            nid = "_d%03d" % next(counter)
            if nid not in taken:
                break
        taken.add(nid)
        mapping[x] = nid
        fresh.append((x, nid))
    return fresh


def _build_extension(fa, fb, x_set, mapping, fresh_ids, budget_nodes,
                     bias: int = 0):
    if len(fb.nodes) + len(fresh_ids) > budget_nodes:
        raise BudgetExceeded("extension exceeds node budget")
    b = FragmentBuilder(fb)
    nodes, sort, level, order = b.nodes, b.sort, b.level, b.order
    nodes.update(nid for _, nid in fresh_ids)
    for x, nid in fresh_ids:
        if fa.sort.get(x) is not None:
            sort[nid] = fa.sort[x]

    # order among images
    for x, y in itertools.permutations(sorted(x_set), 2):
        if fa.lt(x, y):
            ix, iy = mapping[x], mapping[y]
            if ix in fb.nodes and iy in fb.nodes:
                if not fb.lt(ix, iy):
                    raise CannotComplete("order not preserved on %r,%r"
                                         % (x, y))
            else:
                order.add((ix, iy))

    _assign_levels(fa, fb, x_set, mapping, fresh_ids, level, order, bias)

    # make forced chains total: fresh node x and target node u both below
    # a common upper node must be comparable; levels decide the direction
    back = {nid: x for x, nid in fresh_ids}
    # meets are total per sort, so levels strictly increase above a
    # single bottom: a fresh level-0 node must be the sort's bottom
    zero_of = {}
    for u in fb.nodes:
        if fb.sort.get(u) is not None and not fb.level[u].terms:
            zero_of.setdefault(fb.sort[u], u)
    for _, nid in fresh_ids:
        if sort.get(nid) is None or level[nid].terms:
            continue
        u = zero_of.get(sort[nid])
        if u is not None:
            raise _ForcedReuse(back[nid], u)

    probe = Fragment(fb.shape, nodes, sort, level, order, mode=fb.mode)
    for _, nid in fresh_ids:
        if sort.get(nid) is None:
            continue
        uppers = {z for z in nodes if probe.lt(nid, z)}
        mates = set()
        for z in uppers:
            mates |= {u for u in fb.nodes if fb.lt(u, z)}
        for u in mates:
            if u == nid or probe.comparable(nid, u):
                continue
            if level[u] == level[nid]:
                raise _ForcedReuse(back[nid], u)
            if level[u] < level[nid]:
                order.add((u, nid))
            else:
                order.add((nid, u))
        probe = Fragment(fb.shape, nodes, sort, level, order, mode=fb.mode)

    def copy_entry(table, key, value, label):
        if key in table:
            if table[key] != value:
                raise CannotComplete("%s table conflict at %r" % (label, key))
        else:
            table[key] = value

    im = mapping
    for (x, y), v in fa.meet.items():
        if x in im and y in im and v in im:
            copy_entry(b.meet, _mk(im[x], im[y]), im[v], "meet")
    for (x, y), v in fa.suc.items():
        if x in im and y in im and v in im:
            copy_entry(b.suc, (im[x], im[y]), im[v], "suc")
    for x, v in fa.pre.items():
        if x in im and v in im:
            copy_entry(b.pre, im[x], im[v], "pre")
    for x, v in fa.lim.items():
        if x in im and v in im:
            copy_entry(b.lim, im[x], im[v], "lim")
    for edge, table in fa.gmap.items():
        for x, v in table.items():
            if x in im and v in im:
                copy_entry(b.gmap.setdefault(edge, {}), im[x], im[v], "gmap")

    return b.freeze(fb.shape, fb.mode)


def _assign_levels(fa, fb, x_set, mapping, fresh_ids, level, order,
                   bias: int = 0):
    """Fit fresh nodes into the target's level geometry.

    Limit nodes get the least limit level above everything below them;
    successor-class nodes keep their relative offsets from the source
    and the whole class is shifted by the least admissible amount plus
    the caller's bias, with exact pins from predecessor/successor
    entries adjacent to existing target nodes.
    """
    im = mapping
    below_of = {}
    above_of = {}
    for x, nid in fresh_ids:
        below_of[nid] = {im[y] for y in x_set if fa.lt(y, x)}
        above_of[nid] = {im[y] for y in x_set if fa.lt(x, y)}

    def known_levels(ids):
        return [level[i] for i in ids if i in level]

    # limit nodes first, in increasing source level order
    for x, nid in fresh_ids:
        if fa.sort.get(x) is None or not fa.level[x].is_limit:
            continue
        lows = known_levels(below_of[nid])
        cand = max(lows).next_limit() if lows else Ordinal()
        while any(l == cand for l in known_levels(
                below_of[nid] | above_of[nid])):
            cand = cand.next_limit()
        highs = known_levels(above_of[nid])
        if highs and not all(cand < h for h in highs):
            raise CannotComplete("no limit level fits fresh node %r" % nid)
        level[nid] = cand

    # successor-class nodes, grouped by the image of their limit anchor
    groups: dict[str, list[tuple[str, str]]] = {}
    for x, nid in fresh_ids:
        if fa.sort.get(x) is None or fa.level[x].is_limit:
            continue
        anchor = fa.lim.get(x)
        if anchor is None or anchor not in im:
            raise CannotComplete("fresh successor %r has no limit anchor" % x)
        groups.setdefault(im[anchor], []).append((x, nid))

    for anchor_id, members in sorted(groups.items()):
        lam = level.get(anchor_id)
        if lam is None:
            raise CannotComplete("anchor %r has no level" % anchor_id)
        offs = {nid: fa.level[x].mod_omega() for x, nid in members}
        pins = []
        for x, nid in members:
            p = fa.pre.get(x)
            if p is not None and p in im and im[p] in fb.nodes:
                pins.append(level[im[p]].mod_omega() + 1 - offs[nid])
            for y in x_set:
                if fa.pre.get(y) == x and y in im and im[y] in fb.nodes:
                    pins.append(level[im[y]].mod_omega() - 1 - offs[nid])
        lo = None
        for x, nid in members:
            for l in known_levels(below_of[nid]):
                if l.limb() == lam.limb():
                    need = l.mod_omega() + 1 - offs[nid]
                    lo = need if lo is None else max(lo, need)
        t_min = 1 - min(offs.values())
        lo = max(lo, t_min) if lo is not None else t_min
        if pins:
            if len(set(pins)) > 1:
                raise CannotComplete("conflicting level pins near %r"
                                     % anchor_id)
            t = pins[0]
            if t < lo:
                raise CannotComplete("pinned level below occupied chain")
        else:
            t = lo + bias
        for x, nid in members:
            lv = lam.plus(offs[nid] + t)
            for h in known_levels(above_of[nid]):
                if not lv < h:
                    raise CannotComplete("fresh node %r does not fit below "
                                         "its upper bounds" % nid)
            level[nid] = lv


# ---------------------------------------------------------------------------
# quantifier-free formulas and corpus-based equivalents


def eval_formula(f: Fragment, phi, assignment) -> bool:
    """phi: ("atom", rel, t1, t2) | ("not", p) | ("and"/"or", p, q, ...).

    Atoms with undefined terms evaluate to false.
    """
    tag = phi[0]
    if tag == "atom":
        _, rel, t1, t2 = phi
        try:
            v1 = eval_term(f, t1, assignment)
            v2 = eval_term(f, t2, assignment)
        except UndefinedTerm:
            return False
        return atom_holds(f, rel, v1, v2)
    if tag == "not":
        return not eval_formula(f, phi[1], assignment)
    if tag == "and":
        return all(eval_formula(f, p, assignment) for p in phi[1:])
    if tag == "or":
        return any(eval_formula(f, p, assignment) for p in phi[1:])
    raise ValueError("unknown connective %r" % tag)


def atom_holds(f: Fragment, rel: str, v1: str, v2: str) -> bool:
    """Truth of the atom rel(v1, v2) on the values of its two terms:
    "=" is equality; "<" needs two nodes of one sort in the order."""
    if rel == "=":
        return v1 == v2
    if rel == "<":
        return (f.sort.get(v1) is not None
                and f.sort.get(v1) == f.sort.get(v2) and f.lt(v1, v2))
    raise ValueError("unknown relation %r" % rel)


def qe_candidate(phi, nvars: int, corpus, m: int,
                 budget_tuples: int = 200000):
    """Quantifier-free equivalent of  ∃y phi(y, x̄)  relative to a corpus.

    phi's variable 0 is the witness y; variables 1..nvars are x̄.
    Returns the set of rank-m configuration codes of x̄-tuples for which
    a witness exists in the corpus fragment or its completion, coded in
    the completion when it exists.  Use
    `qe_matches` to evaluate the result on a tuple.
    """
    corpus = list(corpus)
    if not corpus:
        raise ValueError("empty corpus")
    configs = set()
    spent = 0
    for f in corpus:
        fc = f if not validate(f) else None
        comp = _completed(f)
        coded = f if comp is None else comp
        for xs in itertools.product(f.nodes, repeat=nvars):
            spent += 1
            if spent > budget_tuples:
                raise BudgetExceeded("tuple budget exhausted")
            found = False
            for host in (fc, comp):
                if host is None:
                    continue
                for y in host.nodes:
                    if eval_formula(host, phi, (y,) + xs):
                        found = True
                        break
                if found:
                    break
            if found:
                configs.add(tp_code(coded, xs, (), m))
    return configs


def _completed(f: Fragment) -> Fragment | None:
    try:
        return complete(f)
    except CannotComplete:
        return None


def qe_matches(configs, f: Fragment, xs, m: int) -> bool:
    """Does the tuple satisfy the corpus-derived quantifier-free
    equivalent?  Codes are taken in the completion when it exists, as
    in `qe_candidate`."""
    comp = _completed(f)
    return tp_code(f if comp is None else comp, tuple(xs), (), m) in configs
