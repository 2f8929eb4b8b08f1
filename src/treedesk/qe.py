"""Quantifier elimination at desk scale.

Three pieces: the extension-rank recursion m2, the one-point extension
procedure (given tuples equivalent at rank m2, extend the second
fragment by one matching point so the extended tuples are equivalent
at rank m1), and corpus-based quantifier-free equivalents for
existential formulas.

The one-point extension is a transfer construction: the rank-m1
closure of the source tuple with the new point is mapped into the
target fragment.  One propagation settles every image the target's
tables force: values of lim, pre, suc, meet and the level maps, and
level-map values shared along a chain by the regressive axiom.  The
other nodes are fitted into the target's level geometry at the least
admissible level; one that lands on a level its chain in the target
already holds is that node, unless the identification ends in a
conflict, and then it goes above.  Fresh nodes are minted for the
rest, and the extension is built once, validated, completed and
verified post-hoc by the independent equivalence checker.
"""

from __future__ import annotations

import functools
import itertools

from .errors import BadArgument, TreedeskError
from .ordinal import Ordinal
from .shape import ShapeTree
from .structure import (Fragment, FragmentBuilder, Term, eval_term,
                        is_closed, validate, CannotComplete, SortError,
                        UndefinedTerm, _chain, _complete_valid, _mk)
from .types import BudgetExceeded, _tp_code, equiv_k, tp_code

K_BUDGET = 8
M2_CAP = 10 ** 9


class RankTooLow(TreedeskError, RuntimeError):
    def __init__(self, required: int):
        super().__init__("tuples must be equivalent at rank %d" % required)
        self.required = required


# ---------------------------------------------------------------------------
# the extension-rank recursion


def m2(m1: int, k: int, s: ShapeTree) -> int:
    """Rank needed on the given tuples so that k new points can be
    matched at rank m1 over the given shape.  Raises BudgetExceeded past
    M2_CAP.

    m2 is k steps from m1, and one step maps v to 2v + 1 plus twice
    m2(v, K_BUDGET) over the tallest component above the root: a
    shorter component's steps are the first steps of a taller one's and
    give smaller values, so the value, and the rank that passes the
    cap, depend on the shape only through its height."""
    if m1 < 0 or k < 0:
        raise BadArgument("naturals expected")
    # K_BUDGET steps at height 2 pass M2_CAP from any start, and every
    # step at a greater height starts with them, so all greater heights
    # raise as height 3 does
    return _m2_steps(m1, k, min(s.longest_branch(), 3))


def _m2_steps(v: int, k: int, height: int) -> int:
    """k steps of m2 from v over a shape of the given height, checking
    M2_CAP after each step."""
    if height == 0:
        return v
    for _ in range(k):
        best = 2 * _m2_steps(v, K_BUDGET, height - 1) if height > 1 else 0
        v = best + 2 * v + 1
        if v > M2_CAP:
            raise BudgetExceeded("extension rank %d exceeds cap %d"
                                 % (v, M2_CAP), v, M2_CAP)
    return v


# ---------------------------------------------------------------------------
# one-point extension


def extend_one_point(fa: Fragment, abar, c: str, fb: Fragment, bbar,
                     m1: int, budget_nodes: int = 4000):
    """Extend fb by one point d matching c, so that the tuple c·ā in fa
    and d·b̄ in the extension are equivalent at rank m1.

    Returns (extension, d); the extension restricted to fb's nodes is fb.
    Raises SortError when the fragments have different shapes, RankTooLow
    when ā and b̄ are not equivalent at rank m2(m1, 1, shape) (and, from
    that check, NotClosed unless both fragments are closed),
    BudgetExceeded when fb and the fresh nodes exceed budget_nodes, and
    CannotComplete when no placement of the fresh nodes agrees with fb's
    tables, when the extension fails `validate` or its completion, or
    when the completed extension fails the rank-m1 check.
    """
    abar, bbar = tuple(abar), tuple(bbar)
    if fa.shape.indices != fb.shape.indices:
        raise SortError("fragments must share a shape")
    req = m2(m1, 1, fa.shape)
    w = equiv_k(fa, abar, fb, bbar, req)
    if w is None:
        raise RankTooLow(req)
    # the rank-m1 closure (equiv_k found fa closed), and the rank-(m1-1)
    # one, whose pairs' successors it takes
    tops = _chain(fa, set(abar) | {c}, m1)
    x_set = tops[-1]
    x_prev = tops[min(m1, len(tops)) - 1] if m1 else frozenset()
    settled = _settle(fa, fb, x_set, x_prev,
                      {x: w[x] for x in x_set if x in w}, frozenset())
    if settled is None:
        raise CannotComplete("no placement of the fresh nodes agrees with "
                             "the target's tables")
    image, level = settled
    fresh = _mint_fresh(fa, fb, x_set, image)
    if (nodes := len(fb.nodes) + len(fresh)) > budget_nodes:
        raise BudgetExceeded("extension exceeds node budget", nodes,
                             budget_nodes)
    image.update(fresh)
    ext = _build_extension(fa, fb, x_set, image, fresh, level)
    rep = validate(ext)
    if rep:
        raise CannotComplete("extension invalid: %s" % rep[0])
    done = _complete_valid(ext, budget_nodes)
    d = image[c]
    if equiv_k(fa, (c,) + abar, done, (d,) + bbar, m1) is None:
        raise CannotComplete("transfer verification failed at rank %d" % m1)
    return done, d


def _settle(fa, fb, x_set, x_prev, image, refused):
    """Images in fb for the nodes of x_set, and levels for the rest.

    `image` is closed under the images that fb's tables force; then the
    other nodes get the least levels `_assign_levels` allows.  A node
    whose level its chain in fb already holds is that level's occupant:
    the identification is tried first, and when it ends in a conflict
    the pair is refused, so the node is placed above it.  Returns
    (image, levels), or None when no placement is consistent.
    """
    image = _propagate(fa, fb, x_set, image)
    if image is None:
        return None
    placed = _assign_levels(fa, fb, x_set, image, refused)
    if placed is None:
        return None
    level, hit = placed
    if hit is None:
        # the rank-m1 closure takes no successor outside the images
        kept = set(image.values()) | {None}
        return (image, level) if all(
            fb.suc.get((image[y], image[z])) in kept
            for y in x_prev if y in image
            for z in x_prev if z in image) else None
    return (_settle(fa, fb, x_set, x_prev, {**image, hit[0]: hit[1]},
                    refused)
            or _settle(fa, fb, x_set, x_prev, image, refused | {hit}))


def _propagate(fa, fb, x_set, image):
    """`image` closed under the images forced by fb's tables, or None on
    a conflict (two images for one node, one image for two nodes, or a
    pair whose order the images change).

    A source entry of x_set whose arguments have images forces its value
    to fb's entry on those images.  A successor with no image whose limit
    has one lies on the chain of each image above it, so by the
    regressive axiom it shares its level-map values with fb's successors
    of that limit on the chain.
    """
    image = dict(image)
    owner = {v: x for x, v in image.items()}
    if len(owner) < len(image):
        return None

    def holder(x):
        """The fb node whose level-map values x's image takes."""
        if x in image or not fa.is_successor(x):
            return image.get(x)
        l = image.get(fa.lim[x])
        return min((s for y in x_set if y in image and fa.lt(x, y)
                    for s in fb.strictly_below(image[y]) | {image[y]}
                    if s != l and fb.lim.get(s) == l), default=None)

    def suc_of(x, y):
        return fb.suc.get((x, y))

    # (arguments, value, fb's table, argument images) per source entry
    # inside x_set, table by table in fa's order
    entries = [((x, y), v, fb.meet_of, image.get)
               for (x, y), v in fa.meet.items()
               if v in x_set and x in x_set and y in x_set]
    entries += [((x, y), v, suc_of, image.get)
                for (x, y), v in fa.suc.items()
                if v in x_set and x in x_set and y in x_set]
    for table, look in ((fa.pre, fb.pre.get), (fa.lim, fb.lim.get)):
        entries += [((x,), v, look, image.get) for x, v in table.items()
                    if v in x_set and x in x_set]
    for edge, table in fa.gmap.items():
        look = functools.partial(fb.g_of, edge)
        entries += [((x,), v, look, holder) for x, v in table.items()
                    if v in x_set and x in x_set]

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


def _mint_order(fa, nodes):
    """Nodes in the order fresh ids are minted: by source level text."""
    return sorted(nodes, key=lambda n: (str(fa.level.get(n, Ordinal())), n))


def _mint_fresh(fa, fb, x_set, image):
    """Fresh ids for the nodes of x_set without an image, in minting
    order, skipping ids that fb or the images use."""
    taken = set(fb.nodes) | set(image.values())
    counter = itertools.count()
    fresh = []
    for x in _mint_order(fa, set(x_set) - set(image)):
        while True:
            nid = "_d%03d" % next(counter)
            if nid not in taken:
                break
        fresh.append((x, nid))
    return fresh


def _assign_levels(fa, fb, x_set, image, refused):
    """Fit the nodes without an image into fb's level geometry.

    Limit nodes get the least limit level above everything below them;
    successor nodes keep their offsets from the source and each class
    sharing a limit is shifted by the least amount that keeps it above
    the chain below, or exactly by a predecessor pin next to fb.  No
    node lands on a refused occupant: the least level or shift past
    those is taken.  Returns (levels, hit), where hit is the first node
    in minting order on a level that fb occupies on its chain (the
    sort's bottom at level 0), paired with the occupant; or None when a
    node has no admissible level (below its upper bounds, past its
    refused occupants and agreeing with its predecessor pins).
    """
    level = {x: fb.level[v] for x, v in image.items() if v in fb.level}
    fresh = [x for x in _mint_order(fa, set(x_set) - set(image))
             if fa.sort.get(x) is not None]
    below = {x: [y for y in x_set if fa.lt(y, x)] for x in fresh}
    above = {x: [y for y in x_set if fa.lt(x, y)] for x in fresh}
    bottom = {}
    for u in fb.nodes:
        if fb.sort.get(u) is not None and fb.level[u].is_zero:
            bottom.setdefault(fb.sort[u], u)

    def known(ys):
        return [level[y] for y in ys if y in level]

    def occupant(x, lv):
        if lv.is_zero:
            return bottom.get(fa.sort[x])
        return next((u for y in above[x] if y in image
                     for u in fb.strictly_below(image[y])
                     if fb.level[u] == lv), None)

    def fits(x, lv):
        return all(lv < h for h in known(above[x]))

    for x in fresh:
        if fa.level[x].is_limit:
            lows = known(below[x])
            lv = max(lows).next_limit() if lows else Ordinal()
            while (x, occupant(x, lv)) in refused:
                lv = lv.next_limit()
            if not fits(x, lv):
                return None
            level[x] = lv

    classes: dict[str, list[str]] = {}
    for x in fresh:
        if not fa.level[x].is_limit:
            classes.setdefault(fa.lim[x], []).append(x)
    for anchor, members in classes.items():
        lam = level[anchor]
        offs = {x: fa.level[x].mod_omega() for x in members}
        pins = set()
        for x in members:
            if fa.pre.get(x) in image:
                pins.add(level[fa.pre[x]].mod_omega() + 1 - offs[x])
            pins.update(level[y].mod_omega() - 1 - offs[x] for y in x_set
                        if fa.pre.get(y) == x and y in image)
        t = max([1 - min(offs.values())] + [
            l.mod_omega() + 1 - offs[x] for x in members
            for l in known(below[x]) if l.limb() == lam.limb()])
        if len(pins) > 1 or pins and min(pins) < t:
            return None
        t = min(pins, default=t)
        while any((x, occupant(x, lam.plus(offs[x] + t))) in refused
                  for x in members):
            if pins:
                return None
            t += 1
        for x in members:
            if not fits(x, lam.plus(offs[x] + t)):
                return None
            level[x] = lam.plus(offs[x] + t)

    hit = next(((x, u) for x in fresh
                if (u := occupant(x, level[x])) is not None), None)
    return level, hit


def _build_extension(fa, fb, x_set, im, fresh, level):
    """fb plus the fresh nodes at their levels, where im maps every node
    of x_set to its image or fresh id.  Images keep x_set's order, each
    fresh node is made comparable with fb's nodes on the chains it lies
    on, and x_set's table entries are copied."""
    w = FragmentBuilder(fb)
    old = set(fb.nodes)
    for x, nid in fresh:
        # only an unsorted node has no level
        w.add_node(nid, fa.sort.get(x), level.get(x))
    for x, y in itertools.permutations(sorted(x_set), 2):
        if fa.lt(x, y) and not (im[x] in old and im[y] in old):
            w.relate(im[x], im[y])
    # below any node the order is a chain; levels decide the direction
    for x, nid in fresh:
        if x not in level:
            continue
        mates = set().union(*(fb.strictly_below(z) for z in fb.nodes
                              if w.lt(nid, z)))
        for u in [u for u in mates if not w.comparable(nid, u)]:
            w.relate(*((u, nid) if w.level[u] < w.level[nid]
                       else (nid, u)))
    # fa's entries with arguments and value in x_set, in fa's order
    for (x, y), v in fa.meet.items():
        if v in x_set and x in x_set and y in x_set:
            w.meet.setdefault(_mk(im[x], im[y]), im[v])
    for (x, y), v in fa.suc.items():
        if v in x_set and x in x_set and y in x_set:
            w.suc.setdefault((im[x], im[y]), im[v])
    for table, mine in ((fa.pre, w.pre), (fa.lim, w.lim)):
        for x, v in table.items():
            if v in x_set and x in x_set:
                mine.setdefault(im[x], im[v])
    for edge, table in fa.gmap.items():
        for x, v in table.items():
            if v in x_set and x in x_set:
                w.gmap.setdefault(edge, {}).setdefault(im[x], im[v])
    return w.freeze(fb.shape, fb.mode)


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
    raise BadArgument("unknown connective %r" % tag)


def atom_holds(f: Fragment, rel: str, v1: str, v2: str) -> bool:
    """Truth of the atom rel(v1, v2) on the values of its two terms:
    "=" is equality; "<" needs two nodes of one sort in the order."""
    if rel == "=":
        return v1 == v2
    if rel == "<":
        return (f.sort.get(v1) is not None
                and f.sort.get(v1) == f.sort.get(v2) and f.lt(v1, v2))
    raise BadArgument("unknown relation %r" % rel)


def qe_candidate(phi, nvars: int, corpus, m: int,
                 budget_tuples: int = 200000):
    """Quantifier-free equivalent of  ∃y phi(y, x̄)  relative to a corpus.

    phi's variable 0 is the witness y; variables 1..nvars are x̄.
    Returns the set of rank-m configuration codes of x̄-tuples for which
    a witness exists in the corpus fragment or its completion, coded in
    the completion when it exists.  Use
    `qe_matches` to evaluate the result on a tuple.  Raises BadArgument
    for a negative nvars or an empty corpus.
    """
    if nvars < 0:
        raise BadArgument("nvars must be non-negative, not %d" % nvars)
    corpus = list(corpus)
    if not corpus:
        raise BadArgument("empty corpus")
    configs = set()
    spent = 0
    for f in corpus:
        valid, comp = _completed(f)
        fc = f if valid else None
        coded = f if comp is None else comp
        for xs in itertools.product(f.nodes, repeat=nvars):
            spent += 1
            if spent > budget_tuples:
                raise BudgetExceeded("tuple budget exhausted", spent,
                                     budget_tuples)
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


def _completed(f: Fragment) -> tuple[bool, Fragment | None]:
    """Whether f is valid, and its completion (under `complete`'s node
    budget) when it has one; f is validated once."""
    if validate(f):
        return False, None
    try:
        return True, _complete_valid(f, 2000)
    except CannotComplete:
        return True, None


def qe_matches(configs, f: Fragment, xs, m: int) -> bool:
    """Does the tuple satisfy the corpus-derived quantifier-free
    equivalent?  Codes are taken in the completion when it exists, as
    in `qe_candidate`.  A closed f is its own completion, so it is coded
    as it is, and only an unclosed f is validated and completed."""
    if is_closed(f):
        return _tp_code(f, tuple(xs), (), m) in configs
    comp = _completed(f)[1]
    return tp_code(f if comp is None else comp, tuple(xs), (), m) in configs
