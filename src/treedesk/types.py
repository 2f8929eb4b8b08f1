"""Rank-k equivalence, canonical type codes and type counting.

Two tuples are rank-k equivalent when there is an isomorphism of the
order/meet/limit/level-map structure (without the successor and
predecessor operations) between the rank-k closures of their generator
sets, carrying generator to generator.  Such a witness, when it
exists, is unique, so each closure admits a canonical ordering; we
compute it by color refinement seeded with the generator positions,
with individualization as a fallback for the rare unbroken ties.
Serializing the induced structure along the canonical ordering gives a
code whose equality is equivalence.

Closures are defined only on closed fragments.  Each public entry point
checks closedness once, at its start, and raises NotClosed on an
unclosed fragment; the private `_tp_code` and `_canon` below it assume
a closed fragment.  So `count_type_classes` checks once per call, not
once per tuple.  A node that is not in the fragment raises UnknownNode,
after the closedness check, and a tuple count over budget raises
BudgetExceeded, before it.

One code builds the closure once and then one index of it (`_Index`):
the closure's down-sets, up-lists, lim, meets, G edges and constants.
Refinement, every individualization branch and the serialized record
all read that index, so no branch rebuilds it.  Each refinement round
reads only an element's own neighbours, computes a signature part only
for elements that still tie on the parts before it, and refinement
stops as soon as every cell is a singleton.

`count_type_classes` codes each tuple relative to the parameter set's
rank-k closure B, which all its tuples share.  A witness between two
tuples' closures carries the parameters to themselves, so it fixes every
member of B: each is the value of a term of successor rank at most k over
the parameters, and the witness preserves every such value.  Meets, lim,
G and the constants are structure it preserves; suc(x, y) is the least
element of the closure in (x, y], and pre(x) the greatest element below
x, so it preserves those too.  Hence the tuples' codes are equal exactly
when their closures C have equal structure relative to B, with B fixed
pointwise.  The count builds the parameter chain B_0, B_1, ...
(`structure._chain`) and each node's neighbourhood in B once per call
(`_Params`).  Each tuple then tracks only what it adds
(`structure._Continuation`): at rank i its closure is B_i + N_i, and
each step pairs, and takes the images of, the members of N_i only, with
each other and with B_i, so no set the size of B is built per tuple.
The last N_i, less B, is N = C - B, and only N is indexed, refined and
listed (`_RelIndex`).  An element's neighbourhood in B is its initial
colour, so refinement reads only its neighbours in N, as in
individualization-refinement with a fixed vertex set.  The count
collects these relative records, not serialized codes.

The type-growth experiment behind `treedesk types vc-degree` counts
1-types over growing parameter sets in one fragment of the chain or
binary family and fits the growth degree with `estimate_degree`.
"""

from __future__ import annotations

import itertools
import math

from .errors import BadArgument, TreedeskError
from .ordinal import Ordinal
from .shape import ShapeTree
from .structure import (Fragment, Term, _chain, _Continuation, _known,
                        _require_closed, complete, distance,
                        from_standard_tree)


class BudgetExceeded(TreedeskError, RuntimeError):
    """Work stopped at a budget: spent is the amount the work asked for
    when it stopped, which exceeds limit."""

    def __init__(self, message: str, spent, limit):
        super().__init__(message)
        self.spent, self.limit = spent, limit


class WrongShape(TreedeskError, TypeError):
    pass


class BadSeries(TreedeskError, ValueError):
    pass


# ---------------------------------------------------------------------------
# canonical ordering of a closure with distinguished generators


def _sort_key(s):
    return ("s", s) if s is not None else ("n",)


def _ranks(colors):
    order = sorted(set(colors.values()))
    idx = {c: i for i, c in enumerate(order)}
    return {x: idx[c] for x, c in colors.items()}


def _structure_record(ix: "_Index", listed):
    """The structure induced on the listed closure, by list position."""
    pos = {x: i for i, x in enumerate(listed)}
    order = tuple(sorted((pos[x], j) for j, y in enumerate(listed)
                         for x in ix.below[y]))
    meet = []
    for i, x in enumerate(listed):
        row = ix.meet[x]
        for j in range(i, len(listed)):
            if (m := row.get(listed[j])) is not None:
                meet.append((i, j, pos[m]))
    lim = tuple(sorted((pos[x], pos[l]) for x, l in ix.lim.items()))
    g = tuple(sorted((edge, pos[x], pos[y]) for edge, x, y in ix.g))
    consts = tuple(sorted((key, pos[v]) for key, v in ix.consts))
    sorts = tuple(ix.sorts[x] for x in listed)
    return (len(listed), sorts, order, tuple(meet), lim, g, consts)


class _Index:
    """The structure a code reads, restricted to one closure and built
    once: the sorted elements with their sorts, strict down-sets and
    up-lists, lim, meets and G edges, and the constants in the closure.
    Refinement, every individualization branch and the record all read
    it.  meet[x] maps each partner y of x to their meet, and mval[m]
    lists the pairs (x, y), x <= y, that meet at m."""

    record = _structure_record

    def __init__(self, f: Fragment, c, meets):
        self.elems = elems = sorted(c)
        self.sorts = {x: _sort_key(f.sort.get(x)) for x in elems}
        self.below = below = {x: f._below[x] & c for x in elems}
        self.above = above = {x: [] for x in elems}
        self.lim = {}
        self.lim_from = lim_from = {x: [] for x in elems}
        self.meet = meet = {x: {} for x in elems}
        self.mval = mval = {x: [] for x in elems}
        self.garg = garg = {x: [] for x in elems}
        self.gval = gval = {x: [] for x in elems}
        self.g = []
        for y in elems:
            for x in below[y]:
                above[x].append(y)
            if (l := f.lim.get(y)) in c:
                self.lim[y] = l
                lim_from[l].append(y)
        for a, b, m in meets:
            meet[a][b] = meet[b][a] = m
            mval[m].append((a, b))
        for e, table in f.gmap.items():
            for x in elems:
                if (y := table.get(x)) in c:
                    garg[x].append((e, y))
                    gval[y].append((e, x))
                    self.g.append((e, x, y))
        self.consts = [(key, v) for key, v in f.constants.items() if v in c]

    def parts(self, ranks):
        """The parts of an element's refinement signature after its
        rank, in order, each a function of the element."""
        rank = ranks.__getitem__
        return (
            lambda x: tuple(sorted(map(rank, self.below[x]))),
            lambda x: tuple(sorted(map(rank, self.above[x]))),
            lambda x: ranks[self.lim[x]] if x in self.lim else -1,
            lambda x: tuple(sorted(map(rank, self.lim_from[x]))),
            lambda x: tuple(sorted([(ranks[y], ranks[m])
                                    for y, m in self.meet[x].items()])),
            lambda x: tuple(sorted([(ranks[a], ranks[b])
                                    for a, b in self.mval[x]])),
            lambda x: tuple(sorted([(e, ranks[y]) for e, y in self.garg[x]])),
            lambda x: tuple(sorted([(e, ranks[a]) for e, a in self.gval[x]])))


def _initial_colors(ix: _Index, gens):
    """Each element's sort, its positions among gens and the keys of the
    constants naming it."""
    at = {x: [] for x in ix.elems}
    for i, g in enumerate(gens):
        at[g].append(i)
    named = {x: [] for x in ix.elems}
    for key, v in ix.consts:
        named[v].append(key)
    return {x: (ix.sorts[x], tuple(at[x]), tuple(sorted(named[x])))
            for x in ix.elems}


def _refine(ix: _Index, colors):
    """1-dimensional refinement over the reduced-language structure of
    the index.  Each round ranks the elements by their signatures: the
    old rank, then the parts of `_Index.parts`, which read an element's
    own neighbours only.  Signatures compare part by part, so a part is
    computed only for the elements that still tie on every part before
    it, and not at all for an element alone in its cell.  Refinement
    stops once every cell is a singleton or a round changes no rank."""
    ranks = _ranks(colors)
    while True:
        cells: dict[int, list[str]] = {}
        for x in ix.elems:
            cells.setdefault(ranks[x], []).append(x)
        if len(cells) == len(ix.elems):
            return ranks
        parts, groups = ix.parts(ranks), []
        for r in sorted(cells):
            _split(cells[r], parts, 0, groups)
        new = {x: i for i, group in enumerate(groups) for x in group}
        if new == ranks:
            return ranks
        ranks = new


def _split(xs, parts, i, groups):
    """Append to groups the elements xs, equal on every signature part
    before parts[i], as classes of equal signature in signature order."""
    if len(xs) == 1 or i == len(parts):
        groups.append(xs)
        return
    by: dict = {}
    for x in xs:
        by.setdefault(parts[i](x), []).append(x)
    for key in sorted(by):
        _split(by[key], parts, i + 1, groups)


def _closure_meets(f: Fragment, c):
    """(x, y, meet) for each pair x <= y of c whose meet is declared and
    lies in c: the meet table restricted to c."""
    meet = f.meet
    elems = sorted(c)
    return [(x, y, m) for i, x in enumerate(elems) for y in elems[i:]
            if (m := meet.get((x, y))) in c]


def _canon_order(ix: _Index, colors):
    ranks = _refine(ix, colors)
    classes: dict[int, list[str]] = {}
    for x in ix.elems:
        classes.setdefault(ranks[x], []).append(x)
    tied = sorted(r for r, xs in classes.items() if len(xs) > 1)
    if not tied:
        return sorted(ix.elems, key=lambda x: ranks[x])
    r = tied[0]
    best = None
    for x in sorted(classes[r]):
        c2 = {y: (ranks[y], 1 if y == x else 0) for y in ix.elems}
        order = _canon_order(ix, c2)
        rec = ix.record(order)
        if best is None or rec < best[0]:
            best = (rec, order)
    return best[1]


def _canon(f: Fragment, abar: tuple[str, ...], a_set: tuple[str, ...],
           k: int):
    """Canonical listing of the rank-k closure of abar + a_set (a_set
    sorted), for a closed f, with its positions and index."""
    gens = abar + a_set
    c = _chain(f, gens, k)[-1]
    ix = _Index(f, c, _closure_meets(f, c))
    listed = _canon_order(ix, _initial_colors(ix, gens))
    pos = {x: i for i, x in enumerate(listed)}
    return listed, pos, ix


def tp_code(f: Fragment, abar, a_set=(), k: int = 0) -> bytes:
    """Canonical code of the rank-k type of the tuple over the set.

    Raises NotClosed unless f is closed, then BadArgument for a negative
    k and UnknownNode for a node of the tuple or the set that is not in
    f."""
    _require_closed(f)
    return _tp_code(f, abar, a_set, k)


def _tp_code(f: Fragment, abar, a_set, k: int) -> bytes:
    """`tp_code` for an f already known to be closed: the tuple's
    length, the list positions of the generators and the structure
    record, serialized by repr, which is injective on these nested
    tuples of ints and strings."""
    abar, a_set = tuple(abar), tuple(sorted(a_set))
    listed, pos, ix = _canon(f, abar, a_set, k)
    return repr((len(abar), tuple(pos[x] for x in abar + a_set),
                 ix.record(listed))).encode()


def equiv_k(fa: Fragment, abar, fb: Fragment, bbar, k: int = 0,
            a_set=(), b_set=()) -> dict[str, str] | None:
    """Witness map between rank-k closures, or None.

    Parameter sets are aligned after sorting; over a shared set within
    one fragment pass the same set twice.  Tuples or sets of different
    lengths, or different shapes, give None before any check; then fa
    and, after it, fb must be closed (NotClosed) and contain their
    nodes (UnknownNode).
    """
    abar, bbar = tuple(abar), tuple(bbar)
    if len(abar) != len(bbar) or len(tuple(a_set)) != len(tuple(b_set)):
        return None
    if fa.shape.indices != fb.shape.indices:
        return None
    a_set, b_set = tuple(sorted(a_set)), tuple(sorted(b_set))
    _require_closed(fa)
    la, pa, ia = _canon(fa, abar, a_set, k)
    _require_closed(fb)
    lb, pb, ib = _canon(fb, bbar, b_set, k)
    if (tuple(pa[x] for x in abar + a_set)
            != tuple(pb[x] for x in bbar + b_set)):
        return None
    if ia.record(la) != ib.record(lb):
        return None
    return {la[i]: lb[i] for i in range(len(la))}


# ---------------------------------------------------------------------------
# type codes relative to the parameter closure


class _Params:
    """What every tuple of one count shares: the continuation `cont`
    (`structure._Continuation`) of the parameter set's rank closures
    (`structure._chain`), its rank-k closure B, a name
    for each member of B (a negative int, so that no name is a position
    in N), and for each node x outside B the part of its neighbourhood
    in B, built once per call:
      side[x]  its sort, and the names of its strict down-set and
               up-set in B, its lim in B (0 if it lies outside), its
               meets (partner, meet) inside B and its G edges into B;
      out[x]   what reaches outside B: its strict down-set there, its
               lim, its meets (partner, meet) with a partner in B,
               and its G edges.
    Raises UnknownNode for a node of a_set that is not in f."""

    def __init__(self, f: Fragment, a_set, k: int):
        self.f = f
        tops = _chain(f, a_set, k)
        self.b = b = tops[-1]
        self.cont = _Continuation(f, tops, k)
        self.name = name = {x: -1 - i for i, x in enumerate(sorted(b))}
        up = {x: [] for x in f.nodes}
        for y in b:
            for x in f._below[y]:
                up[x].append(name[y])
        meet = f.meet
        self.side, self.out = {}, {}
        for x in f.nodes:
            if x in b:
                continue
            l, bb, bn, gb, gn = f.lim.get(x), [], [], [], []
            for y in b:
                if (m := meet.get((x, y) if x <= y else (y, x))) in b:
                    bb.append((name[y], name[m]))
                elif m is not None:
                    bn.append((y, m))
            for e, table in f.gmap.items():
                if (y := table.get(x)) in b:
                    gb.append((e, name[y]))
                elif y is not None:
                    gn.append((e, y))
            self.side[x] = (_sort_key(f.sort.get(x)),
                            tuple(sorted(name[y] for y in f._below[x] & b)),
                            tuple(sorted(up[x])), name.get(l, 0),
                            tuple(sorted(bb)), tuple(sorted(gb)))
            self.out[x] = (f._below[x] - b, l, bn, gn)


class _RelIndex(_Index):
    """The index of a tuple's closure C relative to the parameter
    closure B: its elements are only N = C - B, each with its colour
    (its `_Params.side` part and its positions in abar), and its
    tables keep only the relations with another member in N.  A member
    of B is written by its name, so the signature parts and the record
    read positions in N and names in B alike.  mval[m] lists each pair
    meeting at m in both orientations, so that no part depends on the
    order of node ids."""

    def __init__(self, p: _Params, n_set, abar):
        f, name, b = p.f, p.name, p.b
        self.name = name
        self.elems = elems = sorted(n_set)
        self.below = {}
        self.above = above = {x: [] for x in elems}
        self.lim = {}
        self.lim_from = lim_from = {x: [] for x in elems}
        self.meet = meet = {x: {} for x in elems}
        self.mval = mval = {x: [] for x in elems}
        self.garg = garg = {x: [] for x in elems}
        self.gval = gval = {x: [] for x in elems}
        at = {x: [] for x in elems}
        for i, x in enumerate(abar):
            if x in n_set:
                at[x].append(i)
        self.colors = {x: (p.side[x], tuple(at[x])) for x in elems}
        for i, x in enumerate(elems):
            down, l, bn, gn = p.out[x]
            self.below[x] = down = down & n_set
            for y in down:
                above[y].append(x)
            if l in n_set:
                self.lim[x] = l
                lim_from[l].append(x)
            for y, m in bn:
                if m in n_set:
                    meet[x][y] = m
                    mval[m] += [(x, y), (y, x)]
            for y in elems[i:]:
                if (m := f.meet.get((x, y))) in b or m in n_set:
                    meet[x][y] = meet[y][x] = m
                    if m in n_set:
                        mval[m] += [(x, y), (y, x)] if x != y else [(x, y)]
            for e, y in gn:
                if y in n_set:
                    garg[x].append((e, y))
                    gval[y].append((e, x))

    def parts(self, ranks):
        return super().parts(self.name | ranks)

    def record(self, listed):
        """Each listed element's colour and signature parts, with
        positions in the list for members of N."""
        parts = self.parts({x: i for i, x in enumerate(listed)})
        return tuple((self.colors[x],) + tuple(part(x) for part in parts)
                     for x in listed)


def _relative_record(p: _Params, abar):
    """A record of the rank-k type of abar over the parameter set, for
    comparison within one count: the names or list positions of abar's
    members and the record of N = C - B in canonical order.  Two tuples
    get equal records exactly when their `tp_code`s are equal."""
    ix = _RelIndex(p, p.cont.added(abar), abar)
    listed = _canon_order(ix, ix.colors)
    ref = p.name | {x: i for i, x in enumerate(listed)}
    return tuple(ref[x] for x in abar), ix.record(listed)


def count_type_classes(f: Fragment, a_set, k: int, n: int,
                       budget_tuples: int = 250000) -> int:
    """Number of rank-k type codes over the set among all n-tuples.

    Raises BadArgument for a negative n, then BudgetExceeded when f has
    more than budget_tuples n-tuples, then NotClosed unless f is closed
    (checked once per call, not per tuple), then BadArgument for a
    negative k and UnknownNode for a node of the set that is not in f,
    also when f has no n-tuples; otherwise such an f gives 0.  The
    parameter set's closure chain and each node's neighbourhood in its
    rank-k closure B are built once per call (`_Params`); each tuple
    carries along that chain only the members N it adds to B
    (`structure._Continuation`), and only N is indexed and ranked
    (`_relative_record`)."""
    if n < 0:
        raise BadArgument("tuple length must be non-negative, not %d" % n)
    # with two nodes or more, a length past the budget's bit length is
    # over budget: spent is then the power at the first such length, and
    # the n-th power, which may not finish, is never built
    size, m = len(f.nodes), n
    if size > 1:
        m = min(n, budget_tuples.bit_length() + 1)
    if (total := size ** m) > budget_tuples:
        count = "%d" % total if m == n else "%d^%d" % (size, n)
        raise BudgetExceeded("%s tuples exceed budget %d"
                             % (count, budget_tuples), total, budget_tuples)
    _require_closed(f)
    p = _Params(f, tuple(sorted(a_set)), k)
    return len({_relative_record(p, tup)
                for tup in itertools.product(f.nodes, repeat=n)})


# ---------------------------------------------------------------------------
# single-sort questionnaire


def _dk(f: Fragment, x: str, y: str, k: int) -> int:
    d = distance(f, x, y)
    return int(min(d, 2 * k + 1))


def questionnaire_code(f: Fragment, a: str, a_set, k: int):
    """Structured answer record determining the rank-k type of a single
    node over a set, on single-sort fragments.  Raises WrongShape on
    other fragments, then NotClosed unless f is closed, then UnknownNode
    for a node or a member of the set that is not in f."""
    if len(f.shape) != 1:
        raise WrongShape("questionnaire applies to single-sort fragments")
    _require_closed(f)
    _known(f, (a,))
    b_list = _canon(f, (), tuple(sorted(a_set)), 0)[0]
    return _record(f, a, b_list, k)


def _record(f: Fragment, a: str, b_list: list[str], k: int):
    if f.sort.get(a) is None:
        if a in b_list:
            return ("outside", "named", b_list.index(a))
        return ("outside", "anonymous")
    if a in b_list:
        return ("named", b_list.index(a))
    d_lim = _dk(f, a, f.lim[a], k)
    above = [i for i, b in enumerate(b_list) if f.lt(a, b)]
    below = [i for i in range(len(b_list)) if f.leq(b_list[i], a)]
    if above:
        i = min(above, key=lambda j: sum(
            1 for j2 in above if f.leq(b_list[j2], b_list[j])))
        bi = b_list[i]
        if f.lim[a] == f.lim[bi]:
            sub = (_dk(f, a, bi, k),)
            if below:
                j = max(below, key=lambda j2: sum(
                    1 for j3 in below if f.leq(b_list[j3], b_list[j2])))
                sub += (j, _dk(f, a, b_list[j], k))
            else:
                sub += (None, None)
            return ("bounded", i, "same-limb", sub, d_lim)
        if below:
            j = max(below, key=lambda j2: sum(
                1 for j3 in below if f.leq(b_list[j3], b_list[j2])))
            bj = b_list[j]
            if f.lim[a] == f.lim[bj]:
                return ("bounded", i, "other-limb",
                        (j, "same", _dk(f, a, bj, k)), d_lim)
            return ("bounded", i, "other-limb", (j, "other"), d_lim)
        return ("bounded", i, "other-limb", None, d_lim)
    if not b_list:
        return ("isolated", d_lim)
    meets = [f.meet_of(a, b) for b in b_list]
    meets = [m for m in meets if m is not None]
    if not meets:
        return ("isolated", d_lim)
    ap = max(meets, key=lambda m: sum(1 for m2 in meets if f.leq(m2, m)))
    sub = _record(f, ap, b_list, k)
    if f.lim[a] == f.lim[ap]:
        return ("unbounded", sub, "same-limb", _dk(f, a, ap, k), d_lim)
    return ("unbounded", sub, "other-limb", None, d_lim)


# ---------------------------------------------------------------------------
# symbolic atomic basis


def basis_terms(n: int, k: int, shape: ShapeTree,
                var_sorts: tuple[str, ...] | None = None):
    """The (term, sort) pairs of the rank-k symbolic closure of n sorted
    variables, in the order `atomic_basis` pairs them.  Variables take
    the root sort when no sorts are given."""
    if var_sorts is None:
        if shape.root is None:
            raise WrongShape("empty shape needs explicit variable sorts")
        var_sorts = tuple(shape.root for _ in range(n))
    return sorted(_symbolic_closure(n, k, shape, var_sorts), key=_term_key)


def atomic_basis(n: int, k: int, shape: ShapeTree,
                 var_sorts: tuple[str, ...] | None = None):
    """All atomic formulas (rel, t1, t2) whose terms lie in the rank-k
    symbolic closure of n sorted variables: for each term ti in
    `basis_terms` order and each term tj of its sort from ti on,
    ("=", ti, tj), ("<", ti, tj) and ("<", tj, ti)."""
    out = []
    for (t1, s1), (t2, s2) in itertools.combinations_with_replacement(
            basis_terms(n, k, shape, var_sorts), 2):
        if s1 == s2:
            out.append(("=", t1, t2))
            out.append(("<", t1, t2))
            out.append(("<", t2, t1))
    return out


def _term_key(p):
    """Sort key of a (term, sort) pair.  G terms over sibling edges
    print alike, and each index has one parent, so the sort breaks
    every tie (else set iteration order, hence the hash seed, would)."""
    return (str(p[0]), p[1])


def _symbolic_closure(n, k, shape, var_sorts):
    sigma = {(Term.var(i), var_sorts[i]) for i in range(n)}

    def block(s):
        s = set(s)
        for _ in range(shape.longest_branch()):
            s |= {(Term.wedge(t1, t2), s1)
                  for (t1, s1), (t2, s2) in itertools.combinations(sorted(
                      s, key=_term_key), 2) if s1 == s2}
            s |= {(Term.lim(t), st) for t, st in s}
            s |= {(Term.g(t, e), e[1]) for t, st in s
                  for e in shape.suc_pairs() if e[0] == st}
        return s

    def suc_layer(s):
        extra = {(Term.suc(t1, t2), s1)
                 for (t1, s1), (t2, s2) in itertools.permutations(sorted(
                     s, key=_term_key), 2) if s1 == s2}
        extra |= {(Term.pre(t), st) for t, st in s}
        return s | extra

    s = block(sigma)
    for _ in range(k):
        s = block(suc_layer(s))
    return s


# ---------------------------------------------------------------------------
# degree estimation


def estimate_degree(series) -> int:
    """Integer growth degree of an exact count series [(size, count)...]:
    least d whose degree-d least-squares polynomial reproduces the last
    half of the series to within integer slack (< 0.5 per point), falling
    back to the rounded log-log regression slope when none does."""
    pts = sorted(series)
    if len(pts) < 4:
        raise BadSeries("need at least 4 sample points")
    if any(c <= 0 for _, c in pts):
        raise BadSeries("counts must be positive")
    for (s1, c1), (s2, c2) in zip(pts, pts[1:]):
        if c2 < c1:
            raise BadSeries("series not monotone")
    tail = pts[len(pts) // 2 - 1:]
    if len({s for s, _ in tail}) < 2:
        raise BadSeries("sizes not increasing in the tail")
    xs = [float(s) for s, _ in tail]
    ys = [float(c) for _, c in tail]
    for d in range(len(xs) - 1):
        if _polyfit_max_residual(xs, ys, d) < 0.5:
            return d
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    sxx = sum((a - mx) ** 2 for a in lx)
    sxy = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    return max(0, round(sxy / sxx))


def _polyfit_max_residual(xs, ys, d: int) -> float:
    """Max absolute residual of the degree-d least-squares fit, via the
    normal equations with partial pivoting."""
    n = d + 1
    rows = [[sum(x ** (i + j) for x in xs) for j in range(n)]
            + [sum(y * x ** i for x, y in zip(xs, ys))]
            for i in range(n)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(rows[r][col]))
        rows[col], rows[piv] = rows[piv], rows[col]
        if abs(rows[col][col]) < 1e-12:
            return math.inf
        for r in range(n):
            if r != col:
                fac = rows[r][col] / rows[col][col]
                rows[r] = [a - fac * b for a, b in zip(rows[r], rows[col])]
    coef = [rows[i][n] / rows[i][i] for i in range(n)]
    return max(abs(sum(c * x ** i for i, c in enumerate(coef)) - y)
               for x, y in zip(xs, ys))


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
