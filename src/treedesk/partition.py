"""Partition-calculus machinery at desk scale.

Four layers: tuple colorings with exhaustive homogeneous-subsequence
search; the reduction producing a coloring from a fragment sequence
(homogeneity then certifies indiscernibility); triples (d, tree, E) of
a colored standard tree with a neighbor-refining equivalence, together
with the hardness search; and the operator that builds, from such a
triple, the tree of guess-sequences (Gamma, eta) with its derived
coloring and equivalence.

Colors are naturals throughout.  Base colorings may bound their
colors; derived colorings exceed the bound through the Cantor pairing.
Guess sequences have finite length, so position 0 is the only limit
position below it, and a sequence holds one Gamma: a d-type there.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import BadArgument
from .ordinal import Ordinal
from .qe import atom_holds
from .structure import (Fragment, SortError, UndefinedTerm, _known,
                        _require_closed, from_standard_tree, term_step,
                        validate)
from .types import BudgetExceeded, _tp_code, basis_terms


# ---------------------------------------------------------------------------
# Cantor pairing


def pair(a: int, b: int) -> int:
    if a < 0 or b < 0:
        raise BadArgument("naturals expected")
    s = a + b
    return s * (s + 1) // 2 + b


def unpair(x: int) -> tuple[int, int]:
    if x < 0:
        raise BadArgument("natural expected")
    w = (math.isqrt(8 * x + 1) - 1) // 2
    b = x - w * (w + 1) // 2
    return (w - b, b)


def pi1(x: int) -> int:
    return unpair(x)[0]


def pi2(x: int) -> int:
    return unpair(x)[1]


# ---------------------------------------------------------------------------
# colorings and homogeneous subsequences


@dataclass
class Coloring:
    """Coloring of strictly increasing tuples from [n]."""
    n: int
    arity: int
    table: dict[tuple[int, ...], int] = field(default_factory=dict)
    default: int = 0

    def __post_init__(self):
        for key in self.table:
            self.check_key(key)

    def check_key(self, key: tuple) -> None:
        """BadArgument unless key is a strictly increasing tuple from [n]
        no longer than the arity bound."""
        if len(key) > self.arity:
            raise BadArgument("tuple %r longer than arity bound" % (key,))
        if any(not (0 <= i < self.n) for i in key):
            raise BadArgument("tuple %r outside ground set" % (key,))
        if any(key[i] >= key[i + 1] for i in range(len(key) - 1)):
            raise BadArgument("tuple %r not strictly increasing" % (key,))

    def color(self, key) -> int:
        """The key's color; BadArgument unless the key passes
        `check_key` (table keys passed it when the coloring was made)."""
        key = tuple(key)
        c = self.table.get(key)
        if c is None:
            self.check_key(key)
            return self.default
        return c


def sub_tuples(items, max_len: int):
    """Increasing sub-tuples of items of lengths 1..max_len, shortest
    first, each length in lexicographic order."""
    items = tuple(items)
    for m in range(1, min(max_len, len(items)) + 1):
        yield from itertools.combinations(items, m)


def length_colors(tuples, color):
    """{length: color} when every tuple of each length gets one color,
    else None.  Calls color once per tuple, in the given order, and
    stops at the first mismatch; a None color fails the check.

    This is the predicate shared by homogeneity (colors are coloring
    values) and indiscernibility (colors are type codes)."""
    per_len = {}
    for key in tuples:
        col = color(key)
        if col is None or per_len.setdefault(len(key), col) != col:
            return None
    return per_len


def budgeted(fn, budget: int, what: str):
    """fn of one argument, raising BudgetExceeded(what) instead of
    making call number budget + 1."""
    spent = 0

    def counted(arg):
        nonlocal spent
        spent += 1
        if spent > budget:
            raise BudgetExceeded(what, spent, budget)
        return fn(arg)
    return counted


def _increasing_tuples(n: int, r: int):
    """The increasing r-tuples from range(n) in lexicographic order, as
    itertools.combinations(range(n), r) gives them, without building
    range(n): the last entry runs over a range, and the entries before
    it step as in the itertools recipe."""
    if r == 0:
        yield ()
        return
    if r > n:
        return
    idx = list(range(r))
    while True:
        head = tuple(idx[:-1])
        for j in range(idx[-1], n):
            yield head + (j,)
        # step the rightmost entry of the head below its largest value
        for i in reversed(range(r - 1)):
            if idx[i] != i + n - r:
                break
        else:
            return
        idx[i] += 1
        for j in range(i + 1, r):
            idx[j] = idx[j - 1] + 1


def find_homogeneous(c: Coloring, delta: int, budget: int = 10 ** 7):
    """Lexicographically least subsequence of [n] of length delta on
    whose increasing tuples the color depends only on tuple length, as
    (indices, {length: color}), or None.  Raises BadArgument for a delta
    outside 0..n or an arity bound below 2."""
    if delta < 0:
        raise BadArgument("delta must be non-negative, not %d" % delta)
    if delta > c.n:
        raise BadArgument("delta exceeds the ground size")
    if c.arity < 2:
        raise BadArgument("arity bound must be at least 2")
    color = budgeted(c.color, budget, "homogeneity search budget")
    for idxs in _increasing_tuples(c.n, delta):
        per_len = length_colors(sub_tuples(idxs, c.arity), color)
        if per_len is not None:
            return idxs, per_len
    return None


def coloring_from_sequence(f: Fragment, seq, k: int,
                           arity: int | None = None) -> Coloring:
    """Coloring of index tuples of the sequence: odd lengths get 0; a
    tuple of length 2m gets 0 when its halves have equal rank-k types,
    else 1 plus the index of the least separating atom of
    `types.atomic_basis`.

    Atoms reading an undefined term are false.  The basis for length 2m
    is built on the sorts of the first left half that needs one, so when
    the halves' sorts differ from those, SortError is raised by the
    first ill-sorted atom reached: atoms are read in basis order, on the
    left half before the right.

    The basis is never listed.  It is read in rows, one per term ti in
    `types.basis_terms` order, each holding the atoms on ti and the
    terms of its sort from ti on.  Each half evaluates every term once
    and builds its atom truths a row at a time, when a scan first
    reaches that row; a row holding an ill-sorted atom stops at it and
    keeps its SortError.  Two halves skip each row in which their truths
    agree and neither stops; in the first other row the scan returns the
    first atom on which they differ, or raises at the first stop
    (the left half's first).

    Closedness is checked once per call, just before the first type
    code: NotClosed comes before any error from coding a half, and a
    call that codes no tuple checks nothing.
    """
    seq = list(seq)
    n = len(seq)
    if arity is None:
        arity = n
    table = {}
    bases = {}
    codes = {}

    def code(half):
        if half not in codes:
            if not codes:
                _require_closed(f)
            codes[half] = _tp_code(f, half, (), k)
        return codes[half]

    for m in range(1, arity // 2 + 1):
        for idxs in itertools.combinations(range(n), 2 * m):
            left = tuple(seq[i] for i in idxs[:m])
            right = tuple(seq[i] for i in idxs[m:])
            if code(left) == code(right):
                continue
            if m not in bases:
                sorts = tuple(f.sort[x] for x in left)
                bases[m] = _RowBasis(f, basis_terms(m, k, f.shape, sorts))
            table[idxs] = 1 + bases[m].first_difference(left, right)
    return Coloring(n, arity, table, 0)


class _RowBasis:
    """The atomic basis on the given (term, sort) pairs, read by rows.
    Row i holds, for each term tj of ti's sort from ti on, the atoms
    ("=", ti, tj), ("<", ti, tj) and ("<", tj, ti), in basis order.
    Each tuple's term values are computed once, and its rows as a scan
    first reaches them, so neither the atoms nor the unread rows are
    ever built."""

    def __init__(self, f: Fragment, terms):
        self.f = f
        slot = {t: i for i, (t, _) in enumerate(terms)}
        placed = [False] * len(terms)
        self.plan = []           # (slot, term, slots of its arguments)

        def place(t) -> int:
            """Slot of t, planning it after its arguments."""
            i = slot[t]
            if not placed[i]:
                args = tuple(place(a) for a in t.args)
                placed[i] = True
                self.plan.append((i, t, args))
            return i
        for t, _ in terms:
            place(t)
        by_sort = {}
        self.groups = []         # row i: slots of ti's sort, ti's place
        for i, (_, s) in enumerate(terms):
            group = by_sort.setdefault(s, [])
            self.groups.append((group, len(group)))
            group.append(i)
        self.offsets = [0]       # first atom of each row reached
        self.tuples = {}         # tuple -> (term values, rows built)

    def first_difference(self, left: tuple, right: tuple) -> int:
        """Index of the first atom whose truth differs between the two
        tuples, or the number of atoms.  A SortError is raised by the
        first ill-sorted atom reached, on the left tuple first."""
        offsets = self.offsets
        for i, (group, r) in enumerate(self.groups):
            lrow, lerr = self._row(left, i)
            rrow, rerr = self._row(right, i)
            if i + 1 == len(offsets):
                offsets.append(offsets[i] + 3 * (len(group) - r))
            if lerr is None and rerr is None and lrow == rrow:
                continue
            n = min(len(lrow), len(rrow))
            a = next((a for a in range(n) if lrow[a] != rrow[a]), n)
            if a < n:
                return offsets[i] + a
            # the rows agree up to where one of them stops
            raise lerr if len(lrow) == n else rerr
        return offsets[-1]

    def _row(self, assignment: tuple, i: int):
        """Row i of the tuple, building its rows up to i."""
        got = self.tuples.get(assignment)
        if got is None:
            got = self.tuples[assignment] = (self._values(assignment), [])
        vals, rows = got
        while len(rows) <= i:
            rows.append(self._truths(vals, len(rows)))
        return rows[i]

    def _values(self, assignment: tuple) -> list:
        """Each term's value under the assignment, or the error its
        evaluation raises (its first failing argument's, if any)."""
        vals = [None] * len(self.groups)
        for i, t, args in self.plan:
            argv = [vals[j] for j in args]
            err = next((v for v in argv if isinstance(v, Exception)), None)
            if err is None:
                try:
                    vals[i] = term_step(self.f, t, argv, assignment)
                except (SortError, UndefinedTerm) as e:
                    # its traceback would keep this frame, hence every
                    # value list, alive until the cyclic collector runs
                    vals[i] = e.with_traceback(None)
            else:
                vals[i] = err
        return vals

    def _truths(self, vals: list, i: int):
        """eval_formula on the atoms of row i from the term values, as
        (truths, None), or as (truths before the first ill-sorted atom,
        its SortError).  An atom reads t1, then t2, and is false once
        it reads an undefined term."""
        group, r = self.groups[i]
        f, vi = self.f, vals[i]
        out = []
        for j in group[r:]:
            vj = vals[j]
            if isinstance(vi, Exception) or isinstance(vj, Exception):
                # the error each atom reads first: ti's in ("=", ti, tj)
                # and ("<", ti, tj), tj's in ("<", tj, ti)
                ei = vi if isinstance(vi, Exception) else vj
                ej = vj if isinstance(vj, Exception) else vi
                for e in (ei, ei, ej):
                    if isinstance(e, SortError):
                        return tuple(out), e
                    out.append(False)
            else:
                out += (vi == vj, atom_holds(f, "<", vi, vj),
                        atom_holds(f, "<", vj, vi))
        return tuple(out), None


# ---------------------------------------------------------------------------
# colored trees with a neighbor-refining equivalence


@dataclass
class PTriple:
    """A single-sort standard tree, a coloring d of its increasing
    tuples of successor-of-limit nodes, and an equivalence E refining
    the neighbor relation (equal sets of strict predecessors)."""
    tree: Fragment
    d: dict[tuple[str, ...], int]
    e: dict[str, object]     # node -> class label

    def suc_lim(self) -> list[str]:
        out = [x for x in self.tree.nodes
               if self.tree.sort.get(x) is not None
               and self.tree.level[x].mod_omega() == 1]
        return sorted(out, key=lambda x: (self.tree.level[x].terms, x))

    def nb_class(self, x: str) -> frozenset[str]:
        return frozenset(y for y in self.tree.nodes if self.tree.lt(y, x))


def validate_ptriple(p: PTriple) -> list[str]:
    rep = []
    bad = validate(p.tree)
    if bad:
        rep.append("tree-invalid: %s" % bad[0])
        return rep
    f = p.tree
    sorted_nodes = [x for x in f.nodes if f.sort.get(x) is not None]
    for x in sorted_nodes:
        if x not in p.e:
            rep.append("e-missing: %r" % x)
    classes: dict[object, list[str]] = {}
    for x in sorted_nodes:
        if x in p.e:
            classes.setdefault(p.e[x], []).append(x)
    for label, xs in classes.items():
        nbs = {p.nb_class(x) for x in xs}
        if len(nbs) > 1:
            rep.append("e-refines: class %r crosses neighbor classes"
                       % (label,))
    for x, y in itertools.combinations(sorted_nodes, 2):
        if p.nb_class(x) != p.nb_class(y):
            continue
        lx = f.level[x]
        if lx.mod_omega() != 1 and f.level[y].mod_omega() != 1:
            if p.e.get(x) != p.e.get(y):
                rep.append("e-off-levels: %r,%r split outside the "
                           "successor-of-limit levels" % (x, y))
    for x, y in itertools.combinations(sorted_nodes, 2):
        if (f.level[x].is_limit and f.level[y].is_limit
                and p.e.get(x) == p.e.get(y) and x in p.e):
            rep.append("e-limit-equality: %r,%r" % (x, y))
    sl = set(p.suc_lim())
    for key in p.d:
        if any(x not in sl for x in key):
            rep.append("d-key-sort: %r" % (key,))
        elif any(not f.lt(key[i], key[i + 1]) for i in range(len(key) - 1)):
            rep.append("d-key-order: %r" % (key,))
    return rep


def is_hard(p: PTriple, delta: int, budget: int = 10 ** 6) -> bool:
    """No increasing delta-sequence of successor-of-limit nodes has a
    color depending only on tuple length."""
    sl = p.suc_lim()
    f = p.tree
    color = budgeted(p.d.get, budget, "hardness search budget")
    for cand in itertools.combinations(sl, delta):
        if any(not f.lt(cand[i], cand[i + 1]) for i in range(delta - 1)):
            continue
        if length_colors(sub_tuples(cand, delta), color) is not None:
            return False
    return True


def p_from_coloring(c: Coloring, levels) -> PTriple:
    """The chain with the given strictly increasing levels, colored by
    c on its successor-of-limit positions, with E the equality.  Raises
    BadArgument unless the levels are strictly increasing, and when a
    successor-of-limit node sits at position c.n or later, as one can
    once there are more levels than c.n."""
    levels = list(levels)
    for a, b in zip(levels, levels[1:]):
        if not a < b:
            raise BadArgument("levels must be strictly increasing")
    width = max(3, len(str(len(levels))))
    names = ["n%0*d" % (width, i) for i in range(len(levels))]
    lv = dict(zip(names, levels))
    edges = set(itertools.combinations(names, 2))
    tree = from_standard_tree(lv, edges)
    p = PTriple(tree, {}, {x: x for x in names})
    pos = {x: i for i, x in enumerate(names)}
    for key in sub_tuples(p.suc_lim(), c.arity):
        p.d[key] = c.color(tuple(pos[x] for x in key))
    return p


# ---------------------------------------------------------------------------
# d-types


@dataclass
class DType:
    """Equations d(a_0,...,a_{n-1}, x) = color over a linearly ordered
    support; the empty key is the bare d(x) = color equation."""
    support: tuple[str, ...]
    eqs: dict[tuple[str, ...], int]

    def restrict(self, b) -> "DType":
        b = set(b)
        return DType(tuple(x for x in self.support if x in b),
                     {key: v for key, v in self.eqs.items()
                      if all(a in b for a in key)})

    def is_complete(self) -> bool:
        return all(key in self.eqs for key in _support_keys(self.support))


def _support_keys(support) -> list[tuple[str, ...]]:
    """Every increasing tuple of the support, the empty one first."""
    return [()] + list(sub_tuples(support, len(support)))


def satisfies(p: PTriple, t: str, dt: DType) -> bool:
    """t realizes every equation whose tuple sits strictly below t."""
    f = p.tree
    for key, eps in dt.eqs.items():
        if key and not f.lt(key[-1], t):
            continue
        full = key + (t,)
        if full not in p.d or p.d[full] != eps:
            return False
    return True


def _support(f: Fragment, a_set) -> tuple[str, ...]:
    """The set in level order; UnknownNode unless it lies in the tree,
    BadArgument unless it is a chain."""
    _known(f, a_set)
    support = tuple(sorted(a_set, key=lambda x: (f.level[x].terms, x)))
    for x, y in zip(support, support[1:]):
        if not f.lt(x, y):
            raise BadArgument("support not linearly ordered")
    return support


def dtp(p: PTriple, t: str, a_set) -> DType:
    """The complete d-type realized by t over the set.  Raises
    UnknownNode unless t and the set lie in the base tree."""
    f = p.tree
    _known(f, (t,))
    support = _support(f, a_set)
    eqs = {}
    for key in _support_keys(support):
        if key and not f.lt(key[-1], t):
            continue
        full = key + (t,)
        if full in p.d:
            eqs[key] = p.d[full]
    return DType(support, eqs)


def enumerate_complete_dtypes(p: PTriple, a_set, colors: int) -> list[DType]:
    """All complete d-types over the set: one color choice per
    increasing tuple of the support, the empty tuple included.  Raises
    BudgetExceeded when they need more than 22 bits (two colors at
    least)."""
    budget_bits = 22
    support = _support(p.tree, a_set)
    keys = _support_keys(support)
    if (bits := len(keys) * math.log2(max(colors, 2))) > budget_bits:
        raise BudgetExceeded("type space too large: %d keys, %d colors"
                             % (len(keys), colors), bits, budget_bits)
    out = []
    for assignment in itertools.product(range(colors), repeat=len(keys)):
        out.append(DType(support, dict(zip(keys, assignment))))
    return out


# ---------------------------------------------------------------------------
# the guess-sequence tree


@dataclass
class QNode:
    """A pair (Gamma, eta): an increasing sequence eta of
    successor-of-limit nodes of the base triple, and Gamma, the complete
    d-type at position 0, the only limit position below a finite length;
    Gamma is None exactly on the empty sequence."""
    eta: tuple[str, ...]
    gamma: DType | None = None

    @property
    def lg(self) -> int:
        return len(self.eta)

    @property
    def last(self) -> str:
        if not self.eta:
            raise BadArgument("the empty guess sequence has no last entry")
        return self.eta[-1]

    def prefix(self, beta: int) -> "QNode":
        return QNode(self.eta[:beta], self.gamma if beta > 0 else None)

    def is_prefix_of(self, other: "QNode") -> bool:
        return self == other.prefix(self.lg)


def validate_qnode(p: PTriple, a: QNode) -> list[str]:
    """Clause-by-clause check of membership in the guess-sequence tree."""
    rep = []
    f = p.tree
    suc_lim = p.suc_lim()
    sl = set(suc_lim)
    alpha = a.lg
    g = a.gamma
    for t in a.eta:
        if t not in sl:
            rep.append("eta-range: %r" % t)
    for i in range(alpha - 1):
        if not f.lt(a.eta[i], a.eta[i + 1]):
            rep.append("eta-increasing: positions %d,%d" % (i, i + 1))
    if (g is None) != (alpha == 0):
        rep.append("gamma-positions: %r" % ([] if g is None else [0]))
    if g is None or alpha == 0:
        return rep
    if g.support != tuple(a.eta[:1]):
        rep.append("gamma-support: position 0")
    elif not g.is_complete():
        rep.append("gamma-incomplete: position 0")
    if rep:
        return rep
    zero = g.restrict(())
    if not satisfies(p, a.eta[0], zero):
        rep.append("zero-satisfies")
    for beta in range(1, alpha):
        if not satisfies(p, a.eta[beta], g):
            rep.append("realized: position %d over 0" % beta)
    for beta in range(alpha):
        for t in suc_lim:
            if not f.lt(t, a.eta[beta]):
                continue
            if any(not f.lt(a.eta[bp], t) for bp in range(beta)):
                continue
            if not satisfies(p, t, zero):
                continue
            if beta == 0 or satisfies(p, t, g):
                rep.append("tightness: position %d witnessed by %r"
                           % (beta, t))
    return rep


def q_enumerate(p: PTriple, alpha_max: int, colors: int):
    """The complete bounded-length fragment of the guess-sequence
    triple: every QNode of length <= alpha_max passing all clauses,
    packaged as a PTriple (prefix order, level = length) together with
    the node-id -> QNode map.  Raises BadArgument when colors < 1 or
    alpha_max < 0, and BudgetExceeded when a length has more than 10**5
    QNodes."""
    budget = 10 ** 5
    if colors < 1:
        raise BadArgument("colors must be at least 1, not %d" % colors)
    if alpha_max < 0:
        raise BadArgument("alpha_max must be non-negative, not %d" % alpha_max)
    sl = p.suc_lim()
    if len(sl) > 6:
        raise BudgetExceeded("base triple too large: %d candidate nodes"
                             % len(sl), len(sl), 6)
    if alpha_max > len(sl):
        raise BadArgument("alpha_max exceeds the candidate count")
    f = p.tree
    by_len: list[list[QNode]] = [[QNode(())]]
    for alpha in range(1, alpha_max + 1):
        layer = []
        if alpha == 1:
            for t in sl:
                for g0 in enumerate_complete_dtypes(p, (t,), colors):
                    cand = QNode((t,), g0)
                    if not validate_qnode(p, cand):
                        layer.append(cand)
        else:
            for base in by_len[alpha - 1]:
                for t in sl:
                    if not f.lt(base.last, t):
                        continue
                    cand = QNode(base.eta + (t,), base.gamma)
                    if not validate_qnode(p, cand):
                        layer.append(cand)
        if len(layer) > budget:
            raise BudgetExceeded("guess-sequence layer too large",
                                 len(layer), budget)
        by_len.append(layer)
    qnodes = [a for layer in by_len for a in layer]
    qnodes.sort(key=_qnode_key)
    width = max(3, len(str(len(qnodes))))
    ids = {}
    for i, a in enumerate(qnodes):
        ids["q%0*d" % (width, i)] = a
    levels = {nid: Ordinal.nat(a.lg) for nid, a in ids.items()}
    edges = {(x, y) for x, a in ids.items() for y, b in ids.items()
             if x != y and a.lg < b.lg and a.is_prefix_of(b)}
    tree = from_standard_tree(levels, edges)
    out = PTriple(tree, {}, {})
    # derived coloring on increasing successor-of-limit tuples
    for key in _increasing_suc_lim_tuples(out):
        out.d[key] = d_q(tuple(ids[x] for x in key))
    # derived equivalence
    labels = {}
    for nid, a in sorted(ids.items()):
        for other, lab in labels.items():
            if e_q(a, ids[other]):
                labels[nid] = lab
                break
        else:
            labels[nid] = nid
    out.e = labels
    return out, ids


def _qnode_key(a: QNode):
    return (a.lg, a.eta, () if a.gamma is None
            else ((0, tuple(sorted(a.gamma.eqs.items()))),))


def _increasing_suc_lim_tuples(p: PTriple):
    for key in sub_tuples(p.suc_lim(), 4):
        if all(p.tree.lt(key[i], key[i + 1]) for i in range(len(key) - 1)):
            yield key


def d_q(qnodes: tuple[QNode, ...]) -> int:
    """Derived color of an increasing tuple of guess sequences: the
    color the top Gamma assigns to the tuple of last entries, paired
    with 0, the constant coloring of the lengths."""
    top = qnodes[-1]
    if top.lg != 1 or top.gamma is None:
        raise BadArgument("top node is not at a successor-of-limit level")
    return pair(top.gamma.eqs[tuple(a.last for a in qnodes)], 0)


def e_q(a: QNode, b: QNode) -> bool:
    """Derived equivalence: same length, equal proper prefixes, equal
    bare color equations, and matching equations on the first entry."""
    if a.lg != b.lg:
        return False
    if a.lg == 0:
        return True
    if a.prefix(a.lg - 1) != b.prefix(b.lg - 1):
        return False
    ga, gb = a.gamma, b.gamma
    return (ga.eqs.get(()) == gb.eqs.get(())
            and ga.eqs.get((a.eta[0],)) == gb.eqs.get((b.eta[0],)))


def lift_element(p: PTriple, t: str) -> QNode:
    """Greedy guess sequence ending at t: extend below t with the least
    admissible successor-of-limit node while one exists, attaching the
    d-type of t over the support at the limit position.  Raises
    UnknownNode unless t is a node of the base tree."""
    f = p.tree
    _known(f, (t,))
    sl = [s for s in p.suc_lim() if f.lt(s, t)]
    eta: list[str] = []
    gamma0: DType | None = None
    while True:
        if not eta:
            cands = [s for s in sl
                     if satisfies(p, s, dtp(p, t, (s,)).restrict(()))]
        else:
            cands = [s for s in sl if f.lt(eta[-1], s)
                     and satisfies(p, s, gamma0)]
        if not cands:
            break
        eta.append(cands[0])
        if len(eta) == 1:
            gamma0 = dtp(p, t, (eta[0],))
    if not eta:
        g0 = dtp(p, t, (t,))
        for key in ((), (t,)):
            g0.eqs.setdefault(key, 0)
        return QNode((t,), g0)
    return QNode(tuple(eta) + (t,), gamma0)
