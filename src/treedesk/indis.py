"""Indiscernible-sequence analysis at bounded rank and arity.

A window is a finite single-sort sequence together with the analysis
parameters: rank k (successor rank of the formulas captured), arity
bound r (longest tuples compared) and gap n (for near-indiscernibility
of spread-out subsequences).  Windows classify as Fan (all pairwise
meets coincide), AlmostIncreasing (consecutive meets strictly
increase) or Neither; almost-increasing windows can be pushed to the
next sort with the step map and iterated until they fan out or the
shape is exhausted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import partial

from .errors import BadArgument, TreedeskError, UnknownNode
from .partition import budgeted, length_colors, sub_tuples
from .structure import (Fragment, SortError, Term, complete, eval_term,
                        UndefinedTerm, _known)
from .types import tp_code


class NotAlmostIncreasing(TreedeskError, RuntimeError):
    pass


class ShapeExhausted(TreedeskError, RuntimeError):
    pass


@dataclass
class SequenceWindow:
    fragment: Fragment
    seq: tuple[str, ...]
    k: int = 1
    r: int = 2
    n: int = 1

    def __post_init__(self):
        self.seq = tuple(self.seq)
        if len(self.seq) < 2:
            raise BadArgument("window needs at least two entries")
        for s in self.seq:
            if s not in self.fragment._below:
                raise UnknownNode("unknown node %r in window" % s)
        sorts = {self.fragment.sort.get(s) for s in self.seq}
        if len(sorts) != 1 or None in sorts:
            raise BadArgument("window entries must share one sort")

    @property
    def sort(self) -> str:
        return self.fragment.sort[self.seq[0]]

    def __len__(self) -> int:
        return len(self.seq)

    def is_constant(self) -> bool:
        return len(set(self.seq)) == 1


@dataclass
class Classification:
    tag: str                      # Fan | AlmostIncreasing | Neither
    witness: object = None        # common meet / increasing meet chain


def _code(w: SequenceWindow, idxs) -> bytes:
    return tp_code(w.fragment, tuple(w.seq[i] for i in idxs), (), w.k)


def is_indiscernible(w: SequenceWindow) -> bool:
    """All equal-length increasing index tuples (length <= r) have the
    same rank-k type."""
    return length_colors(sub_tuples(range(len(w)), w.r),
                         partial(_code, w)) is not None


def is_NI(w: SequenceWindow) -> bool:
    """Nearly indiscernible: subsequences with consecutive index gaps
    >= n are indiscernible with one common type family, and the type of
    a consecutive block is independent of its starting position."""
    spread = (idxs for idxs in sub_tuples(range(len(w)), w.r)
              if all(idxs[j + 1] - idxs[j] >= w.n
                     for j in range(len(idxs) - 1)))
    blocks = (tuple(range(i, i + m))
              for m in range(1, min(w.r, len(w)) + 1)
              for i in range(len(w) - m + 1))
    code = partial(_code, w)
    return (length_colors(spread, code) is not None
            and length_colors(blocks, code) is not None)


_WEDGE = Term.wedge(Term.var(0), Term.var(1))
# suc(lim(x0 ^ x1), x1): the step map before its level map G
_STEP = Term.suc(Term.lim(_WEDGE), Term.var(1))
# the step-map building blocks whose derived sequences is_HNI checks
HNI_TERMS = (_WEDGE, _STEP, Term.g(_STEP))


def _term_arity(t: Term) -> int:
    if t.op == "var":
        return t.data + 1
    return max((_term_arity(a) for a in t.args), default=0)


def derived_sequence(w: SequenceWindow, sigma: Term):
    """t_i = sigma(s_i, ..., s_{i+m-1}); None when some value is
    undeclared in the fragment."""
    m = _term_arity(sigma)
    out = []
    for i in range(len(w) - m + 1):
        try:
            out.append(eval_term(w.fragment, sigma,
                                 w.seq[i:i + m]))
        except (UndefinedTerm, SortError):
            return None
    return tuple(out)


def is_HNI(w: SequenceWindow) -> bool:
    """NI, and every derived sequence along HNI_TERMS is NI.

    Terms whose values are not materialized in the fragment are
    skipped."""
    if not is_NI(w):
        return False
    for sigma in HNI_TERMS:
        t = derived_sequence(w, sigma)
        if t is None or len(t) < 2:
            continue
        sorts = {w.fragment.sort.get(x) for x in t}
        if len(sorts) != 1 or None in sorts:
            return False
        if not is_NI(replace(w, seq=t)):
            return False
    return True


def classify(w: SequenceWindow) -> Classification:
    f = w.fragment
    meets = {}
    for i, j in itertools.combinations(range(len(w)), 2):
        m = f.meet_of(w.seq[i], w.seq[j])
        if m is None:
            raise BadArgument("pairwise meet (%r,%r) not declared"
                              % (w.seq[i], w.seq[j]))
        meets[(i, j)] = m
    values = set(meets.values())
    if len(values) == 1:
        return Classification("Fan", values.pop())
    chain = [meets[(i, i + 1)] for i in range(len(w) - 1)]
    if all(f.lt(chain[i], chain[i + 1]) for i in range(len(chain) - 1)):
        return Classification("AlmostIncreasing", tuple(chain))
    return Classification("Neither")


def h_map(w: SequenceWindow) -> SequenceWindow:
    """Push an almost-increasing window to the next sort:
    t_i = G(suc(lim(s_i ^ s_{i+1}), s_{i+1}))."""
    cls = classify(w)
    if cls.tag != "AlmostIncreasing":
        raise NotAlmostIncreasing(cls.tag)
    kids = w.fragment.shape.children(w.sort)
    if not kids:
        raise ShapeExhausted("sort %r has no next sort" % w.sort)
    edge = (w.sort, kids[0])
    sigma = Term.g(_STEP, edge)
    t = derived_sequence(w, sigma)
    if t is None:
        f2 = complete(w.fragment)
        w = replace(w, fragment=f2)
        t = derived_sequence(w, sigma)
        if t is None:
            raise UndefinedTerm("step-map values not materializable")
    return replace(w, seq=t)


@dataclass
class TraceStep:
    window: SequenceWindow
    classification: Classification
    levels: tuple = field(default_factory=tuple)


def h_iterate(w: SequenceWindow, max_iter: int = 8) -> list[TraceStep]:
    """Iterate the step map until Fan, shape exhaustion or max_iter,
    recording classifications and entry levels at each step.  Raises
    BadArgument for a negative max_iter."""
    if max_iter < 0:
        raise BadArgument("max_iter must be non-negative, not %d" % max_iter)
    trace = []
    cur = w
    for step in range(max_iter + 1):
        cls = classify(cur)
        levels = tuple(cur.fragment.level[s] for s in cur.seq)
        trace.append(TraceStep(cur, cls, levels))
        if cls.tag != "AlmostIncreasing" or step == max_iter:
            break
        if len(cur) < 3:
            break
        try:
            cur = h_map(cur)
        except ShapeExhausted:
            break
    return trace


def search_indiscernible(f: Fragment, a_set, length: int, k: int, r: int,
                         budget: int = 200000):
    """Lexicographically least non-constant injective sequence of the
    given length from the set that passes is_indiscernible at (k, r),
    or None.  Backtracking over prefixes: each candidate prefix is
    checked afresh, by the type code of every increasing sub-tuple of
    length at most r, not only of those that end at its last entry.
    Raises BadArgument for a length below 2 and UnknownNode for a node of
    the set that is not in f."""
    if length < 2:
        raise BadArgument("window needs at least two entries")
    pool = sorted(_known(f, a_set))
    sortable = [x for x in pool if f.sort.get(x) is not None]

    def codes_ok(prefix):
        return length_colors(sub_tuples(prefix, r),
                             lambda sub: tp_code(f, sub, (), k)) is not None

    try_prefix = budgeted(codes_ok, budget, "search budget exhausted")

    def extend(prefix):
        if len(prefix) == length:
            if len(set(prefix)) == 1:
                return None
            return prefix
        for x in sortable:
            if x in prefix:
                continue
            if prefix and f.sort.get(x) != f.sort.get(prefix[0]):
                continue
            cand = prefix + [x]
            if try_prefix(cand):
                res = extend(cand)
                if res is not None:
                    return res
        return None

    res = extend([])
    if res is None:
        return None
    return SequenceWindow(f, tuple(res), k, r)
