import random

import pytest

from gen import TRIPOD, random_tripod, rename

from treedesk.fixtures import random_closed_fragment, random_standard_fragment
from treedesk.ordinal import Ordinal
from treedesk.qe import (
    RankTooLow, eval_formula, extend_one_point, m2, qe_candidate, qe_matches,
)
from treedesk.shape import EMPTY_SHAPE, POINT_SHAPE
from treedesk.structure import (
    Term, closure, from_standard_tree, is_closed, validate,
)
from treedesk.types import equiv_k


def _chain(n, prefix="n"):
    levels = {"%s%02d" % (prefix, i): Ordinal.nat(i) for i in range(n)}
    names = sorted(levels)
    edges = {(names[i], names[j]) for i in range(n) for j in range(i + 1, n)}
    return from_standard_tree(levels, edges)


def test_m2_base_cases():
    assert m2(5, 0, POINT_SHAPE) == 5
    assert m2(7, 1, EMPTY_SHAPE) == 7
    assert m2(0, 1, EMPTY_SHAPE) == 0


def test_m2_single_sort_is_two_m1_plus_one():
    for m1 in range(4):
        assert m2(m1, 1, POINT_SHAPE) == 2 * m1 + 1


def test_m2_tripod_values():
    assert m2(0, 1, TRIPOD) == 511
    assert m2(1, 1, TRIPOD) == 1025


def test_m2_monotone_in_k():
    assert m2(1, 2, POINT_SHAPE) >= m2(1, 1, POINT_SHAPE)


def test_m2_rejects_negatives():
    with pytest.raises(ValueError):
        m2(-1, 1, POINT_SHAPE)


def test_extend_requires_rank():
    f = _chain(6)
    # n01 and n04 differ already at rank 1 (distance to the root)
    with pytest.raises(RankTooLow):
        extend_one_point(f, ("n01",), "n00", f, ("n04",), 1)


def test_extend_identity_instance():
    f = _chain(6)
    ext, d = extend_one_point(f, ("n03",), "n01", f, ("n03",), 1)
    assert d == "n01"
    assert not validate(ext)
    assert equiv_k(f, ("n01", "n03"), ext, (d, "n03"), 1) is not None


def test_extend_renamed_copy():
    rng = random.Random(3)
    fa = random_closed_fragment(rng)
    fb, r = rename(fa, "y")
    pool = sorted(fa.nodes)
    a = (pool[0],)
    b = (r[pool[0]],)
    c = pool[-1]
    ext, d = extend_one_point(fa, a, c, fb, b, 1)
    assert not validate(ext)
    assert equiv_k(fa, (c,) + a, ext, (d,) + b, 1) is not None


def test_extend_unsorted_point_is_fresh():
    from treedesk.structure import Fragment
    fa = Fragment(EMPTY_SHAPE, ("x0", "x1"))
    fb = Fragment(EMPTY_SHAPE, ("y0", "y1"))
    ext, d = extend_one_point(fa, ("x0",), "x1", fb, ("y0",), 0)
    assert d not in ("y0",)
    assert d in ext.nodes


def test_eval_formula():
    f = _chain(4)
    lt = ("atom", "<", Term.var(0), Term.var(1))
    assert eval_formula(f, lt, ("n00", "n02"))
    assert not eval_formula(f, lt, ("n02", "n00"))
    assert eval_formula(f, ("not", lt), ("n02", "n00"))
    eq = ("atom", "=", Term.lim(Term.var(0)), Term.var(1))
    assert eval_formula(f, eq, ("n02", "n00"))
    assert eval_formula(f, ("and", lt, ("not", eq)), ("n01", "n02"))
    # undefined terms make the atom false
    bad = ("atom", "=", Term.pre(Term.var(0)), Term.var(0))
    assert not eval_formula(f, bad, ("n00", "n00"))


def test_eval_formula_rejects_unknown_relation():
    f = _chain(2)
    with pytest.raises(ValueError):
        eval_formula(f, ("atom", "lt", Term.var(0), Term.var(0)), ("n00",))


def test_qe_candidate_round_trip():
    # exists y: y < x  holds exactly above the root
    corpus = [_chain(4), _chain(6, prefix="m")]
    phi = ("atom", "<", Term.var(0), Term.var(1))
    configs = qe_candidate(phi, 1, corpus, 1)
    probe = _chain(5, prefix="p")
    for x in probe.nodes:
        want = x != "p00"
        assert qe_matches(configs, probe, (x,), 1) == want


def test_qe_candidate_on_unclosed_fragment():
    f = random_standard_fragment(random.Random(3), 12)
    assert not validate(f) and not is_closed(f)
    phi = ("atom", "<", Term.var(0), Term.var(1))
    configs = qe_candidate(phi, 1, [f], 0)
    for x in f.nodes:
        assert qe_matches(configs, f, (x,), 0) == any(
            f.lt(y, x) for y in f.nodes)


def test_qe_candidate_empty_corpus():
    with pytest.raises(ValueError):
        qe_candidate(("atom", "=", Term.var(0), Term.var(0)), 1, [], 0)
