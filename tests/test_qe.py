import collections
import functools
import itertools
import json
import os
import random

import pytest

from gen import (TRIPOD, chain, random_closed_fragment,
                 random_standard_fragment, random_tripod, rename,
                 tables_in_order, transfer_instances)
from oracles import (build_extension_reference, closure_oracle,
                     count_isomorphisms, m2_reference, propagate_reference)

from treedesk import qe, structure
from treedesk.fileio import fragment_from_dict, fragment_to_dict
from treedesk.qe import (
    RankTooLow, eval_formula, extend_one_point, m2, qe_candidate, qe_matches,
)
from treedesk.shape import EMPTY_SHAPE, POINT_SHAPE, ShapeTree, chain_shape
from treedesk.structure import (
    CannotComplete, SortError, Term, closure, complete, is_closed, validate,
)
from treedesk.types import (BudgetExceeded, count_type_classes, equiv_k,
                            tp_code)


@functools.cache
def _two_sort_draws():
    """Raw two-sort fragment documents with a tuple a and a point c, as
    drawn by `two_sort_draw(d, m1)` in bench/workloads.py (the draw does
    not depend on m1), keyed by d."""
    path = os.path.join(os.path.dirname(__file__), "data",
                        "two_sort_draws.json")
    with open(path) as fh:
        return {int(d): rec for d, rec in json.load(fh).items()}


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


def _m2_outcome(fn, m1, k, s):
    try:
        return fn(m1, k, s)
    except BudgetExceeded as e:
        return str(e), e.spent, e.limit


def test_m2_matches_the_recursion():
    """Values and raised budgets agree with the recursion over k and over
    the shape's components, on shapes of every form up to six indices."""
    rng = random.Random(0)
    shapes = [EMPTY_SHAPE, POINT_SHAPE, TRIPOD]
    for _ in range(30):
        n = rng.randrange(1, 7)
        idxs = [str(i) for i in range(n)]
        shapes.append(ShapeTree(tuple(idxs), "0", {
            idxs[i]: idxs[rng.randrange(i)] for i in range(1, n)}))
    for s in shapes:
        for m1 in (0, 1, 5, 10 ** 6, 3 * 10 ** 6):
            for k in (0, 1, 2, 3):
                assert _m2_outcome(m2, m1, k, s) == \
                    _m2_outcome(m2_reference, m1, k, s)


def test_m2_many_steps_and_tall_shapes_raise_without_recursing():
    assert _m2_outcome(m2, 0, 5000, POINT_SHAPE) == (
        "extension rank 1073741823 exceeds cap 1000000000", 1073741823,
        10 ** 9)
    tall = _m2_outcome(m2, 0, 1, chain_shape(600))
    assert tall == _m2_outcome(m2, 0, 1, chain_shape(3))
    assert tall[1] == 1082138575


def test_m2_rejects_negatives():
    with pytest.raises(ValueError):
        m2(-1, 1, POINT_SHAPE)


def test_extend_requires_rank():
    f = chain(6)
    # n01 and n04 differ already at rank 1 (distance to the root)
    with pytest.raises(RankTooLow):
        extend_one_point(f, ("n01",), "n00", f, ("n04",), 1)


def test_extend_identity_instance():
    f = chain(6)
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


def _assert_transfers(fa, a, c, fb, b, m1):
    """The extension is valid, and the oracles carry c·a to d·b by an
    isomorphism of rank-m1 closures."""
    ext, d = extend_one_point(fa, a, c, fb, b, m1)
    assert not validate(ext)
    ca = closure_oracle(fa, (c,) + a, m1)
    cb = closure_oracle(ext, (d,) + b, m1)
    base = dict(zip((c,) + a, (d,) + b))
    assert len(ca) == len(cb)
    assert count_isomorphisms(fa, ca, ext, cb, base, cap=1) == 1


def _extend_two_sort(d, m1):
    """Extend draw d's completed fragment's renamed copy at rank m1."""
    rec = _two_sort_draws()[d]
    fa = complete(fragment_from_dict(rec["doc"]))
    fb, r = rename(fa, "y")
    a = tuple(rec["a"])
    _assert_transfers(fa, a, rec["c"], fb, tuple(r[x] for x in a), m1)


@pytest.mark.parametrize("m1", range(3))
@pytest.mark.parametrize("d", (340, 478, 1334))
def test_extend_two_sort_limit_below_two_occupied_limits(d, m1):
    # A fresh limit node lies below an image whose chain holds limit
    # nodes at levels 0 and w.  At the bottom, the regressive axiom would
    # give its successors a level-map value that conflicts with the
    # source's tables, so it is the node at w.
    _extend_two_sort(d, m1)


@pytest.mark.parametrize("d", (452, 547))
def test_extend_two_sort_shift_past_wrong_occupant(d):
    # The least shift of a successor class puts a node on an occupied
    # level whose successor table would add a node to the closure.
    _extend_two_sort(d, 1)


def test_extend_point_shift_past_three_wrong_occupants():
    # criterion 05's 36th instance: the class is shifted three times
    kind, fa, fb, a, b, c, m1 = next(itertools.islice(
        transfer_instances(random.Random(5)), 35, None))
    assert (kind, m1, len(fa.nodes)) == ("point", 1, 14)
    _assert_transfers(fa, a, c, fb, b, m1)


@pytest.mark.parametrize("d", range(0, 1600, 40))
def test_extend_two_sort_strided_sample(d):
    for m1 in range(3):
        _extend_two_sort(d, m1)


def test_extend_builds_once(monkeypatch):
    calls = []
    for name in ("validate", "_complete_valid", "equiv_k"):
        real = getattr(qe, name)

        def counted(*args, real=real, name=name, **kw):
            calls.append(name)
            return real(*args, **kw)

        monkeypatch.setattr(qe, name, counted)
    for _, fa, fb, a, b, c, m1 in transfer_instances(random.Random(5)):
        del calls[:]
        qe.extend_one_point(fa, a, c, fb, b, m1)
        # equiv_k checks the rank of a, b and then verifies the result
        assert sorted(calls) == ["_complete_valid", "equiv_k", "equiv_k",
                                 "validate"]


def _extension_inputs():
    """Point, tripod and two-sort one-point extensions, each against the
    renamed copy of its source: (fa, a, c, fb, b, m1)."""
    for _, fa, fb, a, b, c, m1 in transfer_instances(
            random.Random(13), (("point", 40), ("tripod", 40), ("empty", 5))):
        yield fa, a, c, fb, b, m1
    for d, rec in sorted(_two_sort_draws().items()):
        fa = complete(fragment_from_dict(rec["doc"]))
        fb, r = rename(fa, "y")
        a = tuple(rec["a"])
        yield fa, a, rec["c"], fb, tuple(r[x] for x in a), d % 3


def test_extension_reads_as_the_full_scan(monkeypatch):
    """The propagation and the table copy, which read only the entries
    inside the closure x_set, give the image (or None) and the
    extension of their full-scan reference copies, tables in the same
    insertion order."""
    seen = collections.Counter()
    real_propagate, real_build = qe._propagate, qe._build_extension

    def checked_propagate(fa, fb, x_set, image):
        got = real_propagate(fa, fb, x_set, image)
        want = propagate_reference(fa, fb, x_set, image)
        assert (got is None) == (want is None)
        if got is not None:
            assert list(got.items()) == list(want.items())
        seen["conflict" if got is None else "image"] += 1
        return got

    def checked_build(*args):
        got = real_build(*args)
        want = build_extension_reference(*args)
        assert tables_in_order(got) == tables_in_order(want)
        seen["extension"] += 1
        return got

    monkeypatch.setattr(qe, "_propagate", checked_propagate)
    monkeypatch.setattr(qe, "_build_extension", checked_build)
    for fa, a, c, fb, b, m1 in _extension_inputs():
        try:
            extend_one_point(fa, a, c, fb, b, m1)
        except CannotComplete:
            seen["failed"] += 1
    assert seen["conflict"] and seen["extension"] > 100, seen


def test_extend_budget_counts_settled_nodes():
    fa = random_closed_fragment(random.Random(3))
    fb, r = rename(fa, "y")
    pool = sorted(fa.nodes)
    args = (fa, (pool[0],), pool[-1], fb, (r[pool[0]],), 1)
    ext, _ = extend_one_point(*args, budget_nodes=18)
    assert len(ext.nodes) == 18
    with pytest.raises(BudgetExceeded):
        extend_one_point(*args, budget_nodes=17)


def test_extend_rejects_mismatched_shapes():
    fa = chain(3)
    fb = random_tripod(random.Random(0))
    with pytest.raises(SortError):
        extend_one_point(fa, ("n00",), "n01", fb, (sorted(fb.nodes)[0],), 0)


def test_eval_formula():
    f = chain(4)
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
    f = chain(2)
    with pytest.raises(ValueError):
        eval_formula(f, ("atom", "lt", Term.var(0), Term.var(0)), ("n00",))


def test_qe_candidate_round_trip():
    # exists y: y < x  holds exactly above the root
    corpus = [chain(4), chain(6, prefix="m")]
    phi = ("atom", "<", Term.var(0), Term.var(1))
    configs = qe_candidate(phi, 1, corpus, 1)
    probe = chain(5, prefix="p")
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


def test_qe_candidate_validates_each_fragment_once(monkeypatch):
    seen = []
    real = structure.validate

    def counted(f, *args):
        seen.append(f)
        return real(f, *args)

    monkeypatch.setattr(qe, "validate", counted)
    monkeypatch.setattr(structure, "validate", counted)
    corpus = [chain(4), random_standard_fragment(random.Random(3), 12)]
    qe_candidate(("atom", "<", Term.var(0), Term.var(1)), 1, corpus, 0)
    assert [sum(g is f for g in seen) for f in corpus] == [1, 1]


def _closed_corpus():
    """The closed, valid fragments this file queries."""
    out = [chain(n) for n in (2, 3, 4, 6)] + [chain(5, prefix="p")]
    out += [random_closed_fragment(random.Random(s)) for s in range(4)]
    out += [random_tripod(random.Random(s)) for s in range(2)]
    out.append(complete(random_standard_fragment(random.Random(3), 12)))
    return out


def test_closed_valid_fragment_completes_to_itself():
    """So `qe_matches` codes a closed fragment as it is, with the same
    answers as when it coded the completion."""
    for f in _closed_corpus():
        assert is_closed(f) and not validate(f)
        assert fragment_to_dict(complete(f)) == fragment_to_dict(f)


def test_qe_matches_completes_no_closed_fragment(monkeypatch):
    f = complete(random_standard_fragment(random.Random(3), 12))
    phi = ("atom", "<", Term.var(0), Term.var(1))
    configs = qe_candidate(phi, 1, [f], 0)
    queries = sorted(f.nodes)[:8]
    assert len(queries) == 8
    comp = complete(f)
    expected = [tp_code(comp, (x,), (), 0) in configs for x in queries]
    completions = []
    real = qe._complete_valid

    def counted(*args):
        completions.append(args)
        return real(*args)

    monkeypatch.setattr(qe, "_complete_valid", counted)
    answers = [qe_matches(configs, f, (x,), 0) for x in queries]
    assert completions == []
    assert answers == expected


def test_budget_exceeded_says_how_far_the_work_got():
    f = chain(4)
    with pytest.raises(BudgetExceeded) as info:
        count_type_classes(f, (), 0, 2, budget_tuples=1)
    assert (info.value.spent, info.value.limit) == (16, 1)
    assert str(info.value) == "16 tuples exceed budget 1"
    phi = ("atom", "<", Term.var(0), Term.var(1))
    with pytest.raises(BudgetExceeded) as info:
        qe_candidate(phi, 1, [f], 0, budget_tuples=3)
    assert (info.value.spent, info.value.limit) == (4, 3)
    assert str(info.value) == "tuple budget exhausted"


def test_count_budget_never_builds_the_power():
    """Past the budget's bit length the count of n-tuples is named, not
    built: at n = 10000 it would have 7,782 digits."""
    with pytest.raises(BudgetExceeded) as info:
        count_type_classes(chain(6), (), 0, 10000)
    assert str(info.value) == "6^10000 tuples exceed budget 250000"
    assert info.value.spent == 6 ** 19 > info.value.limit == 250000


def test_qe_candidate_empty_corpus():
    with pytest.raises(ValueError):
        qe_candidate(("atom", "=", Term.var(0), Term.var(0)), 1, [], 0)
