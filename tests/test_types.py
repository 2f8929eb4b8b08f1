import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from gen import random_tripod, rename, theta_two_sort
from oracles import canon_reference, count_isomorphisms

from treedesk import structure, types
from treedesk.fixtures import (random_closed_fragment,
                               random_standard_fragment,
                               three_sort_step_fixture)
from treedesk.ordinal import Ordinal
from treedesk.shape import POINT_SHAPE
from treedesk.structure import (Fragment, NotClosed, closure, complete,
                                from_standard_tree)
from treedesk.types import (
    BadSeries, BudgetExceeded, WrongShape, count_type_classes, equiv_k,
    estimate_degree, questionnaire_code, tp_code,
)


def _chain(n, prefix="n"):
    levels = {"%s%02d" % (prefix, i): Ordinal.nat(i) for i in range(n)}
    names = sorted(levels)
    edges = {(names[i], names[j]) for i in range(n) for j in range(i + 1, n)}
    return from_standard_tree(levels, edges)


def test_identity_is_a_witness():
    f = _chain(5)
    w = equiv_k(f, ("n02",), f, ("n02",), 1)
    assert w is not None
    assert all(w[x] == x for x in w)


def test_chain_class_counts_over_midpoint():
    f = _chain(5)
    assert count_type_classes(f, ("n02",), 0, 1) == 4
    assert count_type_classes(f, ("n02",), 1, 1) == 5


def test_rank_one_separates_distances():
    f = _chain(5)
    # at rank 0 the two nodes above the parameter agree; rank 1 sees the
    # one-step successor distance
    assert tp_code(f, ("n03",), ("n02",), 0) == tp_code(f, ("n04",), ("n02",), 0)
    assert tp_code(f, ("n03",), ("n02",), 1) != tp_code(f, ("n04",), ("n02",), 1)


def test_codes_respect_renaming():
    f = _chain(6)
    g, r = rename(f, "z")
    for k in (0, 1, 2):
        assert tp_code(f, ("n03",), (), k) == tp_code(g, ("zn03",), (), k)
        assert equiv_k(f, ("n03",), g, ("zn03",), k) is not None


def test_cross_shape_codes_differ():
    # the sort name is part of the signature
    f = _chain(3)
    g = _chain(3)
    from treedesk.shape import chain_shape
    h = from_standard_tree({"a": Ordinal()}, set(), index="r")
    w = from_standard_tree({"a": Ordinal()}, set(), index="0",
                           shape=chain_shape(1))
    assert tp_code(h, ("a",), (), 0) != tp_code(w, ("a",), (), 0)
    assert tp_code(f, ("n00",), (), 0) == tp_code(g, ("n00",), (), 0)


def test_questionnaire_named_member():
    f = _chain(5)
    assert questionnaire_code(f, "n02", ("n02",), 0) == ("named", 1)


def test_questionnaire_saturation():
    f = _chain(10)
    # distances 3 = 2k+1 and 7 above the same parameter are capped equal
    assert questionnaire_code(f, "n03", ("n00",), 1) == \
        questionnaire_code(f, "n07", ("n00",), 1)
    assert questionnaire_code(f, "n02", ("n00",), 1) != \
        questionnaire_code(f, "n03", ("n00",), 1)


def test_questionnaire_tracks_codes():
    f = _chain(7)
    pool = sorted(f.nodes)
    for k in (0, 1):
        for a in pool:
            for b in pool:
                same_q = questionnaire_code(f, a, ("n03",), k) == \
                    questionnaire_code(f, b, ("n03",), k)
                same_t = tp_code(f, (a,), ("n03",), k) == \
                    tp_code(f, (b,), ("n03",), k)
                assert same_q == same_t


def test_questionnaire_rejects_multi_sort():
    f, _ = three_sort_step_fixture()
    f = complete(f)
    with pytest.raises(WrongShape):
        questionnaire_code(f, "a_r", (), 0)


def test_estimate_degree_examples():
    assert estimate_degree([(1, 2), (2, 4), (4, 8), (8, 16)]) == 1
    assert estimate_degree([(m, m * m) for m in range(1, 9)]) == 2
    assert estimate_degree([(m, 7) for m in range(1, 9)]) == 0
    # affine with a large intercept is still linear
    assert estimate_degree([(m, 3 * m + 40) for m in range(1, 9)]) == 1


def test_estimate_degree_errors():
    with pytest.raises(BadSeries):
        estimate_degree([(1, 1), (2, 2)])
    with pytest.raises(BadSeries):
        estimate_degree([(1, 5), (2, 3), (3, 9), (4, 11)])
    with pytest.raises(BadSeries):
        estimate_degree([(1, 0), (2, 1), (3, 2), (4, 3)])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 2))
def test_code_equality_matches_unique_isomorphism(seed, k):
    rng = random.Random(seed)
    fa = random_closed_fragment(rng)
    pool = sorted(n for n in fa.nodes if fa.sort.get(n) is not None)
    a = tuple(rng.sample(pool, min(2, len(pool))))
    b = tuple(rng.sample(pool, len(a)))
    same = tp_code(fa, a, (), k) == tp_code(fa, b, (), k)
    ca = closure(fa, a, k)
    cb = closure(fa, b, k)
    n_iso = count_isomorphisms(fa, ca, fa, cb, dict(zip(a, b)), cap=2) \
        if len(ca) == len(cb) else 0
    assert same == (n_iso > 0)
    if same:
        assert n_iso == 1


# Closedness is checked once per public call, before any unknown node
# raises KeyError.

_NOT_CLOSED = "closure requires a completed fragment"


def _unclosed():
    f = random_standard_fragment(random.Random(3), 12)
    assert not structure.validate(f) and not structure.is_closed(f)
    return f


def test_count_type_classes_checks_closedness_once(monkeypatch):
    calls = []
    is_closed = structure.is_closed

    def counted(f):
        calls.append(f)
        return is_closed(f)

    monkeypatch.setattr(structure, "is_closed", counted)
    f = _chain(5)
    assert count_type_classes(f, ("n02",), 1, 1) == 5
    assert count_type_classes(f, ("n02",), 0, 2) > 0
    assert calls == [f, f]


@pytest.mark.parametrize("call", [
    lambda f, x: tp_code(f, (x,), (), 1),
    lambda f, x: count_type_classes(f, (x,), 0, 1),
    lambda f, x: equiv_k(f, (x,), f, (x,), 0),
    lambda f, x: questionnaire_code(f, x, (x,), 0),
    lambda f, x: tp_code(f, ("nowhere",), (), 0),
    lambda f, x: count_type_classes(f, ("nowhere",), 0, 1),
    lambda f, x: equiv_k(f, ("nowhere",), f, ("nowhere",), 0),
])
def test_unclosed_fragment_raises_not_closed_first(call):
    f = _unclosed()
    with pytest.raises(NotClosed, match=_NOT_CLOSED):
        call(f, f.nodes[0])


def test_unknown_node_raises_key_error_on_closed_fragment():
    f = _chain(5)
    with pytest.raises(KeyError, match="nowhere"):
        tp_code(f, ("nowhere",), (), 0)
    with pytest.raises(KeyError, match="nowhere"):
        tp_code(f, ("n01",), ("nowhere",), 0)
    with pytest.raises(KeyError, match="nowhere"):
        count_type_classes(f, ("nowhere",), 0, 1)
    with pytest.raises(KeyError, match="nowhere"):
        questionnaire_code(f, "n01", ("nowhere",), 0)


def test_equiv_k_checks_fa_before_fb():
    closed, unclosed = _chain(5), _unclosed()
    x, y = closed.nodes[0], unclosed.nodes[0]
    with pytest.raises(NotClosed, match=_NOT_CLOSED):
        equiv_k(unclosed, (y,), closed, ("nowhere",), 0)
    with pytest.raises(KeyError, match="nowhere"):
        equiv_k(closed, ("nowhere",), unclosed, (y,), 0)
    with pytest.raises(NotClosed, match=_NOT_CLOSED):
        equiv_k(closed, (x,), unclosed, (y,), 0)
    with pytest.raises(KeyError, match="nowhere"):
        equiv_k(closed, (x,), closed, ("nowhere",), 0)


@pytest.mark.parametrize("reverse", [False, True])
def test_codes_invariant_under_renaming(reverse):
    """A parameter set is aligned by its sorted ids, so under an
    order-reversing rename the sets hold at most one node."""
    for f in ([random_closed_fragment(random.Random(s)) for s in range(8)]
              + [random_tripod(random.Random(s)) for s in range(4)]):
        g, r = rename(f, "w_", reverse)
        rng = random.Random(len(f.nodes))
        nodes = sorted(f.nodes)
        for _ in range(6):
            abar = tuple(rng.sample(nodes, rng.randint(1, 2)))
            a_set = rng.sample(nodes, rng.randint(0, 2 - reverse))
            for k in range(3):
                assert tp_code(f, abar, a_set, k) == tp_code(
                    g, [r[x] for x in abar], [r[x] for x in a_set], k)


def test_one_code_lists_the_closure_meets_once(monkeypatch):
    """A code lists its closure's meets once.  A count lists the
    parameter set's once, then each tuple's only for the pairs with a
    member outside the set's closure."""
    calls = []
    closure_meets = types._closure_meets

    def counted(f, c, done=frozenset()):
        calls.append(done)
        return closure_meets(f, c, done)

    monkeypatch.setattr(types, "_closure_meets", counted)
    f = _chain(6)
    tp_code(f, ("n04",), ("n01",), 1)
    assert calls == [frozenset()]
    calls.clear()
    count_type_classes(f, ("n01",), 1, 1)
    assert calls == [frozenset()] + [closure(f, ("n01",), 1)] * len(f.nodes)


# Counting continues each tuple from its parameter set's chain, and a
# code builds one index of its closure, which every individualization
# branch reads.

def _fan():
    """A root with three children and two children under each, at
    uniform levels: refinement splits no level, so a code over it
    individualizes."""
    levels, edges = {"r": Ordinal.nat(0)}, set()
    for i in range(3):
        c = "c%d" % i
        levels[c] = Ordinal.nat(1)
        edges.add(("r", c))
        for j in range(2):
            g = "g%d%d" % (i, j)
            levels[g] = Ordinal.nat(2)
            edges |= {("r", g), (c, g)}
    return complete(from_standard_tree(levels, edges))


def _counting(monkeypatch, name):
    """Count the calls of types.<name>, a function or a class."""
    calls = []
    target = getattr(types, name)

    def counted(*args):
        calls.append(args)
        return target(*args)

    monkeypatch.setattr(types, name, counted)
    return calls


@pytest.mark.parametrize("f, gens", [
    (_fan(), ()),
    (_fan(), ("c0",)),
    (theta_two_sort().replace(constants={}), ()),
    (theta_two_sort(), ()),
], ids=["fan", "fan-c0", "theta-two-sort-bare", "theta-two-sort"])
def test_branching_code_matches_reference(monkeypatch, f, gens):
    """With the whole fragment for a closure, refinement leaves tied
    cells, and the listing and record are still those of the reference
    copy, which rebuilt its index in every branch."""
    c = frozenset(f.nodes)
    monkeypatch.setattr(types, "_closure", lambda f, a, k: c)
    indexes = _counting(monkeypatch, "_Index")
    orders = _counting(monkeypatch, "_canon_order")
    listed, pos, ix = types._canon(f, gens, (), 0)
    assert (listed, types._structure_record(ix, listed)) == \
        canon_reference(f, c, gens)
    assert len(indexes) == 1
    if f.constants:
        assert len(orders) == 1
    else:
        assert len(orders) > 1


def test_count_builds_the_chain_once_and_one_index_per_code(monkeypatch):
    chains = _counting(monkeypatch, "_chain")
    indexes = _counting(monkeypatch, "_Index")
    f = _chain(6)
    count_type_classes(f, ("n02", "n04"), 2, 2)
    params, *tuples = chains
    assert params == (f, ("n02", "n04"), 2)
    assert len(tuples) == 36 and all(len(args) == 4 for args in tuples)
    assert len(indexes) == 36


COUNT_CASES = {
    **{"closed-%d" % s: (lambda s=s: random_closed_fragment(random.Random(s)))
       for s in range(4)},
    "tripod-5": lambda: random_tripod(random.Random(5)),
    "three-sort": lambda: complete(three_sort_step_fixture()[0]),
}


@pytest.mark.parametrize("name", sorted(COUNT_CASES))
def test_count_is_the_number_of_distinct_codes(name):
    """Each tuple's record, continued from the parameter chain, is its
    code's, and the count is the number of distinct codes."""
    f = COUNT_CASES[name]()
    rng = random.Random(name)
    nodes = sorted(f.nodes)
    for k in range(4):
        a_set = rng.sample(nodes, rng.randint(0, 3))
        params = types._params(f, a_set, k)
        for n in (1, 2):
            codes = set()
            for t in itertools.product(nodes, repeat=n):
                code = tp_code(f, t, a_set, k)
                assert repr(types._tp_record(
                    f, t, a_set, k, params)).encode() == code, (t, a_set, k)
                codes.add(code)
            assert count_type_classes(f, a_set, k, n) == len(codes), \
                (a_set, k, n)


def test_count_raises_budget_then_not_closed_then_key_error():
    unclosed = _unclosed()
    with pytest.raises(BudgetExceeded):
        count_type_classes(unclosed, ("nowhere",), 0, 2, budget_tuples=1)
    with pytest.raises(NotClosed, match=_NOT_CLOSED):
        count_type_classes(unclosed, ("nowhere",), 0, 1)
    with pytest.raises(KeyError, match="nowhere"):
        count_type_classes(_chain(5), ("nowhere",), 0, 1)
    empty = Fragment(POINT_SHAPE, ())
    assert count_type_classes(empty, ("nowhere",), 2, 1) == 0
