import random

import pytest
from hypothesis import given, settings, strategies as st

from gen import (chain, comb_and_fan_fixture, fan_pair_fixture,
                 random_sequence_fixture, replace, three_sort_step_fixture)
from treedesk.indis import (
    NotAlmostIncreasing, SequenceWindow, ShapeExhausted, classify,
    derived_sequence, h_iterate, h_map, is_HNI, is_NI,
    is_indiscernible, search_indiscernible,
)
from treedesk.structure import Term, complete


def test_window_validation():
    f = chain(4)
    with pytest.raises(ValueError):
        SequenceWindow(f, ("n00",))
    with pytest.raises(KeyError, match="ghost"):
        SequenceWindow(f, ("n00", "ghost"))
    w = SequenceWindow(f, ("n00", "n00"))
    assert w.is_constant()


def test_fan_windows_are_indiscernible():
    f = fan_pair_fixture()
    leaves = sorted(n for n in f.nodes
                    if n.startswith("t_a") and n != "t_a")[:4]
    w = SequenceWindow(f, tuple(leaves), k=1, r=2)
    assert is_indiscernible(w)
    assert is_NI(w)
    cls = classify(w)
    assert cls.tag == "Fan"
    assert cls.witness == "t_a"


def test_chain_window_not_indiscernible():
    f = chain(6)
    w = SequenceWindow(f, ("n01", "n02", "n03", "n04"), k=1, r=2)
    assert not is_indiscernible(w)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.data())
def test_ni_with_gap_one_is_indiscernibility(seed, data):
    f, seq = random_sequence_fixture(random.Random(seed))
    idxs = data.draw(st.lists(st.integers(0, len(seq) - 1), min_size=2,
                              max_size=5, unique=True).map(sorted))
    w = SequenceWindow(f, tuple(seq[i] for i in idxs),
                       k=data.draw(st.integers(0, 1)),
                       r=data.draw(st.integers(1, 3)), n=1)
    assert is_NI(w) == is_indiscernible(w)


def test_classify_almost_increasing():
    f, win = three_sort_step_fixture()
    f = complete(f)
    w = SequenceWindow(f, win, k=1, r=2)
    cls = classify(w)
    assert cls.tag == "AlmostIncreasing"
    chain = cls.witness
    assert all(f.lt(a, b) for a, b in zip(chain, chain[1:]))


def test_classify_neither():
    f = comb_and_fan_fixture()
    # mixing the fan leaves with comb teeth gives neither pattern
    w = SequenceWindow(f, ("u_t1", "u_t0", "u_f0", "u_f1"), k=1, r=2)
    assert classify(w).tag == "Neither"


def test_h_map_steps_to_next_sort():
    f, win = three_sort_step_fixture()
    f = complete(f)
    w = SequenceWindow(f, win, k=1, r=2)
    w2 = h_map(w)
    assert w2.sort == "1"
    assert len(w2) == len(w) - 1


def test_h_map_requires_almost_increasing():
    f = fan_pair_fixture()
    leaves = sorted(n for n in f.nodes if n.startswith("t_a"))[1:4]
    with pytest.raises(NotAlmostIncreasing):
        h_map(SequenceWindow(f, tuple(leaves), k=1, r=2))


def test_h_map_shape_exhausted():
    f = replace(chain(8))
    # a strictly increasing chain is almost-increasing but single-sorted
    w = SequenceWindow(f, ("n01", "n03", "n05", "n07"), k=0, r=1)
    assert classify(w).tag == "AlmostIncreasing"
    with pytest.raises(ShapeExhausted):
        h_map(w)


def test_h_iterate_trace():
    f, win = three_sort_step_fixture()
    f = complete(f)
    trace = h_iterate(SequenceWindow(f, win, k=1, r=2))
    tags = [s.classification.tag for s in trace]
    assert tags[0] == "AlmostIncreasing"
    assert tags[-1] == "Fan"
    assert len(trace) <= 3


def test_derived_sequence_meet_term():
    f = chain(5)
    w = SequenceWindow(f, ("n01", "n02", "n03"), k=0, r=1)
    t = derived_sequence(w, Term.wedge(Term.var(0), Term.var(1)))
    assert t == ("n01", "n02")


def test_hni_skips_unmaterialized_terms():
    f = fan_pair_fixture()
    leaves = sorted(n for n in f.nodes if n.startswith("t_a"))[1:5]
    w = SequenceWindow(f, tuple(leaves), k=1, r=2)
    assert is_HNI(w)


def test_search_indiscernible_finds_fan():
    f = fan_pair_fixture()
    hit = search_indiscernible(f, f.nodes, length=4, k=1, r=2)
    assert hit is not None
    assert is_indiscernible(hit)
    assert not hit.is_constant()


def test_search_indiscernible_none_on_chain():
    f = chain(6)
    assert search_indiscernible(f, f.nodes, length=4, k=1, r=2) is None
