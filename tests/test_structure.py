import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from gen import random_tripod
from oracles import closure_oracle

from treedesk.fileio import fragment_to_dict
from treedesk.fixtures import (
    random_closed_fragment, random_standard_fragment, three_sort_step_fixture,
)
from treedesk.ordinal import Ordinal
from treedesk.shape import POINT_SHAPE
from treedesk.structure import (
    CannotComplete, Fragment, Incomparable, InvalidTree, NotClosed, Term,
    UndefinedTerm, closure, complete, distance, eval_term,
    from_standard_tree, is_closed, validate,
)


def _chain5():
    levels = {"n%d" % i: Ordinal.nat(i) for i in range(5)}
    edges = {("n%d" % i, "n%d" % j) for i in range(5) for j in range(i + 1, 5)}
    return from_standard_tree(levels, edges)


def test_from_standard_tree_chain():
    f = _chain5()
    assert not validate(f)
    assert f.lt("n0", "n4")
    assert f.meet_of("n1", "n3") == "n1"
    assert f.suc_of("n0", "n4") == "n1"
    assert f.pre_of("n3") == "n2"
    assert f.lim_of("n3") == "n0"
    assert is_closed(f)


def test_from_standard_tree_rejects_cycle():
    levels = {"a": Ordinal.nat(0), "b": Ordinal.nat(1)}
    with pytest.raises(InvalidTree):
        from_standard_tree(levels, {("a", "b"), ("b", "a")})


def test_from_standard_tree_rejects_level_decrease():
    levels = {"a": Ordinal.nat(2), "b": Ordinal.nat(1)}
    with pytest.raises(InvalidTree):
        from_standard_tree(levels, {("a", "b")})


def test_from_standard_tree_rejects_non_chain_downset():
    levels = {"a": Ordinal.nat(0), "b": Ordinal.nat(0),
              "c": Ordinal.nat(1)}
    with pytest.raises(InvalidTree):
        from_standard_tree(levels, {("a", "c"), ("b", "c")})


def test_accessors_and_distance():
    f = _chain5()
    assert f.sort_of("n0") == "r"
    assert f.level_of("n2") == Ordinal.nat(2)
    assert f.nodes_of_sort("r") == ["n%d" % i for i in range(5)]
    assert distance(f, "n1", "n4") == 3
    assert distance(f, "n4", "n1") == 3
    assert distance(f, "n2", "n2") == 0
    w = Ordinal.omega()
    g = from_standard_tree({"a": Ordinal(), "b": w}, {("a", "b")})
    assert distance(g, "a", "b") == math.inf
    with pytest.raises(Incomparable):
        distance(f, "n0", "x")


def test_complete_materializes_missing_tables():
    w = Ordinal.omega()
    f = from_standard_tree({"a": Ordinal(), "b": w.plus(2)},
                           {("a", "b")})
    assert not is_closed(f)
    done = complete(f)
    assert is_closed(done)
    # the limit below b and its successor chain got materialized
    lim_b = done.lim_of("b")
    assert done.level_of(lim_b) == w
    assert distance(done, lim_b, "b") == 2


def test_complete_rejects_invalid_input():
    f = _chain5().replace(lim={"n3": "n4"})
    with pytest.raises(CannotComplete):
        complete(f)


def test_closure_variants_and_rank():
    f, _ = three_sort_step_fixture()
    f = complete(f)
    base = frozenset(("a_s0",))
    cl0 = closure(f, base, 0)
    cl1 = closure(f, base, 1)
    cl2 = closure(f, base, 2)
    assert base <= cl0 <= cl1 <= cl2
    assert closure(f, base, "zero") <= cl0
    assert closure(f, base, "wedge") >= base


def test_closure_requires_closed_fragment():
    w = Ordinal.omega()
    f = from_standard_tree({"a": Ordinal(), "b": w.plus(2)}, {("a", "b")})
    with pytest.raises(NotClosed):
        closure(f, ("a",), 0)


def test_closure_unknown_node():
    f = _chain5()
    with pytest.raises(KeyError):
        closure(f, ("zz",), 0)


def test_eval_term():
    f = _chain5()
    t = Term.suc(Term.wedge(Term.var(0), Term.var(1)), Term.var(1))
    assert eval_term(f, t, ("n1", "n3")) == "n2"
    assert eval_term(f, Term.lim(Term.var(0)), ("n3",)) == "n0"
    assert eval_term(f, Term.pre(Term.var(0)), ("n2",)) == "n1"
    with pytest.raises(UndefinedTerm):
        eval_term(f, Term.pre(Term.var(0)), ("n0",))


def test_gmap_preserved_through_completion():
    f, _ = three_sort_step_fixture()
    assert not validate(f)
    done = complete(f)
    assert is_closed(done)
    assert done.g_of(("0", "1"), "a_p0") == "b_v0"


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_random_standard_fragments_validate(seed):
    f = random_standard_fragment(random.Random(seed), 30)
    assert not validate(f)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 2))
def test_closure_matches_oracle(seed, k):
    rng = random.Random(seed)
    f = random_closed_fragment(rng)
    pool = sorted(n for n in f.nodes if f.sort.get(n) is not None)
    a = tuple(rng.sample(pool, min(2, len(pool))))
    assert closure(f, a, k) == closure_oracle(f, a, k)


_IDEMPOTENCE_INPUTS = {
    **{"random-%d" % seed: (lambda seed=seed: random_standard_fragment(
        random.Random(seed), 30)) for seed in range(20)},
    "three-sort": lambda: three_sort_step_fixture()[0],
    "tripod": lambda: random_tripod(random.Random(1)),
}


@pytest.mark.parametrize("name", sorted(_IDEMPOTENCE_INPUTS))
def test_complete_is_idempotent(name):
    once = complete(_IDEMPOTENCE_INPUTS[name]())
    assert fragment_to_dict(complete(once)) == fragment_to_dict(once)


def test_fragment_replace_is_nondestructive():
    f = _chain5()
    g = f.replace(mode="theta")
    assert f.mode == "base" and g.mode == "theta"
    assert g.nodes == f.nodes


def test_empty_fragment():
    f = Fragment(POINT_SHAPE, ())
    assert not validate(f)
    assert len(f) == 0
    assert is_closed(f)
