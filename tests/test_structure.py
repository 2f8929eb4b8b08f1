import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from gen import (corrupted_fragment, random_tripod, top_sort_only,
                 two_root_forest)
from oracles import (SET_CHECKED, closure_oracle, closure_step_reference,
                     set_checked_reports)

from treedesk import structure

from treedesk.fileio import fragment_to_dict
from treedesk.fixtures import (
    family_fragment, family_parameter_pool, random_closed_fragment,
    random_standard_fragment, three_sort_step_fixture,
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


# Closures over several rounds and rank steps.  The rank loop and the
# rounds of the rank-0 closure pair only members that are new since the
# step before; these inputs run up to three rank steps, and the tripods,
# the three-sort step and the two-sort completions also two rounds of
# meets, lim and G per step (random_closed_fragment is single-sort, one
# round and no G).

ROUNDS_CASES = {
    **{"family-%s-64" % fam: (lambda fam=fam: family_fragment(fam, 64))
       for fam in ("chain", "binary")},
    **{"tripod-%d" % s: (lambda s=s: random_tripod(random.Random(s)))
       for s in range(10)},
    "three-sort": lambda: complete(three_sort_step_fixture()[0]),
    **{"top-sort-only-%d" % s: (
        lambda s=s: complete(top_sort_only(random.Random(s))))
       for s in range(2)},
    **{"closed-%d" % s: (lambda s=s: random_closed_fragment(random.Random(s)))
       for s in range(6)},
}


def _generator_sets(name, f):
    """Generator sets of one to four nodes: parameter-pool prefixes on
    the families, seeded samples of the sorted nodes elsewhere."""
    if name.startswith("family"):
        pool = family_parameter_pool(f, name.split("-")[1])
        return [pool[:m] for m in (1, 2, 4)] + [pool[5:7]]
    rng = random.Random(name)
    nodes = sorted(f.nodes)
    return [rng.sample(nodes, rng.randint(1, 4)) for _ in range(6)]


@pytest.mark.parametrize("name", sorted(ROUNDS_CASES))
def test_closure_over_several_rounds_matches_oracle(name):
    f = ROUNDS_CASES[name]()
    for a in _generator_sets(name, f):
        for k in range(4):
            assert closure(f, a, k) == closure_oracle(f, a, k), (a, k)


@pytest.mark.parametrize("name", sorted(ROUNDS_CASES))
def test_chain_continued_from_parameters_matches_oracle(name):
    """A tuple's chain continued from a parameter set's chain is, rank by
    rank, the closure of the tuple and the set together.  A chain stops
    at the first rank that adds nothing."""
    f = ROUNDS_CASES[name]()
    rng = random.Random(name)
    nodes = sorted(f.nodes)

    def assert_chain(tops, a):
        assert all(tops[i] != tops[i + 1] for i in range(len(tops) - 1))
        assert [tops[min(i, len(tops) - 1)] for i in range(4)] == \
            [closure_oracle(f, a, i) for i in range(4)], a

    for params in _generator_sets(name, f)[:3]:
        base = structure._chain(f, params, 3)
        assert_chain(base, params)
        for a in (rng.sample(nodes, 1), rng.sample(nodes, 2), params[:1]):
            assert_chain(structure._chain(f, a, 3, base), set(a) | set(params))


def test_rank_loop_stops_once_a_rank_adds_nothing(monkeypatch):
    f = random_tripod(random.Random(3))
    a = sorted(f.nodes)[:2]
    calls = []
    zero = structure._cl_zero

    def counted(*args):
        calls.append(args)
        return zero(*args)

    monkeypatch.setattr(structure, "_cl_zero", counted)
    top = closure(f, a, 1000)
    assert len(calls) <= 5
    assert top == closure_oracle(f, a, len(calls))


@pytest.mark.parametrize("seed, a", [
    (45, ("q_n000", "q_n003", "q1_n003")),
    (105, ("_c003", "_c020", "q1_n005")),
])
def test_rank_step_pairs_old_members_with_new(seed, a):
    """The successor from a member of the previous step towards a new
    member can be new itself: these rank-2 closures need it."""
    f = random_tripod(random.Random(seed))
    assert closure(f, a, 2) == closure_oracle(f, a, 2)


@pytest.mark.parametrize("name", sorted(ROUNDS_CASES))
def test_closure_steps_match_reference(name):
    f = ROUNDS_CASES[name]()
    sets = _generator_sets(name, f)
    for s in sets + [closure(f, a, 1) for a in sets] + [f.nodes]:
        for variant in ("wedge", "suc", "zero", "one"):
            assert closure(f, s, variant) == \
                closure_step_reference(f, s, variant), (s, variant)


def _metamorphic_fragments():
    return ([random_closed_fragment(random.Random(s)) for s in range(12)]
            + [random_tripod(random.Random(s)) for s in range(6)])


def test_closure_is_idempotent_and_composes():
    """closure(closure(a, k), j) == closure(a, j + k): idempotent at rank
    0 and for "zero".  A rank-k closure with k >= 1 is in general not
    idempotent, since each call adds k more successor steps."""
    for f in _metamorphic_fragments():
        rng = random.Random(len(f.nodes))
        for _ in range(4):
            a = rng.sample(sorted(f.nodes), 2)
            zero = closure(f, a, "zero")
            assert closure(f, zero, "zero") == zero
            for k in range(3):
                c = closure(f, a, k)
                for j in range(3):
                    assert closure(f, c, j) == closure(f, a, j + k)


def test_closure_is_monotone():
    for f in _metamorphic_fragments():
        rng = random.Random(len(f.nodes))
        nodes = sorted(f.nodes)
        for _ in range(4):
            a = set(rng.sample(nodes, 2))
            b = a | set(rng.sample(nodes, 3))
            for variant in ("zero", "one", 0, 1, 2):
                assert closure(f, a, variant) <= closure(f, b, variant)


def assert_set_checked_reports_match(f):
    """validate's reports of the SET_CHECKED axioms equal the reference
    loops', in full and in order."""
    rep = [r for r in validate(f) if r.split(":")[0] in SET_CHECKED]
    assert rep == set_checked_reports(f)


def _set_checked_faults():
    f, _ = three_sort_step_fixture()
    order = set(f.order)
    g01 = {**f.gmap[("0", "1")], "a_s3": "b_v0", "a_s2": "b_v1"}
    return {
        "downset-chain": f.replace(order=order | {("a_s0", "a_s1")}),
        "downset-chains": f.replace(
            order=order | {("a_s0", "a_s1"), ("a_s0", "a_s3")}),
        "meet-not-max": f.replace(meet={**f.meet, ("a_p0", "a_s0"): "a_r"}),
        "meet-misses-several": f.replace(
            meet={**f.meet, ("a_s2", "a_s3"): "a_m0"}),
        "suc-between": f.replace(suc={**f.suc, ("a_r", "a_m1"): "a_m1"}),
        "lim-monotone": f.replace(lim={**f.lim, "a_m2": "a_m0"}),
        "regressive": f.replace(gmap={**f.gmap, ("0", "1"): g01}),
        "all": f.replace(
            order=order | {("a_s0", "a_s1")},
            meet={**f.meet, ("a_s2", "a_s3"): "a_m0"},
            suc={**f.suc, ("a_r", "a_m2"): "a_m2"},
            lim={**f.lim, "a_p1": "a_m0"},
            gmap={**f.gmap, ("0", "1"): g01}),
    }


def test_validate_matches_reference_loops_by_hand():
    seen = set()
    for f in _set_checked_faults().values():
        seen |= {r.split(":")[0] for r in validate(f)}
        assert_set_checked_reports_match(f)
    assert set(SET_CHECKED) <= seen


def test_validate_matches_reference_loops_on_corrupted_trees():
    for seed in range(60):
        f = corrupted_fragment(random.Random(seed))
        assert_set_checked_reports_match(f)


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


def _down_sets(nodes, order):
    """Strict down-set of every node: a search over the order's edges."""
    parents = {n: [] for n in nodes}
    for a, b in order:
        parents[b].append(a)
    out = {}
    for n in nodes:
        seen, todo = set(), list(parents[n])
        while todo:
            a = todo.pop()
            if a not in seen:
                seen.add(a)
                todo.extend(parents[a])
        out[n] = seen
    return out


def _watch_fixes(monkeypatch):
    """Wrap completion's scans: count the scans started, and after every
    fix check the maintained down-sets against the transitive closure of
    the working order and record how many nodes the fix minted."""
    real_fixes = structure._fixes
    scans, minted = [], []

    def checked_fixes(w, fresh):
        scans.append(len(w.nodes))
        before = len(w.nodes)
        for did_mint in real_fixes(w, fresh):
            assert w._below == _down_sets(w.nodes, w.order)
            minted.append(len(w.nodes) - before)
            assert did_mint == (minted[-1] > 0)
            before = len(w.nodes)
            yield did_mint

    monkeypatch.setattr(structure, "_fixes", checked_fixes)
    return scans, minted


def _completion_inputs():
    for seed in range(40):
        yield random_standard_fragment(random.Random(seed), 30)
    yield top_sort_only(random.Random(0))
    yield two_root_forest()


def test_completion_down_sets_stay_exact(monkeypatch):
    """After every completion fix the maintained down-sets equal the
    transitive closure of the working order."""
    _, minted = _watch_fixes(monkeypatch)
    for f in _completion_inputs():
        complete(f)
    for seed in range(10):
        random_tripod(random.Random(seed))
    assert sum(minted) > 100 and 2 in minted


def test_completion_restarts_only_after_mints(monkeypatch):
    """A scan resumes after each fix that mints nothing, so completion
    starts one scan, plus one more after each minting fix."""
    scans, minted = _watch_fixes(monkeypatch)
    complete(random_standard_fragment(random.Random(0), 30))
    mints = sum(1 for n in minted if n)
    assert len(scans) == mints + 1
    assert len(minted) > len(scans)


def test_completion_is_closed():
    """No suc is minted and no sort has two minimal nodes in the G
    phase, yet every completion is closed."""
    for f in _completion_inputs():
        assert is_closed(complete(f))
    for seed in range(10):
        assert is_closed(random_tripod(random.Random(seed)))


def test_complete_freezes_once(monkeypatch):
    f = random_standard_fragment(random.Random(0), 30)
    built = []
    init = Fragment.__init__

    def counting_init(self, *args, **kw):
        built.append(self)
        init(self, *args, **kw)

    monkeypatch.setattr(Fragment, "__init__", counting_init)
    out = complete(f)
    assert len(out.nodes) > len(f.nodes)
    assert built == [out]


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
