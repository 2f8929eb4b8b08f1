import collections
import functools
import hashlib
import json
import math
import operator
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from gen import (chain, comb_and_fan_fixture, corrupted_fragment,
                 dropped_entry_fragments, fan_pair_fixture, hard_six,
                 near_valid_fragments, random_closed_fragment,
                 random_standard_fragment, random_tripod, replace,
                 tables_in_order, theta_single_sort, theta_two_sort,
                 three_sort_step_fixture, top_sort_only, transfer_instances,
                 two_root_forest)
from oracles import (SET_CHECKED, closure_oracle, closure_step_reference,
                     from_standard_tree_reference, is_closed_reference,
                     set_checked_reports, validate_reference)

import treedesk
from treedesk import glue, ordinal, qe, structure

from treedesk.errors import BadArgument, UnknownNode
from treedesk.fileio import fragment_to_dict
from treedesk.ordinal import Ordinal
from treedesk.shape import POINT_SHAPE, chain_shape
from treedesk.structure import (
    CannotComplete, Fragment, FragmentBuilder, Incomparable, InvalidTree,
    NotClosed, Term, UndefinedTerm, closure, complete, distance, eval_term,
    from_standard_tree, is_closed, r_suc, validate,
)
from treedesk.types import atomic_basis, family_fragment, family_parameter_pool


def _chain5():
    levels = {"n%d" % i: Ordinal.nat(i) for i in range(5)}
    edges = {("n%d" % i, "n%d" % j) for i in range(5) for j in range(i + 1, 5)}
    return from_standard_tree(levels, edges)


def test_from_standard_tree_chain():
    f = _chain5()
    assert not validate(f)
    assert f.lt("n0", "n4")
    assert f.meet_of("n1", "n3") == "n1"
    assert f.suc[("n0", "n4")] == "n1"
    assert f.pre["n3"] == "n2"
    assert f.lim["n3"] == "n0"
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


def test_from_standard_tree_rejects_unknown_nodes():
    """An edge naming a node without a level is refused, on either end,
    before the order is checked."""
    for edges, name in (({("zz", "a")}, "zz"), ({("a", "zz")}, "zz"),
                        ({("a", "zz"), ("zz", "a"), ("yy", "a")}, "yy")):
        with pytest.raises(InvalidTree) as info:
            from_standard_tree({"a": Ordinal()}, edges)
        assert str(info.value) == "order names unknown node %r" % name


def _ancestor_tree(rng, n):
    """Levels and full strict order of a random tree on n nodes: each
    node hangs one to three finite steps above a random earlier node, or
    just past the next limit, below w*4."""
    names = ["t%02d" % i for i in range(n)]
    coords, parent = {names[0]: (0, 0)}, {}
    for i in range(1, n):
        p = names[rng.randrange(i)]
        limbs, rest = coords[p]
        if rng.random() < 0.35 and limbs < 3:
            coords[names[i]] = (limbs + 1, rng.randint(0, 2))
        else:
            coords[names[i]] = (limbs, rest + rng.randint(1, 3))
        parent[names[i]] = p
    edges = set()
    for x in names[1:]:
        a = x
        while a in parent:
            a = parent[a]
            edges.add((a, x))
    levels = {x: Ordinal.omega(1, m).plus(r) if m else Ordinal.nat(r)
              for x, (m, r) in coords.items()}
    return levels, edges


def _perturbed(rng, levels, edges, how):
    """levels and edges as they are, with one new order edge, or with
    the levels of two nodes swapped."""
    levels, edges = dict(levels), set(edges)
    names = sorted(levels)
    a, b = rng.sample(names, 2)
    if how == "edge":
        edges.add((a, b))
    elif how == "swap":
        levels[a], levels[b] = levels[b], levels[a]
    return levels, edges


def _standard_tree_inputs():
    """Over a thousand inputs to `from_standard_tree`: random standard
    trees and random ancestor trees of up to 8, 16 and 64 nodes, each as
    it is, with one added edge and with two levels swapped; the
    dichotomy fixtures' trees; and the shape and index variants."""
    cases = []
    for n, seeds in ((8, 80), (16, 80), (64, 15)):
        for s in range(seeds):
            rng = random.Random(1000 * n + s)
            f = random_standard_fragment(rng, n)
            trees = [(f.level, f.order), _ancestor_tree(rng, n)]
            for levels, edges in trees:
                for how in ("as-is", "edge", "swap"):
                    cases.append((_perturbed(rng, levels, edges, how), {}))
    for fix in (fan_pair_fixture, comb_and_fan_fixture):
        f = fix()
        for how in ("as-is", "edge", "swap"):
            rng = random.Random(how)
            cases.append((_perturbed(rng, f.level, f.order, how),
                          {"mode": "classT"}))
    f = random_standard_fragment(random.Random(5), 12)
    for kw in ({"index": "0", "shape": chain_shape(2)}, {"index": "q"},
               {"index": "2", "shape": chain_shape(2)}):
        cases.append(((f.level, f.order), kw))
    return cases


def test_from_standard_tree_matches_reference():
    """Same tables in the same insertion order, or the same first
    InvalidTree message, as the builder that searched every node for
    each successor."""
    cases = _standard_tree_inputs()
    assert len(cases) >= 1000
    outcomes = set()
    for (levels, edges), kw in cases:
        try:
            want = tables_in_order(
                from_standard_tree_reference(levels, edges, **kw))
        except InvalidTree as e:
            with pytest.raises(InvalidTree) as got:
                from_standard_tree(levels, edges, **kw)
            assert str(got.value) == str(e)
            outcomes.add(str(e).split(" ")[0])
            continue
        assert tables_in_order(from_standard_tree(levels, edges, **kw)) == want
        outcomes.add("built")
    assert outcomes == {"built", "order", "down-set", "levels", "index"}


def test_accessors_and_distance():
    f = _chain5()
    assert f.sort["n0"] == "r"
    assert f.level["n2"] == Ordinal.nat(2)
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
    lim_b = done.lim["b"]
    assert done.level[lim_b] == w
    assert distance(done, lim_b, "b") == 2


def test_complete_rejects_invalid_input():
    f = replace(_chain5(), lim={"n3": "n4"})
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
    assert structure._cl_zero(f, base) <= cl0
    assert structure._cl_wedge(f, base) >= base


def test_closure_requires_closed_fragment():
    w = Ordinal.omega()
    f = from_standard_tree({"a": Ordinal(), "b": w.plus(2)}, {("a", "b")})
    with pytest.raises(NotClosed):
        closure(f, ("a",), 0)


def test_closure_unknown_node():
    f = _chain5()
    with pytest.raises(KeyError):
        closure(f, ("zz",), 0)


@pytest.mark.parametrize("k", [-1, "zero", "one", 1.0, None])
def test_closure_takes_a_natural_rank_only(k):
    f = _chain5()
    with pytest.raises(BadArgument, match="not a natural number"):
        closure(f, ("n1",), k)


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
    """A parameter set's chain is, rank by rank, its closure, and stops at
    the first rank that adds nothing.  A tuple's continuation of that
    chain (`_Continuation`) gives, at every rank, what the closure of the
    tuple and the set together adds to the set's closure."""
    f = ROUNDS_CASES[name]()
    rng = random.Random(name)
    nodes = sorted(f.nodes)
    for params in _generator_sets(name, f)[:3]:
        tops = structure._chain(f, params, 3)
        assert all(tops[i] != tops[i + 1] for i in range(len(tops) - 1))
        assert [tops[min(i, len(tops) - 1)] for i in range(4)] == \
            [closure_oracle(f, params, i) for i in range(4)], params
        tuples = (rng.sample(nodes, 1), rng.sample(nodes, 2), params[:1])
        for k in range(4):
            cont = structure._Continuation(f, tops[:k + 1], k)
            b = cont.tops[-1]
            for a in tuples:
                assert cont.added(a) == closure_oracle(
                    f, set(a) | set(params), k) - b, (a, k)


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


# The single closure operators, each applied once to the whole set.
STEPS = {
    "wedge": structure._cl_wedge,
    "suc": structure._cl_suc,
    "zero": structure._cl_zero,
    "one": lambda f, s: structure._cl_zero(f, structure._cl_suc(f, s)),
}


@pytest.mark.parametrize("name", sorted(ROUNDS_CASES))
def test_closure_steps_match_reference(name):
    f = ROUNDS_CASES[name]()
    sets = _generator_sets(name, f)
    for s in sets + [closure(f, a, 1) for a in sets] + [f.nodes]:
        for variant, step in STEPS.items():
            assert step(f, frozenset(s)) == \
                closure_step_reference(f, s, variant), (s, variant)


def _metamorphic_fragments():
    return ([random_closed_fragment(random.Random(s)) for s in range(12)]
            + [random_tripod(random.Random(s)) for s in range(6)])


def test_basis_term_values_lie_in_the_closure_of_their_rank():
    """Every term of the rank-k atomic basis has successor rank at most
    k, reached at k = 1, and each of its defined values over a tuple lies
    in the tuple's rank-k closure, as `closure` states."""
    bases = {(n, k): list(dict.fromkeys(
        t for _, t1, t2 in atomic_basis(n, k, POINT_SHAPE) for t in (t1, t2)))
        for n, k in ((1, 0), (1, 1), (2, 0))}
    for (n, k), terms in bases.items():
        assert max(r_suc(t) for t in terms) == k
    rng = random.Random(3)
    checked = 0
    for _ in range(12):
        f = random_closed_fragment(rng)
        nodes = sorted(f.nodes)
        for (n, k), terms in bases.items():
            for _ in range(3):
                tup = tuple(rng.choice(nodes) for _ in range(n))
                cl = closure(f, tup, k)
                for t in terms:
                    try:
                        v = eval_term(f, t, tup)
                    except UndefinedTerm:
                        continue
                    assert v in cl, (t, tup)
                    checked += 1
    assert checked > 500


def test_closure_is_idempotent_and_composes():
    """closure(closure(a, k), j) == closure(a, j + k): idempotent at rank
    0 and for "zero".  A rank-k closure with k >= 1 is in general not
    idempotent, since each call adds k more successor steps."""
    for f in _metamorphic_fragments():
        rng = random.Random(len(f.nodes))
        for _ in range(4):
            a = rng.sample(sorted(f.nodes), 2)
            zero = structure._cl_zero(f, frozenset(a))
            assert structure._cl_zero(f, zero) == zero
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
            for step in (STEPS["zero"], STEPS["one"]):
                assert step(f, frozenset(a)) <= step(f, frozenset(b))
            for k in range(3):
                assert closure(f, a, k) <= closure(f, b, k)


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
        "downset-chain": replace(f, order=order | {("a_s0", "a_s1")}),
        "downset-chains": replace(f,
            order=order | {("a_s0", "a_s1"), ("a_s0", "a_s3")}),
        "meet-not-max": replace(f, meet={**f.meet, ("a_p0", "a_s0"): "a_r"}),
        "meet-misses-several": replace(f,
            meet={**f.meet, ("a_s2", "a_s3"): "a_m0"}),
        "suc-between": replace(f, suc={**f.suc, ("a_r", "a_m1"): "a_m1"}),
        "lim-monotone": replace(f, lim={**f.lim, "a_m2": "a_m0"}),
        "regressive": replace(f, gmap={**f.gmap, ("0", "1"): g01}),
        "cross-sort-edge": replace(f, order=order | {("a_r", "b_r")}),
        # G on the limit below a_p0, with another value
        "gmap-on-limit": replace(f, gmap={
            **f.gmap, ("0", "1"): {**f.gmap[("0", "1")], "a_m0": "b_v1"}}),
        "all": replace(f,
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


def _extension_pass_fragments():
    """Every fragment that validate sees in one pass shaped like the
    benchmark's extension sweep: 24 point trees, 18 tripods and 6
    bare-point fragments, each completed and extended against its
    renamed copy."""
    seen = []

    def record(f):
        seen.append(f)
        return validate(f)

    instances = transfer_instances(
        random.Random(11), (("point", 24), ("tripod", 18), ("empty", 6)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "validate", record)
        mp.setattr(qe, "validate", record)
        for kind, fa, fb, a, b, c, m1 in instances:
            qe.extend_one_point(fa, a, c, fb, b, m1)
    return seen


_VALIDATE_CORPORA = {
    "hand-made": lambda: list(_set_checked_faults().values()),
    "corrupted": lambda: [corrupted_fragment(random.Random(seed))
                          for seed in range(300)],
    "near-valid": lambda: near_valid_fragments(random.Random(0)),
    "extension-pass": _extension_pass_fragments,
}


@pytest.mark.parametrize("name", sorted(_VALIDATE_CORPORA))
def test_validate_matches_reference(name):
    """validate's report equals the sorted, witness-building
    reference's, in full and in order."""
    corpus = _VALIDATE_CORPORA[name]()
    assert len(corpus) >= 8
    for f in corpus:
        assert validate(f) == validate_reference(f)


@pytest.mark.parametrize("name", ["x", "level-missing", "order-cycle"])
def test_validate_stops_early_on_order_faults_not_on_node_names(name):
    """A node whose name is an early-stop axiom's name, reported under
    another axiom, does not stop the checks that follow."""
    f = Fragment(POINT_SHAPE, ["a", "b", "c", name],
                 {"a": "r", "b": "r", "c": "r", name: "q"},
                 {"a": Ordinal(), "b": Ordinal.nat(1), "c": Ordinal.nat(1),
                  name: Ordinal()},
                 {("a", "b"), ("a", "c")}, {("b", "c"): "b"})
    assert validate(f) == ["sort-unknown-index: node %r sort 'q'" % name,
                           "meet-lower-bound: ('b','c')->'b'"]


@pytest.mark.parametrize("tables", [
    {"meet": {("zz", "zz"): "zz"}}, {"lim": {"zz": "zz"}}])
def test_validate_reports_sort_and_level_on_ids_that_are_not_nodes(tables):
    """Sort and level entries on ids outside `nodes` let table entries
    on them pass the other axioms, and completion carried them along."""
    f = Fragment(POINT_SHAPE, ["a"], dict.fromkeys(["zz", "a", "yy"], "r"),
                 dict.fromkeys(["zz", "a", "yy"], Ordinal()), **tables)
    assert validate(f) == ["sort-unknown-node: 'yy'",
                           "sort-unknown-node: 'zz'",
                           "level-unknown-node: 'yy'",
                           "level-unknown-node: 'zz'"]
    with pytest.raises(CannotComplete,
                       match="fragment invalid: sort-unknown-node: 'yy'"):
        complete(f)


def test_validate_reports_class_t_level_map_faults():
    """In classT mode, G maps each successor to a successor no higher;
    no corpus above runs in classT mode."""
    f = replace(theta_two_sort(), mode="classT",
                gmap={("0", "1"): {"d0": "M", "d1": "e1", "r": "e0"}})
    assert validate(f) == validate_reference(f) == [
        "classT-successor-image: G('0', '1')('d0')='M'",
        "gmap-domain: 'r' is not a successor",
        "classT-level: G('0', '1')('r')='e0'"]


def test_near_valid_fragments_fail_by_few_witnesses():
    corpus = near_valid_fragments(random.Random(0))
    reports = [validate(f) for f in corpus]
    seen = {r.split(":")[0] for rep in reports for r in rep}
    assert {"meet-not-max", "suc-between", "lim-monotone", "regressive",
            "pre-level", "lim-level"} <= seen
    assert sum(len(rep) == 1 for rep in reports) >= len(corpus) // 4


def _seed_probe():
    """validate's reports on 60 corrupted trees and on the near-valid
    corpus, and the closure error for three unknown nodes."""
    out = {"corrupted": [validate(corrupted_fragment(random.Random(seed)))
                         for seed in range(60)],
           "near-valid": [validate(f) for f in
                          near_valid_fragments(random.Random(0))]}
    try:
        closure(random_closed_fragment(random.Random(0)), ("zz", "yy", "xx"))
    except UnknownNode as exc:
        out["unknown"] = str(exc)
    return out


def test_validate_and_unknown_node_ignore_hash_seed():
    expected = _seed_probe()
    assert expected["unknown"] == repr("unknown node 'xx'")
    paths = [os.path.dirname(os.path.dirname(treedesk.__file__)),
             os.path.dirname(__file__)]
    script = ("import json, test_structure; "
              "print(json.dumps(test_structure._seed_probe()))")
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(paths))
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        assert json.loads(run.stdout) == expected


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


def _watch_passes(monkeypatch):
    """Wrap completion's passes (`_Gaps.mint_next`): count the passes
    started, and after every pass check the maintained down-sets against
    the transitive closure of the working order and record how many
    nodes the pass minted."""
    real_mint_next = structure._Gaps.mint_next
    passes, minted = [], []

    def checked_mint_next(gaps, fresh):
        w = gaps.w
        before = len(w.nodes)
        passes.append(before)
        new = real_mint_next(gaps, fresh)
        assert w._below == _down_sets(w.nodes, w.order)
        minted.append(len(w.nodes) - before)
        assert len(new) == minted[-1]
        return new

    monkeypatch.setattr(structure._Gaps, "mint_next", checked_mint_next)
    return passes, minted


def _completion_inputs():
    for seed in range(40):
        yield random_standard_fragment(random.Random(seed), 30)
    yield top_sort_only(random.Random(0))
    yield two_root_forest()


def test_completion_down_sets_stay_exact(monkeypatch):
    """After every completion pass the maintained down-sets equal the
    transitive closure of the working order."""
    _, minted = _watch_passes(monkeypatch)
    for f in _completion_inputs():
        complete(f)
    for seed in range(10):
        random_tripod(random.Random(seed))
    assert sum(minted) > 100 and 2 in minted


def test_completion_restarts_only_after_mints(monkeypatch):
    """A pass mints for one missing entry and stops, so completion
    starts one pass, plus one more after each minting pass."""
    passes, minted = _watch_passes(monkeypatch)
    complete(random_standard_fragment(random.Random(0), 30))
    mints = sum(1 for n in minted if n)
    assert len(passes) == mints + 1


def test_completion_is_closed():
    """No suc is minted and no sort has two minimal nodes in the G
    phase, yet every completion is closed."""
    for f in _completion_inputs():
        assert is_closed(complete(f))
    for seed in range(10):
        assert is_closed(random_tripod(random.Random(seed)))


@functools.lru_cache(maxsize=None)
def _dropped_entries():
    """`dropped_entry_fragments` of seeds 0-19."""
    return tuple(entry for seed in range(20)
                 for entry in dropped_entry_fragments(random.Random(seed)))


def test_is_closed_matches_reference_on_dropped_entries():
    """A completion with one lim, pre, meet, finite-gap suc or G entry
    dropped is not closed, one without an infinite-gap suc still is,
    and the reference copy of the check agrees on each."""
    kinds = set()
    for kind, _, f in _dropped_entries():
        closed = is_closed(f)
        assert closed == is_closed_reference(f)
        assert closed == (kind in ("none", "suc-infinite")), kind
        kinds.add(kind)
    assert kinds == {"none", "lim", "pre", "meet", "suc", "suc-infinite", "G"}


def test_is_closed_builds_no_ordinal(monkeypatch):
    """is_closed compares limbs as term tuples: with limb() and every
    way to build an Ordinal raising, its verdicts stay the same."""
    entries = _dropped_entries()
    verdicts = [is_closed(f) for _, _, f in entries]

    def no_ordinal(*args):
        raise AssertionError("is_closed built an Ordinal")

    monkeypatch.setattr(Ordinal, "limb", no_ordinal)
    monkeypatch.setattr(Ordinal, "__post_init__", no_ordinal)
    monkeypatch.setattr(ordinal, "_derived", no_ordinal)
    assert [is_closed(f) for _, _, f in entries] == verdicts
    assert True in verdicts and False in verdicts


def test_is_closed_makes_no_lt_call(monkeypatch):
    """is_closed reads the down-sets of each limb class, not the order
    pair by pair: with lt raising, its verdicts stay the same."""
    entries = _dropped_entries()
    verdicts = [is_closed(f) for _, _, f in entries]

    def no_lt(*args):
        raise AssertionError("is_closed called lt")

    monkeypatch.setattr(structure._OrderQueries, "lt", no_lt)
    assert [is_closed(f) for _, _, f in entries] == verdicts
    assert True in verdicts and False in verdicts


def test_is_closed_matches_reference_on_corrupted_and_near_valid():
    """The check agrees with the reference copy on fragments with
    redrawn entries and extra order edges, and on fragments that fail
    one axiom by one witness."""
    corpus = [corrupted_fragment(random.Random(seed)) for seed in range(60)]
    for seed in range(10):
        corpus += near_valid_fragments(random.Random(seed))
    verdicts = [is_closed(f) for f in corpus]
    assert verdicts == [is_closed_reference(f) for f in corpus]
    assert True in verdicts and False in verdicts


def test_is_closed_on_a_cyclic_order():
    """On a two-node cycle each node lies in its own down-set.  The
    reference tests only pairs of distinct nodes, so every suc it asks
    for is declared and both call the fragment closed."""
    w = Ordinal.omega()
    f = Fragment(POINT_SHAPE, ("a", "b"), {"a": "r", "b": "r"},
                 {"a": w, "b": w}, {("a", "b"), ("b", "a")},
                 {("a", "a"): "a", ("a", "b"): "a", ("b", "b"): "b"},
                 {("a", "b"): "b", ("b", "a"): "a"}, lim={"a": "a", "b": "b"})
    assert f.lt("a", "a") and f.lt("a", "b") and f.lt("b", "a")
    assert is_closed_reference(f)
    assert is_closed(f)


def test_completion_restores_a_dropped_entry():
    """Completing a closed fragment with one derivable entry dropped
    gives back the closed fragment: the chains still hold each lim,
    pre, meet and suc value, and a G value is the one another member
    of the regressive class keeps.  A G entry whose class keeps no
    value is rightly filled with a fresh node."""
    restored, minted = collections.Counter(), 0
    for kind, base, f in _dropped_entries():
        out = complete(f)
        if kind == "G" and not _class_keeps_a_g_value(base, f):
            assert len(out.nodes) > len(base.nodes)
            minted += 1
            continue
        assert fragment_to_dict(out) == fragment_to_dict(base), kind
        restored[kind] += 1
    assert set(restored) == {"none", "lim", "pre", "meet", "suc",
                             "suc-infinite", "G"}
    assert (restored["G"], minted) == (59, 21)


def _class_keeps_a_g_value(base, f):
    """Whether the G entry that f lacks against base has a value on
    another member of its regressive class in f."""
    (edge, x), = [(e, x) for e, table in base.gmap.items()
                  for x in table if x not in f.gmap[e]]
    cls = structure._regressive_class(f, f.suc_members(edge[0]), x)
    return any(y in f.gmap[edge] for y in cls)


_COMPLETION_PINS = os.path.join(os.path.dirname(__file__), "data",
                                "completion_pins.json")


@functools.lru_cache(maxsize=None)
def _completion_pins():
    with open(_COMPLETION_PINS) as fh:
        return json.load(fh)


def _completion_pin_inputs():
    """The named inputs whose completions are pinned."""
    for i, f in enumerate(_completion_inputs()):
        yield "inputs-%02d" % i, f
    for seed in range(10):
        yield "tripod-%d" % seed, random_tripod(random.Random(seed))
    for i, (kind, _, f) in enumerate(_dropped_entries()):
        yield "dropped-%04d-%s" % (i, kind), f


def _completion_digest(f):
    """SHA-256 of the sorted JSON of f's completion."""
    doc = json.dumps(fragment_to_dict(complete(f)), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def _level_zero_forest():
    """Two roots of one sort, one at level 0: their meet has no room."""
    w = Ordinal.omega()
    return from_standard_tree({"a": Ordinal(), "a1": Ordinal.nat(2),
                               "b": w, "b1": w.plus(1)},
                              {("a", "a1"), ("b", "b1")})


_BUDGET_INPUTS = {
    "random-0": lambda: random_standard_fragment(random.Random(0), 30),
    "top-sort-only-0": lambda: top_sort_only(random.Random(0)),
    "two-root-forest": two_root_forest,
}


def test_completion_matches_pins():
    """Completion's output, fresh ids included, is the one pinned in
    tests/data/completion_pins.json.  The digests, budgets and messages
    there were recorded on the code that declared every chain-held value
    again in a full scan after each mint; never re-record them to make
    a refactor pass."""
    got = {name: _completion_digest(f)
           for name, f in _completion_pin_inputs()}
    assert got == _completion_pins()["digests"]


@pytest.mark.parametrize("name", sorted(_BUDGET_INPUTS))
def test_completion_budget_pins(name):
    """The smallest node budget that completes the input is the pinned
    one, and one less fails with the pinned message."""
    pin = _completion_pins()["budgets"][name]
    f = _BUDGET_INPUTS[name]()
    complete(f, budget_nodes=pin["budget"])
    with pytest.raises(CannotComplete) as info:
        complete(f, budget_nodes=pin["budget"] - 1)
    assert str(info.value) == pin["message"]


def test_completion_meet_below_level_zero_pin():
    with pytest.raises(CannotComplete) as info:
        complete(_level_zero_forest())
    assert str(info.value) == _completion_pins()["level_zero_meet"]


def test_complete_freezes_once(monkeypatch):
    f = random_standard_fragment(random.Random(0), 30)
    built = _count_seals(monkeypatch)
    out = complete(f)
    assert len(out.nodes) > len(f.nodes)
    assert built == [out]


def _count_seals(monkeypatch):
    """Record every Fragment sealed from now on: both the constructor
    and `FragmentBuilder.freeze` bind a fragment's slots through
    `Fragment._seal`, once per fragment."""
    built = []
    seal = Fragment._seal

    def counting_seal(self, *args):
        built.append(self)
        seal(self, *args)

    monkeypatch.setattr(Fragment, "_seal", counting_seal)
    return built


def test_from_standard_tree_builds_once(monkeypatch):
    built = _count_seals(monkeypatch)
    f = _chain5()
    assert f.suc and f.meet
    assert built == [f]


TABLES = ("sort", "level", "meet", "suc", "pre", "lim", "gmap", "constants")


def test_fragment_and_shape_tables_are_read_only():
    """No way of writing to a mapping works on a fragment table, an
    inner G table or a shape's parent or labels: not item assignment
    or deletion, not the dict methods called on the view (it has no
    update or setdefault of its own)."""
    f = theta_two_sort()
    tables = [getattr(f, name) for name in TABLES]
    tables += [f.gmap[("0", "1")], f.shape.parent, f.shape.labels]
    for t in tables:
        key = next(iter(t))
        writes = (lambda: operator.setitem(t, key, t[key]),
                  lambda: operator.delitem(t, key),
                  lambda: dict.__setitem__(t, key, t[key]),
                  lambda: dict.update(t, {key: t[key]}),
                  lambda: dict.setdefault(t, key, t[key]))
        for write in writes:
            with pytest.raises(TypeError):
                write()
        assert not hasattr(t, "update") and not hasattr(t, "setdefault")
    assert all(type(d) is frozenset for d in f._below.values())


def test_frozen_fragment_ignores_later_builder_edits():
    b = FragmentBuilder(theta_two_sort())
    f = b.freeze(chain_shape(2), "theta")
    before = fragment_to_dict(f)
    for name in TABLES:
        getattr(b, name).clear()
    b = FragmentBuilder(f)
    b.gmap[("0", "1")]["d0"] = "e1"
    b.relate("e1", "e0")
    b.add_node("zz", "0", Ordinal())
    assert fragment_to_dict(f) == before
    assert fragment_to_dict(b.freeze(f.shape, f.mode)) != before


def test_builder_order_is_read_only():
    """Order edges go in through mint, relate and absorb, or by
    assigning all of them at once, which computes every down-set
    anew; the order a builder shows cannot be edited in place."""
    b = FragmentBuilder(_chain5())
    with pytest.raises(AttributeError):
        b.order.add(("n4", "n0"))
    b.order = set(b.order) | {("n4", "n0")}
    assert b._below["n0"] == {"n0", "n1", "n2", "n3", "n4"}


def _watch_freezes(monkeypatch):
    """Check every fragment `FragmentBuilder.freeze` seals from now on:
    its down-sets are the ones `Fragment` computes from its edges, as
    frozensets, and each meet key is ordered.  Returns the fragments."""
    frozen = []
    real_freeze = FragmentBuilder.freeze

    def checked_freeze(b, shape, mode):
        f = real_freeze(b, shape, mode)
        assert f._below == structure._down_sets(f.nodes, f.order)
        assert all(type(d) is frozenset for d in f._below.values())
        assert all(x <= y for x, y in f.meet)
        frozen.append(f)
        return f

    monkeypatch.setattr(FragmentBuilder, "freeze", checked_freeze)
    return frozen


def _freeze_standard_trees():
    for (levels, edges), kw in _standard_tree_inputs():
        try:
            from_standard_tree(levels, edges, **kw)
        except InvalidTree:
            pass
    for fix in (lambda: chain(12), three_sort_step_fixture, fan_pair_fixture,
                comb_and_fan_fixture, hard_six, theta_single_sort,
                theta_two_sort, two_root_forest):
        fix()
    for seed in range(5):
        rng = random.Random(seed)
        random_closed_fragment(rng)
        random_tripod(rng)
        top_sort_only(rng)


def _freeze_completions():
    """The pinned inputs, `dropped_entry_fragments` of seeds 0-19
    among them."""
    for _, f in _completion_pin_inputs():
        complete(f)


def _freeze_extensions():
    for _, fa, fb, a, b, c, m1 in transfer_instances(
            random.Random(7), (("point", 20), ("tripod", 20), ("empty", 5))):
        qe.extend_one_point(fa, a, c, fb, b, m1)


def _freeze_glue():
    for case in ("theta", "singular", "regular", "inaccessible"):
        glue.build_witness(case)
    glue.build_control(12)
    w = Ordinal.omega()

    def base(p):
        return from_standard_tree(
            {p + "0": Ordinal(), p + "l": w, p + "s": w.plus(1)},
            {(p + "0", p + "l"), (p + "0", p + "s"), (p + "l", p + "s")})

    glue.star_construct(glue.GlueSpec(
        POINT_SHAPE, base("b"), {("r", 0): base("w"), ("r", 1): base("v")},
        {("r", 0): {"bs": "w0"}}))


def _freeze_overlapping_absorb():
    """Two fragments that share the node m, absorbed in both orders:
    only the merged edges put a below c."""
    f = from_standard_tree({"a": Ordinal(), "m": Ordinal.nat(1)},
                           {("a", "m")})
    g = from_standard_tree({"m": Ordinal.nat(1), "c": Ordinal.nat(2)},
                           {("m", "c")})
    for first, second in ((f, g), (g, f)):
        b = FragmentBuilder(first)
        b.absorb(second, lambda eta: eta)
        assert b._below["c"] == {"a", "m"}
        b.freeze(POINT_SHAPE, "base")


def _freeze_dangling_edges():
    """Edges naming ids that are no nodes when they go in, through an
    invalid fragment, `relate`, `mint` and assigning `order`; then the
    ids become nodes.  Last, a node written into `nodes` directly."""
    f = Fragment(POINT_SHAPE, ("a", "b"), {"a": "r", "b": "r"},
                 {"a": Ordinal(), "b": Ordinal.nat(1)},
                 {("a", "b"), ("z", "a"), ("b", "q")})
    b = FragmentBuilder(f)
    b.freeze(f.shape, f.mode)
    b.add_node("z", "r", Ordinal())
    b.add_node("q", "r", Ordinal.nat(2))
    assert b.freeze(f.shape, f.mode)._below["q"] == {"a", "b", "z"}
    f = _chain5()
    b = FragmentBuilder(f)
    b.relate("n4", "p")
    b.add_node("p", "r", Ordinal.nat(5))
    b.freeze(f.shape, f.mode)
    b = FragmentBuilder(f)
    b.mint("m", "r", Ordinal.nat(5), below=f.nodes, above=["p"])
    b.add_node("p", "r", Ordinal.nat(6))
    b.freeze(f.shape, f.mode)
    b = FragmentBuilder(f)
    b.order = f.order | {("n4", "p")}
    b.add_node("p", "r", Ordinal.nat(5))
    b.freeze(f.shape, f.mode)
    b = FragmentBuilder(f)
    b.nodes.add("p")
    assert not b.freeze(f.shape, f.mode)._below["p"]


@pytest.mark.parametrize("run", [
    _freeze_standard_trees, _freeze_completions, _freeze_extensions,
    _freeze_glue, _freeze_overlapping_absorb, _freeze_dangling_edges],
    ids=lambda run: run.__name__)
def test_freeze_hands_over_exact_down_sets(monkeypatch, run):
    """freeze takes the builder's down-sets over instead of computing
    them from the edges: on every fragment it seals they equal what
    `Fragment` would compute, and every meet key is ordered."""
    frozen = _watch_freezes(monkeypatch)
    run()
    assert frozen


ATTRIBUTES = ("shape", "nodes", "order", "mode") + TABLES


def test_fragment_attributes_cannot_be_rebound():
    """A fragment's attributes are bound once, so a cache keyed by the
    fragment stays sound; the builder stays writable."""
    f = theta_two_sort()
    assert len(ATTRIBUTES) == 12
    for name in ATTRIBUTES + ("_below", "extra"):
        with pytest.raises(AttributeError):
            setattr(f, name, {})
    with pytest.raises(AttributeError):
        del f.lim
    assert not hasattr(f, "__dict__")
    b = FragmentBuilder(f)
    for name in ATTRIBUTES:
        setattr(b, name, {})
    assert f.lim and f.mode == "theta"


def test_fragment_replace_is_nondestructive():
    f = _chain5()
    g = replace(f, mode="theta")
    assert f.mode == "base" and g.mode == "theta"
    assert g.nodes == f.nodes


def test_empty_fragment():
    f = Fragment(POINT_SHAPE, ())
    assert not validate(f)
    assert len(f) == 0
    assert is_closed(f)
