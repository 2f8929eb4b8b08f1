import itertools
import os
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import treedesk
from gen import (chain, hard_six, random_closed_fragment, random_tripod,
                 six_chain_base)
from oracles import basis_scan, coloring_reference
from treedesk.errors import BadArgument, UnknownNode
from treedesk.ordinal import Ordinal
from treedesk.partition import (
    Coloring, DType, PTriple, coloring_from_sequence, d_q, dtp,
    enumerate_complete_dtypes, find_homogeneous, is_hard, lift_element,
    QNode, p_from_coloring, pair, pi1, pi2, q_enumerate, satisfies, unpair,
    _RowBasis, validate_ptriple, validate_qnode,
)
from treedesk import partition, types
from treedesk.structure import SortError, UndefinedTerm
from treedesk.types import BudgetExceeded, atomic_basis, basis_terms


@given(st.integers(0, 500), st.integers(0, 500))
def test_pairing_round_trip(a, b):
    assert unpair(pair(a, b)) == (a, b)
    assert pi1(pair(a, b)) == a
    assert pi2(pair(a, b)) == b


def test_pairing_rejects_negatives():
    with pytest.raises(ValueError):
        pair(-1, 0)
    with pytest.raises(ValueError):
        unpair(-1)


def test_coloring_rejects_non_increasing_keys():
    c = Coloring(4, 2, {(0, 1): 1}, 0)
    assert c.color((0, 1)) == 1
    assert c.color((0, 2)) == 0
    with pytest.raises(ValueError):
        c.color((1, 0))


def test_coloring_checks_keys_it_misses():
    c = Coloring(4, 2, {(0, 1): 3})
    assert c.color((0, 1)) == 3
    assert c.color([2, 3]) == c.color((1,)) == c.color(()) == 0
    for key, why in (((0, 99), "outside ground set"),
                     ((-1,), "outside ground set"),
                     ((0, 1, 2), "longer than arity"),
                     ((2, 2), "not strictly increasing")):
        with pytest.raises(BadArgument, match=why):
            c.color(key)


def test_p_from_coloring_needs_a_position_per_level():
    levels = [Ordinal.omega(1, q).plus(r) for q in range(1, 4)
              for r in (0, 1)]
    assert len(p_from_coloring(Coloring(6, 2), levels).d) == 6
    # the last successor-of-limit node sits at position 5
    with pytest.raises(BadArgument, match="outside ground set"):
        p_from_coloring(Coloring(5, 2), levels)
    assert p_from_coloring(Coloring(5, 2), levels[:5]).d


def test_find_homogeneous_least_witness():
    # constant coloring: the least triple is the lexicographic first
    c = Coloring(5, 2, {}, 0)
    idxs, per_len = find_homogeneous(c, 3)
    assert idxs == (0, 1, 2)
    assert per_len[2] == 0


def test_find_homogeneous_pentagon_has_none():
    table = {p: 1 if (p[1] - p[0]) in (1, 4) else 0
             for p in itertools.combinations(range(5), 2)}
    assert find_homogeneous(Coloring(5, 2, table, 0), 3) is None


def test_find_homogeneous_delta_bounds():
    c = Coloring(3, 2, {}, 0)
    with pytest.raises(ValueError):
        find_homogeneous(c, 4)


def test_find_homogeneous_walks_the_ground_set_lazily():
    """The candidates come in the order of itertools.combinations over
    range(n), and a ground set far larger than memory costs only the
    candidates the search visits."""
    for n in range(7):
        for r in range(9):
            assert list(partition._increasing_tuples(n, r)) == \
                list(itertools.combinations(range(n), r)), (n, r)
    far = Coloring(10 ** 15, 2, {(0, 2): 1}, 0)
    assert find_homogeneous(far, 3) == ((0, 1, 3), {1: 0, 2: 0})
    # every triple (0, 1, j) fails, so the walk stops at the budget
    with pytest.raises(BudgetExceeded):
        find_homogeneous(Coloring(10 ** 15, 2, {(0, 1): 1}, 0), 3,
                         budget=50)


def _gap_coloring(n, arity, gaps):
    """Pairs colored 1 when their index gap is in gaps, else 0."""
    return Coloring(n, arity, {p: int(p[1] - p[0] in gaps)
                               for p in itertools.combinations(range(n), 2)},
                    0)


# budget = the exact number of color lookups each search makes
@pytest.mark.parametrize("c, lookups, want", [
    (_gap_coloring(5, 2, (1, 4)), 53, None),
    (_gap_coloring(6, 2, (1, 4)), 38, ((0, 2, 5), {1: 0, 2: 0})),
])
def test_find_homogeneous_budget_boundary(c, lookups, want):
    assert find_homogeneous(c, 3, budget=lookups) == want
    with pytest.raises(BudgetExceeded):
        find_homogeneous(c, 3, budget=lookups - 1)


@pytest.mark.parametrize("delta, lookups, want", [(3, 39, False),
                                                  (4, 95, True)])
def test_is_hard_budget_boundary(delta, lookups, want):
    levels = [Ordinal.omega(1, q).plus(r) for q in range(1, 7)
              for r in (0, 1)]
    # suc-lim nodes sit at even index gaps: colored 1 at suc-lim gaps 1, 4
    p = p_from_coloring(_gap_coloring(len(levels), 3, (2, 8)), levels)
    assert is_hard(p, delta, budget=lookups) == want
    with pytest.raises(BudgetExceeded):
        is_hard(p, delta, budget=lookups - 1)


def test_coloring_from_sequence_homogeneous_on_chain_tail():
    from treedesk.structure import from_standard_tree
    levels = {"n%02d" % i: Ordinal.nat(i) for i in range(8)}
    names = sorted(levels)
    edges = {(names[i], names[j]) for i in range(8)
             for j in range(i + 1, 8)}
    f = from_standard_tree(levels, edges)
    col = coloring_from_sequence(f, names, k=0, arity=2)
    # at rank 0 every non-root entry has the same singleton type (itself
    # plus the root), so the tail is homogeneous with color 0; pairs
    # involving the root are separated
    tail = {col.color(p) for p in itertools.combinations(range(1, 8), 2)}
    assert tail == {0}
    with_root = {col.color((0, j)) for j in range(1, 8)}
    assert 0 not in with_root


def _scan_color(f, left, right, k):
    """Reference color of a pair of halves with distinct types, and how
    many atoms before the separating one read an undefined term on
    either half: the basis scan on the left half's sorts."""
    sorts = tuple(f.sort[x] for x in left)
    return basis_scan(f, atomic_basis(len(left), k, f.shape, sorts),
                      left, right)


def _one_sort_sequences():
    """(fragment, one-sort sequence, k): rank 0 on closed fragments and
    tripods, rank 1 on two closed fragments."""
    for s in range(3):
        f = random_closed_fragment(random.Random(s), 18)
        seq = sorted(x for x in f.nodes if f.sort.get(x) is not None)[:8]
        yield from ((f, seq, k) for k in ((0, 1) if s < 2 else (0,)))
    for s in range(2):
        f = random_tripod(random.Random(s))
        yield f, sorted(x for x in f.nodes if f.sort.get(x) == "r")[:8], 0


def test_coloring_from_sequence_matches_basis_scan():
    undefined = 0
    for f, seq, k in _one_sort_sequences():
        col = coloring_from_sequence(f, seq, k=k, arity=2)
        assert col.table
        for (i, j), c in col.table.items():
            want, u = _scan_color(f, (seq[i],), (seq[j],), k)
            assert c == want
            undefined += u
    assert undefined > 0


def test_coloring_from_sequence_mixed_sorts_raise():
    f = random_tripod(random.Random(2))
    seq = sorted(x for x in f.nodes if f.sort.get(x) is not None)[:8]
    assert len({f.sort[x] for x in seq}) > 1
    with pytest.raises(SortError, match="level-map edge"):
        coloring_from_sequence(f, seq, k=0, arity=2)


def _outcome(fn):
    """fn's result, or the type and message of the TreedeskError it
    raises."""
    try:
        return fn()
    except treedesk.TreedeskError as e:
        return type(e), str(e)


def _reference_cases():
    """(fragment, sequence, k): shuffled mixed-sort and sorted one-sort
    tripod sequences at rank 0, closed fragments at ranks 0 and 1."""
    for s in range(80):
        rng = random.Random(s)
        f = random_tripod(rng)
        pool = sorted(x for x in f.nodes if f.sort.get(x) is not None)
        if s < 10:
            yield f, [x for x in pool if f.sort[x] == "r"][:6], 0
        rng.shuffle(pool)
        yield f, pool[:5], 0
    for s in range(40):
        f = random_closed_fragment(random.Random(s), 14)
        pool = sorted(x for x in f.nodes if f.sort.get(x) is not None)[:6]
        yield from ((f, pool, k) for k in ((0, 1) if s < 8 else (0,)))


def test_coloring_from_sequence_matches_reference_with_errors():
    outcomes = []
    for f, seq, k in _reference_cases():
        want = _outcome(lambda: coloring_reference(f, seq, k, 2))
        got = _outcome(lambda: coloring_from_sequence(f, seq, k, 2).table)
        assert got == want
        outcomes.append(want)
    errors = [w for w in outcomes if isinstance(w, tuple)]
    assert len(errors) > 10 and {t for t, _ in errors} == {SortError}
    assert sum(1 for w in outcomes if w) > 100


def test_coloring_from_sequence_reads_rows_not_the_basis(monkeypatch):
    def unlisted(*args):
        raise AssertionError("the atomic basis was listed")
    monkeypatch.setattr(types, "atomic_basis", unlisted)
    f = chain(5)
    tracemalloc.start()
    try:
        col = coloring_from_sequence(f, f.nodes[:4], 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the pairs' colors lie in the first 10 of 41 rows, the
    # quadruple's in the first of 1,801 rows (4,868,103 atoms)
    assert col.table == {(0, 1): 124, (0, 2): 124, (0, 3): 124,
                         (1, 2): 148, (1, 3): 148, (2, 3): 1006,
                         (0, 1, 2, 3): 11}
    assert peak < 64 * 2 ** 20


def test_row_basis_matches_basis_scan_on_any_two_halves():
    # halves coloring_from_sequence never pairs: both of a sort other
    # than the basis's stop at the same atom and must still raise
    outcomes = []
    for s in range(4):
        rng = random.Random(s)
        f = random_tripod(rng)
        nodes = sorted(x for x in f.nodes if f.sort.get(x) is not None)
        basis = atomic_basis(1, 0, f.shape, ("r",))
        rows = _RowBasis(f, basis_terms(1, 0, f.shape, ("r",)))
        for _ in range(40):
            left, right = (rng.choice(nodes),), (rng.choice(nodes),)
            want = _outcome(lambda: basis_scan(f, basis, left, right)[0])
            assert _outcome(
                lambda: 1 + rows.first_difference(left, right)) == want
            outcomes.append(want)
    assert sum(isinstance(w, tuple) for w in outcomes) > 40
    assert sum(w == 1 + len(basis) for w in outcomes) > 0


def test_row_atoms_read_their_first_term_first():
    # ("<", tj, ti) reads tj before ti: with lim(x0) undefined and x0
    # ill-sorted, ("=", ti, tj) and ("<", ti, tj) are false and
    # ("<", tj, ti) raises, as eval_formula would
    f = chain(2)
    rows = _RowBasis(f, basis_terms(1, 0, f.shape))
    undefined, ill = UndefinedTerm("lim"), SortError("x0")
    assert rows._truths([undefined, ill], 0) == ((False,) * 5, ill)
    assert rows._truths([ill, undefined], 0) == ((), ill)
    assert rows._truths([undefined, undefined], 0) == ((False,) * 6, None)


_TRIPOD_COLORINGS = """
import hashlib, json, random
from gen import random_tripod
from treedesk.partition import coloring_from_sequence
from treedesk.types import family_fragment, family_parameter_pool, tp_code
h = hashlib.sha256()
f = random_tripod(random.Random(0))
for x in sorted(f.nodes):
    h.update(tp_code(f, (x,), (), 1))
f = family_fragment("binary", 64)
pool = family_parameter_pool(f, "binary")
for x in sorted(f.nodes):
    h.update(tp_code(f, (x,), pool[:4], 2))
for s in range(12):
    f = random_tripod(random.Random(s))
    seq = sorted(x for x in f.nodes if f.sort.get(x) == "r")[:8]
    col = coloring_from_sequence(f, seq, k=0, arity=2)
    h.update(json.dumps(sorted([list(k), c]
                               for k, c in col.table.items())).encode())
print(h.hexdigest())
"""


def test_coloring_from_sequence_ignores_hash_seed():
    # G terms over sibling edges print alike; their order in the basis
    # must not come from set iteration order
    paths = [os.path.dirname(os.path.dirname(treedesk.__file__)),
             os.path.dirname(__file__)]
    out = set()
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(paths))
        run = subprocess.run([sys.executable, "-c", _TRIPOD_COLORINGS],
                             env=env, capture_output=True, text=True,
                             check=True, timeout=120)
        out.add(run.stdout)
    assert len(out) == 1


def test_p_from_coloring_and_validate():
    p = six_chain_base()
    assert not validate_ptriple(p)
    assert p.suc_lim() == ["n001", "n003", "n005"]
    assert len([x for x in p.tree.nodes
                if p.tree.sort.get(x) is not None]) == 6


def test_hardness():
    assert is_hard(hard_six(), 3)
    # the all-zero coloring has homogeneous pairs, hence is not hard
    assert not is_hard(six_chain_base(), 2)


def test_validate_ptriple_catches_bad_d_key():
    p = six_chain_base()
    p.d[("n003", "n001")] = 0
    rep = validate_ptriple(p)
    assert any(r.startswith("d-key-order") for r in rep)


def test_complete_dtype_count():
    p = six_chain_base()
    sl = p.suc_lim()
    # one equation per subset of the support, empty set included
    for m in (1, 2):
        dts = enumerate_complete_dtypes(p, tuple(sl[:m]), 2)
        assert len(dts) == 2 ** (2 ** m)
        assert all(dt.is_complete() for dt in dts)


def test_dtp_satisfies_round_trip():
    p = six_chain_base()
    sl = p.suc_lim()
    g = dtp(p, sl[2], (sl[0], sl[1]))
    assert satisfies(p, sl[2], g)


def test_q_enumerate_structure():
    p = six_chain_base()
    q, ids = q_enumerate(p, alpha_max=2, colors=2)
    assert not validate_ptriple(q)
    for nid, a in ids.items():
        assert q.tree.level[nid] == Ordinal.nat(a.lg)
        assert not validate_qnode(p, a) or a.lg == 0
    # prefix order is the tree order
    for x, a in ids.items():
        for y, b in ids.items():
            if q.tree.lt(x, y):
                assert a.is_prefix_of(b)


def test_lift_element_bounded():
    p = six_chain_base()
    for t in p.suc_lim():
        a = lift_element(p, t)
        assert a.last == t
        assert not validate_qnode(p, a)
        assert Ordinal.nat(a.lg) <= p.tree.level[t]


def test_dtypes_raise_unknown_node():
    # a node outside the tree raised a bare KeyError from the level
    # lookup, or gave an empty d-type when it was t
    p = six_chain_base()
    with pytest.raises(UnknownNode, match="'zz'"):
        dtp(p, "n003", ("zz",))
    with pytest.raises(UnknownNode, match="'zz'"):
        enumerate_complete_dtypes(p, ("zz",), 2)
    with pytest.raises(UnknownNode, match="'zz'"):
        dtp(p, "zz", ("n001",))


def test_d_q_requires_top_gamma():
    p = six_chain_base()
    q, ids = q_enumerate(p, alpha_max=2, colors=2)
    two = [a for a in ids.values() if a.lg == 2]
    if two:
        with pytest.raises(ValueError):
            d_q((two[0],))


def _tight_gamma(p, t):
    """The complete d-type of t over itself, with its missing equations
    set to 0: on the all-zero chain every earlier successor-of-limit
    node below t realizes it."""
    g = dtp(p, t, (t,))
    for key in ((), (t,)):
        g.eqs.setdefault(key, 0)
    return g


def _one_zero(support, top_color=0):
    return DType(support, {(): 0, support: top_color})


# six_chain_base: n000 < n001 < ... < n005 at levels w, w+1, w2, w2+1,
# w3, w3+1, so n001, n003 and n005 are the successor-of-limit nodes;
# d is 0 on every tuple
QNODE_FAULTS = {
    "eta-range": (QNode(("n000",), _one_zero(("n000",))),
                  ["eta-range: 'n000'"]),
    "eta-increasing": (
        QNode(("n003", "n001"), _one_zero(("n003",))),
        ["eta-increasing: positions 0,1"]),
    "gamma-positions-missing": (QNode(("n001",)),
                                ["gamma-positions: []"]),
    "gamma-positions-on-empty": (QNode((), DType((), {(): 0})),
                                 ["gamma-positions: [0]"]),
    "gamma-support": (QNode(("n001",), _one_zero(("n003",))),
                      ["gamma-support: position 0"]),
    "gamma-incomplete": (QNode(("n001",), DType(("n001",), {(): 0})),
                         ["gamma-incomplete: position 0"]),
    "zero-satisfies": (
        QNode(("n001",), DType(("n001",), {(): 1, ("n001",): 0})),
        ["zero-satisfies"]),
    "realized": (QNode(("n001", "n003"), _one_zero(("n001",), 1)),
                 ["realized: position 1 over 0"]),
    "tightness": (
        QNode(("n005",), _tight_gamma(six_chain_base(), "n005")),
        ["tightness: position 0 witnessed by 'n001'",
         "tightness: position 0 witnessed by 'n003'"]),
}


@pytest.mark.parametrize("case", sorted(QNODE_FAULTS))
def test_validate_qnode_reports_each_clause(case):
    a, want = QNODE_FAULTS[case]
    assert validate_qnode(six_chain_base(), a) == want


_TIGHTNESS_REPORT = """
from gen import six_chain_base
from treedesk.partition import QNode, dtp, validate_qnode
p = six_chain_base()
g = dtp(p, "n005", ("n005",))
for key in ((), ("n005",)):
    g.eqs.setdefault(key, 0)
print(validate_qnode(p, QNode(("n005",), g)))
"""


def test_validate_qnode_lists_tightness_witnesses_in_level_order():
    # the witnesses were listed in set order, so n003 came first under
    # PYTHONHASHSEED 0 and n001 under 1
    paths = [os.path.dirname(os.path.dirname(treedesk.__file__)),
             os.path.dirname(__file__)]
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(paths))
        run = subprocess.run([sys.executable, "-c", _TIGHTNESS_REPORT],
                             env=env, capture_output=True, text=True,
                             check=True, timeout=120)
        assert run.stdout == "%r\n" % QNODE_FAULTS["tightness"][1], seed
