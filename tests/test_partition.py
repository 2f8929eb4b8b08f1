import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import treedesk
from gen import random_tripod
from treedesk.fixtures import hard_six, random_closed_fragment, six_chain_base
from treedesk.ordinal import Ordinal
from treedesk.partition import (
    Coloring, DType, PTriple, coloring_from_sequence, d_q, dtp,
    enumerate_complete_dtypes, find_homogeneous, is_hard, lift_element,
    p_from_coloring, pair, pi1, pi2, q_enumerate, satisfies, unpair,
    validate_ptriple, validate_qnode,
)
from treedesk.qe import eval_formula
from treedesk.structure import SortError, UndefinedTerm, eval_term
from treedesk.types import BudgetExceeded, atomic_basis


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
    """Reference color of a pair of halves with distinct types: scan the
    basis with eval_formula.  Also returns how many atoms before the
    separating one read an undefined term on either half."""
    sorts = tuple(f.sort[x] for x in left)
    basis = atomic_basis(len(left), k, f.shape, sorts)
    undefined = 0
    for i, (rel, t1, t2) in enumerate(basis):
        phi = ("atom", rel, t1, t2)
        if eval_formula(f, phi, left) != eval_formula(f, phi, right):
            return 1 + i, undefined
        for half in (left, right):
            try:
                eval_term(f, t1, half), eval_term(f, t2, half)
            except UndefinedTerm:
                undefined += 1
    return 1 + len(basis), undefined


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


_TRIPOD_COLORINGS = """
import hashlib, json, random
from gen import random_tripod
from treedesk.partition import coloring_from_sequence
from treedesk.types import tp_code
h = hashlib.sha256()
f = random_tripod(random.Random(0))
for x in sorted(f.nodes):
    h.update(tp_code(f, (x,), (), 1))
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


def test_d_q_requires_top_gamma():
    p = six_chain_base()
    q, ids = q_enumerate(p, alpha_max=2, colors=2)
    two = [a for a in ids.values() if a.lg == 2]
    if two:
        with pytest.raises(ValueError):
            d_q(p, (two[0],))
