"""Acceptance suite: twelve end-to-end checks, one per shipped
guarantee, each printed as a single PASS/FAIL line.

Every check follows the same pattern: generate instances (randomized
with fixed seeds, or exhaustive within stated bounds), run the library,
and compare against an independent oracle or a hand-derived law.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from gen import rename, theta_single_sort, theta_two_sort, transfer_instances
from oracles import closure_oracle, count_isomorphisms

from treedesk.fixtures import (
    comb_and_fan_fixture, fan_pair_fixture,
    random_closed_fragment, random_sequence_fixture,
    random_standard_fragment, six_chain_base, three_sort_step_fixture,
)
from treedesk.glue import build_control, build_witness
from treedesk.indis import (
    SequenceWindow, classify, h_iterate, is_indiscernible,
    search_indiscernible,
)
from treedesk.ordinal import Ordinal
from treedesk.partition import (
    Coloring, coloring_from_sequence, d_q, find_homogeneous, lift_element,
    pi1, q_enumerate, satisfies, validate_ptriple, validate_qnode,
)
from treedesk.qe import extend_one_point, m2
from treedesk.shape import POINT_SHAPE
from treedesk.structure import (
    Fragment, closure, complete, validate,
)
from treedesk.types import count_type_classes, equiv_k, estimate_degree, tp_code


def _report(num: int, desc: str, ok: bool, elapsed: float, limit: float):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print("criterion %02d %s: %s (%.1fs)" % (num, status, desc, elapsed))
    assert ok, "criterion %02d: %s" % (num, desc)
    assert elapsed < limit, "criterion %02d exceeded %.0fs" % (num, limit)


# ---------------------------------------------------------------------------
# 1. validator: clean random fragments, one mutation per axiom


def _upd(d, **kw):
    d = dict(d)
    d.update(kw)
    return d


def _violation_names(rep):
    return {r.split(":")[0] for r in rep}


def test_criterion_01_axiom_validator():
    t0 = time.monotonic()
    ok = True
    cap = Ordinal.omega(1, 4)
    for seed in range(50):
        f = random_standard_fragment(random.Random(seed), 40)
        ok = ok and not validate(f)
        ok = ok and all(l < cap for l in f.level.values())

    f, _ = three_sort_step_fixture()
    ok = ok and not validate(f)
    g01 = f.gmap[("0", "1")]
    mutations = [
        ("sort-unknown-index", f.replace(sort=_upd(f.sort, a_r="bogus"))),
        ("level-missing", f.replace(
            level={k: v for k, v in f.level.items() if k != "a_r"})),
        ("order-unknown-node",
         f.replace(order=set(f.order) | {("ghost", "a_m0")})),
        ("order-cross-sort",
         f.replace(order=set(f.order) | {("a_r", "b_r")})),
        ("order-cycle", f.replace(order=set(f.order) | {("a_m0", "a_r")})),
        ("order-downset-chain",
         f.replace(order=set(f.order) | {("a_s0", "a_s1")})),
        ("order-level", f.replace(order=set(f.order) | {("a_p0", "a_s0")})),
        ("meet-sort", f.replace(meet={**f.meet, ("a_r", "a_r"): "b_r"})),
        ("meet-lower-bound",
         f.replace(meet={**f.meet, ("a_m0", "a_m1"): "a_s0"})),
        ("meet-not-max",
         f.replace(meet={**f.meet, ("a_p0", "a_s0"): "a_r"})),
        ("suc-sort", f.replace(suc={**f.suc, ("a_r", "a_m0"): "b_r"})),
        ("suc-bounds", f.replace(suc={**f.suc, ("a_m0", "a_p0"): "a_r"})),
        ("suc-level", f.replace(suc={**f.suc, ("a_p0", "a_m1"): "a_m1"})),
        ("suc-between", f.replace(suc={**f.suc, ("a_r", "a_m1"): "a_m1"})),
        ("lim-of-suc", f.replace(lim=_upd(f.lim, a_p0="a_r"))),
        ("lim-sort", f.replace(lim=_upd(f.lim, a_p0="b_r"))),
        ("lim-bound", f.replace(lim=_upd(f.lim, a_p0="a_s0"))),
        ("lim-level", f.replace(lim=_upd(f.lim, a_p0="a_r"))),
        ("lim-idempotent", f.replace(lim=_upd(f.lim, a_m0="a_r"))),
        ("lim-monotone", f.replace(lim=_upd(f.lim, a_m2="a_m0"))),
        ("pre-sort", f.replace(pre=_upd(f.pre, a_p0="b_r"))),
        ("pre-bound", f.replace(pre=_upd(f.pre, a_p0="a_s0"))),
        ("pre-level", f.replace(pre=_upd(f.pre, a_p0="a_r"))),
        ("pre-suc", f.replace(suc={**f.suc, ("a_m0", "a_p0"): "a_s0"})),
        ("gmap-edge", f.replace(gmap={**f.gmap, ("0", "2"): {}})),
        ("gmap-sort", f.replace(
            gmap={**f.gmap, ("0", "1"): {**g01, "b_r": "b_v0"}})),
        ("gmap-domain", f.replace(
            gmap={**f.gmap, ("0", "1"): {**g01, "a_m0": "b_v0"}})),
        ("regressive", f.replace(
            gmap={**f.gmap, ("0", "1"): {**g01, "a_s3": "b_v0"}})),
    ]
    g = theta_single_sort()
    h = theta_two_sort()
    ok = ok and not validate(g) and not validate(h)
    mutations += [
        ("constants-sort",
         g.replace(constants={**g.constants, ("r", 0): "ghost"})),
        ("constants-distinct",
         g.replace(constants={**g.constants, ("r", 1): "d0"})),
        ("constants-limit-meet", g.replace(lim=_upd(g.lim, L="r"))),
        ("constants-suc-meet",
         g.replace(suc={**g.suc, ("L", "d0"): "d1"})),
        ("constants-meet",
         g.replace(meet={**g.meet, ("d0", "d1"): "r"})),
        ("constants-gmap",
         h.replace(gmap={("0", "1"): {"d0": "e1", "d1": "e1"}})),
    ]
    for name, mutated in mutations:
        if name not in _violation_names(validate(mutated)):
            ok = False
            print("  mutation %r not rejected with its name" % name)
    _report(1, "validator accepts 50 random fragments, rejects every "
               "single-edit axiom mutation by name",
            ok, time.monotonic() - t0, 10.0)


# ---------------------------------------------------------------------------
# 2. closure vs independent term-enumeration oracle


def test_criterion_02_closure_oracle():
    t0 = time.monotonic()
    ok = True
    for seed in range(100):
        rng = random.Random(seed)
        f = random_closed_fragment(rng)
        pool = sorted(n for n in f.nodes if f.sort.get(n) is not None)
        for _ in range(3):
            a = tuple(rng.sample(pool, rng.randint(1, 3)))
            k = rng.randint(0, 2)
            if closure(f, a, k) != closure_oracle(f, a, k):
                ok = False
                print("  closure mismatch seed=%d a=%r k=%d" % (seed, a, k))
    _report(2, "closure equals the rank-bounded term enumeration oracle "
               "on 100 random closed fragments",
            ok, time.monotonic() - t0, 60.0)


# ---------------------------------------------------------------------------
# 3 + 4. type-code soundness and the reduction laws (shared pair sweep)


_PAIRS = None


def _pair_sweep():
    """520 tuple pairs over random closed fragments, half within one
    fragment and half against a renamed isomorphic copy."""
    global _PAIRS
    if _PAIRS is not None:
        return _PAIRS
    out = []
    for seed in range(130):
        rng = random.Random(1000 + seed)
        fa = random_closed_fragment(rng)
        pool = sorted(n for n in fa.nodes if fa.sort.get(n) is not None)
        k = rng.randint(0, 2)
        n = rng.randint(1, 2)
        a1 = tuple(rng.sample(pool, n))
        a2 = tuple(rng.sample(pool, n))
        out.append((fa, a1, fa, a2, k))
        out.append((fa, a1, fa, a1, k))
        fb, r = rename(fa, "y")
        b1 = tuple(r[x] for x in a1)
        out.append((fa, a1, fb, b1, k))
        a3 = tuple(rng.sample(pool, n))
        b2 = tuple(r[x] for x in rng.sample(pool, n))
        out.append((fa, a3, fb, b2, k))
    _PAIRS = out
    return out


def test_criterion_03_type_code_soundness():
    t0 = time.monotonic()
    ok = True
    positives = 0
    for fa, a, fb, b, k in _pair_sweep():
        same = tp_code(fa, a, (), k) == tp_code(fb, b, (), k)
        w = equiv_k(fa, a, fb, b, k)
        ca = closure(fa, a, k)
        cb = closure(fb, b, k)
        n_iso = count_isomorphisms(fa, ca, fb, cb, dict(zip(a, b)), cap=2) \
            if len(ca) == len(cb) and len(set(b)) == len(set(a)) else 0
        if same != (n_iso > 0) or same != (w is not None):
            ok = False
            print("  soundness mismatch a=%r b=%r k=%d" % (a, b, k))
        if same:
            positives += 1
            if n_iso != 1:
                ok = False
                print("  witness not unique a=%r b=%r k=%d" % (a, b, k))
            if set(w) != ca or set(w.values()) != cb:
                ok = False
                print("  witness domain mismatch a=%r b=%r" % (a, b))
    ok = ok and positives >= 100 and len(_pair_sweep()) >= 500
    _report(3, "tp_code equality iff a unique closure isomorphism exists, "
               "on %d random pairs (%d equivalent)"
               % (len(_pair_sweep()), positives),
            ok, time.monotonic() - t0, 120.0)


def test_criterion_04_reduction_laws():
    t0 = time.monotonic()
    ok = True
    for fa, a, fb, b, k in _pair_sweep():
        w = equiv_k(fa, a, fb, b, k)
        if w is None:
            continue
        # monotonicity: equivalent at k implies equivalent at every k' < k
        for k2 in range(k):
            if equiv_k(fa, a, fb, b, k2) is None:
                ok = False
                print("  monotonicity fails a=%r b=%r k=%d->%d"
                      % (a, b, k, k2))
        # projection: equivalence of the pair implies it for each prefix
        for m in range(1, len(a)):
            if equiv_k(fa, a[:m], fb, b[:m], k) is None:
                ok = False
                print("  projection fails a=%r b=%r k=%d" % (a, b, k))
        # shift: rank-k tuples have rank-(k-1) equivalent closures
        if k >= 1:
            a0 = tuple(sorted(closure(fa, a, 0)))
            b0 = tuple(w[x] for x in a0)
            if equiv_k(fa, a0, fb, b0, k - 1) is None:
                ok = False
                print("  closure shift fails a=%r b=%r k=%d" % (a, b, k))
    _report(4, "monotonicity, projection and closure-shift hold on every "
               "equivalent pair of the sweep",
            ok, time.monotonic() - t0, 120.0)


# ---------------------------------------------------------------------------
# 5. one-point extension transfer


def test_criterion_05_extension_transfer():
    t0 = time.monotonic()
    ok = ok_m2 = m2(0, 1, POINT_SHAPE) == 1 and m2(1, 1, POINT_SHAPE) == 3
    if not ok_m2:
        print("  single-sort rank bound is not 2*m1+1")
    runs = 0
    for kind, fa, fb, a, b, c, m1 in transfer_instances(random.Random(5)):
        try:
            ext, d = extend_one_point(fa, a, c, fb, b, m1)
        except Exception as exc:
            ok = False
            print("  extension failed (%s): %s" % (kind, exc))
            continue
        ca = closure(fa, (c,) + a, m1)
        cb = closure(ext, (d,) + b, m1)
        base = dict(zip((c,) + a, (d,) + b))
        if len(ca) != len(cb) or \
                count_isomorphisms(fa, ca, ext, cb, base, cap=1) < 1:
            ok = False
            print("  transfer not verified (%s, m1=%d)" % (kind, m1))
        if validate(ext):
            ok = False
            print("  extension fails validation (%s)" % kind)
        runs += 1
    ok = ok and runs == 200
    _report(5, "one-point extensions transfer at the stated rank and "
               "re-validate on 200 instances over three shapes",
            ok, time.monotonic() - t0, 300.0)


# ---------------------------------------------------------------------------
# 6. type-count degree stability


def test_criterion_06_degree_stability():
    from treedesk.fixtures import family_fragment, family_parameter_pool
    t0 = time.monotonic()
    ok = True
    for family in ("chain", "binary"):
        f = family_fragment(family, 64)
        pool = family_parameter_pool(f, family)
        degrees = {}
        for k in (0, 1, 2):
            series = [(m, count_type_classes(f, pool[:m], k, 1))
                      for m in range(1, 9)]
            degrees[k] = estimate_degree(series)
        if len(set(degrees.values())) != 1:
            ok = False
            print("  %s family degrees differ: %r" % (family, degrees))
    _report(6, "1-type count growth degree is rank-independent for the "
               "chain and binary families",
            ok, time.monotonic() - t0, 300.0)


# ---------------------------------------------------------------------------
# 7. dichotomy on exhaustive indiscernible windows


def test_criterion_07_dichotomy():
    t0 = time.monotonic()
    ok = True
    kinds_seen = set()
    for f in (fan_pair_fixture(), comb_and_fan_fixture()):
        pool = sorted(n for n in f.nodes if f.sort.get(n) is not None)
        for length in (4, 5, 6):
            for win in itertools.combinations(pool, length):
                w = SequenceWindow(f, win, k=1, r=3)
                if not is_indiscernible(w):
                    continue
                tag = classify(w).tag
                kinds_seen.add(tag)
                if tag == "Neither":
                    ok = False
                    print("  Neither window %r" % (win,))
                if tag == "AlmostIncreasing":
                    for i in range(length):
                        for n in range(2, length - i):
                            if f.meet_of(win[i], win[i + n]) != \
                                    f.meet_of(win[i], win[i + 1]):
                                ok = False
                                print("  collapse law fails %r" % (win,))
    ok = ok and kinds_seen == {"Fan", "AlmostIncreasing"}
    _report(7, "every indiscernible window of the tree fixtures is a fan "
               "or almost-increasing, with the meet-collapse law",
            ok, time.monotonic() - t0, 120.0)


# ---------------------------------------------------------------------------
# 8. step-map iteration


def test_criterion_08_h_iteration():
    t0 = time.monotonic()
    f, win = three_sort_step_fixture()
    trace = h_iterate(SequenceWindow(f, win, k=1, r=2))
    firsts = [step.levels[0] for step in trace]
    ok = all(b <= a for a, b in zip(firsts, firsts[1:]))
    if not ok:
        print("  entry levels increase along the trace")
    fan_at = [i for i, s in enumerate(trace) if s.classification.tag == "Fan"]
    if not fan_at or fan_at[0] > 2:
        ok = False
        print("  no fan within 2 steps: %r"
              % [s.classification.tag for s in trace])
    for step in trace:
        if step.classification.tag != "AlmostIncreasing":
            continue
        g = step.window.fragment
        seq = step.window.seq
        for i in range(len(seq) - 1):
            m = g.meet_of(seq[i], seq[i + 1])
            l = g.lim.get(m)
            if m is None or l is None or g.suc.get((l, seq[i])) != seq[i]:
                ok = False
                print("  step law fails at %r" % (seq[i],))
    _report(8, "step-map iteration has non-increasing entry levels, "
               "reaches a fan within 2 steps and satisfies the step law",
            ok, time.monotonic() - t0, 60.0)


# ---------------------------------------------------------------------------
# 9. homogeneous-set brute force


def test_criterion_09_ramsey_brute_force():
    t0 = time.monotonic()
    ok = True
    pairs6 = list(itertools.combinations(range(6), 2))
    for bits in range(2 ** 15):
        table = {p: (bits >> i) & 1 for i, p in enumerate(pairs6)}
        if find_homogeneous(Coloring(6, 2, table, 0), 3) is None:
            ok = False
            print("  coloring %d of [6] has no homogeneous triple" % bits)
            break
    pentagon = {p: 1 if (p[1] - p[0]) in (1, 4) else 0
                for p in itertools.combinations(range(5), 2)}
    if find_homogeneous(Coloring(5, 2, pentagon, 0), 3) is not None:
        ok = False
        print("  pentagon coloring unexpectedly homogeneous")
    _report(9, "all 2^15 pair colorings of [6] have homogeneous triples; "
               "a coloring of [5] has none",
            ok, time.monotonic() - t0, 60.0)


# ---------------------------------------------------------------------------
# 10. easy-direction round trip


def test_criterion_10_round_trip():
    t0 = time.monotonic()
    ok = True
    total = 0
    for seed in range(50):
        rng = random.Random(seed)
        f, seq = random_sequence_fixture(rng)
        col = coloring_from_sequence(f, seq, k=1, arity=2)
        for idxs in itertools.combinations(range(len(seq)), 4):
            colors = {col.color(p) for p in itertools.combinations(idxs, 2)}
            if len(colors) > 1:
                continue
            total += 1
            win = tuple(seq[i] for i in idxs)
            if not is_indiscernible(SequenceWindow(f, win, k=1, r=1)):
                ok = False
                print("  homogeneous window not indiscernible seed=%d %r"
                      % (seed, idxs))
    ok = ok and total > 0
    _report(10, "every homogeneous 4-window of the derived coloring is "
                "indiscernible (%d windows over 50 seeds)" % total,
            ok, time.monotonic() - t0, 120.0)


# ---------------------------------------------------------------------------
# 11. guess-sequence fragment laws


def test_criterion_11_guess_sequence_laws():
    t0 = time.monotonic()
    ok = True
    variants = [None,
                {(0,): 1},
                {(0,): 1, (1,): 1},
                {(0, 1): 1},
                {(0, 1): 1, (1, 2): 1},
                {(0,): 1, (0, 1): 1, (0, 2): 1}]
    checked = 0
    for d_table in variants:
        p = six_chain_base(d_table)
        ok = ok and not validate_ptriple(p)
        q, ids = q_enumerate(p, alpha_max=2, colors=2)
        ok = ok and not validate_ptriple(q)
        for nid, a in ids.items():
            if q.tree.level[nid] != Ordinal.nat(a.lg):
                ok = False
                print("  level != length at %r" % nid)
            if a.lg > 0 and validate_qnode(p, a):
                ok = False
                print("  enumerated node fails validation: %r" % nid)
        for t in sorted(p.tree.nodes):
            if p.tree.sort.get(t) is None:
                continue
            if Ordinal.nat(lift_element(p, t).lg) > p.tree.level[t]:
                ok = False
                print("  lifted length exceeds base level at %r" % t)
        sl = p.suc_lim()
        for u0, u1 in itertools.combinations(sl, 2):
            if not p.tree.lt(u0, u1):
                continue
            for nid, v in ids.items():
                if v.lg != 1 or v.eta != (u0,):
                    continue
                if not satisfies(p, u1, v.gammas[0]):
                    continue
                checked += 1
                if p.d[(u0, u1)] != pi1(d_q(p, (v,))):
                    ok = False
                    print("  key equation fails at (%r,%r)" % (u0, u1))
    ok = ok and checked > 0
    _report(11, "guess-sequence fragments satisfy level=length, tightness, "
                "the lift bound and the key color equation "
                "(%d instances)" % checked,
            ok, time.monotonic() - t0, 300.0)


# ---------------------------------------------------------------------------
# 12. witness and control demos


def test_criterion_12_witness_demos():
    t0 = time.monotonic()
    ok = True
    for case in ("theta", "singular", "regular", "inaccessible"):
        w, a_set = build_witness(case)
        if validate(w):
            ok = False
            print("  %s witness fails validation" % case)
        if search_indiscernible(w, a_set, length=4, k=1, r=2) is not None:
            ok = False
            print("  %s witness admits an indiscernible window" % case)
        ctrl, ca = build_control(len(w.nodes))
        if validate(ctrl):
            ok = False
            print("  %s control fails validation" % case)
        if search_indiscernible(ctrl, ca, length=4, k=1, r=2) is None:
            ok = False
            print("  %s control has no indiscernible window" % case)
    _report(12, "witness fragments have no indiscernible window while "
                "same-size controls do, for all four cases",
            ok, time.monotonic() - t0, 300.0)
