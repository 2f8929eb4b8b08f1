"""Gluing a base fragment with boundary fragments along the index tree.

The construction takes a base fragment over a sub-shape and, for
chosen (index, side) pairs, a boundary fragment whose whole shape is
re-attached below that index.  Every symbol of a boundary fragment
reappears in the output re-indexed by the attachment prefix; the base
is unchanged; the only genuinely new data are the connector tables
mapping successor nodes of the attachment sort into the boundary,
which are required to be regressive and otherwise free.

On top of the construction sit the witness builders: small fragments
with a designated subset of the first sort containing no non-constant
indiscernible window, one builder per case of the inductive argument
(constant budget, singular size, regular size, and the assembly from
the guess-sequence tree), plus an unconstrained control.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .ordinal import Ordinal
from .shape import ShapeTree, POINT_SHAPE, chain_shape
from .structure import Fragment, FragmentBuilder, complete, validate
from .partition import PTriple, lift_element, p_from_coloring, q_enumerate


class DisjointnessViolated(ValueError):
    pass


class AxiomViolated(ValueError):
    pass


class InsufficientSubwitness(ValueError):
    pass


@dataclass
class GlueSpec:
    s_prime: ShapeTree
    base: Fragment
    boundary: dict[tuple[str, int], Fragment] = field(default_factory=dict)
    connectors: dict[tuple[str, int], dict[str, str]] = \
        field(default_factory=dict)


def reindex(nu: str, eps: int, idx: str) -> str:
    return "%s.%s.%s" % (nu, eps, idx)


def star_construct(g: GlueSpec) -> Fragment:
    """Glue the boundary fragments onto the base.

    The output fragment's shape is the base shape with each boundary
    shape attached below its (index, side) key under the re-indexing
    prefix.  Node ids are kept; only sorts, level-map edges and
    constant keys are prefixed.  Connector tables become the level
    maps on the new attachment edges.
    """
    pools = [("base", set(g.base.nodes))]
    for key, h in sorted(g.boundary.items()):
        pools.append((key, set(h.nodes)))
    for (k1, n1), (k2, n2) in itertools.combinations(pools, 2):
        both = n1 & n2
        if both:
            raise DisjointnessViolated(
                "node ids %r shared by %r and %r" % (sorted(both), k1, k2))

    indices = list(g.s_prime.indices)
    parent = dict(g.s_prime.parent)
    labels = dict(g.s_prime.labels)
    for (nu, eps), h in sorted(g.boundary.items()):
        if nu not in g.s_prime:
            raise AxiomViolated("attachment index %r not in the base shape"
                                % nu)
        for idx in h.shape.indices:
            indices.append(reindex(nu, eps, idx))
            labels[reindex(nu, eps, idx)] = h.shape.labels.get(idx, idx)
        for idx, par in h.shape.parent.items():
            parent[reindex(nu, eps, idx)] = reindex(nu, eps, par)
        parent[reindex(nu, eps, h.shape.root)] = nu
    shape = ShapeTree(tuple(indices), g.s_prime.root, parent, labels)

    b = FragmentBuilder(g.base)
    for (nu, eps), h in sorted(g.boundary.items()):
        b.absorb(h, lambda eta, nu=nu, eps=eps: reindex(nu, eps, eta))

    for (nu, eps), table in sorted(g.connectors.items()):
        if (nu, eps) not in g.boundary:
            raise AxiomViolated("connector %r has no boundary fragment"
                                % ((nu, eps),))
        h = g.boundary[(nu, eps)]
        edge = (nu, reindex(nu, eps, h.shape.root))
        for x, y in table.items():
            if x not in b.level or y not in b.level:
                raise AxiomViolated("connector %r uses unknown node" % (x,))
            if not b.level[y] < b.level[x]:
                raise AxiomViolated(
                    "connector not regressive: %r at %s -> %r at %s"
                    % (x, b.level[x], y, b.level[y]))
        b.gmap[edge] = dict(table)

    return b.freeze(shape, "theta")


# ---------------------------------------------------------------------------
# witness builders


def _constant_fan(count: int, prefix: str, sort_id: str = "r") -> Fragment:
    """count distinct constants sitting as siblings directly above a
    limit root — the canonical constant-budget witness block."""
    root = prefix + "root"
    names = ["%sc%02d" % (prefix, i) for i in range(count)]
    nodes = [root] + names
    z, one = Ordinal(), Ordinal.nat(1)
    level = {root: z}
    level.update({n: one for n in names})
    order = {(root, n) for n in names}
    meet = {tuple(sorted((a, b))): root
            for a, b in itertools.combinations(names, 2)}
    suc = {(root, n): n for n in names}
    pre = {n: root for n in names}
    lim = {root: root}
    lim.update({n: root for n in names})
    constants = {(sort_id, i): n for i, n in enumerate(names)}
    f = Fragment(POINT_SHAPE if sort_id == "r" else
                 ShapeTree((sort_id,), sort_id),
                 tuple(sorted(nodes)),
                 {n: sort_id for n in nodes}, level, order, meet, suc, pre,
                 lim, {}, constants, "theta")
    return complete(f)


def _limit_chain(n_limits: int, prefix: str, sort_id: str = "0"):
    """Chain root < w < w+1 < w*2 < w*2+1 < ...; returns the fragment
    pieces plus the successor-node list."""
    root = prefix + "root"
    level = {root: Ordinal()}
    lim = {root: root}
    pre = {}
    order = set()
    chain = [root]
    sucs = []
    for m in range(1, n_limits + 1):
        l = "%sl%02d" % (prefix, m)
        s = "%ss%02d" % (prefix, m)
        level[l] = Ordinal.omega(1, m)
        level[s] = Ordinal.omega(1, m).plus(1)
        lim[l] = l
        lim[s] = l
        pre[s] = l
        order.add((chain[-1], l))
        order.add((l, s))
        chain += [l, s]
        sucs.append(s)
    return root, chain, sucs, level, order, lim, pre


def build_witness(case: str, **params):
    """A valid fragment and a designated witness subset of its first
    sort with no non-constant indiscernible window at desk parameters.

    cases: "theta" (constants), "singular" (chain base with
    size-threshold and position connectors), "regular" (meet-closed
    tree sample with limit-indexed connector), "inaccessible"
    (guess-sequence tree glued on, with per-class connector targets).
    """
    if case == "theta":
        count = params.get("theta_bound", 8)
        f = _constant_fan(count, "t_")
        a = sorted(n for (s, i), n in f.constants.items())
        return f, a

    if case == "singular":
        lambdas = tuple(params.get("lambdas", (3, 5)))
        n_limits = params.get("n_limits", sum(lambdas))
        sub_a = params.get("sub_a") or _constant_fan(len(lambdas), "a_")
        sub_b = params.get("sub_b") or _constant_fan(n_limits, "b_")
        a_names = sorted(n for k, n in sub_a.constants.items())
        b_names = sorted(n for k, n in sub_b.constants.items())
        if len(a_names) < len(lambdas):
            raise InsufficientSubwitness("need %d size-threshold targets"
                                         % len(lambdas))
        if len(b_names) < n_limits:
            raise InsufficientSubwitness("need %d position targets"
                                         % n_limits)
        root, chain, sucs, level, order, lim, pre = \
            _limit_chain(n_limits, "k_")
        base = Fragment(POINT_SHAPE, tuple(sorted(chain)),
                        {n: "r" for n in chain}, level, order, {}, {}, pre,
                        lim, {}, {}, "theta")
        base = complete(base)
        cum = list(itertools.accumulate(lambdas))
        conn0 = {}
        conn1 = {}
        for m, s in enumerate(sucs):
            j = next(i for i, c in enumerate(cum) if m < c)
            conn0[s] = a_names[j]
            conn1[s] = b_names[m]
        g = GlueSpec(POINT_SHAPE, base,
                     {("r", 0): sub_a, ("r", 1): sub_b},
                     {("r", 0): conn0, ("r", 1): conn1})
        return star_construct(g), sucs

    if case == "regular":
        branches = params.get("branches", 2)
        fan = params.get("fan", 2)
        sub_a = params.get("sub_a") or _constant_fan(3, "a_")
        a_names = sorted(n for k, n in sub_a.constants.items())
        if len(a_names) < 2:
            raise InsufficientSubwitness("need targets for two limit levels")
        # meet-closed sample of a branching tree with levels 0,1,w,w+1
        root = "f_root"
        level = {root: Ordinal()}
        lim = {root: root}
        pre = {}
        order = set()
        nodes = [root]
        low = []
        tops = []
        for b in range(branches):
            s = "f_s%d" % b
            l = "f_l%d" % b
            level[s] = Ordinal.nat(1)
            level[l] = Ordinal.omega()
            lim[s] = root
            lim[l] = l
            pre[s] = root
            order |= {(root, s), (s, l)}
            nodes += [s, l]
            low.append(s)
            for j in range(fan):
                t = "f_t%d%d" % (b, j)
                level[t] = Ordinal.omega().plus(1)
                lim[t] = l
                pre[t] = l
                order.add((l, t))
                nodes.append(t)
                tops.append(t)
        base = Fragment(POINT_SHAPE, tuple(sorted(nodes)),
                        {n: "r" for n in nodes}, level, order, {}, {}, pre,
                        lim, {}, {}, "theta")
        base = complete(base)
        sub_root = sorted(n for n in sub_a.nodes
                          if sub_a.level[n] == Ordinal())[0]
        conn0 = {s: sub_root for s in low}
        conn0.update({t: a_names[1] for t in tops})
        g = GlueSpec(POINT_SHAPE, base, {("r", 0): sub_a}, {("r", 0): conn0})
        return star_construct(g), sorted(low + tops)

    if case == "inaccessible":
        colors = params.get("colors", 2)
        n_limits = params.get("n_limits", 4)
        p = params.get("p")
        if p is None:
            from .partition import Coloring
            levels = [Ordinal()]
            for m in range(1, n_limits + 1):
                levels += [Ordinal.omega(1, m), Ordinal.omega(1, m).plus(1)]
            p = p_from_coloring(Coloring(len(levels), len(levels)), levels)
        sl = p.suc_lim()
        classes = sorted({p.e[x] for x in sl})
        sub = params.get("sub") or _constant_fan(len(classes), "a_")
        a_names = sorted(n for k, n in sub.constants.items())
        if len(a_names) < len(classes):
            raise InsufficientSubwitness(
                "need one target per class, %d classes" % len(classes))
        q, ids = q_enumerate(p, min(2, len(sl)), colors)
        # two-sort base: the triple's chain and the guess-sequence tree
        shape2 = chain_shape(2)
        b = FragmentBuilder()
        b.absorb(p.tree, lambda eta: "0")
        b.absorb(q.tree, lambda eta: "1")
        by_node = {}
        for nid, a in ids.items():
            by_node[(a.eta, tuple(sorted((i, tuple(sorted(g.eqs.items())))
                                         for i, g in a.gammas.items())))] = nid
        root_q = next(nid for nid, a in ids.items() if a.lg == 0)
        g01 = {}
        for x in p.tree.nodes:
            if p.tree.sort.get(x) is None:
                continue
            lv = p.tree.level[x]
            if lv.is_limit:
                continue
            if x in sl and lv.mod_omega() == 1:
                a = lift_element(p, x, colors)
                key = (a.eta, tuple(sorted(
                    (i, tuple(sorted(g.eqs.items())))
                    for i, g in a.gammas.items())))
                nid = by_node.get(key)
                if nid is None or not q.tree.level[nid] < lv:
                    nid = root_q
                g01[x] = nid
            else:
                g01[x] = root_q
        b.gmap[("0", "1")] = g01
        base = complete(b.freeze(shape2, "theta"))
        conn = {}
        for x in sl:
            conn[x] = a_names[classes.index(p.e[x])]
        g = GlueSpec(shape2, base, {("0", 1): sub}, {("0", 1): conn})
        return star_construct(g), list(sl)

    raise ValueError("unknown case %r" % case)


def build_control(size: int = 6) -> tuple[Fragment, list[str]]:
    """Unconstrained control: a plain sibling fan of the same size,
    which does contain indiscernible windows."""
    root = "u_root"
    names = ["u_n%02d" % i for i in range(size)]
    z, one = Ordinal(), Ordinal.nat(1)
    level = {root: z}
    level.update({n: one for n in names})
    f = Fragment(POINT_SHAPE, tuple(sorted([root] + names)),
                 {n: "r" for n in [root] + names}, level,
                 {(root, n) for n in names}, {}, {}, {n: root for n in names},
                 {root: root, **{n: root for n in names}}, {}, {}, "theta")
    return complete(f), names
