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
the guess-sequence tree), plus an unconstrained control.  Their
single-sort trees are given by levels, order edges and, for the
constant fan, constants; `complete` declares their lim, pre, suc and
meet tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import BadArgument, TreedeskError
from .ordinal import Ordinal
from .shape import ShapeTree, POINT_SHAPE, chain_shape
from .structure import Fragment, FragmentBuilder, complete, validate
from .partition import (Coloring, _qnode_key, lift_element, p_from_coloring,
                        q_enumerate)


class DisjointnessViolated(TreedeskError, ValueError):
    pass


class AxiomViolated(TreedeskError, ValueError):
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


def _tree(levels: dict[str, Ordinal], order, constants=None) -> Fragment:
    """The completed single-sort theta-mode tree on the given levels and
    order edges; completion declares its lim, pre, suc and meet tables."""
    return complete(Fragment(POINT_SHAPE, levels, dict.fromkeys(levels, "r"),
                             levels, order, constants=constants,
                             mode="theta"))


def _constant_fan(count: int, prefix: str) -> Fragment:
    """count distinct constants sitting as siblings directly above a
    limit root — the canonical constant-budget witness block."""
    root = prefix + "root"
    names = ["%sc%02d" % (prefix, i) for i in range(count)]
    levels = {root: Ordinal(), **dict.fromkeys(names, Ordinal.nat(1))}
    return _tree(levels, {(root, n) for n in names},
                 {("r", i): n for i, n in enumerate(names)})


def _limit_chain(n_limits: int, prefix: str):
    """Chain root < w < w+1 < w*2 < w*2+1 < ...; returns its levels,
    its covering order edges and the successor-node list."""
    top = prefix + "root"
    levels = {top: Ordinal()}
    edges = set()
    sucs = []
    for m in range(1, n_limits + 1):
        l = "%sl%02d" % (prefix, m)
        s = "%ss%02d" % (prefix, m)
        levels[l] = Ordinal.omega(1, m)
        levels[s] = Ordinal.omega(1, m).plus(1)
        edges |= {(top, l), (l, s)}
        top = s
        sucs.append(s)
    return levels, edges, sucs


def build_witness(case: str, *, theta_bound: int = 8,
                  lambdas=(3, 5), branches: int = 2, fan: int = 2):
    """A valid fragment and a designated witness subset of its first
    sort with no non-constant indiscernible window at desk parameters.

    cases: "theta" (`theta_bound` constants), "singular" (chain base
    with size-threshold and position connectors, a block of limits of
    each size in `lambdas`), "regular" (meet-closed tree sample with
    limit-indexed connector, `branches` branches of `fan` tops each),
    "inaccessible" (guess-sequence tree glued on, with per-class
    connector targets).
    """
    if case == "theta":
        f = _constant_fan(theta_bound, "t_")
        a = sorted(n for (s, i), n in f.constants.items())
        return f, a

    if case == "singular":
        lambdas = tuple(lambdas)
        n_limits = sum(lambdas)
        sub_a = _constant_fan(len(lambdas), "a_")
        sub_b = _constant_fan(n_limits, "b_")
        a_names = sorted(n for k, n in sub_a.constants.items())
        b_names = sorted(n for k, n in sub_b.constants.items())
        levels, edges, sucs = _limit_chain(n_limits, "k_")
        base = _tree(levels, edges)
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
        sub_a = _constant_fan(3, "a_")
        a_names = sorted(n for k, n in sub_a.constants.items())
        # meet-closed sample of a branching tree with levels 0,1,w,w+1
        root = "f_root"
        levels = {root: Ordinal()}
        edges = set()
        low = []
        tops = []
        for b in range(branches):
            s = "f_s%d" % b
            l = "f_l%d" % b
            levels[s] = Ordinal.nat(1)
            levels[l] = Ordinal.omega()
            edges |= {(root, s), (s, l)}
            low.append(s)
            for j in range(fan):
                t = "f_t%d%d" % (b, j)
                levels[t] = Ordinal.omega().plus(1)
                edges.add((l, t))
                tops.append(t)
        base = _tree(levels, edges)
        sub_root = sorted(n for n in sub_a.nodes
                          if sub_a.level[n] == Ordinal())[0]
        conn0 = {s: sub_root for s in low}
        conn0.update({t: a_names[1] for t in tops})
        g = GlueSpec(POINT_SHAPE, base, {("r", 0): sub_a}, {("r", 0): conn0})
        return star_construct(g), sorted(low + tops)

    if case == "inaccessible":
        # the triple of the all-zero coloring on 0 and w*m, w*m+1 for
        # m = 1..4, and its guess-sequence tree in two colors
        levels = [Ordinal()]
        for m in range(1, 5):
            levels += [Ordinal.omega(1, m), Ordinal.omega(1, m).plus(1)]
        p = p_from_coloring(Coloring(len(levels), len(levels)), levels)
        sl = p.suc_lim()
        classes = sorted({p.e[x] for x in sl})
        sub = _constant_fan(len(classes), "a_")
        a_names = sorted(n for k, n in sub.constants.items())
        q, ids = q_enumerate(p, min(2, len(sl)), 2)
        # two-sort base: the triple's chain and the guess-sequence tree
        shape2 = chain_shape(2)
        b = FragmentBuilder()
        b.absorb(p.tree, lambda eta: "0")
        b.absorb(q.tree, lambda eta: "1")
        by_node = {_qnode_key(a): nid for nid, a in ids.items()}
        root_q = next(nid for nid, a in ids.items() if a.lg == 0)
        g01 = {}
        for x in p.tree.nodes:
            if p.tree.sort.get(x) is None:
                continue
            lv = p.tree.level[x]
            if lv.is_limit:
                continue
            if x in sl and lv.mod_omega() == 1:
                nid = by_node.get(_qnode_key(lift_element(p, x)))
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

    raise BadArgument("unknown case %r" % case)


def build_control(size: int = 6) -> tuple[Fragment, list[str]]:
    """Unconstrained control: a plain sibling fan of the same size,
    which does contain indiscernible windows."""
    root = "u_root"
    names = ["u_n%02d" % i for i in range(size)]
    levels = {root: Ordinal(), **dict.fromkeys(names, Ordinal.nat(1))}
    return _tree(levels, {(root, n) for n in names}), names
